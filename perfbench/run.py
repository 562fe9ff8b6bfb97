#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ (the fixfuse libraries plus
the workload driver) from source, runs one workload, checks its outputs
and prints every metric.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --steadiness 5 [--workload NAME] [--seconds S]

The last line of a single run is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. The lines above it
restate them by name with units and sample counts, next to the seed, the
workload's purpose, the pinned environment and a host fingerprint.

--steadiness K runs each workload K times untraced (seeds 1..K) and once
traced, and prints the median, quartiles and coefficient of variation of
every end-to-end metric plus the tracing overhead. Seeds from 1000 up are
held out: tune on 1..K, confirm a claim on a held-out seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

KERNELS = ("lu", "qr", "cholesky", "jacobi")

# FIXFUSE_* knobs that change the measured program: recorded, then
# removed from the driver's environment (FIXFUSE_CACHE_DIR unset keeps
# serve-cold cold from run to run). FIXFUSE_NATIVE_VERIFY=0 is refused:
# it would serve unverified runs.
PINNED_KNOBS = (
    "FIXFUSE_INTERP", "FIXFUSE_PARALLEL", "FIXFUSE_PARALLEL_THRESHOLD",
    "FIXFUSE_ENGINE_CACHE", "FIXFUSE_CACHE_DIR", "FIXFUSE_CC",
    "FIXFUSE_CFLAGS", "FIXFUSE_NATIVE_VERIFY",
)
FALSY = ("0", "false", "no", "off")

# Median time (ms) of each hand-written oracle (kernels::native::*Seq at
# N=714) on the reference host, a 4-vCPU Xeon VM with cc 12.2.
# paper-kernels times are memory-bound and drift with the host's other
# load, so each run times the oracle beside the generated code and
# reports reference-host ms: the same-round ratio to the oracle times
# this constant.
ORACLE_REF_MS = {"lu": 75.0, "qr": 190.0, "cholesky": 33.0, "jacobi": 34.0}

# Set-up is repeated in fresh processes and the median reported.
SETUPS = 3
# All driver processes of one run, after the build, end within this.
RUN_BUDGET_S = 170


class BenchError(Exception):
    """The benchmark cannot run: nothing is printed as a result."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def pinned_env():
    """(environment for the driver, record of the knobs found)."""
    env = dict(os.environ)
    found = {k: env.pop(k) for k in PINNED_KNOBS if k in env}
    verify = found.get("FIXFUSE_NATIVE_VERIFY")
    if verify is not None and verify.strip().lower() in FALSY:
        raise BenchError("FIXFUSE_NATIVE_VERIFY=%s would serve unverified "
                         "runs; unset it" % verify)
    return env, found


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(env):
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no fixfuse sources under {ROOT / 'src'}")
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd, env)
    run_build_step(["cmake", "--build", str(bdir), "--target", "perfbench",
                    "-j", jobs], env)
    return bdir / "perfbench"


def run_build_step(cmd, env):
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build step {cmd[:2]} failed: {e}")
    if done.returncode != 0:
        raise BenchError(f"build step {' '.join(cmd[:3])} exited "
                         f"{done.returncode}")


def run_driver(binary, env, workload, seed, seconds, trace, setup_only=False,
               deadline=None):
    """Run the driver once in a fresh scratch directory inside the build
    tree, killing it at `deadline` (monotonic seconds); returns (raw
    record, exit code)."""
    timeout = RUN_BUDGET_S if deadline is None else deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"run exceeded {RUN_BUDGET_S} s")
    rundir = build_dir() / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    out = rundir / "result.json"
    denv = dict(env, TMPDIR=str(rundir))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--threads", str(min(4, os.cpu_count() or 1)),
           "--setup-only", "1" if setup_only else "0", "--out", str(out)]
    try:
        done = subprocess.run(cmd, cwd=rundir, env=denv, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
        if not out.is_file():
            raise BenchError(f"driver exited {done.returncode} without a "
                             "result")
        return json.loads(out.read_text()), done.returncode
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver did not finish within {timeout:.0f} s")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


# --- metrics ------------------------------------------------------------------

def med(raw, name):
    return stats.median(raw["samples"].get(name, []))


def count(raw, name):
    return len(raw["samples"].get(name, []))


def paired(raw, k, variant, base):
    """Per-round ratios of `variant` to `base` runs of kernel k (each
    round runs the oracle, seq and tiled back to back)."""
    s = raw["samples"]
    return [t / b for b, t in zip(s[f"{k}.{base}"], s[f"{k}.{variant}"])]


def reference_ms(raw, k, variant):
    """Median reference-host ms of kernel k's `variant` runs."""
    return stats.median(paired(raw, k, variant, "oracle")) * ORACLE_REF_MS[k]


def end_to_end(raw, setup_s):
    """The end-to-end metrics. Every workload reports the same names;
    primary_ms and secondary_ms are its two headline latencies:
      paper-kernels  tiled() and seq() serial native runs, each the
                     geomean over the four kernels of their median
                     reference-host ms; ops_per_s counts those runs per
                     reference-host second
      serve-cold     p50 of novel programs (compile + first run) and of
                     repeats of served programs
    """
    w, s = raw["workload"], raw["samples"]
    timed = raw["values"]["timed_s"]
    if w == "paper-kernels":
        runs = [(k, r) for k in KERNELS for v in ("seq", "tiled")
                for r in paired(raw, k, v, "oracle")]
        ref_seconds = sum(r * ORACLE_REF_MS[k] / 1e3 for k, r in runs)
        return {
            "setup_s": setup_s,
            "peak_rss_mb": raw["peak_rss_mb"],
            "ops_per_s": len(runs) / ref_seconds,
            "primary_ms": stats.geomean([reference_ms(raw, k, "tiled")
                                         for k in KERNELS]),
            "secondary_ms": stats.geomean([reference_ms(raw, k, "seq")
                                           for k in KERNELS]),
        }
    ops = 2 * count(raw, "cold.novel") + count(raw, "cold.repeat")
    primary, secondary = med(raw, "cold.novel"), med(raw, "cold.repeat")
    return {
        "setup_s": setup_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "ops_per_s": ops / timed,
        "primary_ms": primary * 1e3,
        "secondary_ms": secondary * 1e3,
    }


def tail(values, p):
    v = stats.percentile(values, p)
    return "n/a (fewer than %d samples beyond)" % stats.MIN_BEYOND \
        if v is None else "%.4f" % (v * 1e3)


def workload_figures(raw):
    """The workload's own figures by name, with sample counts (printed,
    not part of the JSON line)."""
    w, s = raw["workload"], raw["samples"]
    lines = []
    if w == "paper-kernels":
        for k in KERNELS:
            for v in ("oracle", "seq", "tiled", "parallel"):
                if count(raw, f"{k}.{v}"):
                    lines.append(f"{k}.{v}_s = {med(raw, f'{k}.{v}'):.6f} s "
                                 f"(median of {count(raw, f'{k}.{v}')})")
        ratios = [stats.median(paired(raw, k, "seq", "tiled"))
                  for k in KERNELS]
        lines.append("tiled_speedup_geomean = %.4f (same-round seq/tiled "
                     "per kernel: %s)" % (stats.geomean(ratios), ", ".join(
                         "%s %.3f" % kr for kr in zip(KERNELS, ratios))))
        lines.append("generated seq / hand-written oracle: " + ", ".join(
            "%s %.3f" % (k, stats.median(paired(raw, k, "seq", "oracle")))
            for k in KERNELS))
    else:
        novel, rep = s.get("cold.novel", []), s.get("cold.repeat", [])
        lines.append("cold_compile_p50_ms = %.4f ms (n=%d; compile + first "
                     "run)" % (stats.median(novel) * 1e3, len(novel)))
        lines.append("cold_compile_p90_ms = %s ms (n=%d)" % (tail(novel, 90),
                                                             len(novel)))
        lines.append("cold_hit_p50_ms = %.4f ms (n=%d)" % (stats.median(rep) * 1e3,
                                                           len(rep)))
    lines.append("error_rate = %.6f (%d failed of %d attempted)"
                 % (raw["failed"] / max(1, raw["attempted"]), raw["failed"],
                    raw["attempted"]))
    return lines


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(raw):
    """Per-layer metrics of a traced run: span self times (medians),
    driver-side samples and counters. Layers a workload does not reach
    read 0."""
    w, s, v = raw["workload"], raw["samples"], raw["values"]
    selves = stats.self_times_by_name(raw.get("spans", []))

    def span(name):
        return stats.median(selves.get(name, []))

    compiles = v.get("compiles", 0)
    m = {
        "ir.parse_s": span("ir.parse"),
        "engine.hit_s": span("engine.hit"),
        "engine.miss_s": span("engine.miss"),
        "engine.plan_hit_ratio": ratio(v.get("engine.hits", 0),
                                       v.get("engine.hits", 0) +
                                       v.get("engine.misses", 0)),
        "planner.plan_s": span("planner.plan"),
        "planner.strategies_tried": v.get("planner.strategies_tried", 0),
        "planner.rejected": v.get("planner.rejected", 0),
        "pipeline.pass_s": ratio(v.get("pipeline.pass_s", 0), compiles),
        "deps.queries": v.get("deps.queries", 0),
        "deps.cache_hit_ratio": ratio(v.get("deps.hits", 0),
                                      v.get("deps.queries", 0)),
        "poly.fm_eliminations": v.get("poly.fm_eliminations", 0),
        "poly.emptiness_checks": v.get("poly.emptiness_checks", 0),
        "codegen.emit_s": span("codegen.emit"),
        "codegen.cc_s": med(raw, "codegen.cc"),
        "codegen.cc_share": ratio(med(raw, "codegen.cc"),
                                  med(raw, "cold.novel")),
        "codegen.host_compiles": v.get("codegen.host_compiles", 0),
        "codegen.module_hit_ratio": ratio(v.get("codegen.module_hits", 0),
                                          v.get("codegen.module_hits", 0) +
                                          v.get("codegen.module_misses", 0)),
        "codegen.disk_store_s": med(raw, "codegen.disk_store"),
        "codegen.disk_load_s": med(raw, "codegen.disk_load"),
        "exec.native_s": med(raw, "exec.native"),
        "exec.waves": sum(v.get(f"exec.waves.{k}", 0) for k in KERNELS),
        "exec.grains": sum(v.get(f"exec.grains.{k}", 0) for k in KERNELS),
        "interp.verify_s": med(raw, "interp.verify"),
        "server.handle_s": span("server.handle"),
        "server.transport_s": max(0.0, span("client.call") -
                                  span("server.handle")),
        "request.self_s": span("request"),
    }
    for k in KERNELS:
        for variant in ("seq", "tiled", "parallel"):
            m[f"exec.{k}.{variant}_s"] = med(raw, f"{k}.{variant}")
        for c in ("l1_misses", "l2_misses", "traffic_ratio"):
            m[f"sim.{k}.{c}"] = v.get(f"sim.{k}.{c}", 0)
    m["exec.tiled_speedup_geomean"] = (
        stats.geomean([stats.median(paired(raw, k, "seq", "tiled"))
                       for k in KERNELS])
        if w == "paper-kernels" else 0.0)
    # Shares of the cache-hit request latency (serve-cold repeats) that the
    # bytecode verify replay takes.
    lat = s.get("cold.repeat", [])
    p90 = stats.percentile(lat, 90) if lat else None
    m["interp.verify_share"] = ratio(m["interp.verify_s"], stats.median(lat))
    m["interp.verify_share_p90"] = ratio(m["interp.verify_s"], p90 or 0)
    return m


# --- one run ------------------------------------------------------------------

def single_run(args, spec):
    env, found = pinned_env()
    binary = build(env)
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = args.workload
    setups, rcs = [], []
    for _ in range(SETUPS - 1):
        raw, rc = run_driver(binary, env, workload, args.seed, args.seconds,
                             False, setup_only=True, deadline=deadline)
        setups.append(raw["setup_s"])
        rcs.append(rc)
    raw, rc = run_driver(binary, env, workload, args.seed, args.seconds,
                         args.trace, deadline=deadline)
    setups.append(raw["setup_s"])
    rcs.append(rc)
    correct = all(c == 0 for c in rcs) and raw["failed"] == 0 and \
        not raw["invariant_violated"]

    why = next(x["why"] for x in spec["workloads"] if x["name"] == workload)
    print(f"workload {workload} (seed {args.seed}, {args.seconds} s, "
          f"trace {int(args.trace)}): {why}")
    print("pinned environment: " + (", ".join(f"{k}={v!r} removed" for k, v
                                              in sorted(found.items()))
                                    or "no FIXFUSE_* knob set"))
    print("host: " + json.dumps(raw["host"], sort_keys=True))
    for f in raw["failures"]:
        print("FAILED: " + f)
    for line in workload_figures(raw):
        print(line)
    print("setup_s samples: " + ", ".join("%.4f" % x for x in setups))

    key = "per_layer" if args.trace else "end_to_end"
    values = per_layer(raw) if args.trace else \
        end_to_end(raw, stats.median(setups))
    metrics = {}
    for entry in spec[key]:
        name = entry["name"]
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"{name} = {values[name]:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


# --- steadiness ---------------------------------------------------------------

def steadiness(args, spec):
    env, _found = pinned_env()
    binary = build(env)
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in names:
        runs = []
        for seed in range(1, args.steadiness + 1):
            setups = []
            for _ in range(SETUPS - 1):
                raw, _ = run_driver(binary, env, workload, seed, args.seconds,
                                    False, setup_only=True)
                setups.append(raw["setup_s"])
            raw, rc = run_driver(binary, env, workload, seed, args.seconds,
                                 False)
            setups.append(raw["setup_s"])
            ok = ok and rc == 0 and raw["failed"] == 0
            runs.append(end_to_end(raw, stats.median(setups)))
        traced, rc = run_driver(binary, env, workload, 1, args.seconds, True)
        ok = ok and rc == 0 and traced["failed"] == 0
        traced_e2e = end_to_end(traced, traced["setup_s"])
        print(f"\n{workload}: {args.steadiness} untraced runs (seeds 1..."
              f"{args.steadiness}) + 1 traced")
        print("%-14s %12s %12s %12s %9s %7s %7s %10s" % (
            "metric", "median", "q1", "q3", "iqr/med", "cv", "bound",
            "trace_ovh"))
        for name in bounds:
            values = [r[name] for r in runs]
            med_, q1, q3, iqr, cv = stats.spread(values)
            flag = "" if iqr < bounds[name] / 3 or name == "setup_s" else \
                "  <- spread above bound/3"
            print("%-14s %12.6g %12.6g %12.6g %9.4f %7.4f %7.3f %+9.1f%%%s" % (
                name, med_, q1, q3, iqr, cv, bounds[name],
                100 * (traced_e2e[name] / med_ - 1) if med_ else 0, flag))
            print("%-14s %s" % ("", " ".join("%.4g" % x for x in values)))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="K")
    args = ap.parse_args()
    try:
        spec = load_spec()
        known = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in known:
            raise BenchError(f"unknown workload {args.workload!r}; one of "
                             f"{', '.join(known)}")
        if args.steadiness:
            if args.steadiness < 2:
                raise BenchError("--steadiness needs K >= 2")
            return steadiness(args, spec)
        if args.workload is None:
            raise BenchError("--workload is required")
        return single_run(args, spec)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
