// paper-kernels: the generated code of the four Fig. 1 kernels, run
// natively with no daemon in the way.
//
// Each kernel's `seq` text goes through processEngine().compileText at
// the tile the planner itself suggests (plan().tile.suggestedTile, read
// from an untiled compile first), so a tile-selection change is what
// this workload measures. Every program runs once bit-verified against
// bytecode at a small size during set-up; the timed runs at N=714 then
// use NativeExecutor(verify=false) and are each compared bitwise with
// the hand-written kernels::native::*Seq oracle.
#include <cmath>
#include <cstring>
#include <optional>

#include "../../bench/bench_util.h"
#include "codegen/emit_c.h"
#include "codegen/module_cache.h"
#include "codegen/native_module.h"
#include "deps/cache.h"
#include "engine/engine.h"
#include "ir/parse.h"
#include "ir/printer.h"
#include "kernels/common.h"
#include "kernels/native.h"
#include "perfbench.h"
#include "pipeline/native_exec.h"
#include "planner/planner.h"

namespace perfbench {

namespace fk = fixfuse::kernels;
namespace native = fixfuse::kernels::native;
using fixfuse::interp::Machine;

namespace {

// 714 = 238 * 3 is the smallest paper sweep point (200 + multiples of
// 238) whose matrix, 715^2 doubles = 4.1 MB, exceeds a 2 MiB per-core L2.
constexpr std::int64_t kN = 714;
constexpr std::int64_t kJacobiM = 40;
// The verified (bytecode-compared) set-up run spans a few tiles (N =
// 2 * tile + 7) yet stays small enough for the bytecode reference.
constexpr std::int64_t kVerifyM = 4;
// The traced run's cache simulation (bytecode + simulator, so small).
constexpr std::int64_t kSimN = 120;
constexpr std::int64_t kSimM = 4;
constexpr int kMinRounds = 3;
constexpr int kParallelReps = 3;

enum class Variant { Seq, Tiled, Parallel };

const char* variantName(Variant v) {
  switch (v) {
    case Variant::Seq: return "seq";
    case Variant::Tiled: return "tiled";
    case Variant::Parallel: return "parallel";
  }
  return "?";
}

struct Kernel {
  std::string name;
  bool jacobi = false;
  bool parallel = false;  // Cholesky and Jacobi have a wave schedule
  std::optional<fixfuse::engine::CompiledProgram> cp;
  std::map<std::string, std::int64_t> params;
  native::Matrix a0, x0;      // inputs (x0: QR's X / Jacobi's L)
  native::Matrix refA, refX;  // oracle outputs
};

native::Matrix inputMatrix(const std::string& name, std::int64_t n,
                           std::uint64_t seed) {
  if (name == "cholesky") return native::spdMatrix(n, seed);
  if (name == "qr") return native::randomMatrix(n, seed, 0.5, 1.5);
  return native::randomMatrix(n, seed);
}

/// The oracle: the hand-written Fig. 1 transcription, independent of the
/// IR, the planner and codegen.
void runOracle(const std::string& name, double* a, double* x, std::int64_t n,
               std::int64_t m) {
  if (name == "lu") native::luSeqFull(a, n);
  if (name == "qr") native::qrSeq(a, x, n);
  if (name == "cholesky") native::cholSeq(a, n);
  if (name == "jacobi") native::jacobiSeq(a, x, n, m);
}

void oracle(Kernel& k, std::int64_t n, std::int64_t m) {
  k.refA = k.a0;
  k.refX = k.x0;
  runOracle(k.name, k.refA.data(), k.refX.data(), n, m);
}

const char* secondArray(const Kernel& k) { return k.jacobi ? "L" : "X"; }

bool bitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::function<void(Machine&)> initFrom(const Kernel& k,
                                       const native::Matrix& a,
                                       const native::Matrix& x) {
  const char* second = secondArray(k);
  return [&a, &x, second](Machine& m) {
    m.array("A").data() = a;
    if (m.hasArray(second)) m.array(second).data() = x;
  };
}

/// Compare the arrays the oracle produces: A, plus QR's X (the seq
/// program's L for Jacobi is a scratch copy the tiled program replaces).
bool matchesOracle(const Kernel& k, const Machine& m) {
  if (!bitwiseEqual(m.array("A").data(), k.refA)) return false;
  if (k.name == "qr" && m.hasArray("X"))
    return bitwiseEqual(m.array("X").data(), k.refX);
  return true;
}

const fixfuse::ir::Program& programOf(const Kernel& k, Variant v) {
  return v == Variant::Seq ? k.cp->seq() : k.cp->tiled();
}

fixfuse::pipeline::NativeExecOptions execOptions(const Kernel& k, Variant v,
                                                 unsigned workers) {
  fixfuse::pipeline::NativeExecOptions eo;
  if (v == Variant::Parallel) {
    eo.parallel = &k.cp->plan().tile.parallel;
    eo.workers = workers;
  }
  return eo;
}

const char* expectedBackend(Variant v) {
  return v == Variant::Parallel ? "parallel-native" : "native";
}

void setUp(Kernel& k, std::uint64_t rid, const Options& o, Result& r) {
  Span kernelSpan("kernel." + k.name, rid);
  // The bundle supplies the sequential text only. LU with the Fig. 1
  // partial row swap has no legal k-tiling; a tiled bundle's
  // tiledBaseline is LU with full-row swaps, the sequential program LU is
  // compiled from here.
  fk::KernelOptions ko;
  ko.tile = k.name == "lu" ? 8 : 0;
  const fk::KernelBundle bundle = fk::buildKernel(k.name, ko);
  const std::string text = fixfuse::ir::printProgram(
      k.name == "lu" ? bundle.tiledBaseline : bundle.seq);
  const fixfuse::poly::ParamContext ctx = fk::kernelContext(k.jacobi);
  fixfuse::engine::Engine& eng = fixfuse::engine::processEngine();

  if (o.trace) {
    Span s("planner.plan");
    fixfuse::planner::planProgram(fixfuse::ir::parseProgram(text), ctx);
  }
  const std::int64_t tile =
      tracedCompile(r, [&] { return eng.compileText(text, ctx); })
          .plan()
          .tile.suggestedTile;
  fixfuse::engine::CompileOptions co;
  co.tile = tile;
  k.cp = tracedCompile(r, [&] { return eng.compileText(text, ctx, co); });
  r.value("tile." + k.name, static_cast<double>(tile));
  if (o.trace) {
    Span s("codegen.emit");
    fixfuse::codegen::EmitOptions eo;
    eo.nativeEntry = true;
    fixfuse::codegen::emitC(k.cp->tiled(), eo);
  }
  if (k.parallel && !k.cp->plan().tile.parallel.legal())
    r.violate(k.name + ": no provably legal wave schedule (" +
              k.cp->plan().tile.parallel.reason + ")");

  // One verified run per program at a small size: compiles (and caches)
  // every module the timed runs use, bit-compared against bytecode.
  const std::int64_t verifyN = 2 * tile + 7;
  Kernel small = k;
  small.params = {{"N", verifyN}};
  if (k.jacobi) small.params["M"] = kVerifyM;
  small.a0 = inputMatrix(k.name, verifyN, 1000 + rid);
  small.x0.assign(native::matrixSize(verifyN), 0.0);
  oracle(small, verifyN, kVerifyM);
  const fixfuse::pipeline::NativeExecutor verified(/*verify=*/true);
  for (Variant v : {Variant::Seq, Variant::Tiled, Variant::Parallel}) {
    if (v == Variant::Parallel && !k.parallel) continue;
    Span s(std::string("exec.verify.") + variantName(v));
    fixfuse::pipeline::NativeRunReport rep;
    const Machine m = verified.execute(programOf(k, v), small.params,
                                       initFrom(small, small.a0, small.x0),
                                       &rep, execOptions(k, v, o.threads));
    r.check(rep.verified && rep.backend == expectedBackend(v),
            k.name + "." + variantName(v) + ": verified set-up run used " +
                rep.backend + (rep.verified ? "" : " unverified"));
    r.check(matchesOracle(small, m),
            k.name + "." + variantName(v) + ": differs from the oracle at N=" +
                std::to_string(verifyN));
    if (!rep.compileCached) r.sample("codegen.cc", rep.compileSeconds);
    r.sample("interp.verify", rep.bytecodeSeconds);
  }

  // Timed-size inputs from the seed, and the oracle's answer.
  k.params = {{"N", kN}};
  if (k.jacobi) k.params["M"] = kJacobiM;
  k.a0 = inputMatrix(k.name, kN, o.seed * 16 + rid);
  k.x0.assign(native::matrixSize(kN), 0.0);
  Span s("oracle");
  oracle(k, kN, kJacobiM);
}

/// One run of the hand-written oracle on the timed inputs: the in-run
/// reference the generated code's times are taken relative to.
void oracleRun(const Kernel& k, std::uint64_t rid, Result& r) {
  native::Matrix a = k.a0, x = k.x0;
  Span s("exec.oracle", rid);
  const double t0 = now();
  runOracle(k.name, a.data(), x.data(), kN, kJacobiM);
  r.sample(k.name + ".oracle", now() - t0);
}

void timedRun(const Kernel& k, Variant v, std::uint64_t rid, unsigned workers,
              Result& r) {
  static const fixfuse::pipeline::NativeExecutor executor(/*verify=*/false);
  const std::string what = k.name + "." + variantName(v);
  Span s("exec." + std::string(variantName(v)), rid);
  fixfuse::pipeline::NativeRunReport rep;
  const Machine m = executor.execute(programOf(k, v), k.params,
                                     initFrom(k, k.a0, k.x0), &rep,
                                     execOptions(k, v, workers));
  if (!rep.compileCached)
    r.violate(what + ": timed run compiled its module");
  r.check(rep.backend == expectedBackend(v),
          what + ": ran on " + rep.backend);
  r.check(matchesOracle(k, m), what + ": output differs from the oracle");
  r.sample(what, rep.nativeSeconds);
  r.sample("exec.native", rep.nativeSeconds);
  if (v == Variant::Parallel) {
    r.value("exec.waves." + k.name, static_cast<double>(rep.waves));
    r.value("exec.grains." + k.name, static_cast<double>(rep.grains));
  }
}

/// Simulated L1/L2 misses of the tiled program and its traffic against
/// the Dinh-Demmel lower bound (8 bytes x flops / sqrt(L2 words)), the
/// yardstick bench/microbench uses.
void simulate(const Kernel& k, std::uint64_t rid, Result& r) {
  Span s("sim.simulate", rid);
  std::map<std::string, std::int64_t> params{{"N", kSimN}};
  if (k.jacobi) params["M"] = kSimM;
  std::map<std::string, native::Matrix> init{
      {"A", inputMatrix(k.name, kSimN, rid)}};
  const fixfuse::sim::CacheConfig l2 = fixfuse::sim::CacheConfig::octane2L2();
  const fixfuse::sim::PerfCounts c =
      fixfuse::bench::simulate(k.cp->tiled(), params, init);
  const double bytes = static_cast<double>(c.l2Misses) * l2.lineBytes;
  const double bound = 8.0 * static_cast<double>(c.flops) /
                       std::sqrt(static_cast<double>(l2.sizeBytes) / 8.0);
  r.value("sim." + k.name + ".l1_misses", static_cast<double>(c.l1Misses));
  r.value("sim." + k.name + ".l2_misses", static_cast<double>(c.l2Misses));
  r.value("sim." + k.name + ".traffic_ratio", bound > 0 ? bytes / bound : 0);
}

}  // namespace

void runPaperKernels(const Options& o, Result& r) {
  const std::uint64_t compiles0 = fixfuse::codegen::hostCompileCount();
  const fixfuse::deps::DepCacheStats deps0 = fixfuse::deps::depCacheStats();
  std::vector<Kernel> kernels;
  for (const char* name : {"lu", "qr", "cholesky", "jacobi"}) {
    Kernel k;
    k.name = name;
    k.jacobi = k.name == "jacobi";
    k.parallel = k.name == "cholesky" || k.jacobi;
    kernels.push_back(std::move(k));
  }
  for (std::size_t i = 0; i < kernels.size(); ++i)
    setUp(kernels[i], i + 1, o, r);
  const fixfuse::deps::DepCacheStats deps = fixfuse::deps::depCacheStats();
  r.value("deps.queries", static_cast<double>(deps.queries - deps0.queries));
  r.value("deps.hits", static_cast<double>(deps.hits - deps0.hits));

  const std::uint64_t compilesTimed0 = fixfuse::codegen::hostCompileCount();
  const double start = now();
  r.setSetupSeconds(start);
  if (o.setupOnly) return;
  const double deadline = start + o.seconds;
  int rounds = 0;
  for (; rounds < kMinRounds || now() < deadline; ++rounds)
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      oracleRun(kernels[i], i + 1, r);
      for (Variant v : {Variant::Seq, Variant::Tiled})
        timedRun(kernels[i], v, i + 1, o.threads, r);
    }
  r.value("timed_s", now() - start);
  r.value("rounds", rounds);

  if (o.trace) {
    // The wave schedules run only here, a few times each: Cholesky's
    // takes thousands of pool barriers per run, and a barrier can hang
    // (the wave latch is notified after its waiter may have returned).
    for (int rep = 0; rep < kParallelReps; ++rep)
      for (std::size_t i = 0; i < kernels.size(); ++i)
        if (kernels[i].parallel)
          timedRun(kernels[i], Variant::Parallel, i + 1, o.threads, r);
    for (std::size_t i = 0; i < kernels.size(); ++i)
      simulate(kernels[i], i + 1, r);
  }
  if (fixfuse::codegen::hostCompileCount() != compilesTimed0)
    r.violate("the timed runs invoked the host compiler");
  const fixfuse::support::CacheStats plan =
      fixfuse::engine::processEngine().cacheStats();
  const fixfuse::support::CacheStats mod =
      fixfuse::codegen::processModuleCache().stats();
  r.value("engine.hits", static_cast<double>(plan.hits));
  r.value("engine.misses", static_cast<double>(plan.misses));
  r.value("codegen.module_hits", static_cast<double>(mod.hits));
  r.value("codegen.module_misses", static_cast<double>(mod.misses));
  r.value("codegen.host_compiles",
          static_cast<double>(fixfuse::codegen::hostCompileCount() - compiles0));
}

}  // namespace perfbench
