// perfbench: the measuring half of the repository benchmark.
//
//   perfbench --workload <paper-kernels|serve-cold>
//             --seed <n> --seconds <s> --trace <0|1> --threads <n>
//             --out <file.json>
//
// Runs one workload and writes its raw samples, values, checks and (when
// tracing) spans to --out. perfbench/run.py builds this binary, pins the
// environment and turns the raw record into metrics.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "codegen/native_module.h"
#include "perfbench.h"

namespace {

// FIXFUSE_* knobs that change the measured program. run.py records and
// removes them; running with one set would measure a different program.
constexpr const char* kPinnedKnobs[] = {
    "FIXFUSE_INTERP",       "FIXFUSE_PARALLEL", "FIXFUSE_PARALLEL_THRESHOLD",
    "FIXFUSE_ENGINE_CACHE", "FIXFUSE_CACHE_DIR", "FIXFUSE_CC",
    "FIXFUSE_CFLAGS",       "FIXFUSE_NATIVE_VERIFY"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --threads <n> --out <file>\n",
               why);
  return 2;
}

fixfuse::support::Json hostFingerprint() {
  using fixfuse::support::Json;
  Json h = Json::object();
  h.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .set("l1d_bytes", static_cast<std::int64_t>(sysconf(_SC_LEVEL1_DCACHE_SIZE)))
      .set("l2_bytes", static_cast<std::int64_t>(sysconf(_SC_LEVEL2_CACHE_SIZE)))
      .set("l3_bytes", static_cast<std::int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE)))
      .set("host_compiler", fixfuse::codegen::hostCompilerCommand())
      .set("host_compiler_id", fixfuse::codegen::hostCompilerAvailable()
                                   ? fixfuse::codegen::hostCompilerId()
                                   : std::string("unavailable"));
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload")
      o.workload = val;
    else if (key == "--seed")
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds")
      o.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace")
      o.trace = val == "1";
    else if (key == "--threads")
      o.threads = static_cast<unsigned>(std::strtoul(val.c_str(), nullptr, 10));
    else if (key == "--setup-only")
      o.setupOnly = val == "1";
    else if (key == "--out")
      out = val;
    else
      return usage(("unknown option " + key).c_str());
  }
  if (out.empty() || o.workload.empty() || o.seconds <= 0 || o.threads < 2)
    return usage("missing or invalid option");
  for (const char* knob : kPinnedKnobs)
    if (std::getenv(knob))
      return usage((std::string(knob) + " is set; run through perfbench/run.py")
                       .c_str());
  if (!fixfuse::codegen::hostCompilerAvailable())
    return usage("no host compiler: the native paths cannot be measured");

  if (o.trace) perfbench::Span::enable();
  perfbench::Result r;
  try {
    if (o.workload == "paper-kernels")
      perfbench::runPaperKernels(o, r);
    else if (o.workload == "serve-cold")
      perfbench::runServeCold(o, r);
    else
      return usage(("unknown workload " + o.workload).c_str());
  } catch (const std::exception& e) {
    r.violate(std::string("uncaught exception: ") + e.what());
  }

  // Read before building the output, which grows with the sample count.
  const double peakRss = perfbench::peakRssMb();
  fixfuse::support::Json doc = r.json();
  doc.set("workload", o.workload)
      .set("seed", o.seed)
      .set("seconds", o.seconds)
      .set("trace", o.trace)
      .set("peak_rss_mb", peakRss)
      .set("host", hostFingerprint());
  if (o.trace) doc.set("spans", perfbench::Span::drain());
  std::ofstream f(out);
  f << doc.str() << "\n";
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    return 2;
  }
  return r.failed() == 0 ? 0 : 1;
}
