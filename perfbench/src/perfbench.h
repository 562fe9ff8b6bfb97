// Shared pieces of the benchmark driver: run options, the raw result a
// workload hands back to perfbench/run.py, and the span tracer.
//
// The driver measures; run.py turns the raw samples into metrics. A
// workload records
//   - samples: named lists of seconds (one entry per timed operation),
//   - values:  named scalars (counters, ratios, simulator counts),
//   - checks:  every output check it made, and the reason of each failure,
// and, in a traced run, the spans placed around its own calls into each
// fixfuse layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "support/json.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Worker threads a workload may use beside the main thread (clients +
  /// server workers, or the parallel-native pool); <= nproc.
  unsigned threads = 4;
  /// Stop after set-up (run.py repeats set-up in fresh processes and
  /// reports the median).
  bool setupOnly = false;
};

/// Seconds since the process started (steady clock).
double now();

/// Everything one workload run measured. Thread-safe for the recording
/// calls, so client threads can share one instance.
class Result {
 public:
  void sample(const std::string& name, double seconds);
  void value(const std::string& name, double v);
  void add(const std::string& name, double delta);
  /// Count one checked operation; `ok == false` counts it as failed.
  void check(bool ok, const std::string& what);
  /// A path invariant broke: the run measured a different path than the
  /// workload promises. Counted as a failure and fails the whole run.
  void violate(const std::string& what);

  void setSetupSeconds(double s);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

  fixfuse::support::Json json() const;

 private:
  mutable std::mutex mu_;
  double setupSeconds_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0;
  bool violated_ = false;
  std::vector<std::string> failures_;  // first few reasons
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
};

/// RAII span: name, start, end, parent span and request id. Spans are
/// recorded only while tracing is enabled (Span::enable), kept in memory
/// and handed out by Span::drain at exit. The parent is the innermost
/// open span of the constructing thread; a request id of 0 inherits the
/// parent's.
class Span {
 public:
  explicit Span(std::string name, std::uint64_t requestId = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Rename before the span ends (e.g. engine.hit vs engine.miss, known
  /// only after the call returns).
  void rename(std::string name) { name_ = std::move(name); }
  /// Seconds since the span opened.
  double elapsed() const { return now() - start_; }

  static void enable();
  static bool enabled();
  /// All recorded spans as [name, start, end, id, parent, request]
  /// rows, in end order.
  static fixfuse::support::Json drain();

 private:
  std::string name_;
  double start_;
  std::uint64_t id_ = 0, parent_ = 0, request_ = 0;
  Span* outer_ = nullptr;
};

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Run `compile` (one engine call) in a span named engine.hit or
/// engine.miss. A miss adds its pipeline pass seconds, planner strategy
/// counts and this thread's polyhedral operation counts to `r`.
fixfuse::engine::CompiledProgram tracedCompile(
    Result& r, const std::function<fixfuse::engine::CompiledProgram()>& compile);

void runPaperKernels(const Options& o, Result& r);
void runServeCold(const Options& o, Result& r);

}  // namespace perfbench
