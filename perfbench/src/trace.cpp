#include <sys/resource.h>

#include <atomic>
#include <utility>

#include "perfbench.h"
#include "poly/set.h"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

constexpr std::size_t kMaxFailureReasons = 8;

struct SpanStore {
  std::mutex mu;
  fixfuse::support::Json rows = fixfuse::support::Json::array();
};

SpanStore& store() {
  static SpanStore* s = new SpanStore;  // leaky: outlives client threads
  return *s;
}

std::atomic<bool> gTracing{false};
std::atomic<std::uint64_t> gNextSpanId{1};
thread_local Span* tCurrent = nullptr;

}  // namespace

double now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- Result -------------------------------------------------------------------

void Result::sample(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(seconds);
}

void Result::value(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = v;
}

void Result::add(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] += delta;
}

void Result::check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < kMaxFailureReasons) failures_.push_back(what);
}

void Result::violate(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  violated_ = true;
  ++attempted_;
  ++failed_;
  if (failures_.size() < kMaxFailureReasons)
    failures_.push_back("path invariant: " + what);
}

void Result::setSetupSeconds(double s) {
  std::lock_guard<std::mutex> lock(mu_);
  setupSeconds_ = s;
}

std::uint64_t Result::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::uint64_t Result::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

fixfuse::support::Json Result::json() const {
  using fixfuse::support::Json;
  std::lock_guard<std::mutex> lock(mu_);
  Json failures = Json::array();
  for (const std::string& f : failures_) failures.push(f);
  Json samples = Json::object();
  for (const auto& [name, list] : samples_) {
    Json a = Json::array();
    for (double s : list) a.push(s);
    samples.set(name, std::move(a));
  }
  Json values = Json::object();
  for (const auto& [name, v] : values_) values.set(name, v);
  Json out = Json::object();
  out.set("setup_s", setupSeconds_)
      .set("attempted", attempted_)
      .set("failed", failed_)
      .set("invariant_violated", violated_)
      .set("failures", std::move(failures))
      .set("samples", std::move(samples))
      .set("values", std::move(values));
  return out;
}

fixfuse::engine::CompiledProgram tracedCompile(
    Result& r,
    const std::function<fixfuse::engine::CompiledProgram()>& compile) {
  const fixfuse::poly::PolyOpCounts poly0 = fixfuse::poly::polyOpCounts();
  Span s("engine.compile");
  fixfuse::engine::CompiledProgram cp = compile();
  s.rename(cp.cacheHit() ? "engine.hit" : "engine.miss");
  if (cp.cacheHit()) return cp;
  const fixfuse::poly::PolyOpCounts& poly = fixfuse::poly::polyOpCounts();
  r.add("compiles", 1);
  r.add("pipeline.pass_s", cp.stats().totalSeconds());
  r.add("planner.strategies_tried",
        static_cast<double>(cp.plan().strategiesTried));
  r.add("planner.rejected", static_cast<double>(cp.plan().strategiesRejected));
  r.add("poly.fm_eliminations",
        static_cast<double>(poly.fmEliminations - poly0.fmEliminations));
  r.add("poly.emptiness_checks",
        static_cast<double>(poly.emptinessChecks - poly0.emptinessChecks));
  return cp;
}

// --- Span ---------------------------------------------------------------------

Span::Span(std::string name, std::uint64_t requestId)
    : name_(std::move(name)), start_(now()) {
  if (!enabled()) return;
  id_ = gNextSpanId.fetch_add(1, std::memory_order_relaxed);
  outer_ = tCurrent;
  parent_ = outer_ ? outer_->id_ : 0;
  request_ = requestId != 0 ? requestId : (outer_ ? outer_->request_ : 0);
  tCurrent = this;
}

Span::~Span() {
  if (id_ == 0) return;
  const double end = now();
  tCurrent = outer_;
  using fixfuse::support::Json;
  Json row = Json::array();
  row.push(name_).push(start_).push(end).push(id_).push(parent_).push(
      request_);
  SpanStore& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  s.rows.push(std::move(row));
}

void Span::enable() { gTracing.store(true); }

bool Span::enabled() { return gTracing.load(std::memory_order_relaxed); }

fixfuse::support::Json Span::drain() {
  SpanStore& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  return std::exchange(s.rows, fixfuse::support::Json::array());
}

}  // namespace perfbench
