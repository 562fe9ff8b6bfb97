// serve-cold: an in-process server::Server driven by closed-loop
// server::Client threads over its AF_UNIX socket. Half the requests are
// programs this process has never seen (compile, then run), half repeat
// recent ones, so the miss path runs beside cache hits. Every `run`
// response must say verified: 1 and carry the digest a bytecode-backend
// run of the same program produces.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "codegen/emit_c.h"
#include "codegen/module_cache.h"
#include "codegen/native_module.h"
#include "core/fuse.h"
#include "deps/cache.h"
#include "engine/engine.h"
#include "ir/parse.h"
#include "ir/printer.h"
#include "perfbench.h"
#include "planner/planner.h"
#include "server/corpus.h"
#include "server/server.h"
#include "support/error.h"
#include "support/rng.h"

#include "../../tests/fuzz_systems.h"

namespace perfbench {

namespace fs = fixfuse::server;
using fixfuse::SplitMix64;
using fixfuse::engine::CompiledProgram;
using fixfuse::engine::Engine;

namespace {

// One client per server worker; clients + workers stay within 4 threads.
constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;
// Relative to the working directory run.py gives the driver (inside the
// checkout), which keeps the path well under sockaddr_un's limit.
constexpr const char* kSocket = "perfbench.sock";
// Traced runs: layer probes per program, after the timed loop.
constexpr int kProbeReps = 3;
constexpr std::size_t kColdProbes = 8;
constexpr std::size_t kDiskProbes = 4;
// serve-cold repeats pick among this many most recently served programs.
constexpr std::size_t kRepeatWindow = 64;

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The server's ctx-header reading (ctxFromHeader): name=lo:hi items,
/// the default range [4, 1000000] for parameters the header leaves out.
fixfuse::poly::ParamContext contextOf(const fs::CorpusEntry& e,
                                      const fixfuse::ir::Program& p) {
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> bounds;
  std::size_t pos = 0;
  while (pos < e.ctx.size()) {
    std::size_t next = e.ctx.find(',', pos);
    if (next == std::string::npos) next = e.ctx.size();
    const std::string item = e.ctx.substr(pos, next - pos);
    pos = next + 1;
    const std::size_t eq = item.find('='), colon = item.find(':');
    bounds[item.substr(0, eq)] = {
        std::stoll(item.substr(eq + 1, colon - eq - 1)),
        std::stoll(item.substr(colon + 1))};
  }
  fixfuse::poly::ParamContext ctx;
  for (const std::string& name : p.params) {
    auto it = bounds.find(name);
    if (it == bounds.end())
      ctx.addParam(name, 4, 1000000);
    else
      ctx.addParam(name, it->second.first, it->second.second);
  }
  return ctx;
}

CompiledProgram compileEntry(Engine& eng, const fs::CorpusEntry& e) {
  const fixfuse::ir::Program p = fixfuse::ir::parseProgram(e.text);
  fixfuse::engine::CompileOptions co;
  co.tile = e.tile;
  return eng.compile(p, contextOf(e, p), co);
}

/// The independent reference: the bytecode interpreter's final state for
/// the program the server runs, digested the way the server digests.
std::uint64_t bytecodeDigest(Engine& eng, const fs::CorpusEntry& e) {
  const CompiledProgram cp = compileEntry(eng, e);
  const fixfuse::interp::Machine m = cp.run(
      e.params,
      [&cp, &e](fixfuse::interp::Machine& mm) {
        fs::seedInit(cp.tiled(), mm, e.seed);
      },
      fixfuse::interp::Backend::Bytecode);
  return fs::stateDigest(cp.tiled(), m);
}

/// Checks every `run` response must pass; false (and counted) otherwise.
bool checkRun(Result& r, const fs::Response& resp, const std::string& name,
              std::uint64_t refDigest) {
  bool ok = resp.ok;
  std::string why = resp.ok ? "" : "[" + resp.header("error") + "] " + resp.body;
  if (ok && resp.header("verified") != "1") ok = false, why = "not verified";
  if (ok && resp.header("backend") != "native")
    ok = false, why = "served by " + resp.header("backend");
  if (ok && resp.header("digest") != hex16(refDigest))
    ok = false, why = "digest " + resp.header("digest") + " != reference " +
                      hex16(refDigest);
  r.check(ok, name + ": " + why);
  return ok;
}

struct Counters {
  std::uint64_t planHits = 0, planMisses = 0, moduleHits = 0,
                moduleMisses = 0, hostCompiles = 0, depQueries = 0,
                depHits = 0;
};

Counters counters(Engine& eng) {
  const fixfuse::support::CacheStats p = eng.cacheStats();
  const fixfuse::support::CacheStats m =
      fixfuse::codegen::processModuleCache().stats();
  const fixfuse::deps::DepCacheStats d = fixfuse::deps::depCacheStats();
  return {p.hits,    p.misses,  m.hits,
          m.misses,  fixfuse::codegen::hostCompileCount(),
          d.queries, d.hits};
}

/// Timed-phase counter deltas as values (engine/codegen per-layer ratios).
Counters recordCounters(Result& r, const Counters& a, const Counters& b) {
  const Counters d{b.planHits - a.planHits, b.planMisses - a.planMisses,
                   b.moduleHits - a.moduleHits,
                   b.moduleMisses - a.moduleMisses,
                   b.hostCompiles - a.hostCompiles,
                   b.depQueries - a.depQueries, b.depHits - a.depHits};
  r.value("engine.hits", static_cast<double>(d.planHits));
  r.value("engine.misses", static_cast<double>(d.planMisses));
  r.value("codegen.module_hits", static_cast<double>(d.moduleHits));
  r.value("codegen.module_misses", static_cast<double>(d.moduleMisses));
  r.value("codegen.host_compiles", static_cast<double>(d.hostCompiles));
  r.value("deps.queries", static_cast<double>(d.depQueries));
  r.value("deps.hits", static_cast<double>(d.depHits));
  return d;
}

/// One request through the layers the server's `run` verb calls, each in
/// its own span: parse, engine lookup, native run + bytecode verify
/// replay, digest. Returns the digest.
std::uint64_t layeredRun(Engine& eng, const fs::CorpusEntry& e,
                         std::uint64_t rid, Result& r, bool emit) {
  Span request("request", rid);
  fixfuse::ir::Program p;
  {
    Span s("ir.parse");
    p = fixfuse::ir::parseProgram(e.text);
  }
  fixfuse::engine::CompileOptions co;
  co.tile = e.tile;
  const fixfuse::poly::ParamContext ctx = contextOf(e, p);
  const std::optional<CompiledProgram> cp =
      tracedCompile(r, [&] { return eng.compile(p, ctx, co); });
  if (emit) {
    Span s("codegen.emit");
    fixfuse::codegen::EmitOptions eo;
    eo.nativeEntry = true;
    fixfuse::codegen::emitC(cp->tiled(), eo);
  }
  fixfuse::pipeline::NativeRunReport rep;
  std::optional<fixfuse::interp::Machine> m;
  {
    Span s("exec.run");
    m = cp->runNative(
        e.params,
        [&cp, &e](fixfuse::interp::Machine& mm) {
          fs::seedInit(cp->tiled(), mm, e.seed);
        },
        &rep, /*verify=*/true);
  }
  r.check(rep.verified && rep.backend == "native",
          e.name + ": layered run used " + rep.backend);
  if (!rep.compileCached) r.sample("codegen.cc", rep.compileSeconds);
  r.sample("exec.native", rep.nativeSeconds);
  r.sample("interp.verify", rep.bytecodeSeconds);
  Span s("server.digest");
  return fs::stateDigest(cp->tiled(), *m);
}

/// server.handle (Service::handle in-process) and client.call (the same
/// request over the socket) on one run request; their medians give the
/// transport share.
void handleAndCall(fs::Server& srv, fs::Client& client,
                   const fs::CorpusEntry& e, std::uint64_t refDigest,
                   std::uint64_t rid, Result& r) {
  const fs::Request req = e.runRequest();
  fs::Response handled, called;
  {
    Span s("server.handle", rid);
    handled = srv.service().handle(req);
  }
  {
    Span s("client.call", rid);
    called = client.call(req);
  }
  checkRun(r, handled, e.name + " (in-process)", refDigest);
  checkRun(r, called, e.name + " (probe)", refDigest);
}

/// Run `body(clientIndex)` on kClients threads and join them; an
/// exception in a client fails the run instead of ending the process.
template <typename Fn>
void onClients(Result& r, Fn&& body) {
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c)
    threads.emplace_back([&r, &body, c] {
      try {
        body(c);
      } catch (const std::exception& e) {
        r.violate(std::string("client thread: ") + e.what());
      }
    });
  for (std::thread& t : threads) t.join();
}

}  // namespace

// --- serve-cold ---------------------------------------------------------------

namespace {

/// The engine microbench's two-nest family with a seed-varied constant:
/// one top-level nest, always plannable, distinct per constant.
std::string syntheticText(std::uint64_t k) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), R"(
program(N) {
  double R[(N + 4)];
  double S[(N + 4)];
  for k = 1 .. N {
    for i = 1 .. N {
      R[i] = (R[i] + (%.17g * S[i]));
    }
    for i = 1 .. N {
      S[i] = (S[i] + R[min((i + 1), N)]);
    }
  }
}
)",
                0.25 + static_cast<double>(k) / 1048576.0);
  return buf;
}

/// Programs no request has named yet: fuzz systems (wrapped in a
/// single-trip loop, the corpus's shape) that a throwaway engine
/// accepted, then synthetic programs without end.
class NovelSource {
 public:
  NovelSource(std::uint64_t seed, std::size_t fuzzWanted) : seed_(seed) {
    Engine trial(/*cacheBound=*/64);
    const std::uint64_t base = 1000000 + (seed % 4096) * 4096;
    for (std::uint64_t s = base; fuzz_.size() < fuzzWanted && s < base + 4096;
         ++s) {
      const fixfuse::tests::FuzzSystem fz = fixfuse::tests::randomSystem(s);
      if (!fz.ok) continue;
      const fixfuse::ir::Program p0 =
          fixfuse::core::generateSequentialProgram(fz.sys);
      fixfuse::ir::Program w = p0;
      w.body = fixfuse::ir::blockS({fixfuse::ir::loopS(
          "t", fixfuse::ir::ic(1), fixfuse::ir::ic(1), {p0.body->clone()})});
      w.numberAssignments();
      fs::CorpusEntry e;
      e.name = "fuzz:" + std::to_string(s);
      e.text = fixfuse::ir::printProgram(w);
      e.ctx = "N=4:100000";
      e.params["N"] = 32;
      e.seed = s;
      try {
        compileEntry(trial, e);
      } catch (const fixfuse::Error&) {
        continue;
      }
      fuzz_.push_back(std::move(e));
    }
    // The trial compiles filled the process-wide dependence cache; the
    // timed compiles must find it as cold as a fresh process would.
    fixfuse::deps::depCacheClear();
  }

  /// The n-th novel program: every fourth a fuzz system while they last.
  fs::CorpusEntry get(std::uint64_t n) const {
    if (n % 4 == 3 && n / 4 < fuzz_.size()) return fuzz_[n / 4];
    SplitMix64 rng(seed_ * 7919 + n);
    fs::CorpusEntry e;
    e.name = "synthetic:" + std::to_string(n);
    e.text = syntheticText(seed_ % 65536 * 65536 + n);
    e.ctx = "N=4:1000000";
    e.tile = rng.nextBounded(2) ? 8 : 0;
    e.params["N"] = static_cast<std::int64_t>(32 + rng.nextBounded(33));
    e.seed = rng.next() % 1000000;
    return e;
  }

 private:
  std::uint64_t seed_;
  std::vector<fs::CorpusEntry> fuzz_;
};

struct Seen {
  fs::CorpusEntry entry;
  std::string digest;  // the server's first answer
};

}  // namespace

void runServeCold(const Options& o, Result& r) {
  Engine& eng = fixfuse::engine::processEngine();
  const NovelSource source(o.seed, 100);
  fs::Server srv(eng, {kSocket, kWorkers});  // stops when destroyed
  srv.start();

  std::mutex seenMu;
  std::vector<Seen> seen;
  std::atomic<std::uint64_t> nextNovel{0}, novelServed{0};
  // Serve one novel program (compile, then its first run); returns the
  // compile, first-run and pair latencies.
  auto serveNovel = [&](fs::Client& client, std::uint64_t rid) {
    const fs::CorpusEntry e = source.get(nextNovel.fetch_add(1));
    Span pair("client.novel", rid);
    const double t0 = now();
    fs::Response cr, rr;
    {
      Span s("client.compile");
      cr = client.call(e.compileRequest());
    }
    const double t1 = now();
    {
      Span s("client.run");
      rr = client.call(e.runRequest());
    }
    const double t2 = now();
    novelServed.fetch_add(1);
    r.check(cr.ok, e.name + ": compile failed: " + cr.body);
    r.check(rr.ok && rr.header("verified") == "1" &&
                rr.header("backend") == "native",
            e.name + ": first run failed or unverified: " + rr.body);
    if (cr.ok && cr.header("cache") != "miss")
      r.violate(e.name + ": novel program hit the plan cache");
    if (rr.ok && rr.header("compile_cached") != "0")
      r.violate(e.name + ": novel program found its module cached");
    std::lock_guard<std::mutex> lock(seenMu);
    seen.push_back({e, rr.header("digest")});
    return std::array<double, 3>{t1 - t0, t2 - t1, t2 - t0};
  };

  // Warm-up: two novel programs, so repeats have something to repeat.
  {
    fs::Client client(kSocket);
    for (int i = 0; i < 2; ++i) serveNovel(client, 0);
  }

  const Counters before = counters(eng);
  const std::uint64_t novel0 = novelServed.load();
  const double start = now();
  r.setSetupSeconds(start);
  if (o.setupOnly) return;
  const double deadline = start + o.seconds;
  std::atomic<std::uint64_t> requests{0};
  onClients(r, [&](unsigned c) {
    fs::Client client(kSocket);
    SplitMix64 coin(o.seed * 1000003 + c);
    while (now() < deadline) {
      const std::uint64_t rid = requests.fetch_add(1) + 1;
      if (coin.nextBounded(2) == 0) {
        const std::array<double, 3> t = serveNovel(client, rid);
        r.sample("cold.compile", t[0]);
        r.sample("cold.first_run", t[1]);
        r.sample("cold.novel", t[2]);
        continue;
      }
      Seen s;
      {
        // Repeat one of the most recent programs: the plan and module
        // caches are bounded LRUs (FIXFUSE_ENGINE_CACHE entries, 256 by
        // default), so an old program may have been evicted by design.
        std::lock_guard<std::mutex> lock(seenMu);
        const std::size_t window = std::min(seen.size(), kRepeatWindow);
        s = seen[seen.size() - 1 - coin.nextBounded(window)];
      }
      const double t0 = now();
      fs::Response resp;
      {
        Span span("client.repeat", rid);
        resp = client.call(s.entry.runRequest());
      }
      r.sample("cold.repeat", now() - t0);
      const bool ok = resp.ok && resp.header("verified") == "1" &&
                      resp.header("backend") == "native" &&
                      resp.header("digest") == s.digest;
      r.check(ok, s.entry.name + ": repeat failed or changed digest");
      if (resp.ok && (resp.header("cache") != "hit" ||
                      resp.header("compile_cached") != "1"))
        r.violate(s.entry.name + ": repeat missed a cache");
    }
  });
  r.value("timed_s", now() - start);
  const Counters d = recordCounters(r, before, counters(eng));
  const std::uint64_t novel = novelServed.load() - novel0;
  r.value("novel_programs", static_cast<double>(novel));
  if (d.hostCompiles != novel)
    r.violate(std::to_string(d.hostCompiles) + " host compiles for " +
              std::to_string(novel) + " novel programs");

  // Every served program's first digest against its bytecode reference
  // (after the timed phase: the programs are only known once served).
  for (const Seen& s : seen)
    r.check(s.digest == hex16(bytecodeDigest(eng, s.entry)),
            s.entry.name + ": served digest differs from bytecode");

  if (!o.trace) return;
  fs::Client client(kSocket);
  std::uint64_t rid = 1u << 30;
  // Miss path, layer by layer, on fresh programs; the planner alone on
  // other fresh programs (each planned cold, not after its compile).
  for (std::size_t i = 0; i < kColdProbes; ++i) {
    const fs::CorpusEntry e = source.get(nextNovel.fetch_add(1));
    if (i % 2 == 0) {
      const std::uint64_t digest = layeredRun(eng, e, ++rid, r, true);
      r.check(digest == bytecodeDigest(eng, e),
              e.name + ": layered run digest differs");
      continue;
    }
    const fixfuse::ir::Program p = fixfuse::ir::parseProgram(e.text);
    Span s("planner.plan", ++rid);
    fixfuse::planner::planProgram(p, contextOf(e, p));
  }
  // Hit path on repeats of the most recent programs (still cached).
  const std::vector<Seen> recent(
      seen.end() - static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                       seen.size(), 16)),
      seen.end());
  for (int rep = 0; rep < kProbeReps; ++rep)
    for (const Seen& s : recent) {
      const std::uint64_t ref = bytecodeDigest(eng, s.entry);
      handleAndCall(srv, client, s.entry, ref, ++rid, r);
      r.check(layeredRun(eng, s.entry, ++rid, r, false) == ref,
              s.entry.name + ": layered run digest differs");
    }
  // The persistent tier on its own: a standalone ModuleCache stores into
  // a fresh directory, a second instance loads back from it.
  const std::string dir = "disk-store";
  std::filesystem::remove_all(dir);
  for (std::size_t i = 0; i < std::min(kDiskProbes, recent.size()); ++i) {
    const CompiledProgram cp = compileEntry(eng, recent[i].entry);
    fixfuse::codegen::ModuleCache store(64, dir, 64u << 20);
    double cc = 0;
    {
      Span s("codegen.disk_store", ++rid);
      cc = store.getOrCompile(cp.tiled())->compileSeconds();
      r.sample("codegen.disk_store", s.elapsed() - cc);
    }
    const std::uint64_t compiles = fixfuse::codegen::hostCompileCount();
    fixfuse::codegen::ModuleCache load(64, dir, 64u << 20);
    {
      Span s("codegen.disk_load", rid);
      load.getOrCompile(cp.tiled());
      r.sample("codegen.disk_load", s.elapsed());
    }
    if (fixfuse::codegen::hostCompileCount() != compiles ||
        load.diskStats().hits != 1)
      r.violate("the disk tier did not serve the stored module");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
