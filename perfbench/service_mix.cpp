// The open-loop workload: Poisson arrivals from one generator thread at fixed
// offered rates against a GraphService (3 workers, 1 thread per query, result
// cache on) over a catalog of two graphs, while a writer thread rebuilds one
// of them and reloads it.
//
// Requests draw their (graph, algorithm, source) key from a Zipf law over a
// fixed key set larger than the cache, so a stable share of requests hits
// the cache and the rest execute.  Each reload bumps the road graph's epoch,
// which invalidates its cached answers.  Latency is charged from each
// request's intended send time (loadgen.hpp).  A closed-loop phase at the
// end, with the writer stopped, measures the service's capacity.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <thread>

#include "common.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "loadgen.hpp"
#include "service/graph_service.hpp"
#include "sys/parallel.hpp"
#include "verify.hpp"

namespace perfbench {

namespace gg = grind::graph;
namespace alg = grind::algorithms;
namespace svc = grind::service;

namespace {

constexpr int kSetupRepeats = 5;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kCacheEntries = 8;
constexpr int kSourcesPerAlgo = 40;
constexpr grind::vid_t kRoadSide = 256;
constexpr double kZipfS = 1.0;
constexpr double kSloMs = 50.0;  // p99 limit for max_rate_qps
constexpr double kReloadEvery = 1.0;  // seconds between road rebuilds
/// Offered rates [1/s]: the two reported steps, then the rest of the ladder
/// max_rate_qps climbs.
constexpr double kRateLo = 150, kRateHi = 300;
constexpr double kUpperRungs[] = {600, 1200};
/// Requests kept in flight by the closed-loop capacity phase: enough that a
/// worker finishing a query always finds another queued.
constexpr std::size_t kInFlight = 4 * kWorkers;

struct Key {
  std::string graph;
  std::string code;
  alg::Params params;
  QueryKey check;  // answer under check: the key's first service answer
};

/// The key set, hottest first: per graph, the source-free queries, then the
/// source-taking ones (seeded random social vertices, spread road lattice
/// points), interleaved so the Zipf head mixes graphs and algorithms.
std::vector<Key> make_keys(const gg::EdgeList& social, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xfeedULL);
  std::vector<Key> keys;
  auto add = [&keys](const char* graph, const char* code, alg::Params p) {
    keys.push_back(Key{graph, code, std::move(p), {}});
  };
  add("social", "CC", {});
  add("road", "CC", {});
  add("social", "SPMV", {});
  add("road", "SPMV", {});
  std::uniform_int_distribution<std::int64_t> on_social(0, social.num_vertices() - 1);
  // Social sources with out-edges: most RMAT vertices have none, and a BFS
  // from one is a no-op that would make the mix's cost depend on the seed.
  const std::vector<grind::eid_t> deg = social.out_degrees();
  auto social_source = [&] {
    for (;;)
      if (const std::int64_t v = on_social(rng); deg[v] > 0) return v;
  };
  for (int s = 0; s < kSourcesPerAlgo; ++s) {
    alg::Params ps, pr;
    ps.set("source", social_source());
    pr.set("source", lattice_source(kRoadSide, kRoadSide, s, rng));
    add("social", "BFS", ps);
    add("road", "BFS", pr);
    add("road", "BC", pr);
  }
  return keys;
}

struct PhaseResult {
  double rate = 0;
  std::vector<Outcome> out;
  std::vector<double> queue_ms, exec_ms;
  std::uint64_t failed = 0, shed = 0, hits = 0, misses = 0;
  double busy_s = 0, wall_s = 0;

  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> v;
    for (const auto& o : out) v.push_back(o.latency_s());
    return v;
  }
  [[nodiscard]] double p_ms(double p) const { return percentile(latencies(), p) * 1e3; }
  [[nodiscard]] double achieved() const {
    return static_cast<double>(out.size() - failed) / wall_s;
  }
  [[nodiscard]] double busy_frac() const {
    return busy_s / (static_cast<double>(kWorkers) * wall_s);
  }
  /// Nothing failed or shed, p99 within the SLO, and no backlog left: the
  /// last request finished within the SLO of its scheduled send time.
  [[nodiscard]] bool meets_slo() const {
    return failed == 0 && shed == 0 && p_ms(0.99) <= kSloMs &&
           (out.empty() || out.back().done_s - out.back().intended_s <= kSloMs / 1e3);
  }
};

/// Rebuilds the road graph single-threaded and reloads it, every
/// kReloadEvery seconds until stopped.
class Writer {
 public:
  Writer(svc::GraphService& s, const gg::EdgeList& road, Tracer& tr)
      : svc_(s), road_(road), tr_(tr), thread_([this] { loop(); }) {}
  ~Writer() { stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  // Read after stop().
  std::vector<double> reload_s, load_graph_ms;
  std::vector<BuildTimes> builds;
  std::string error;

 private:
  void loop() {
    grind::ThreadLimitGuard serial(1);
    std::unique_lock<std::mutex> lock(m_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(kReloadEvery),
                         [this] { return stopping_; })) {
      lock.unlock();
      try {
        gg::EdgeList copy = road_;
        Tracer::Scope s(tr_, "writer.reload");
        const Clock::time_point t0 = Clock::now();
        BuildTimes bt;
        gg::Graph g = build_staged(std::move(copy), tr_, &bt);
        const Clock::time_point t1 = Clock::now();
        {
          Tracer::Scope l(tr_, "service.load_graph");
          svc_.load_graph("road", std::move(g));
        }
        load_graph_ms.push_back(since(t1) * 1e3);
        reload_s.push_back(since(t0));
        builds.push_back(bt);
      } catch (const std::exception& e) {
        error = e.what();
      }
      lock.lock();
    }
  }

  svc::GraphService& svc_;
  const gg::EdgeList& road_;
  Tracer& tr_;
  std::mutex m_;
  std::condition_variable cv_;
  bool stopping_ = false;  // guarded by m_
  std::thread thread_;     // last: starts after the members it uses
};

svc::QueryRequest request(const Key& k) {
  svc::QueryRequest req(k.code, k.params);
  req.graph = k.graph;
  return req;
}

}  // namespace

int run_service_mix(const Args& a, Tracer& tr, Report& rep) {
  gg::EdgeList social, road;
  {
    Tracer::Scope s(tr, "input.generate");
    social = gg::rmat(17, 16, a.seed);
    road = gg::road_lattice(kRoadSide, kRoadSide, 0.05, a.seed + 1);
  }
  std::vector<Key> keys = make_keys(social, a.seed);
  rep.note("graphs: social = RMAT scale 17 edge factor 16, road = lattice 256x256; " +
           std::to_string(keys.size()) + " keys, Zipf s=" + std::to_string(kZipfS) +
           ", cache " + std::to_string(kCacheEntries) + " entries");
  rep.note("open loop, Poisson arrivals, " + std::to_string(kWorkers) +
           " workers x 1 thread per query, road rebuilt and reloaded every " +
           std::to_string(kReloadEvery) + " s");

  svc::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.threads_per_query = 1;
  cfg.result_cache_capacity = kCacheEntries;

  // ---- setup: both graphs' builder stages, service start, first accept ----
  std::vector<double> setup;
  std::vector<BuildTimes> stages;
  std::unique_ptr<svc::GraphService> service;
  for (int r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    gg::EdgeList s_copy = social, r_copy = road;
    Tracer::Scope s(tr, "setup");
    const Clock::time_point t0 = Clock::now();
    BuildTimes bs, br;
    gg::Graph gs = build_staged(std::move(s_copy), tr, &bs);
    gg::Graph gr = build_staged(std::move(r_copy), tr, &br);
    {
      Tracer::Scope st(tr, "service.start");
      service = std::make_unique<svc::GraphService>(cfg);
      service->load_graph("social", std::move(gs));
      service->load_graph("road", std::move(gr));
    }
    auto first = service->submit(request(keys.front()));
    setup.push_back(since(t0));
    bs += br;
    stages.push_back(bs);
    if (!first.get().ok()) ++rep.failed;
  }
  svc::GraphService& sv = *service;
  if (a.trace) report_partitioning(sv.catalog().find("social")->graph(), tr, rep);

  // ---- warm-up: every key once; its answer is the one the oracle checks ----
  for (Key& k : keys) {
    k.check.desc = &alg::AlgorithmRegistry::instance().at(k.code);
    k.check.el = k.graph == "social" ? &social : &road;
    k.check.label = k.graph + " " + k.code +
                    (k.params.has("source")
                         ? " source=" + std::to_string(k.params.get_int("source"))
                         : "");
    const svc::QueryResult r = sv.submit(request(k)).get();
    if (!r.ok()) {
      std::fprintf(stderr, "warm-up %s: %s\n", k.check.label.c_str(), r.error.c_str());
      ++rep.failed;
      continue;
    }
    k.check.checked = r.value;
    k.check.resolved = k.check.desc->resolve(
        k.params, sv.catalog().find(k.graph)->graph());
  }

  // ---- engine layer, traced run only: each key once on a direct serial
  // engine, the kernels the workers run ----
  if (a.trace) {
    EngineTotals totals;
    grind::ThreadLimitGuard serial(1);
    for (const Key& k : keys) {
      const auto entry = sv.catalog().find(k.graph);
      grind::engine::Engine eng(entry->graph());
      const Clock::time_point t0 = Clock::now();
      {
        Tracer::Scope s(tr, "algorithms.run");
        (void)k.check.desc->run_resolved(eng, k.check.resolved);
      }
      totals.add(eng.stats(), since(t0), eng.sweeps_done());
    }
    totals.report(rep, a.triad_gbs, "latency_p50_ms", "latency_p50_ms");
    rep.note("engine.* and algorithms.sweeps_per_query: every key once on a "
             "direct 1-thread engine (the workers' kernels), not inside the service");
  }

  // ---- open-loop phases, with the writer reloading road throughout: the
  // low rate, three windows at the high rate (medians over windows keep one
  // transient stall from setting the tail), then the ladder's upper rungs ----
  const Zipf zipf(keys.size(), kZipfS);
  // Queries per step: 1000 at a 20 s run, so a step's p99 has ten samples
  // beyond it.
  const std::size_t per_step =
      std::max<std::size_t>(100, static_cast<std::size_t>(50.0 * a.seconds));
  std::int64_t qid = 0;
  auto run_phase = [&](double rate, std::size_t queries, std::uint64_t salt) {
    PhaseResult ph;
    ph.rate = rate;
    const std::vector<double> at = poisson_schedule(
        rate, static_cast<double>(queries) / rate, a.seed * 131 + salt);
    std::mt19937_64 rng(a.seed * 977 + salt);
    std::vector<std::size_t> pick(at.size());
    for (auto& p : pick) p = zipf(rng);
    ph.queue_ms.resize(at.size());
    ph.exec_ms.resize(at.size());
    std::vector<svc::QueryStatus> status(at.size());
    const svc::ServiceStats before = sv.stats();
    const std::int64_t q0 = qid;
    const Clock::time_point t0 = Clock::now();
    ph.out = run_open_loop(
        at,
        [&](std::size_t i) {
          Tracer::Scope s(tr, "service.submit", q0 + static_cast<std::int64_t>(i));
          return sv.submit(request(keys[pick[i]]));
        },
        [&](std::size_t i, svc::QueryResult& r) {
          status[i] = r.status;
          ph.queue_ms[i] = r.queue_seconds * 1e3;
          ph.exec_ms[i] = r.seconds * 1e3;
          const Key& k = keys[pick[i]];
          return r.ok() && same_answer(k.code, k.check.checked, r.value);
        });
    ph.wall_s = since(t0);
    qid += static_cast<std::int64_t>(at.size());
    const svc::ServiceStats after = sv.stats();
    ph.hits = after.cache_hits - before.cache_hits;
    ph.misses = after.cache_misses - before.cache_misses;
    ph.busy_s = after.busy_seconds - before.busy_seconds;
    for (std::size_t i = 0; i < at.size(); ++i) {
      if (status[i] == svc::QueryStatus::kShed) ++ph.shed;
      if (!ph.out[i].ok) {
        ++ph.failed;
        if (status[i] == svc::QueryStatus::kOk) ++rep.mismatches;
      }
    }
    rep.attempted += at.size();
    rep.failed += ph.failed;
    return ph;
  };
  constexpr int kHiWindows = 3;
  Writer writer(sv, road, tr);
  const PhaseResult lo = run_phase(kRateLo, per_step, 0);
  std::vector<PhaseResult> hi;
  for (int w = 0; w < kHiWindows; ++w) hi.push_back(run_phase(kRateHi, per_step, 1 + w));
  std::vector<PhaseResult> upper;
  for (double rate : kUpperRungs) upper.push_back(run_phase(rate, per_step, 10 + upper.size()));
  writer.stop();
  if (!writer.error.empty()) {
    std::fprintf(stderr, "writer: %s\n", writer.error.c_str());
    ++rep.failed;
  }

  // ---- capacity: a closed loop keeping kInFlight requests outstanding,
  // waiting on the oldest.  The workers never run dry, so the completion rate
  // is the service's capacity on this mix, whatever rate an open loop would
  // offer.  It runs after the writer has stopped, and is six steps long: the
  // mix's costs are heavy-tailed and its cache evictions chaotic, so the rate
  // of a shorter phase, or one an invalidation can land in, moves with which
  // costly keys it happened to recompute ----
  const std::size_t capacity_queries = 6 * per_step;
  double capacity_qps = 0.0, capacity_busy = 0.0;
  std::uint64_t capacity_hits = 0;
  {
    std::mt19937_64 rng(a.seed * 977 + 20);
    std::deque<std::pair<std::size_t, std::future<svc::QueryResult>>> inflight;
    std::uint64_t failed = 0;
    const svc::ServiceStats before = sv.stats();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t sent = 0; sent < capacity_queries || !inflight.empty();) {
      if (sent < capacity_queries && inflight.size() < kInFlight) {
        const std::size_t k = zipf(rng);
        Tracer::Scope s(tr, "service.submit", qid++);
        inflight.emplace_back(k, sv.submit(request(keys[k])));
        ++sent;
        continue;
      }
      const Key& k = keys[inflight.front().first];
      const svc::QueryResult r = inflight.front().second.get();
      inflight.pop_front();
      if (!r.ok() || !same_answer(k.code, k.check.checked, r.value)) {
        ++failed;
        if (r.status == svc::QueryStatus::kOk) ++rep.mismatches;
      }
    }
    const double wall = since(t0);
    const svc::ServiceStats after = sv.stats();
    rep.attempted += capacity_queries;
    rep.failed += failed;
    capacity_qps = static_cast<double>(capacity_queries - failed) / wall;
    capacity_busy = (after.busy_seconds - before.busy_seconds) /
                    (static_cast<double>(kWorkers) * wall);
    capacity_hits = after.cache_hits - before.cache_hits;
  }

  // ---- oracle, outside the timed region ----
  {
    Tracer::Scope s(tr, "check.oracle");
    std::vector<QueryKey> checked;
    for (const Key& k : keys)
      if (!k.check.checked.empty()) checked.push_back(k.check);
    for (const std::string& e : oracle_check(checked)) {
      ++rep.mismatches;
      ++rep.failed;
      std::fprintf(stderr, "oracle: %s\n", e.c_str());
    }
  }

  // ---- end to end: latencies at the high rate, where the workers are partly
  // busy (each step's busy fraction is printed); throughput from the
  // capacity phase ----
  auto hi_ms = [&hi](double p) {
    std::vector<double> v;
    for (const PhaseResult& w : hi) v.push_back(w.p_ms(p));
    return median(v);
  };
  rep.e2e("setup_s", median(setup), "s");
  rep.e2e("queries_per_s", capacity_qps, "1/s");
  rep.e2e("latency_p50_ms", hi_ms(0.50), "ms");
  rep.e2e("latency_p90_ms", hi_ms(0.90), "ms");
  rep.e2e("latency_p99_ms", hi_ms(0.99), "ms");
  rep.e2e("latency_p50_ms.lo", lo.p_ms(0.50), "ms");
  rep.e2e("latency_p99_ms.lo", lo.p_ms(0.99), "ms");
  rep.e2e("latency_p50_ms.hi", hi_ms(0.50), "ms");
  rep.e2e("latency_p99_ms.hi", hi_ms(0.99), "ms");
  // The ladder: lo, the hi windows, then the upper rungs; the highest rate
  // reached before the first step that misses the SLO.
  std::vector<const PhaseResult*> ladder = {&lo};
  for (const PhaseResult& w : hi) ladder.push_back(&w);
  for (const PhaseResult& u : upper) ladder.push_back(&u);
  double max_rate = 0.0;
  for (const PhaseResult* ph : ladder) {
    if (!ph->meets_slo()) break;
    max_rate = std::max(max_rate, ph->achieved());
  }
  rep.e2e("max_rate_qps", max_rate, "1/s");
  rep.e2e("reload_s", median(writer.reload_s), "s");
  for (const PhaseResult* ph : ladder)
    rep.note("step " + std::to_string(static_cast<int>(ph->rate)) + "/s: " +
             std::to_string(ph->out.size()) + " queries, p50 " +
             std::to_string(ph->p_ms(0.5)) + " ms, p99 " +
             std::to_string(ph->p_ms(0.99)) + " ms, achieved " +
             std::to_string(ph->achieved()) + "/s, busy " +
             std::to_string(ph->busy_frac()) + ", hits " + std::to_string(ph->hits) +
             ", shed " + std::to_string(ph->shed) +
             (ph->meets_slo() ? ", meets" : ", misses") + " the " +
             std::to_string(static_cast<int>(kSloMs)) + " ms p99 SLO");
  rep.note("capacity, closed loop with " + std::to_string(kInFlight) + " in flight: " +
           std::to_string(capacity_queries) + " queries, " + std::to_string(capacity_qps) +
           "/s, busy " + std::to_string(capacity_busy) + ", hits " +
           std::to_string(capacity_hits));
  rep.note("reloads " + std::to_string(writer.reload_s.size()));

  // ---- per layer ----
  report_build_stages(stages, rep);
  rep.layer("graph.reload_build_s", median_times(writer.builds).total(), "s", "reload_s");
  std::vector<double> submit_us, lag_ms, queue_ms, exec_ms, seen_late_ms;
  std::uint64_t hits = 0, misses = 0, shed = 0;
  double busy = 0.0, wall = 0.0;
  for (const PhaseResult* ph : ladder) {
    if (ph->rate > kRateHi) break;  // the overload rungs are not the service's steady state
    for (const Outcome& o : ph->out) {
      submit_us.push_back((o.submitted_s - o.sent_s) * 1e6);
      lag_ms.push_back(o.lag_s() * 1e3);
    }
    for (std::size_t i = 0; i < ph->out.size(); ++i)
      if (ph->exec_ms[i] > 0.0 || ph->queue_ms[i] > 0.0) {  // executed, not a hit
        queue_ms.push_back(ph->queue_ms[i]);
        exec_ms.push_back(ph->exec_ms[i]);
        // How long after the service's own queue + execution time the
        // collector saw the answer: the measurement's resolution.
        const Outcome& o = ph->out[i];
        seen_late_ms.push_back((o.done_s - o.submitted_s) * 1e3 - ph->queue_ms[i] -
                               ph->exec_ms[i]);
      }
    hits += ph->hits;
    misses += ph->misses;
    shed += ph->shed;
    busy += ph->busy_s;
    wall += ph->wall_s;
  }
  rep.layer("service.submit_us.p99", percentile(submit_us, 0.99), "us", "latency_p99_ms.hi");
  rep.layer("service.queue_ms.p50", percentile(queue_ms, 0.50), "ms", "latency_p99_ms.hi");
  rep.layer("service.queue_ms.p99", percentile(queue_ms, 0.99), "ms", "latency_p99_ms.hi");
  rep.layer("service.exec_ms.p50", percentile(exec_ms, 0.50), "ms", "latency_p50_ms.hi");
  rep.layer("service.exec_ms.p99", percentile(exec_ms, 0.99), "ms", "latency_p50_ms.hi");
  rep.layer("service.cache_hit_ratio",
            hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
            "fraction", "max_rate_qps");
  rep.layer("service.cache_hits", static_cast<double>(hits), "count", "max_rate_qps");
  rep.layer("service.cache_misses", static_cast<double>(misses), "count", "max_rate_qps");
  rep.layer("service.busy_frac", busy / (static_cast<double>(kWorkers) * wall), "fraction",
            "max_rate_qps");
  rep.layer("service.shed", static_cast<double>(shed), "count", "failed_frac");
  rep.layer("service.load_graph_ms", median(writer.load_graph_ms), "ms", "reload_s");
  rep.layer("loadgen.lag_p99_ms", percentile(lag_ms, 0.99), "ms", "(run validity)");
  rep.layer("loadgen.seen_late_ms.p50", percentile(seen_late_ms, 0.50), "ms", "(run validity)");
  rep.layer("loadgen.seen_late_ms.p99", percentile(seen_late_ms, 0.99), "ms", "(run validity)");
  return 0;
}

}  // namespace perfbench
