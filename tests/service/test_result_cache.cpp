// ResultCache tests: the canonical Params fingerprint, LRU bounds, and the
// GraphService cache contract — hits are bit-identical shared AnyResults
// served without a worker, keys cover every deterministic registry
// entry (registry-iterated, no hand-kept lists), and an epoch bump forces a
// cold re-run.  The concurrency tests are TSan targets.
#include "service/result_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/params.hpp"
#include "algorithms/registry.hpp"
#include "common/service_wedge.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "service/graph_service.hpp"

namespace grind::service {
namespace {

using algorithms::Params;
using algorithms::canonical_fingerprint;

graph::Graph make_graph(std::uint64_t seed = 2026, int scale = 8) {
  graph::BuildOptions opts;
  opts.num_partitions = 8;
  return graph::Graph::build(graph::rmat(scale, 8, seed), opts);
}

TEST(ResultCache, FingerprintIsOrderIndependentAndValueExact) {
  Params ab;
  ab.set("alpha", 0.85).set("beta", std::int64_t{3});
  Params ba;
  ba.set("beta", std::int64_t{3}).set("alpha", 0.85);
  EXPECT_EQ(canonical_fingerprint(ab), canonical_fingerprint(ba));

  Params other;
  other.set("alpha", 0.850000001).set("beta", std::int64_t{3});
  EXPECT_NE(canonical_fingerprint(ab), canonical_fingerprint(other));

  // Type-tagged: int 1 and real 1.0 are different bags.
  Params as_int, as_real;
  as_int.set("x", std::int64_t{1});
  as_real.set("x", 1.0);
  EXPECT_NE(canonical_fingerprint(as_int), canonical_fingerprint(as_real));

  // Vectors fingerprint element-exact.
  Params v1, v2;
  v1.set("x", std::vector<double>{1.0, 2.0});
  v2.set("x", std::vector<double>{1.0, 2.5});
  EXPECT_NE(canonical_fingerprint(v1), canonical_fingerprint(v2));
  EXPECT_EQ(canonical_fingerprint(Params{}), "");
}

TEST(ResultCache, LruEvictsOldestAndCountsStats) {
  ResultCache::Config cfg;
  cfg.capacity = 2;
  ResultCache cache(cfg);
  auto key = [](const std::string& fp) {
    return ResultCache::Key{"g", 1, "PR", fp};
  };
  cache.put(key("a"), algorithms::AnyResult{std::string("ra")});
  cache.put(key("b"), algorithms::AnyResult{std::string("rb")});
  ASSERT_TRUE(cache.get(key("a")).has_value());  // touches "a"
  cache.put(key("c"), algorithms::AnyResult{std::string("rc")});  // evicts "b"

  EXPECT_FALSE(cache.get(key("b")).has_value());
  EXPECT_TRUE(cache.get(key("a")).has_value());
  EXPECT_TRUE(cache.get(key("c")).has_value());

  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.misses, 1u);
}

TEST(ResultCache, EpochAndGraphAndAlgorithmAreAllPartOfTheKey) {
  ResultCache::Config cfg;
  cfg.capacity = 8;
  ResultCache cache(cfg);
  const ResultCache::Key base{"g", 1, "PR", "fp"};
  cache.put(base, algorithms::AnyResult{1});
  EXPECT_TRUE(cache.get(base).has_value());
  EXPECT_FALSE(cache.get({"g", 2, "PR", "fp"}).has_value());
  EXPECT_FALSE(cache.get({"h", 1, "PR", "fp"}).has_value());
  EXPECT_FALSE(cache.get({"g", 1, "CC", "fp"}).has_value());
}

TEST(ResultCache, PurgeGraphDropsAllEpochs) {
  ResultCache::Config cfg;
  cfg.capacity = 8;
  ResultCache cache(cfg);
  cache.put({"g", 1, "PR", "x"}, algorithms::AnyResult{1});
  cache.put({"g", 2, "PR", "x"}, algorithms::AnyResult{2});
  cache.put({"h", 1, "PR", "x"}, algorithms::AnyResult{3});
  EXPECT_EQ(cache.purge_graph("g"), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.get({"h", 1, "PR", "x"}).has_value());
}

TEST(ResultCache, DisabledCacheNeverStoresOrCounts) {
  ResultCache cache;  // capacity 0
  EXPECT_FALSE(cache.enabled());
  cache.put({"g", 1, "PR", "x"}, algorithms::AnyResult{1});
  EXPECT_FALSE(cache.get({"g", 1, "PR", "x"}).has_value());
  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses + st.entries, 0u);
}

// ---- GraphService cache contract --------------------------------------

TEST(ResultCache, ServiceHitResolvesWhileTheOnlyWorkerIsWedged) {
  // Acceptance: a repeated deterministic query is served from cache — hit
  // counter increments and no worker runs it.  Proven the hard way: after
  // priming, the only worker is held by a wedge query, so the repeat can
  // ONLY resolve via the cache (the bounded wait turns a regression into a
  // fast failure instead of a hang).
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.result_cache_capacity = 16;
  GraphService svc(make_graph(), cfg);

  QueryRequest prime("PR");
  const QueryResult cold = svc.submit(QueryRequest(prime)).get();
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.cached);

  grind::testing::Wedge wedge(svc);
  auto again = svc.submit(QueryRequest("PR"));
  const bool resolved = again.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  wedge.release();
  ASSERT_TRUE(resolved) << "cache hit waited for the worker";
  const QueryResult hit = again.get();

  ASSERT_TRUE(hit.ok()) << hit.error;
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.value.id(), cold.value.id());  // the same shared payload
  EXPECT_EQ(wedge.get().status, QueryStatus::kCancelled);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_hits, 1u);
  // The prime's miss; the wedge (a PR with other parameters) misses too.
  EXPECT_EQ(st.cache_misses, 2u);
  EXPECT_EQ(st.per_graph.at(GraphService::kDefaultGraphName).cache_hits, 1u);
}

TEST(ResultCache, EveryDeterministicEntryHitsBitIdenticalToColdRun) {
  // Registry-iterated, zero hand-kept lists: for every entry flagged
  // deterministic, (1) two cold runs on twin services agree (validating
  // the flag itself — BP included, whose priors derive from the
  // fingerprinted prior_seed default), and (2) the cached repeat returns
  // the bit-identical shared payload of the run that populated the entry.
  graph::Graph g1 = make_graph();
  graph::Graph g2 = make_graph();
  const vid_t nv = g1.num_vertices();

  ServiceConfig cached_cfg;
  cached_cfg.result_cache_capacity = 64;
  GraphService cached(std::move(g1), cached_cfg);
  GraphService cold(std::move(g2), ServiceConfig{});

  int exercised = 0;
  for (const auto* desc : algorithms::AlgorithmRegistry::instance().entries()) {
    if (!desc->caps.deterministic) continue;
    const algorithms::Params params =
        desc->fuzz_params ? desc->fuzz_params(nv) : algorithms::Params{};

    const QueryResult first =
        cached.submit(QueryRequest(desc->name, params)).get();
    const QueryResult second =
        cached.submit(QueryRequest(desc->name, params)).get();
    const QueryResult reference =
        cold.submit(QueryRequest(desc->name, params)).get();
    ASSERT_TRUE(first.ok()) << desc->name << ": " << first.error;
    ASSERT_TRUE(second.ok()) << desc->name << ": " << second.error;
    ASSERT_TRUE(reference.ok()) << desc->name << ": " << reference.error;

    EXPECT_FALSE(first.cached) << desc->name;
    EXPECT_TRUE(second.cached) << desc->name;
    // Bit-identical by construction: the hit IS the first run's payload.
    EXPECT_EQ(second.value.id(), first.value.id()) << desc->name;
    // And the determinism flag is honest: an independent cold service
    // computes the same result (by the registry's own summariser).
    EXPECT_EQ(desc->summarize(first.value), desc->summarize(reference.value))
        << desc->name << " is flagged deterministic but disagrees across runs";
    ++exercised;
  }
  EXPECT_GE(exercised, 5);
  EXPECT_EQ(cached.stats().cache_hits, static_cast<std::uint64_t>(exercised));
}

TEST(ResultCache, EpochBumpForcesColdRerunThenRecaches) {
  ServiceConfig cfg;
  cfg.result_cache_capacity = 16;
  GraphService svc(make_graph(), cfg);

  ASSERT_FALSE(svc.submit(QueryRequest("PR")).get().cached);
  ASSERT_TRUE(svc.submit(QueryRequest("PR")).get().cached);

  const std::uint64_t e =
      svc.bump_epoch(GraphService::kDefaultGraphName);
  ASSERT_GT(e, 0u);
  const QueryResult after = svc.submit(QueryRequest("PR")).get();
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_FALSE(after.cached) << "epoch bump must invalidate the hit";
  EXPECT_TRUE(svc.submit(QueryRequest("PR")).get().cached);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_hits, 2u);
  EXPECT_EQ(st.cache_misses, 2u);
}

TEST(ResultCache, ExplicitSourceAndDefaultSourceShareAnEntry) {
  // The key fingerprints the *resolved* bag: naming the default source
  // explicitly resolves to the same bag as omitting it, so both forms hit
  // one entry.
  ServiceConfig cfg;
  cfg.result_cache_capacity = 16;
  GraphService svc(make_graph(), cfg);

  QueryRequest implicit("BFS");
  ASSERT_TRUE(svc.submit(std::move(implicit)).get().ok());

  QueryRequest explicit_src("BFS");
  explicit_src.params.set("source", svc.default_source());
  const QueryResult r = svc.submit(std::move(explicit_src)).get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.cached);
}

TEST(ResultCache, BatchQueriesHitTheCacheToo) {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.result_cache_capacity = 16;
  GraphService svc(make_graph(), cfg);

  std::vector<QueryRequest> prime;
  prime.emplace_back("PR");
  prime.emplace_back("CC");
  for (const QueryResult& r : svc.run_batch(std::move(prime)))
    ASSERT_TRUE(r.ok()) << r.error;

  std::vector<QueryRequest> again;
  again.emplace_back("PR");
  again.emplace_back("CC");
  again.emplace_back("PR");
  const auto results = svc.run_batch(std::move(again));
  ASSERT_EQ(results.size(), 3u);
  for (const QueryResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.cached) << r.algorithm;
  }
}

TEST(ResultCache, ConcurrentHitsAndEpochBumpsStayCoherent) {
  // TSan target: clients repeat one deterministic query while the main
  // thread bumps the epoch; every future resolves ok, cached or cold.
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.result_cache_capacity = 32;
  GraphService svc(make_graph(), cfg);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&svc, &stop, &bad] {
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryResult r = svc.submit(QueryRequest("CC")).get();
        if (!r.ok()) bad.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    (void)svc.bump_epoch(GraphService::kDefaultGraphName);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& c : clients) c.join();
  EXPECT_EQ(bad.load(), 0);

  const ServiceStats st = svc.stats();
  EXPECT_GT(st.queries_completed, 0u);
  // Repeats between bumps really did hit.
  EXPECT_GT(st.cache_hits, 0u);
}

}  // namespace
}  // namespace grind::service
