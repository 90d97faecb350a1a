// GraphService concurrency stress tests: many client threads submitting
// mixed algorithms through one service over one shared immutable graph,
// results cross-checked against sequential single-engine runs.  This is the
// test layer the CI sanitizer jobs (TSan / ASan+UBSan) drive hardest.
//
// Queries use the registry-backed API: algorithm paper codes + Params,
// results recovered from the type-erased AnyResult.
#include "service/graph_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "algorithms/bellman_ford.hpp"
#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/kcore.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/spmv.hpp"
#include "common/expect_vectors.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace grind::service {
namespace {

constexpr std::uint64_t kSeed = 2026;

graph::Graph build_test_graph(graph::VertexOrdering o =
                                  graph::VertexOrdering::kOriginal) {
  graph::BuildOptions opts;
  opts.num_partitions = 8;
  opts.ordering = o;
  return graph::Graph::build(graph::rmat(9, 8, kSeed), opts);
}

/// Sources spread across the graph (original-ID space).
std::vector<vid_t> pick_sources(const graph::Graph& g, std::size_t k) {
  std::vector<vid_t> s;
  for (std::size_t i = 0; i < k; ++i)
    s.push_back(static_cast<vid_t>((i * 97 + 13) % g.num_vertices()));
  return s;
}

QueryRequest make_request(const std::string& algo,
                          vid_t source = kInvalidVertex) {
  QueryRequest req(algo);
  if (source != kInvalidVertex) req.params.set("source", source);
  return req;
}

/// Sequential per-algorithm baselines computed on a private Engine.
struct Expected {
  std::map<vid_t, std::vector<std::int64_t>> bfs_levels;
  std::map<vid_t, std::vector<double>> bf_dist;
  std::vector<vid_t> cc_labels;
  std::vector<double> pr_rank;
  std::vector<double> spmv_y;

  static Expected compute(const graph::Graph& g,
                          const std::vector<vid_t>& sources) {
    Expected e;
    engine::Engine eng(g);
    for (vid_t s : sources) {
      e.bfs_levels[s] = algorithms::bfs(eng, s).level;
      e.bf_dist[s] = algorithms::bellman_ford(eng, s).dist;
    }
    e.cc_labels = algorithms::connected_components(eng).labels;
    e.pr_rank = algorithms::pagerank(eng).rank;
    e.spmv_y = algorithms::spmv(eng).y;
    return e;
  }
};

void check_result(const QueryResult& r, const Expected& e, vid_t source) {
  ASSERT_TRUE(r.ok()) << r.algorithm << ": " << r.error;
  if (r.algorithm == "BFS") {
    const auto& v = r.value.as<algorithms::BfsResult>();
    ASSERT_EQ(v.level, e.bfs_levels.at(source));
  } else if (r.algorithm == "BF") {
    const auto& v = r.value.as<algorithms::BellmanFordResult>();
    grind::testing::expect_near_vec(v.dist, e.bf_dist.at(source), 1e-9,
                                    "BF dist");
  } else if (r.algorithm == "CC") {
    const auto& v = r.value.as<algorithms::CcResult>();
    ASSERT_EQ(v.labels, e.cc_labels);
  } else if (r.algorithm == "PR") {
    const auto& v = r.value.as<algorithms::PageRankResult>();
    grind::testing::expect_near_vec(v.rank, e.pr_rank, 1e-9, "PR rank");
  } else if (r.algorithm == "SPMV") {
    const auto& v = r.value.as<algorithms::SpmvResult>();
    grind::testing::expect_near_vec(v.y, e.spmv_y, 1e-9, "SPMV y");
  } else {
    FAIL() << "unexpected algorithm in stress mix: " << r.algorithm;
  }
}

TEST(ServiceStress, ManyClientsMixedAlgorithmsMatchSequential) {
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kQueriesPerClient = 10;

  ServiceConfig cfg;
  cfg.workers = 4;
  GraphService svc(build_test_graph(), cfg);
  const auto sources = pick_sources(svc.graph(), 4);

  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<vid_t, std::future<QueryResult>>> pending;
      for (std::size_t q = 0; q < kQueriesPerClient; ++q) {
        const vid_t src = sources[(c + q) % sources.size()];
        QueryRequest req;
        switch ((c * kQueriesPerClient + q) % 5) {
          case 0: req = make_request("BFS", src); break;
          case 1: req = make_request("PR"); break;
          case 2: req = make_request("CC"); break;
          case 3: req = make_request("BF", src); break;
          default: req = make_request("SPMV"); break;
        }
        pending.emplace_back(src, svc.submit(std::move(req)));
      }
      for (auto& [src, fut] : pending) {
        // gtest assertions must run on the main thread to fail the test;
        // collect and re-assert below.
        const QueryResult r = fut.get();
        if (!r.ok()) failures[c] = r.error;
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& f : failures) ASSERT_TRUE(f.empty()) << f;

  const auto st = svc.stats();
  EXPECT_EQ(st.queries_completed, kClients * kQueriesPerClient);
  EXPECT_EQ(st.queries_failed, 0u);
  EXPECT_LE(svc.pool().created(), svc.pool().capacity());
}

TEST(ServiceStress, ConcurrentResultsAreCorrect) {
  // Same mix, but every result is verified against the sequential baseline
  // (on the main thread, so assertion failures are reported).
  ServiceConfig cfg;
  cfg.workers = 4;
  GraphService svc(build_test_graph(), cfg);
  const auto sources = pick_sources(svc.graph(), 4);
  const Expected expected = Expected::compute(svc.graph(), sources);

  std::vector<std::pair<vid_t, std::future<QueryResult>>> pending;
  const char* const mix[] = {"BFS", "PR", "CC", "BF", "SPMV"};
  for (int round = 0; round < 8; ++round) {
    for (const char* a : mix) {
      const vid_t src = sources[round % sources.size()];
      const bool takes_source = std::string(a) == "BFS" ||
                                std::string(a) == "BF";
      pending.emplace_back(
          src, svc.submit(make_request(a, takes_source ? src
                                                       : kInvalidVertex)));
    }
  }
  for (auto& [src, fut] : pending) check_result(fut.get(), expected, src);
}

TEST(ServiceStress, PoolSmallerThanWorkersThrottlesButCompletes) {
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.pool_capacity = 1;  // every query serialises on the single workspace
  GraphService svc(build_test_graph(), cfg);
  const auto sources = pick_sources(svc.graph(), 4);
  const Expected expected = Expected::compute(svc.graph(), sources);

  std::vector<std::pair<vid_t, std::future<QueryResult>>> pending;
  for (int i = 0; i < 12; ++i) {
    const vid_t src = sources[i % sources.size()];
    QueryRequest req = i % 2 == 0 ? make_request("BFS", src)
                                  : make_request("PR");
    pending.emplace_back(src, svc.submit(std::move(req)));
  }
  for (auto& [src, fut] : pending) check_result(fut.get(), expected, src);
  EXPECT_EQ(svc.pool().created(), 1u);
}

TEST(ServiceStress, RunBatchGroupsSameAlgorithmAndPreservesOrder) {
  ServiceConfig cfg;
  cfg.workers = 4;
  GraphService svc(build_test_graph(), cfg);
  const auto sources = pick_sources(svc.graph(), 8);
  const Expected expected = Expected::compute(svc.graph(), sources);

  // Interleave algorithms: results must come back in request order.
  std::vector<QueryRequest> reqs;
  std::vector<vid_t> req_source;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    reqs.push_back(make_request("BFS", sources[i]));
    req_source.push_back(sources[i]);

    reqs.push_back(make_request("PR"));
    req_source.push_back(kInvalidVertex);

    reqs.push_back(make_request("BF", sources[i]));
    req_source.push_back(sources[i]);
  }
  const auto results = svc.run_batch(std::move(reqs));
  ASSERT_EQ(results.size(), req_source.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    // Result i must correspond to request i (order preserved across
    // concurrent execution on four workers).
    switch (i % 3) {
      case 0: ASSERT_EQ(results[i].algorithm, "BFS"); break;
      case 1: ASSERT_EQ(results[i].algorithm, "PR"); break;
      default: ASSERT_EQ(results[i].algorithm, "BF"); break;
    }
    check_result(results[i], expected, req_source[i]);
  }
  EXPECT_EQ(svc.stats().batches, 1u);
}

TEST(ServiceStress, ConcurrentBatchesFromMultipleThreads) {
  ServiceConfig cfg;
  cfg.workers = 4;
  GraphService svc(build_test_graph(), cfg);
  const auto sources = pick_sources(svc.graph(), 4);
  const Expected expected = Expected::compute(svc.graph(), sources);

  std::vector<std::thread> clients;
  std::vector<std::string> failures(4);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::vector<QueryRequest> reqs;
      for (int i = 0; i < 6; ++i) {
        reqs.push_back(i % 2 == 0
                           ? make_request("BFS",
                                          sources[(c + i) % sources.size()])
                           : make_request("CC"));
      }
      for (const auto& r : svc.run_batch(std::move(reqs)))
        if (!r.ok()) failures[c] = r.error;
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& f : failures) ASSERT_TRUE(f.empty()) << f;
  EXPECT_EQ(svc.stats().batches, 4u);
  EXPECT_EQ(svc.stats().queries_failed, 0u);
}

TEST(ServiceStress, DefaultSourceIsResolvedEagerly) {
  GraphService svc(build_test_graph());
  EXPECT_EQ(svc.default_source(), svc.graph().max_out_degree_source());
  const auto r = svc.submit(make_request("BFS")).get();  // no source → default
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& v = r.value.as<algorithms::BfsResult>();
  EXPECT_GT(v.reached, 1u);
}

TEST(ServiceStress, UnknownAlgorithmReportsErrorWithoutKillingService) {
  GraphService svc(build_test_graph());
  const auto r = svc.submit(QueryRequest("NoSuchAlgo")).get();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("unknown algorithm"), std::string::npos) << r.error;
  EXPECT_TRUE(r.value.empty());
  EXPECT_TRUE(svc.submit(make_request("CC")).get().ok());
}

TEST(ServiceStress, UnknownParameterReportsErrorNamingTheKey) {
  GraphService svc(build_test_graph());
  QueryRequest req("PR");
  req.params.set("dampign", 0.9);  // typo'd key must be named in the error
  const auto r = svc.submit(std::move(req)).get();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("dampign"), std::string::npos) << r.error;
  EXPECT_EQ(svc.stats().queries_failed, 1u);
}

TEST(ServiceStress, BadSourceReportsErrorWithoutKillingService) {
  GraphService svc(build_test_graph());
  const auto r =
      svc.submit(make_request("BFS", svc.graph().num_vertices() + 100)).get();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("source"), std::string::npos) << r.error;
  EXPECT_TRUE(r.value.empty());

  // Service still serves good queries, and the workspace was not leaked.
  EXPECT_TRUE(svc.submit(make_request("CC")).get().ok());
  EXPECT_EQ(svc.pool().in_use(), 0u);
  EXPECT_EQ(svc.stats().queries_failed, 1u);
}

TEST(ServiceStress, SubmitAfterShutdownThrows) {
  GraphService svc(build_test_graph());
  svc.shutdown();
  EXPECT_THROW((void)svc.submit(make_request("CC")), std::runtime_error);
}

TEST(ServiceStress, SubmitAfterShutdownThrowsEvenForInvalidOrCachedRequests) {
  // Regression: submit() validated the request and probed the result cache
  // before it looked at the shutdown flag, so after shutdown() an invalid
  // request or a cache hit still came back as a resolved future.
  ServiceConfig cfg;
  cfg.result_cache_capacity = 4;
  GraphService svc(build_test_graph(), cfg);
  ASSERT_TRUE(svc.submit(make_request("PR")).get().ok());
  ASSERT_TRUE(svc.submit(make_request("PR")).get().cached);  // primed
  svc.shutdown();
  EXPECT_THROW((void)svc.submit(QueryRequest("NoSuchAlgo")),
               std::runtime_error);
  EXPECT_THROW((void)svc.submit(make_request("PR")), std::runtime_error);
  EXPECT_EQ(svc.stats().queries_completed, 2u);
}

TEST(ServiceStress, RunBatchAfterShutdownThrows) {
  // Regression: a post-shutdown batch used to enqueue nothing (the worker
  // list is empty) and return fabricated default-success results.
  GraphService svc(build_test_graph());
  svc.shutdown();
  std::vector<QueryRequest> reqs(3, make_request("CC"));
  EXPECT_THROW((void)svc.run_batch(std::move(reqs)), std::runtime_error);
}

TEST(ServiceStress, QueriesQueuedAtShutdownResolveCancelled) {
  // The shutdown contract: entries still queued when shutdown() runs are
  // cancelled, not executed — and never hung or dropped.  One worker wedged
  // on a hostage workspace lease guarantees the three submissions below are
  // still queued (or blocked on the pool) when shutdown fires.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  GraphService svc(build_test_graph(), cfg);
  auto hostage = svc.pool().acquire();

  std::vector<std::future<QueryResult>> futs;
  for (int i = 0; i < 3; ++i) futs.push_back(svc.submit(make_request("CC")));

  svc.shutdown();  // must not hang despite the hostage lease

  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    const QueryResult r = f.get();
    EXPECT_EQ(r.status, QueryStatus::kCancelled);
    EXPECT_FALSE(r.error.empty());
    EXPECT_TRUE(r.value.empty());
  }
  EXPECT_EQ(svc.stats().queries_cancelled, 3u);
  hostage.release();
}

TEST(ServiceStress, ShutdownCancelsQueuedBatchSlices) {
  // run_batch queries queued at shutdown resolve kCancelled instead of
  // leaving the batch caller waiting forever, and so do the ones the batch
  // had not submitted yet when shutdown landed.  The batch runs on a second
  // thread (it blocks); shutdown fires while its queries sit behind the
  // hostage lease.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  GraphService svc(build_test_graph(), cfg);
  auto hostage = svc.pool().acquire();

  // Wedge the worker first: it pops this query, then blocks acquiring the
  // hostage-held workspace — so the batch queries below stay queued.
  auto first = svc.submit(make_request("CC"));
  while (svc.queue_depth() > 0) std::this_thread::yield();

  auto batch = std::async(std::launch::async, [&] {
    std::vector<QueryRequest> reqs(4, make_request("CC"));
    return svc.run_batch(std::move(reqs));
  });
  while (svc.queue_depth() == 0) std::this_thread::yield();

  svc.shutdown();
  hostage.release();

  EXPECT_EQ(first.get().status, QueryStatus::kCancelled);

  ASSERT_EQ(batch.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const auto results = batch.get();
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, QueryStatus::kCancelled) << to_string(r.status);
    EXPECT_TRUE(r.value.empty());
  }
}

TEST(ServiceStress, ObserversDuringShutdownAreRaceFree) {
  // Regression for a real data race the thread-safety annotation pass
  // surfaced (docs/STATIC_ANALYSIS.md): num_workers() read workers_.size()
  // with no synchronisation while shutdown() concurrently join()ed and
  // clear()ed the same vector.  workers_ is now GUARDED_BY(shutdown_m_);
  // this test drives every metrics observer concurrently with shutdown()
  // so the CI TSan job re-detects the race if the guard ever regresses.
  for (int round = 0; round < 8; ++round) {
    ServiceConfig cfg;
    cfg.workers = 4;
    GraphService svc(build_test_graph(), cfg);
    std::vector<std::future<QueryResult>> work;
    for (int i = 0; i < 4; ++i) work.push_back(svc.submit(make_request("CC")));

    std::atomic<bool> stop{false};
    std::thread observer([&] {
      std::size_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        sink += svc.num_workers();
        sink += svc.queue_depth();
        sink += static_cast<std::size_t>(svc.stats().queries_completed);
      }
      EXPECT_GE(sink, 0u);  // keep the loop observable
    });

    svc.shutdown();  // joins + clears workers_ while the observer reads
    stop.store(true, std::memory_order_relaxed);
    observer.join();
    EXPECT_EQ(svc.num_workers(), 0u);

    for (auto& f : work) (void)f.get();  // resolved, not leaked
  }
}

TEST(ServiceStress, WorksUnderNonIdentityOrdering) {
  // Results speak original IDs regardless of the internal relabeling, so a
  // service over a Hilbert-ordered graph must agree with the identity run.
  GraphService original(build_test_graph(graph::VertexOrdering::kOriginal));
  GraphService hilbert(build_test_graph(graph::VertexOrdering::kHilbert));
  const auto sources = pick_sources(original.graph(), 2);

  for (vid_t s : sources) {
    const auto a = original.submit(make_request("BFS", s)).get();
    const auto b = hilbert.submit(make_request("BFS", s)).get();
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value.as<algorithms::BfsResult>().level,
              b.value.as<algorithms::BfsResult>().level);
  }
}

TEST(ServiceStress, NewlyRegisteredAlgorithmIsServableWithoutServiceEdits) {
  // The acceptance claim of the registry redesign: k-core registered in its
  // own translation unit is reachable through the service with zero
  // dispatch edits.
  GraphService svc(build_test_graph());
  const auto r = svc.submit(QueryRequest("KCore")).get();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.algorithm, "KCore");
  EXPECT_GT(r.value.as<algorithms::KcoreResult>().max_core, 0u);
}

}  // namespace
}  // namespace grind::service
