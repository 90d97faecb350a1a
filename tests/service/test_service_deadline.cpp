// Deadline, cancellation, admission-control, and overload-degradation tests
// for GraphService — the robustness contract of docs/SERVICE.md "Query
// model": every future resolves with a structured QueryStatus, submit()
// never blocks on a saturated tier, deadlines are honoured within one
// iteration boundary with partial progress reported, and past the overload
// watermark the tier degrades accuracy before availability.
#include "service/graph_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "sys/cancel.hpp"

namespace grind::service {
namespace {

using std::chrono::milliseconds;

graph::Graph build_test_graph() {
  graph::BuildOptions opts;
  opts.num_partitions = 8;
  return graph::Graph::build(graph::rmat(9, 8, 2026), opts);
}

/// A PR request big enough that it cannot finish inside a short deadline:
/// each iteration is one full |E| sweep, and the iteration count (the
/// schema's maximum) bounds the total run way past any test deadline.
QueryRequest long_pagerank(int iterations = 1000000) {
  QueryRequest req("PR");
  req.params.set("iterations", iterations);
  return req;
}

TEST(ServiceDeadline, ShortDeadlineResolvesDeadlineExceededWithProgress) {
  ServiceConfig cfg;
  cfg.workers = 1;
  GraphService svc(build_test_graph(), cfg);

  QueryRequest req = long_pagerank();
  req.deadline = milliseconds(150);
  const QueryResult r = svc.submit(std::move(req)).get();

  EXPECT_EQ(r.status, QueryStatus::kDeadlineExceeded);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.error.empty());
  EXPECT_TRUE(r.value.empty());
  // The query was admitted with an idle worker, so it made real progress
  // before the deadline fired at an iteration boundary.
  EXPECT_GT(r.iterations_done, 0);
  // Cooperative cancellation is prompt: the run stopped within an iteration
  // boundary of the deadline, not after the full 1M iterations (which would
  // take minutes).  Generous bound for sanitizer jobs.
  EXPECT_LT(r.seconds, 30.0);
  EXPECT_EQ(svc.stats().queries_deadline_exceeded, 1u);
  EXPECT_EQ(svc.stats().queries_completed, 1u);
}

TEST(ServiceDeadline, BeliefPropagationHonoursADeadline) {
  // BP's message-passing loop stops through the same edge-map boundary
  // polls as PR: no per-algorithm code in the service.
  ServiceConfig cfg;
  cfg.workers = 1;
  GraphService svc(build_test_graph(), cfg);

  QueryRequest req("BP");
  req.params.set("iterations", 1000000);
  req.deadline = milliseconds(150);
  const QueryResult r = svc.submit(std::move(req)).get();

  EXPECT_EQ(r.status, QueryStatus::kDeadlineExceeded) << r.error;
  EXPECT_TRUE(r.value.empty());
  EXPECT_GT(r.iterations_done, 0);
  EXPECT_LT(r.seconds, 30.0);  // generous bound for sanitizer jobs
  EXPECT_EQ(svc.pool().in_use(), 0u);
}

TEST(ServiceDeadline, ExternalCancelStopsARunningQuery) {
  ServiceConfig cfg;
  cfg.workers = 1;
  GraphService svc(build_test_graph(), cfg);

  QueryRequest req = long_pagerank();
  req.cancel = std::make_shared<sys::CancelToken>();
  auto token = req.cancel;
  auto fut = svc.submit(std::move(req));

  // Let the query start, then pull the plug.
  std::this_thread::sleep_for(milliseconds(50));
  token->request_cancel();

  const QueryResult r = fut.get();
  EXPECT_EQ(r.status, QueryStatus::kCancelled);
  EXPECT_FALSE(r.error.empty());
  EXPECT_TRUE(r.value.empty());
  EXPECT_EQ(svc.stats().queries_cancelled, 1u);
  // The service survives: the next query runs normally.
  const QueryResult ok = svc.submit(QueryRequest("CC")).get();
  EXPECT_TRUE(ok.ok()) << ok.error;
}

TEST(ServiceDeadline, PreCancelledTokenNeverExecutes) {
  GraphService svc(build_test_graph());
  QueryRequest req = long_pagerank();
  req.cancel = std::make_shared<sys::CancelToken>();
  req.cancel->request_cancel();
  const QueryResult r = svc.submit(std::move(req)).get();
  EXPECT_EQ(r.status, QueryStatus::kCancelled);
  EXPECT_EQ(r.iterations_done, 0);
  EXPECT_TRUE(r.value.empty());
}

TEST(ServiceDeadline, DeadlineCoversQueueWait) {
  // One worker, its only workspace held hostage by an external lease: the
  // query can never start, so its deadline must fire *while queued* and the
  // future must still resolve (deadline measured from submission, not from
  // execution start).
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  GraphService svc(build_test_graph(), cfg);
  auto hostage =
      svc.pool().acquire();  // starve the worker

  QueryRequest req("CC");
  req.deadline = milliseconds(100);
  const QueryResult r = svc.submit(std::move(req)).get();
  EXPECT_EQ(r.status, QueryStatus::kDeadlineExceeded);
  EXPECT_EQ(r.iterations_done, 0);
  EXPECT_GT(r.queue_seconds + r.seconds, 0.0);
  hostage.release();
}

TEST(ServiceDeadline, FullQueueShedsImmediatelyAndAdmittedQueriesStillServe) {
  // Saturation: 1 worker wedged on a hostage workspace lease, a queue capped
  // at 2.  Every submit past the cap must resolve kShed without blocking,
  // and the admitted queries must complete once the workspace frees up.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  cfg.max_queue_depth = 2;
  GraphService svc(build_test_graph(), cfg);
  auto hostage = svc.pool().acquire();

  // The worker dequeues at most one entry (then blocks acquiring scratch);
  // give it time to do so, so the queue depths below are deterministic.
  auto running = svc.submit(QueryRequest("CC"));
  while (svc.queue_depth() > 0)
    std::this_thread::sleep_for(milliseconds(1));

  auto queued1 = svc.submit(QueryRequest("CC"));
  auto queued2 = svc.submit(QueryRequest("CC"));
  // Queue now at max_queue_depth: these are refused, instantly.
  std::vector<std::future<QueryResult>> shed;
  for (int i = 0; i < 4; ++i) shed.push_back(svc.submit(QueryRequest("CC")));
  for (auto& f : shed) {
    // kShed futures resolve on the submit path itself — no worker needed.
    ASSERT_EQ(f.wait_for(milliseconds(0)), std::future_status::ready);
    const QueryResult r = f.get();
    EXPECT_EQ(r.status, QueryStatus::kShed);
    EXPECT_TRUE(r.value.empty());
    EXPECT_FALSE(r.error.empty());
  }
  EXPECT_EQ(svc.stats().queries_shed, 4u);

  // Release the hostage: the tier keeps serving everything it admitted.
  hostage.release();
  EXPECT_TRUE(running.get().ok());
  EXPECT_TRUE(queued1.get().ok());
  EXPECT_TRUE(queued2.get().ok());
  EXPECT_EQ(svc.pool().in_use(), 0u);
}

TEST(ServiceDeadline, AdmissionTimeoutShedsStaleQueueEntries) {
  // The worker is held up long enough that queued entries outlive the
  // admission timeout; at dequeue they shed instead of executing.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  cfg.admission_timeout = milliseconds(50);
  GraphService svc(build_test_graph(), cfg);
  auto hostage = svc.pool().acquire();

  auto running = svc.submit(QueryRequest("CC"));
  while (svc.queue_depth() > 0)
    std::this_thread::sleep_for(milliseconds(1));
  auto stale = svc.submit(QueryRequest("CC"));

  std::this_thread::sleep_for(milliseconds(120));
  hostage.release();

  EXPECT_TRUE(running.get().ok());  // dequeued before it went stale
  const QueryResult r = stale.get();
  EXPECT_EQ(r.status, QueryStatus::kShed);
  EXPECT_NE(r.error.find("admission"), std::string::npos) << r.error;
}

TEST(ServiceDeadline, LeaseTimeoutShedsInsteadOfWedgingTheWorker) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  cfg.lease_timeout = milliseconds(50);
  GraphService svc(build_test_graph(), cfg);
  auto hostage = svc.pool().acquire();

  const QueryResult r = svc.submit(QueryRequest("CC")).get();
  EXPECT_EQ(r.status, QueryStatus::kShed);
  EXPECT_NE(r.error.find("lease"), std::string::npos) << r.error;

  hostage.release();
  EXPECT_TRUE(svc.submit(QueryRequest("CC")).get().ok());
}

TEST(ServiceDeadline, OverloadWatermarkClampsIterationsAndFlagsDegraded) {
  // One worker wedged on a hostage lease while three PR queries pile up.
  // When the first admitted query finally runs, two more are still queued —
  // depth 2 > watermark 1 — so its iteration cap is clamped from 50 to 3.
  // By the time the last one runs the queue is empty: full accuracy.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  cfg.overload.queue_watermark = 1;
  cfg.overload.max_iterations = 3;
  GraphService svc(build_test_graph(), cfg);
  auto hostage = svc.pool().acquire();

  auto pr = [] {
    QueryRequest q("PR");
    q.params.set("iterations", 50);
    return q;
  };
  auto a = svc.submit(pr());
  auto b = svc.submit(pr());
  auto c = svc.submit(pr());
  hostage.release();

  const QueryResult ra = a.get();
  const QueryResult rb = b.get();
  const QueryResult rc = c.get();
  ASSERT_TRUE(ra.ok() && rb.ok() && rc.ok())
      << ra.error << rb.error << rc.error;
  // The first query ran with 2 still queued (depth 2 > watermark 1): clamped.
  EXPECT_TRUE(ra.degraded);
  EXPECT_EQ(ra.value.as<algorithms::PageRankResult>().iterations, 3);
  // The last query ran with an empty queue: full accuracy.
  EXPECT_FALSE(rc.degraded);
  EXPECT_EQ(rc.value.as<algorithms::PageRankResult>().iterations, 50);
  EXPECT_GE(svc.stats().queries_degraded, 1u);
}

TEST(ServiceDeadline, BatchRequestsHonourPerRequestDeadlines) {
  ServiceConfig cfg;
  cfg.workers = 2;
  GraphService svc(build_test_graph(), cfg);

  std::vector<QueryRequest> reqs;
  reqs.push_back(long_pagerank());
  reqs.back().deadline = milliseconds(100);
  reqs.emplace_back("CC");
  const auto results = svc.run_batch(std::move(reqs));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, QueryStatus::kDeadlineExceeded);
  EXPECT_TRUE(results[1].ok()) << results[1].error;
}

TEST(ServiceDeadline, BatchLeaseWaitHonoursDeadlinesAgainstStarvedPool) {
  // Regression: run_batch once leased through a path of its own that used
  // an *untimed* pool_.acquire(), ignoring both lease_timeout and the
  // queries' own deadlines — a fully-leased pool wedged the batch (and its
  // worker) forever.  Batch queries now run through submit()'s bounded
  // lease wait: every deadline-carrying future below must resolve on its
  // own, before the hostage lease is ever returned.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  GraphService svc(build_test_graph(), cfg);
  auto hostage = svc.pool().acquire();
  ASSERT_TRUE(hostage.valid());

  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 3; ++i) {
    reqs.push_back(long_pagerank());
    reqs.back().deadline = milliseconds(150);
  }
  auto fut = std::async(std::launch::async, [&svc, &reqs] {
    return svc.run_batch(std::move(reqs));
  });
  // Generous bound for sanitizer jobs; pre-fix this blocks until the
  // hostage release below, so the wait times out and the test fails
  // instead of hanging the harness.
  const bool resolved = fut.wait_for(std::chrono::seconds(20)) ==
                        std::future_status::ready;
  hostage.release();
  ASSERT_TRUE(resolved)
      << "run_batch wedged on an untimed pool acquire with all deadlines set";

  const auto results = fut.get();
  ASSERT_EQ(results.size(), 3u);
  // The first query fails the bounded lease wait ("waiting for workspace");
  // later ones find their tokens already expired at the per-query
  // pre-check ("in queue").  Either way: kDeadlineExceeded, never a hang.
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.status, QueryStatus::kDeadlineExceeded) << r.error;
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(ServiceDeadline, BatchLeaseTimeoutShedsLikeSubmit) {
  // Same resolution matrix as submit(): with no deadlines but a configured
  // lease_timeout, a starved pool sheds each query instead of wedging.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  cfg.lease_timeout = milliseconds(50);
  GraphService svc(build_test_graph(), cfg);
  auto hostage = svc.pool().acquire();

  std::vector<QueryRequest> reqs;
  reqs.emplace_back("CC");
  reqs.emplace_back("CC");
  auto fut = std::async(std::launch::async, [&svc, &reqs] {
    return svc.run_batch(std::move(reqs));
  });
  const bool resolved = fut.wait_for(std::chrono::seconds(20)) ==
                        std::future_status::ready;
  hostage.release();
  ASSERT_TRUE(resolved) << "run_batch ignored lease_timeout";

  const auto results = fut.get();
  ASSERT_EQ(results.size(), 2u);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.status, QueryStatus::kShed) << r.error;
    EXPECT_NE(r.error.find("lease"), std::string::npos) << r.error;
  }
  // The pool is whole again afterwards.
  EXPECT_TRUE(svc.run_batch({QueryRequest("CC")})[0].ok());
}

TEST(ServiceDeadline, BatchShedsPerQueryLikeSubmit) {
  // A batch is admitted request by request, exactly like submit(): with
  // room for two queued entries, the first two requests of a four-request
  // batch queue and the last two shed "queue full".
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  cfg.max_queue_depth = 2;
  GraphService svc(build_test_graph(), cfg);
  auto hostage = svc.pool().acquire();

  // Wedge the worker: it pops this query, then blocks on the hostage lease.
  auto first = svc.submit(QueryRequest("CC"));
  while (svc.queue_depth() > 0) std::this_thread::yield();

  auto batch = std::async(std::launch::async, [&svc] {
    return svc.run_batch(std::vector<QueryRequest>(4, QueryRequest("CC")));
  });
  // Release the worker only once all four requests were admitted or shed;
  // bounded, so a batch admitted as one unit fails here instead of hanging.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((svc.queue_depth() < 2 || svc.stats().queries_shed < 2) &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(milliseconds(1));
  hostage.release();

  ASSERT_EQ(batch.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_TRUE(first.get().ok());
  const auto results = batch.get();
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_TRUE(results[i].ok()) << i << ": " << results[i].error;
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(results[i].status, QueryStatus::kShed) << i;
    EXPECT_NE(results[i].error.find("queue full"), std::string::npos)
        << results[i].error;
  }
}

TEST(ServiceDeadline, AdmissionTimeoutShedStampsRealQueueWait) {
  // Regression: queries shed at dequeue (admission_timeout) resolved with
  // queue_seconds == 0 because the drop path never stamped it — exactly
  // the overloaded-tail latencies the service percentiles exist to report.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  cfg.admission_timeout = milliseconds(50);
  GraphService svc(build_test_graph(), cfg);
  auto hostage = svc.pool().acquire();

  auto running = svc.submit(QueryRequest("CC"));
  while (svc.queue_depth() > 0)
    std::this_thread::sleep_for(milliseconds(1));
  auto stale = svc.submit(QueryRequest("CC"));

  std::this_thread::sleep_for(milliseconds(120));
  hostage.release();

  EXPECT_TRUE(running.get().ok());
  const QueryResult r = stale.get();
  ASSERT_EQ(r.status, QueryStatus::kShed);
  // It sat in queue for the whole admission window (at least).
  EXPECT_GE(r.queue_seconds, 0.05);
}

TEST(ServiceDeadline, ShutdownCancelledQueueEntryStampsQueueWait) {
  // The other half of the same regression: a queued entry stolen by
  // shutdown() resolves kCancelled, and its queue_seconds must report the
  // real wait, not 0.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  GraphService svc(build_test_graph(), cfg);
  auto hostage = svc.pool().acquire();

  auto wedged = svc.submit(QueryRequest("CC"));
  auto queued = svc.submit(QueryRequest("CC"));
  std::this_thread::sleep_for(milliseconds(30));
  svc.shutdown();
  hostage.release();

  // The first query was dequeued and is blocked on the (closed) pool; it
  // resolves kCancelled through the lease path.
  EXPECT_EQ(wedged.get().status, QueryStatus::kCancelled);
  const QueryResult r = queued.get();
  ASSERT_EQ(r.status, QueryStatus::kCancelled);
  EXPECT_GE(r.queue_seconds, 0.02);
}

TEST(ServiceDeadline, BatchQueueSecondsAreMonotonicWithinASlice) {
  // Regression: batch queries once all reported the batch's *initial*
  // queue wait, hiding the time later queries spent behind earlier ones.
  // Each query's queue_seconds is its own wait, so with one worker the
  // waits are non-decreasing in request order, and the last query (which
  // waited behind three real PR runs) reports strictly more than the
  // first.
  ServiceConfig cfg;
  cfg.workers = 1;  // executed in request order
  GraphService svc(build_test_graph(), cfg);

  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.emplace_back("PR");
    reqs.back().params.set("iterations", 30);
  }
  const auto results = svc.run_batch(std::move(reqs));
  ASSERT_EQ(results.size(), 4u);
  for (const QueryResult& r : results) ASSERT_TRUE(r.ok()) << r.error;
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_GE(results[i].queue_seconds, results[i - 1].queue_seconds) << i;
  EXPECT_GT(results.back().queue_seconds, results.front().queue_seconds);
}

TEST(ServiceDeadline, StatusLabelsAreStable) {
  EXPECT_STREQ(to_string(QueryStatus::kOk), "ok");
  EXPECT_STREQ(to_string(QueryStatus::kError), "error");
  EXPECT_STREQ(to_string(QueryStatus::kDeadlineExceeded), "deadline");
  EXPECT_STREQ(to_string(QueryStatus::kCancelled), "cancelled");
  EXPECT_STREQ(to_string(QueryStatus::kShed), "shed");
}

}  // namespace
}  // namespace grind::service
