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
#include "common/service_wedge.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "sys/cancel.hpp"

namespace grind::service {
namespace {

using grind::testing::long_pagerank;
using grind::testing::Wedge;
using std::chrono::milliseconds;

graph::Graph build_test_graph() {
  graph::BuildOptions opts;
  opts.num_partitions = 8;
  return graph::Graph::build(graph::rmat(9, 8, 2026), opts);
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
  // One worker, held by a wedge query: the query below cannot start before
  // its deadline passes, so it must resolve kDeadlineExceeded without
  // running once the worker frees up (deadline measured from submission,
  // not from execution start).
  ServiceConfig cfg;
  cfg.workers = 1;
  GraphService svc(build_test_graph(), cfg);
  Wedge wedge(svc);

  QueryRequest req("CC");
  req.deadline = milliseconds(100);
  auto fut = svc.submit(std::move(req));
  std::this_thread::sleep_for(milliseconds(150));
  wedge.release();

  const QueryResult r = fut.get();
  EXPECT_EQ(r.status, QueryStatus::kDeadlineExceeded);
  EXPECT_NE(r.error.find("in queue"), std::string::npos) << r.error;
  EXPECT_EQ(r.iterations_done, 0);
  EXPECT_EQ(r.seconds, 0.0);
  EXPECT_GE(r.queue_seconds, 0.1);
  EXPECT_EQ(wedge.get().status, QueryStatus::kCancelled);
}

TEST(ServiceDeadline, FullQueueShedsImmediatelyAndAdmittedQueriesStillServe) {
  // Saturation: 1 worker held by a wedge query, a queue capped at 2.
  // Every submit past the cap must resolve kShed without blocking, and the
  // admitted queries must complete once the worker frees up.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 2;
  GraphService svc(build_test_graph(), cfg);
  Wedge wedge(svc);

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

  // Release the wedge: the tier keeps serving everything it admitted.
  wedge.release();
  EXPECT_EQ(wedge.get().status, QueryStatus::kCancelled);
  EXPECT_TRUE(queued1.get().ok());
  EXPECT_TRUE(queued2.get().ok());
}

TEST(ServiceDeadline, AdmissionTimeoutShedsStaleQueueEntries) {
  // The worker is held up long enough that queued entries outlive the
  // admission timeout; at dequeue they shed instead of executing.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.admission_timeout = milliseconds(50);
  GraphService svc(build_test_graph(), cfg);
  Wedge wedge(svc);  // dequeued before it went stale
  auto stale = svc.submit(QueryRequest("CC"));

  std::this_thread::sleep_for(milliseconds(120));
  wedge.release();

  EXPECT_EQ(wedge.get().status, QueryStatus::kCancelled);
  const QueryResult r = stale.get();
  EXPECT_EQ(r.status, QueryStatus::kShed);
  EXPECT_NE(r.error.find("admission"), std::string::npos) << r.error;
  // The worker survives its shed: the next query runs.
  EXPECT_TRUE(svc.submit(QueryRequest("CC")).get().ok());
}

TEST(ServiceDeadline, OverloadWatermarkClampsIterationsAndFlagsDegraded) {
  // One worker held by a wedge query while three PR queries pile up.
  // When the first of them finally runs, two more are still queued —
  // depth 2 > watermark 1 — so its iteration cap is clamped from 50 to 3.
  // By the time the last one runs the queue is empty: full accuracy.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.overload.queue_watermark = 1;
  cfg.overload.max_iterations = 3;
  GraphService svc(build_test_graph(), cfg);
  Wedge wedge(svc);  // started with an empty queue: never clamped

  auto pr = [] {
    QueryRequest q("PR");
    q.params.set("iterations", 50);
    return q;
  };
  auto a = svc.submit(pr());
  auto b = svc.submit(pr());
  auto c = svc.submit(pr());
  wedge.release();

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
  EXPECT_EQ(wedge.get().status, QueryStatus::kCancelled);
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

TEST(ServiceDeadline, BatchDeadlinesCoverQueueWaitBehindABusyWorker) {
  // Batch queries are admitted through submit(), so their deadlines start
  // at admission too: queued behind a wedge query until every deadline has
  // passed, they resolve kDeadlineExceeded without running once the worker
  // frees up.
  ServiceConfig cfg;
  cfg.workers = 1;
  GraphService svc(build_test_graph(), cfg);
  Wedge wedge(svc);

  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 3; ++i) {
    reqs.push_back(long_pagerank());
    reqs.back().deadline = milliseconds(100);
  }
  auto fut = std::async(std::launch::async, [&svc, &reqs] {
    return svc.run_batch(std::move(reqs));
  });
  while (svc.queue_depth() < 3) std::this_thread::yield();
  std::this_thread::sleep_for(milliseconds(150));
  wedge.release();

  // Generous bound for sanitizer jobs: a hang fails here instead of
  // wedging the harness.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const auto results = fut.get();
  ASSERT_EQ(results.size(), 3u);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.status, QueryStatus::kDeadlineExceeded) << r.error;
    EXPECT_EQ(r.iterations_done, 0);
    EXPECT_GE(r.queue_seconds, 0.1);
  }
  EXPECT_EQ(wedge.get().status, QueryStatus::kCancelled);
}

TEST(ServiceDeadline, BatchShedsPerQueryLikeSubmit) {
  // A batch is admitted request by request, exactly like submit(): with
  // room for two queued entries, the first two requests of a four-request
  // batch queue and the last two shed "queue full".
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 2;
  GraphService svc(build_test_graph(), cfg);
  Wedge wedge(svc);

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
  wedge.release();

  ASSERT_EQ(batch.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(wedge.get().status, QueryStatus::kCancelled);
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
  cfg.admission_timeout = milliseconds(50);
  GraphService svc(build_test_graph(), cfg);
  Wedge wedge(svc);
  auto stale = svc.submit(QueryRequest("CC"));

  std::this_thread::sleep_for(milliseconds(120));
  wedge.release();

  EXPECT_EQ(wedge.get().status, QueryStatus::kCancelled);
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
  GraphService svc(build_test_graph(), cfg);
  Wedge wedge(svc);

  auto queued = svc.submit(QueryRequest("CC"));
  std::this_thread::sleep_for(milliseconds(30));
  // shutdown() joins the busy worker, so it runs on a helper thread; the
  // queued entry resolves as soon as shutdown() steals the queue.
  std::thread stopper([&svc] { svc.shutdown(); });
  const bool resolved = queued.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  wedge.release();
  stopper.join();
  ASSERT_TRUE(resolved) << "queued entry resolved only after the worker";
  const QueryResult r = queued.get();

  ASSERT_EQ(r.status, QueryStatus::kCancelled);
  EXPECT_GE(r.queue_seconds, 0.02);
  EXPECT_EQ(wedge.get().status, QueryStatus::kCancelled);
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
