// Fault-injection suite: arms sys/fault.hpp sites inside the service and
// proves the robustness contract holds under every injected failure — no
// deadlock, no leaked workspace lease, correct QueryStatus codes.  The CI
// fault job runs this file under TSan with -DGRIND_FAULT_INJECT=ON; without
// that definition the whole file compiles away.
#ifdef GRIND_FAULT_INJECT

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "service/graph_service.hpp"
#include "sys/cancel.hpp"
#include "sys/fault.hpp"

namespace grind::service {
namespace {

using std::chrono::milliseconds;

graph::Graph build_test_graph() {
  graph::BuildOptions opts;
  opts.num_partitions = 8;
  return graph::Graph::build(graph::rmat(9, 8, 2026), opts);
}

/// Every test leaves the registry clean for the next one.
class ServiceFault : public ::testing::Test {
 protected:
  void TearDown() override { sys::fault::disarm_all(); }
};

TEST_F(ServiceFault, RegistryCountersAndScriptedTriggers) {
  sys::fault::Spec spec;
  spec.after = 2;   // skip the first two hits
  spec.limit = 3;   // then fire exactly three times
  sys::fault::arm("unit.site", spec);
  int fired = 0;
  for (int i = 0; i < 10; ++i)
    if (sys::fault::fire("unit.site")) ++fired;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sys::fault::hits("unit.site"), 10u);
  EXPECT_EQ(sys::fault::triggered("unit.site"), 3u);
  // Unarmed sites never fire and count nothing.
  EXPECT_FALSE(sys::fault::fire("unit.other"));
  EXPECT_EQ(sys::fault::hits("unit.other"), 0u);
  // Probability is seeded and deterministic: same seed → same decisions.
  std::vector<bool> first;
  for (int round = 0; round < 2; ++round) {
    sys::fault::Spec p;
    p.probability = 0.5;
    p.seed = 42;
    sys::fault::arm("unit.prob", p);
    std::vector<bool> decisions;
    for (int i = 0; i < 32; ++i)
      decisions.push_back(sys::fault::fire("unit.prob"));
    if (round == 0) {
      first = decisions;
    } else {
      EXPECT_EQ(decisions, first);
    }
  }
}

TEST_F(ServiceFault, WorkspaceAllocFailureFailsQueryWithoutLeakingCapacity) {
  // The first workspace creation throws bad_alloc; the query must fail
  // cleanly (kError) and the pool must NOT leak the capacity slot — the
  // next query creates the workspace and succeeds.
  sys::fault::Spec spec;
  spec.limit = 1;
  sys::fault::arm("pool.workspace-alloc", spec);

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.pool_capacity = 1;
  GraphService svc(build_test_graph(), cfg);

  const QueryResult r = svc.submit(QueryRequest("CC")).get();
  EXPECT_EQ(r.status, QueryStatus::kError);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(svc.pool().in_use(), 0u);
  EXPECT_EQ(svc.pool().created(), 0u);  // failed create claimed no slot

  const QueryResult ok = svc.submit(QueryRequest("CC")).get();
  EXPECT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(svc.pool().created(), 1u);
  EXPECT_EQ(svc.pool().in_use(), 0u);
}

TEST_F(ServiceFault, SlowWorkerStallTripsDeadline) {
  // A 300 ms stall injected between lease acquisition and execution, against
  // a 100 ms deadline: the query must resolve kDeadlineExceeded (the first
  // engine poll observes the expired token) and release its lease.
  sys::fault::Spec spec;
  spec.stall_ms = 300;
  spec.limit = 1;
  sys::fault::arm("service.worker-stall", spec);

  ServiceConfig cfg;
  cfg.workers = 1;
  GraphService svc(build_test_graph(), cfg);

  QueryRequest req("CC");
  req.deadline = milliseconds(100);
  const QueryResult r = svc.submit(std::move(req)).get();
  EXPECT_EQ(r.status, QueryStatus::kDeadlineExceeded);
  EXPECT_EQ(svc.pool().in_use(), 0u);

  // The stall was one-shot: the tier is healthy again.
  const QueryResult ok = svc.submit(QueryRequest("CC")).get();
  EXPECT_TRUE(ok.ok()) << ok.error;
}

TEST_F(ServiceFault, MidQueryCancelViaEnginePollSite) {
  // "engine.poll-cancel" fires on the Nth edge-map boundary poll, forcing a
  // deterministic mid-run cancel with no timing dependence.  Every sweep
  // over a non-empty frontier polls twice (edge_map entry + post-sweep), so
  // firing on hit 2k+1 stops the run after exactly k completed sweeps.
  ServiceConfig cfg;
  cfg.workers = 1;
  GraphService svc(build_test_graph(), cfg);

  // BC runs F forward sweeps, then F-1 transposed backward sweeps.  Take F
  // from an unfaulted run on the same graph and (default) source, and fire
  // past the forward phase and the first backward sweep, so the cancel
  // lands in the second transposed sweep.
  const QueryResult clean = svc.submit(QueryRequest("BC")).get();
  ASSERT_TRUE(clean.ok()) << clean.error;
  const int forward = (clean.iterations_done + 1) / 2;
  ASSERT_GE(forward, 3) << "too shallow for two backward sweeps";

  QueryRequest pr("PR");
  pr.params.set("iterations", 50);
  struct Case {
    QueryRequest req;
    int sweeps;        ///< completed sweeps before the fire
    int min_progress;  ///< sweeps the run must have got past
  };
  const Case cases[] = {{pr, 3, 0}, {QueryRequest("BC"), forward + 1, forward}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.req.algorithm);
    sys::fault::Spec spec;
    spec.after = 2 * static_cast<std::uint64_t>(c.sweeps);
    spec.limit = 1;
    sys::fault::arm("engine.poll-cancel", spec);

    QueryRequest req = c.req;
    // The fault site only fires when a token is being polled; any live
    // token (no deadline) switches polling on.
    req.cancel = std::make_shared<sys::CancelToken>();
    const QueryResult r = svc.submit(std::move(req)).get();
    EXPECT_EQ(r.status, QueryStatus::kCancelled) << r.error;
    EXPECT_EQ(sys::fault::triggered("engine.poll-cancel"), 1u);
    EXPECT_EQ(r.iterations_done, c.sweeps);
    EXPECT_GT(r.iterations_done, c.min_progress);
    EXPECT_TRUE(r.value.empty());
    EXPECT_EQ(svc.pool().in_use(), 0u);
  }
}

TEST_F(ServiceFault, ChaosSweepLeavesNoLeakedLeasesOrHungFutures) {
  // Probabilistic chaos: every site armed at once — allocation failures,
  // stalls, forced cancels — under a concurrent query mix.  The invariants:
  // every future resolves, every lease returns, the status partition adds
  // up, and (under the CI TSan job) no data race.
  {
    sys::fault::Spec alloc;
    alloc.probability = 0.3;
    alloc.seed = 7;
    sys::fault::arm("pool.workspace-alloc", alloc);
    sys::fault::Spec stall;
    stall.probability = 0.2;
    stall.stall_ms = 5;
    stall.seed = 11;
    sys::fault::arm("service.worker-stall", stall);
    sys::fault::Spec poll;
    poll.probability = 0.05;
    poll.seed = 13;
    sys::fault::arm("engine.poll-cancel", poll);
  }

  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.pool_capacity = 2;      // half the workers contend for leases
  cfg.max_queue_depth = 16;
  cfg.lease_timeout = milliseconds(200);
  GraphService svc(build_test_graph(), cfg);

  std::vector<std::future<QueryResult>> futs;
  for (int i = 0; i < 64; ++i) {
    QueryRequest req(i % 2 == 0 ? "CC" : "PR");
    if (i % 3 == 0) req.deadline = milliseconds(500);
    if (i % 5 == 0) req.cancel = std::make_shared<sys::CancelToken>();
    futs.push_back(svc.submit(std::move(req)));
  }

  std::uint64_t resolved = 0;
  for (auto& f : futs) {
    const QueryResult r = f.get();  // must not hang
    ++resolved;
    if (!r.ok()) EXPECT_FALSE(r.error.empty()) << to_string(r.status);
  }
  EXPECT_EQ(resolved, 64u);
  EXPECT_EQ(svc.pool().in_use(), 0u);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.queries_completed, 64u);
  // Status counters partition the failures.
  EXPECT_LE(st.queries_failed + st.queries_shed + st.queries_cancelled +
                st.queries_deadline_exceeded,
            64u);

  sys::fault::disarm_all();
  // Faults off: the tier recovers completely.
  const QueryResult ok = svc.submit(QueryRequest("CC")).get();
  EXPECT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(svc.pool().in_use(), 0u);
}

TEST_F(ServiceFault, StallNeverSleepsHoldingTheRegistryMutex) {
  // Regression guard for the fault registry's locking contract: stall()
  // must decide whether to fire (and for how long) under the registry
  // mutex, then SLEEP AFTER RELEASING IT — otherwise every concurrent
  // arm()/disarm_all()/fire() in the process serialises behind an injected
  // stall, and the chaos sweep's 4-worker timing collapses to sequential
  // (masking exactly the interleavings it exists to exercise).  The
  // annotations can't see through std::this_thread::sleep_for, so this is
  // pinned behaviourally: fire a long stall on one thread, then prove
  // registry mutations complete orders of magnitude faster than the stall.
  using clock = std::chrono::steady_clock;
  constexpr std::uint32_t kStallMs = 1000;

  sys::fault::Spec spec;
  spec.stall_ms = kStallMs;
  sys::fault::arm("unit.long-stall", spec);

  std::promise<void> entered;
  std::thread sleeper([&] {
    entered.set_value();
    sys::fault::stall("unit.long-stall");  // sleeps ~kStallMs
  });
  entered.get_future().wait();
  // Give the sleeper time to pass the registry critical section and enter
  // the sleep itself; a held-while-sleeping bug keeps the mutex for the
  // full second regardless of this delay.
  std::this_thread::sleep_for(milliseconds(50));

  const auto t0 = clock::now();
  sys::fault::Spec other;
  other.limit = 1;
  sys::fault::arm("unit.other-site", other);            // takes the mutex
  EXPECT_TRUE(sys::fault::fire("unit.other-site"));     // takes the mutex
  sys::fault::disarm_all();                             // takes the mutex
  const auto elapsed =
      std::chrono::duration_cast<milliseconds>(clock::now() - t0);

  // Generous CI margin: registry ops are microseconds; even a pathological
  // scheduler hiccup stays far below the 1000 ms stall they would inherit
  // if stall() slept under the lock.
  EXPECT_LT(elapsed.count(), static_cast<long>(kStallMs) / 2)
      << "registry mutation blocked behind an in-flight stall — stall() is "
         "sleeping with the registry mutex held";

  sleeper.join();
}

TEST_F(ServiceFault, ShutdownUnderChaosNeverHangs) {
  sys::fault::Spec stall;
  stall.probability = 0.5;
  stall.stall_ms = 10;
  stall.seed = 3;
  sys::fault::arm("service.worker-stall", stall);

  std::vector<std::future<QueryResult>> futs;
  {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.pool_capacity = 1;
    GraphService svc(build_test_graph(), cfg);
    for (int i = 0; i < 16; ++i)
      futs.push_back(svc.submit(QueryRequest("CC")));
    svc.shutdown();  // steals the queue, closes the pool, joins workers
  }
  for (auto& f : futs) {
    const QueryResult r = f.get();  // resolved, not dropped
    EXPECT_TRUE(r.ok() || r.status == QueryStatus::kCancelled)
        << to_string(r.status) << ": " << r.error;
  }
}

}  // namespace
}  // namespace grind::service

#endif  // GRIND_FAULT_INJECT
