// Regression tests for registry-derived service validation.
//
// Before the AlgorithmRegistry, GraphService::execute's needs_source check
// was a hand-kept algorithm list — a new source-taking algorithm (or an
// overlooked one: BC was silently absent from some validation paths) could
// slip past the out-of-range check and index out of bounds inside the
// traversal.  Validation now derives from the registered capability flags,
// so these tests iterate the registry rather than naming algorithms: every
// source-taking entry, present and future, must fail cleanly.
#include <gtest/gtest.h>

#include <string>

#include "algorithms/registry.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "service/graph_service.hpp"

namespace grind::service {
namespace {

graph::Graph small_graph() {
  return graph::Graph::build(graph::rmat(6, 8, 99));
}

TEST(ServiceValidation, OutOfRangeSourceFailsCleanlyForEverySourceTaker) {
  GraphService svc(small_graph());
  const vid_t bad = svc.graph().num_vertices() + 17;
  std::size_t source_takers = 0;
  for (const auto* desc :
       algorithms::AlgorithmRegistry::instance().entries()) {
    if (!desc->caps.needs_source) continue;
    ++source_takers;
    QueryRequest req(desc->name);
    req.params.set("source", bad);
    const QueryResult r = svc.submit(std::move(req)).get();
    EXPECT_FALSE(r.ok()) << desc->name << " accepted an out-of-range source";
    EXPECT_NE(r.error.find("source"), std::string::npos)
        << desc->name << ": " << r.error;
    EXPECT_TRUE(r.value.empty()) << desc->name;
  }
  // BC, BFS and BF at minimum — the regression was BC missing from the
  // hand-kept list.
  EXPECT_GE(source_takers, 3u);
  EXPECT_EQ(svc.stats().queries_failed, source_takers);

  // The service survives: a valid query still executes on every entry.
  for (const auto* desc :
       algorithms::AlgorithmRegistry::instance().entries()) {
    const QueryResult r = svc.submit(QueryRequest(desc->name)).get();
    EXPECT_TRUE(r.ok()) << desc->name << ": " << r.error;
  }
}

TEST(ServiceValidation, MaximumValidSourceIsAccepted) {
  // Off-by-one guard on the derived check: source == n-1 is valid for every
  // source-taking algorithm.
  GraphService svc(small_graph());
  const vid_t last = svc.graph().num_vertices() - 1;
  for (const auto* desc :
       algorithms::AlgorithmRegistry::instance().entries()) {
    if (!desc->caps.needs_source) continue;
    QueryRequest req(desc->name);
    req.params.set("source", last);
    const QueryResult r = svc.submit(std::move(req)).get();
    EXPECT_TRUE(r.ok()) << desc->name << ": " << r.error;
  }
}

TEST(ServiceValidation, BatchWithMixedValidityKeepsPositions) {
  // Requests resolved at submission (validation failures) must not shift
  // the positions of the ones that ran.
  GraphService svc(small_graph());
  const vid_t bad = svc.graph().num_vertices() + 1;
  std::vector<QueryRequest> reqs;
  reqs.emplace_back("BFS");                      // ok (default source)
  reqs.emplace_back("BC");
  reqs.back().params.set("source", bad);         // fails
  reqs.emplace_back("CC");                       // ok
  reqs.emplace_back("NoSuchAlgo");               // fails
  const auto results = svc.run_batch(std::move(reqs));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.find("source"), std::string::npos)
      << results[1].error;
  EXPECT_TRUE(results[2].ok()) << results[2].error;
  EXPECT_FALSE(results[3].ok());
  EXPECT_NE(results[3].error.find("unknown algorithm"), std::string::npos)
      << results[3].error;
}

}  // namespace
}  // namespace grind::service
