// k-core decomposition: exact coreness on hand-checked shapes, invariance
// under vertex reordering and layouts, and the registry wiring that makes
// it the worked example of "add an algorithm without touching dispatch".
//
// Degree semantics (kcore.hpp): total degree of the directed multigraph —
// each directed edge contributes one endpoint to its source and one to its
// destination, so a bidirected pair counts 2 per endpoint and a self-loop
// counts 2.
#include "algorithms/kcore.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "algorithms/registry.hpp"
#include "engine/engine.hpp"
#include "engine/workspace.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"

namespace grind::algorithms {
namespace {

KcoreResult run_kcore(const graph::EdgeList& el,
                      graph::BuildOptions bopts = {},
                      engine::Options eopts = {}) {
  const graph::Graph g = graph::Graph::build(graph::EdgeList(el), bopts);
  engine::TraversalWorkspace ws;
  engine::Engine eng(g, eopts, ws);
  return kcore(eng);
}

TEST(Kcore, EmptyGraph) {
  graph::EdgeList el;
  el.set_num_vertices(0);
  const auto r = run_kcore(el);
  EXPECT_TRUE(r.core.empty());
  EXPECT_EQ(r.max_core, 0u);
}

TEST(Kcore, IsolatedVerticesHaveCorenessZero) {
  graph::EdgeList el;
  el.set_num_vertices(5);  // no edges at all
  const auto r = run_kcore(el);
  EXPECT_EQ(r.core, std::vector<vid_t>(5, 0));
  EXPECT_EQ(r.max_core, 0u);
}

TEST(Kcore, PathIsOneCore) {
  // 0→1→2→3→4: every vertex survives k=1 (degree ≥ 1) and peels at k=2.
  const auto r = run_kcore(graph::path(5));
  EXPECT_EQ(r.core, std::vector<vid_t>(5, 1));
  EXPECT_EQ(r.max_core, 1u);
}

TEST(Kcore, StarIsOneCore) {
  // Hub with 7 out-edges: leaves have degree 1; removing them strips the
  // hub too, so everything is in the 1-core only.
  const auto r = run_kcore(graph::star(8));
  EXPECT_EQ(r.core, std::vector<vid_t>(8, 1));
  EXPECT_EQ(r.max_core, 1u);
}

TEST(Kcore, DirectedCycleIsTwoCore) {
  // Each vertex has out-degree 1 + in-degree 1 = total degree 2.
  const auto r = run_kcore(graph::cycle(6));
  EXPECT_EQ(r.core, std::vector<vid_t>(6, 2));
  EXPECT_EQ(r.max_core, 2u);
}

TEST(Kcore, CompleteGraphCorenessIsTotalDegree) {
  // complete(n) has u→v for every ordered pair (u ≠ v): total degree
  // 2(n-1), and no vertex peels before any other.
  const auto r = run_kcore(graph::complete(5));
  EXPECT_EQ(r.core, std::vector<vid_t>(5, 8));
  EXPECT_EQ(r.max_core, 8u);
}

TEST(Kcore, SelfLoopContributesTwoDegreeUnits) {
  graph::EdgeList el;
  el.set_num_vertices(1);
  el.add(0, 0);
  const auto r = run_kcore(el);
  EXPECT_EQ(r.core, std::vector<vid_t>{2});
}

TEST(Kcore, PeelingSeparatesCoreFromPeriphery) {
  // A bidirected triangle (coreness 2·2 = 4 under multigraph degrees? no:
  // each bidirected pair gives each endpoint total degree 2, and a triangle
  // vertex touches two pairs → degree 4) with a pendant chain hanging off
  // vertex 0.  The chain peels early; the triangle survives to k=4.
  graph::EdgeList el;
  el.set_num_vertices(5);
  auto bidir = [&](vid_t a, vid_t b) {
    el.add(a, b);
    el.add(b, a);
  };
  bidir(0, 1);
  bidir(1, 2);
  bidir(2, 0);
  bidir(0, 3);  // pendant chain 0–3–4
  bidir(3, 4);
  const auto r = run_kcore(el);
  EXPECT_EQ(r.core, (std::vector<vid_t>{4, 4, 4, 2, 2}));
  EXPECT_EQ(r.max_core, 4u);
}

TEST(Kcore, InvariantUnderOrderingAndLayout) {
  const auto el = graph::rmat(7, 8, 12345);
  const auto base = run_kcore(el);
  for (const auto ordering : graph::all_orderings()) {
    for (const auto layout :
         {engine::Layout::kAuto, engine::Layout::kBackwardCsc,
          engine::Layout::kDenseCoo}) {
      graph::BuildOptions bopts;
      bopts.ordering = ordering;
      bopts.num_partitions = 4;
      engine::Options eopts;
      eopts.layout = layout;
      const auto got = run_kcore(el, bopts, eopts);
      EXPECT_EQ(got.core, base.core)
          << "ordering=" << graph::ordering_name(ordering)
          << " layout=" << engine::to_string(layout);
      EXPECT_EQ(got.max_core, base.max_core);
    }
  }
}

TEST(Kcore, RegisteredWithExpectedCapabilities) {
  const AlgorithmDesc& d = AlgorithmRegistry::instance().at("KCore");
  EXPECT_FALSE(d.caps.needs_source);
  EXPECT_FALSE(d.caps.needs_weights);
  EXPECT_TRUE(d.caps.deterministic);
  EXPECT_TRUE(d.check != nullptr);  // fuzz sweep oracle-checks it

  const graph::Graph g = graph::Graph::build(graph::cycle(4));
  engine::Engine eng(g);
  const AnyResult r = d.run(eng, Params{});
  EXPECT_EQ(r.as<KcoreResult>().max_core, 2u);
  EXPECT_NE(d.summarize(r).find("max core"), std::string::npos);
}

}  // namespace
}  // namespace grind::algorithms
