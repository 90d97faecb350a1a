#include "algorithms/bellman_ford.hpp"

#include "algorithms/ref/reference.hpp"
#include "algorithms/registration.hpp"
#include "engine/engine.hpp"

namespace grind::algorithms {

template BellmanFordResult bellman_ford<engine::Engine>(engine::Engine&,
                                                        vid_t);

namespace {

AlgorithmDesc make_bf_desc() {
  AlgorithmDesc d;
  d.name = "BF";
  d.title = "Bellman-Ford single-source shortest paths";
  d.table_order = 6;
  d.caps.needs_source = true;
  d.caps.needs_weights = true;
  d.caps.vertex_oriented = true;
  d.schema = {spec_int("source",
                       "start vertex (original ID); absent = default source",
                       std::nullopt, 0,
                       static_cast<double>(kInvalidVertex) - 1)};
  // Summarise the deterministic projection only: dist is a pure function
  // of (graph, source), but `rounds` is schedule-dependent — an atomic
  // relaxation can propagate multiple hops within one edge_map round, so
  // the frontier may drain a round earlier or later run-to-run (same
  // convention as BFS's parents: any valid tree, summarised by levels).
  d.summarize = [](const AnyResult& r) {
    const auto& v = r.as<BellmanFordResult>();
    std::size_t reached = 0;
    for (const double dist : v.dist)
      if (dist != kUnreachable) ++reached;
    return "reached: " + std::to_string(reached);
  };
  // Dijkstra is the oracle; the suite keeps weights non-negative.
  d.check = [](const CheckContext& cx, const Params& p, const AnyResult& r) {
    detail::check_near_vec(
        r.as<BellmanFordResult>().dist,
        ref::sssp_dijkstra(*cx.el, static_cast<vid_t>(p.get_int("source"))),
        1e-6, "BF dist");
    return true;
  };
  return d;
}

const RegisterAlgorithm kRegisterBf(
    make_bf_desc(), [](auto& eng, const Params& p) {
      return AnyResult(
          bellman_ford(eng, static_cast<vid_t>(p.get_int("source"))));
    });

}  // namespace

}  // namespace grind::algorithms
