// Explicit instantiation of BFS for the primary engine; baseline engines
// instantiate from the header where used.
#include "algorithms/bfs.hpp"

#include "algorithms/ref/reference.hpp"
#include "algorithms/registration.hpp"
#include "engine/engine.hpp"

namespace grind::algorithms {

template BfsResult bfs<engine::Engine>(engine::Engine&, vid_t);

namespace {

AlgorithmDesc make_bfs_desc() {
  AlgorithmDesc d;
  d.name = "BFS";
  d.title = "breadth-first search: hop levels and parents from a source";
  d.table_order = 3;
  d.caps.needs_source = true;
  d.caps.vertex_oriented = true;
  d.schema = {spec_int("source",
                       "start vertex (original ID); absent = default source",
                       std::nullopt, 0,
                       static_cast<double>(kInvalidVertex) - 1)};
  d.summarize = [](const AnyResult& r) {
    const auto& v = r.as<BfsResult>();
    return "reached: " + std::to_string(v.reached) + " in " +
           std::to_string(v.rounds) + " rounds";
  };
  // Levels are deterministic; parents are any valid BFS tree (which parent
  // claims a vertex first is schedule-dependent), so only levels are
  // oracle-checked.
  d.check = [](const CheckContext& cx, const Params& p, const AnyResult& r) {
    detail::check_eq_vec(
        r.as<BfsResult>().level,
        ref::bfs_levels(*cx.el, static_cast<vid_t>(p.get_int("source"))),
        "BFS level");
    return true;
  };
  return d;
}

const RegisterAlgorithm kRegisterBfs(
    make_bfs_desc(), [](auto& eng, const Params& p) {
      return AnyResult(bfs(eng, static_cast<vid_t>(p.get_int("source"))));
    });

}  // namespace

}  // namespace grind::algorithms
