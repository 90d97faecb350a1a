#include "algorithms/bc.hpp"

#include "algorithms/ref/reference.hpp"
#include "algorithms/registration.hpp"
#include "engine/engine.hpp"

namespace grind::algorithms {

template BcResult betweenness_centrality<engine::Engine>(engine::Engine&,
                                                         vid_t);

namespace {

AlgorithmDesc make_bc_desc() {
  AlgorithmDesc d;
  d.name = "BC";
  d.title = "single-source betweenness centrality (Brandes)";
  d.table_order = 0;
  d.caps.needs_source = true;
  d.caps.vertex_oriented = true;
  d.schema = {spec_int("source",
                       "start vertex (original ID); absent = default source",
                       std::nullopt, 0,
                       static_cast<double>(kInvalidVertex) - 1)};
  d.summarize = [](const AnyResult& r) {
    return "rounds: " + std::to_string(r.as<BcResult>().rounds) +
           " (forward + backward)";
  };
  d.check = [](const CheckContext& cx, const Params& p, const AnyResult& r) {
    detail::check_near_vec(
        r.as<BcResult>().dependency,
        ref::bc_dependency(*cx.el, static_cast<vid_t>(p.get_int("source"))),
        1e-6, "BC dependency");
    return true;
  };
  return d;
}

const RegisterAlgorithm kRegisterBc(
    make_bc_desc(), [](auto& eng, const Params& p) {
      return AnyResult(betweenness_centrality(
          eng, static_cast<vid_t>(p.get_int("source"))));
    });

}  // namespace

}  // namespace grind::algorithms
