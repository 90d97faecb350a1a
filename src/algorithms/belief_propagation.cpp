#include "algorithms/belief_propagation.hpp"

#include "algorithms/ref/reference.hpp"
#include "algorithms/registration.hpp"
#include "engine/engine.hpp"

namespace grind::algorithms {

template BeliefPropagationResult belief_propagation<engine::Engine>(
    engine::Engine&, BeliefPropagationOptions);

namespace {

BeliefPropagationOptions bp_options(const Params& p) {
  BeliefPropagationOptions o;
  o.iterations = static_cast<int>(p.get_int("iterations"));
  o.q_base = p.get_real("q_base");
  o.q_scale = p.get_real("q_scale");
  o.prior_seed = static_cast<std::uint64_t>(p.get_int("prior_seed"));
  return o;
}

AlgorithmDesc make_bp_desc() {
  AlgorithmDesc d;
  d.name = "BP";
  d.title = "loopy belief propagation on a pairwise binary MRF";
  d.table_order = 7;
  d.caps.needs_weights = true;
  d.schema = {
      spec_int("iterations", "message-passing iterations", 10, 0, 1e6),
      spec_real("q_base", "pairwise potential base coupling", 0.1, 0.0, 0.49),
      spec_real("q_scale", "pairwise potential weight coupling", 0.3, 0.0,
                10.0),
      spec_int("prior_seed", "seed of the deterministic per-vertex priors",
               42, 0, 9.2e18),
  };
  d.summarize = [](const AnyResult& r) {
    return "iterations: " +
           std::to_string(r.as<BeliefPropagationResult>().iterations);
  };
  d.check = [](const CheckContext& cx, const Params& p, const AnyResult& r) {
    const BeliefPropagationOptions o = bp_options(p);
    detail::check_near_vec(
        r.as<BeliefPropagationResult>().belief0,
        ref::belief_propagation(*cx.el, o.iterations, o.q_base, o.q_scale,
                                o.prior_seed),
        1e-9, "BP belief0");
    return true;
  };
  return d;
}

const RegisterAlgorithm kRegisterBp(
    make_bp_desc(), [](auto& eng, const Params& p) {
      return AnyResult(belief_propagation(eng, bp_options(p)));
    });

}  // namespace

}  // namespace grind::algorithms
