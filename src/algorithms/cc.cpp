#include "algorithms/cc.hpp"

#include "algorithms/ref/reference.hpp"
#include "algorithms/registration.hpp"
#include "engine/engine.hpp"

namespace grind::algorithms {

template CcResult connected_components<engine::Engine>(engine::Engine&);

namespace {

AlgorithmDesc make_cc_desc() {
  AlgorithmDesc d;
  d.name = "CC";
  d.title = "connected components by min-label propagation";
  d.table_order = 1;
  d.summarize = [](const AnyResult& r) {
    const auto& v = r.as<CcResult>();
    return "components: " + std::to_string(v.num_components);
  };
  // The directed label-propagation fixpoint is defined in terms of vertex
  // numbering, so the oracle comparison is exact only under the identity
  // ordering; other orderings are covered by the ordering-equivalence suite.
  d.check = [](const CheckContext& cx, const Params&, const AnyResult& r) {
    if (!cx.identity_ordering) return false;  // skipped, not compared
    detail::check_eq_vec(r.as<CcResult>().labels, ref::cc_labels(*cx.el),
                         "CC label");
    return true;
  };
  return d;
}

const RegisterAlgorithm kRegisterCc(make_cc_desc(),
                                    [](auto& eng, const Params&) {
                                      return AnyResult(
                                          connected_components(eng));
                                    });

}  // namespace

}  // namespace grind::algorithms
