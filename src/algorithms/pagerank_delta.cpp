#include "algorithms/pagerank_delta.hpp"

#include "algorithms/ref/reference.hpp"
#include "algorithms/registration.hpp"
#include "engine/engine.hpp"

namespace grind::algorithms {

template PageRankDeltaResult pagerank_delta<engine::Engine>(
    engine::Engine&, PageRankDeltaOptions);

namespace {

PageRankDeltaOptions prdelta_options(const Params& p) {
  PageRankDeltaOptions o;
  o.damping = p.get_real("damping");
  o.epsilon = p.get_real("epsilon");
  o.max_rounds = static_cast<int>(p.get_int("max_rounds"));
  return o;
}

AlgorithmDesc make_prdelta_desc() {
  AlgorithmDesc d;
  d.name = "PRDelta";
  d.title = "delta-stepping PageRank (Ligra's PageRankDelta)";
  d.table_order = 4;
  d.schema = {
      spec_real("damping", "damping factor", 0.85, 0.0, 1.0),
      spec_real("epsilon", "significance threshold relative to 1/|V|", 0.05,
                0.0, 1e9),
      spec_int("max_rounds", "hard round cap", 100, 1, 1e7),
  };
  d.summarize = [](const AnyResult& r) {
    const auto& v = r.as<PageRankDeltaResult>();
    return "rounds: " + std::to_string(v.rounds) + " (" +
           std::to_string(v.dense_rounds) + " dense/" +
           std::to_string(v.medium_rounds) + " medium/" +
           std::to_string(v.sparse_rounds) + " sparse)";
  };
  // No oracle of its own: with a tight epsilon, rank_Δ · (1 − damping) must
  // converge to the fixpoint a long power iteration reaches (see
  // pagerank_delta.hpp for the scaling) — so the fuzz run tightens the
  // parameters and checks against ref::pagerank.
  d.fuzz_params = [](vid_t) {
    Params p;
    p.set("epsilon", 1e-9);
    p.set("max_rounds", 300);
    return p;
  };
  d.check = [](const CheckContext& cx, const Params& p, const AnyResult& r) {
    const PageRankDeltaOptions o = prdelta_options(p);
    std::vector<double> scaled = r.as<PageRankDeltaResult>().rank;
    for (auto& x : scaled) x *= 1.0 - o.damping;
    detail::check_near_vec(scaled, ref::pagerank(*cx.el, 200, o.damping), 1e-5,
                           "PRDelta rank (scaled by 1-damping)");
    return true;
  };
  return d;
}

const RegisterAlgorithm kRegisterPrDelta(
    make_prdelta_desc(), [](auto& eng, const Params& p) {
      return AnyResult(pagerank_delta(eng, prdelta_options(p)));
    });

}  // namespace

}  // namespace grind::algorithms
