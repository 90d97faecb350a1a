#include "algorithms/pagerank.hpp"

#include "algorithms/ref/reference.hpp"
#include "algorithms/registration.hpp"
#include "engine/engine.hpp"

namespace grind::algorithms {

template PageRankResult pagerank<engine::Engine>(engine::Engine&,
                                                 PageRankOptions);

namespace {

PageRankOptions pr_options(const Params& p) {
  PageRankOptions o;
  o.iterations = static_cast<int>(p.get_int("iterations"));
  o.damping = p.get_real("damping");
  return o;
}

AlgorithmDesc make_pr_desc() {
  AlgorithmDesc d;
  d.name = "PR";
  d.title = "PageRank by the power method, fixed iteration count";
  d.table_order = 2;
  d.schema = {
      spec_int("iterations", "power-method iterations", 10, 0, 1e6),
      spec_real("damping", "damping factor", 0.85, 0.0, 1.0),
  };
  d.summarize = [](const AnyResult& r) {
    const auto& v = r.as<PageRankResult>();
    return "iterations: " + std::to_string(v.iterations);
  };
  d.check = [](const CheckContext& cx, const Params& p, const AnyResult& r) {
    const PageRankOptions o = pr_options(p);
    detail::check_near_vec(r.as<PageRankResult>().rank,
                           ref::pagerank(*cx.el, o.iterations, o.damping),
                           1e-9, "PR rank");
    return true;
  };
  return d;
}

const RegisterAlgorithm kRegisterPr(make_pr_desc(),
                                    [](auto& eng, const Params& p) {
                                      return AnyResult(
                                          pagerank(eng, pr_options(p)));
                                    });

}  // namespace

}  // namespace grind::algorithms
