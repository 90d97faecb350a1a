#include "algorithms/spmv.hpp"

#include "algorithms/ref/reference.hpp"
#include "algorithms/registration.hpp"
#include "engine/engine.hpp"

namespace grind::algorithms {

template SpmvResult spmv<engine::Engine>(engine::Engine&,
                                         const std::vector<double>&);

namespace {

AlgorithmDesc make_spmv_desc() {
  AlgorithmDesc d;
  d.name = "SPMV";
  d.title = "sparse matrix-vector multiply y = A.x over the edge weights";
  d.table_order = 5;
  d.caps.needs_weights = true;
  d.caps.takes_vector_input = true;
  d.schema = {spec_vec("x", "input vector indexed by original vertex ID; "
                            "empty or absent = all-ones")};
  d.summarize = [](const AnyResult& r) {
    return "y computed for " + std::to_string(r.as<SpmvResult>().y.size()) +
           " vertices";
  };
  // The fuzz run feeds a non-uniform x so weight handling is exercised.
  d.fuzz_params = [](vid_t n) {
    std::vector<double> x(n);
    for (vid_t v = 0; v < n; ++v)
      x[v] = 0.25 + static_cast<double>(v % 9);
    Params p;
    p.set("x", std::move(x));
    return p;
  };
  d.check = [](const CheckContext& cx, const Params& p, const AnyResult& r) {
    const auto& got = r.as<SpmvResult>();
    std::vector<double> x;
    if (p.has("x")) x = p.get_vec("x");
    if (x.empty()) x.assign(got.y.size(), 1.0);
    detail::check_near_vec(got.y, ref::spmv(*cx.el, x), 1e-9, "SPMV y");
    return true;
  };
  return d;
}

const RegisterAlgorithm kRegisterSpmv(
    make_spmv_desc(), [](auto& eng, const Params& p) {
      return AnyResult(
          spmv(eng, p.has("x") ? p.get_vec("x") : std::vector<double>{}));
    });

}  // namespace

}  // namespace grind::algorithms
