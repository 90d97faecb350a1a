#include "algorithms/kcore.hpp"

#include <deque>

#include "algorithms/registration.hpp"
#include "engine/engine.hpp"
#include "graph/edge_list.hpp"

namespace grind::algorithms {

template KcoreResult kcore<engine::Engine>(engine::Engine&);

namespace {

/// Serial peeling oracle on the raw edge list, with the same total-degree
/// semantics (each directed edge contributes to both endpoints; a self-loop
/// adds 2).  Coreness is independent of peeling order, so the sequential
/// worklist matches the engine's batched removal exactly.
std::vector<vid_t> ref_kcore(const graph::EdgeList& el) {
  const vid_t n = el.num_vertices();
  std::vector<std::vector<vid_t>> adj(n);
  for (const auto& e : el.edges()) {
    adj[e.src].push_back(e.dst);
    adj[e.dst].push_back(e.src);
  }
  std::vector<std::int64_t> deg(n);
  for (vid_t v = 0; v < n; ++v)
    deg[v] = static_cast<std::int64_t>(adj[v].size());

  std::vector<vid_t> core(n, 0);
  std::vector<unsigned char> alive(n, 1);
  vid_t remaining = n;
  for (vid_t k = 1; remaining > 0; ++k) {
    std::deque<vid_t> work;
    for (vid_t v = 0; v < n; ++v)
      if (alive[v] != 0 && deg[v] < static_cast<std::int64_t>(k))
        work.push_back(v);
    while (!work.empty()) {
      const vid_t v = work.front();
      work.pop_front();
      if (alive[v] == 0) continue;
      alive[v] = 0;
      core[v] = k - 1;
      --remaining;
      for (vid_t nb : adj[v]) {
        if (alive[nb] == 0) continue;
        if (deg[nb]-- == static_cast<std::int64_t>(k)) work.push_back(nb);
      }
    }
  }
  return core;
}

AlgorithmDesc make_kcore_desc() {
  AlgorithmDesc d;
  d.name = "KCore";
  d.title = "k-core decomposition (coreness by parallel peeling)";
  d.table_order = 8;  // after the eight Table-II workloads
  d.caps.vertex_oriented = true;
  d.summarize = [](const AnyResult& r) {
    const auto& v = r.as<KcoreResult>();
    return "max core: " + std::to_string(v.max_core) + " in " +
           std::to_string(v.rounds) + " peel rounds";
  };
  d.check = [](const CheckContext& cx, const Params&, const AnyResult& r) {
    detail::check_eq_vec(r.as<KcoreResult>().core, ref_kcore(*cx.el),
                         "KCore coreness");
    return true;
  };
  return d;
}

const RegisterAlgorithm kRegisterKcore(make_kcore_desc(),
                                       [](auto& eng, const Params&) {
                                         return AnyResult(kcore(eng));
                                       });

}  // namespace

}  // namespace grind::algorithms
