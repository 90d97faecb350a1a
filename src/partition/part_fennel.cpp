// Fennel streaming vertex partitioner (Tsourakakis et al., WSDM'14; named
// alongside LDG in ROADMAP item 1 and SNIPPETS.md §2).
//
// Same one-pass shape as LDG, different objective: place each arriving
// vertex into the partition maximising
//
//     |N(v) ∩ P_p|  −  α·γ·|P_p|^(γ−1)
//
// i.e. neighbour affinity minus the marginal cost of growing the
// partition under the Fennel interpolation of edge-cut and balance, with
// α = m·P^(γ−1)/n^γ so the penalty is scale-free.  A hard cap of
// ⌈slack·n/P⌉ vertices bounds the worst case (the ν constraint of the
// paper).  Neighbours count both directions over already-placed vertices;
// ties break to the least-loaded partition, then the smallest index.
#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/csr.hpp"
#include "partition/registration.hpp"
#include "partition/registry.hpp"

namespace grind::partition {
namespace {

PartitionerDesc make_desc() {
  PartitionerDesc d;
  d.name = "fennel";
  d.title = "Fennel streaming: affinity minus power-law balance penalty";
  d.list_order = 50;
  d.caps.streaming = true;
  d.caps.needs_degrees = false;
  d.caps.deterministic = true;
  d.schema = {
      algorithms::spec_real("gamma", "balance-penalty exponent", 1.5, 1.0,
                            4.0),
      algorithms::spec_real(
          "slack", "hard capacity: at most slack*n/P vertices per partition",
          1.1, 1.0, 16.0),
  };
  d.run = [](const graph::EdgeList& el, part_t num_partitions,
             const PartitionOptions&, const algorithms::Params& params) {
    const double gamma = params.get_real("gamma");
    const double slack = params.get_real("slack");
    const vid_t n = el.num_vertices();
    std::vector<part_t> assignment(n);
    if (n == 0) return assignment;

    const graph::Csr out = graph::Csr::build(el, graph::Adjacency::kOut);
    const graph::Csr in = out.transpose();

    const double m = static_cast<double>(el.num_edges());
    const double alpha =
        m * std::pow(static_cast<double>(num_partitions), gamma - 1.0) /
        std::pow(static_cast<double>(n), gamma);
    const vid_t cap = std::max<vid_t>(
        1, static_cast<vid_t>(std::ceil(
               slack * static_cast<double>(n) / num_partitions)));

    std::vector<vid_t> size(num_partitions, 0);
    std::vector<vid_t> nbr_count(num_partitions, 0);
    std::vector<part_t> touched;
    std::vector<unsigned char> placed(n, 0);
    touched.reserve(64);

    for (vid_t v = 0; v < n; ++v) {
      const auto tally = [&](vid_t u) {
        if (!placed[u]) return;
        const part_t p = assignment[u];
        if (nbr_count[p] == 0) touched.push_back(p);
        ++nbr_count[p];
      };
      for (vid_t u : out.neighbors(v)) tally(u);
      for (vid_t u : in.neighbors(v)) tally(u);

      part_t best = num_partitions;  // sentinel: none chosen yet
      double best_score = 0.0;
      for (part_t p = 0; p < num_partitions; ++p) {
        if (size[p] >= cap) continue;
        const double score =
            static_cast<double>(nbr_count[p]) -
            alpha * gamma * std::pow(static_cast<double>(size[p]),
                                     gamma - 1.0);
        if (best == num_partitions || score > best_score ||
            (score == best_score && size[p] < size[best]))
          best = p, best_score = score;
      }
      // cap·P ≥ n by construction, so a slot always exists.
      assignment[v] = best;
      ++size[best];
      placed[v] = 1;

      for (part_t p : touched) nbr_count[p] = 0;
      touched.clear();
    }
    return assignment;
  };
  return d;
}

const RegisterPartitioner kRegisterFennel(make_desc());

}  // namespace
}  // namespace grind::partition
