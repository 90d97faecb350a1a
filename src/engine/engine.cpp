#include "engine/engine.hpp"

#include <sstream>

namespace grind::engine {

std::string to_string(TraversalKind k) {
  switch (k) {
    case TraversalKind::kSparseCsr:
      return "sparse-csr";
    case TraversalKind::kBackwardCsc:
      return "backward-csc";
    case TraversalKind::kDenseCoo:
      return "dense-coo";
    case TraversalKind::kPartitionedCsr:
      return "partitioned-csr";
  }
  return "unknown";
}

std::string to_string(Layout l) {
  switch (l) {
    case Layout::kAuto:
      return "auto";
    case Layout::kSparseCsr:
      return "sparse-csr";
    case Layout::kBackwardCsc:
      return "backward-csc";
    case Layout::kDenseCoo:
      return "dense-coo";
    case Layout::kPartitionedCsr:
      return "partitioned-csr";
  }
  return "unknown";
}

std::string Engine::stats_report() const {
  std::ostringstream os;
  // Attribute the numbers to the build that produced them: every figure
  // below (layout mix, atomic elision, domain affinity) is a function of
  // the partitioning strategy the graph was built with, so a report that
  // omits it cannot be compared across fig3-matrix rows.
  os << "partitioner: " << graph().build_options().partitioner << '\n';
  os << "edge_map traversals: " << stats_.total_calls() << '\n';
  static constexpr TraversalKind kKinds[] = {
      TraversalKind::kSparseCsr, TraversalKind::kBackwardCsc,
      TraversalKind::kDenseCoo, TraversalKind::kPartitionedCsr};
  // Per-kind sweep counts, not just the aggregate: a forced layout only
  // governs non-sparse iterations (sparse frontiers keep the CSR), so
  // ablations need to see which kernel each sweep actually ran on.
  for (TraversalKind k : kKinds) {
    const auto i = static_cast<std::size_t>(k);
    if (stats_.calls[i] == 0) continue;
    os << "  " << to_string(k) << ": " << stats_.calls[i] << " calls, "
       << stats_.seconds[i] << " s, " << stats_.edges_examined[i]
       << " edges examined\n";
  }
  os << "  atomic rounds: " << stats_.atomic_rounds
     << ", non-atomic rounds: " << stats_.nonatomic_rounds << '\n';
  const auto& aff = stats_.affinity;
  if (aff.home_items + aff.stolen_items > 0) {
    os << "  domain affinity: " << aff.home_items << " home / "
       << aff.stolen_items << " stolen partition visits ("
       << stats_.home_visit_ratio() * 100.0 << "% home, "
       << stats_.home_weight_ratio() * 100.0 << "% of touched work)\n";
  }
  return os.str();
}

}  // namespace grind::engine
