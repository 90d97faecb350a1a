#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "loadgen.hpp"
#include "partition/replication.hpp"
#include "partition/storage_model.hpp"

namespace perfbench {

namespace gg = grind::graph;

gg::Graph build_staged(gg::EdgeList el, Tracer& tr, BuildTimes* times) {
  BuildTimes bt;
  Clock::time_point t0 = Clock::now();
  auto lap = [&t0] {
    const double s = since(t0);
    t0 = Clock::now();
    return s;
  };
  gg::GraphBuilder b(std::move(el));
  {
    Tracer::Scope s(tr, "graph.order");
    b.order();
  }
  bt.order = lap();
  {
    Tracer::Scope s(tr, "graph.assign");
    b.assign();
  }
  bt.assign = lap();
  {
    Tracer::Scope s(tr, "graph.partition");
    b.partition();
  }
  bt.partition = lap();
  {
    Tracer::Scope s(tr, "graph.layouts");
    b.layouts();
  }
  bt.layouts = lap();
  gg::Graph g;
  {
    Tracer::Scope s(tr, "graph.build");
    g = std::move(b).build();
  }
  bt.finish = lap();
  if (times != nullptr) *times = bt;
  return g;
}

BuildTimes median_times(const std::vector<BuildTimes>& v) {
  auto med = [&v](double BuildTimes::*f) {
    std::vector<double> x;
    for (const auto& t : v) x.push_back(t.*f);
    return median(std::move(x));
  };
  BuildTimes m;
  m.order = med(&BuildTimes::order);
  m.assign = med(&BuildTimes::assign);
  m.partition = med(&BuildTimes::partition);
  m.layouts = med(&BuildTimes::layouts);
  m.finish = med(&BuildTimes::finish);
  return m;
}

void report_build_stages(const std::vector<BuildTimes>& setups, Report& rep) {
  const BuildTimes m = median_times(setups);
  rep.layer("graph.order_s", m.order, "s", "setup_s");
  rep.layer("graph.assign_s", m.assign, "s", "setup_s");
  rep.layer("graph.partition_s", m.partition, "s", "setup_s");
  rep.layer("graph.layouts_s", m.layouts, "s", "setup_s");
}

grind::vid_t lattice_source(grind::vid_t rows, grind::vid_t cols, int s,
                            std::mt19937_64& rng) {
  const double a1 = 0.7548776662466927, a2 = 0.5698402909980532;  // R2
  std::uniform_real_distribution<double> jitter(-0.02, 0.02);
  auto coord = [&](double alpha, grind::vid_t side) {
    double x = 0.5 + alpha * (s + 1);
    x = x - std::floor(x) + jitter(rng);
    x = std::clamp(x, 0.0, 1.0);
    return std::min(side - 1, static_cast<grind::vid_t>(x * side));
  };
  const grind::vid_t r = coord(a1, rows);
  return r * cols + coord(a2, cols);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void report_partitioning(const gg::Graph& g, Tracer& tr, Report& rep) {
  const auto& parts = g.partitioning_edges();
  double imbalance = 0.0, replication = 0.0;
  {
    Tracer::Scope s(tr, "partition.edge_imbalance");
    imbalance = parts.edge_imbalance();
  }
  {
    Tracer::Scope s(tr, "partition.replication");
    replication = grind::partition::replication_factor(g.edge_list(), parts);
  }
  rep.layer("partition.replication", replication, "count", "latency_p50_ms");
  rep.layer("partition.edge_imbalance", imbalance, "count", "latency_p50_ms");
  rep.note("partitions P=" + std::to_string(parts.num_partitions()) +
           " |V|=" + std::to_string(g.num_vertices()) +
           " |E|=" + std::to_string(g.num_edges()));
}

void EngineTotals::add(const grind::engine::TraversalStats& s, double secs,
                       int sweeps_done) {
  for (std::size_t k = 0; k < grind::engine::kNumTraversalKinds; ++k) {
    stats.calls[k] += s.calls[k];
    stats.seconds[k] += s.seconds[k];
    stats.edges_examined[k] += s.edges_examined[k];
  }
  stats.atomic_rounds += s.atomic_rounds;
  stats.nonatomic_rounds += s.nonatomic_rounds;
  stats.affinity.merge(s.affinity);
  query_s += secs;
  sweeps += static_cast<std::uint64_t>(sweeps_done);
  ++queries;
}

void EngineTotals::report(Report& rep, double triad_gbs,
                          const std::string& dense_moves,
                          const std::string& sparse_moves) const {
  using grind::engine::TraversalKind;
  double kernel_s = 0.0;
  for (double s : stats.seconds) kernel_s += s;
  const struct {
    TraversalKind kind;
    const std::string& moves;
  } kinds[] = {{TraversalKind::kSparseCsr, sparse_moves},
               {TraversalKind::kBackwardCsc, sparse_moves},
               {TraversalKind::kDenseCoo, dense_moves}};
  for (const auto& [kind, moves] : kinds) {
    const std::string p = "engine." + grind::engine::to_string(kind);
    const double secs = stats.seconds_for(kind);
    const auto edges = static_cast<double>(stats.edges_for(kind));
    rep.layer(p + ".calls", static_cast<double>(stats.calls_for(kind)), "count", moves);
    rep.layer(p + ".seconds", secs, "s", moves);
    rep.layer(p + ".edges", edges, "count", moves);
    rep.layer(p + ".edges_per_s", secs > 0 ? edges / secs : 0.0, "1/s", moves);
  }
  // Computed, not counted: the COO index bytes the examined edges occupy
  // (partition/storage_model.hpp, 2·|E|·bv), over the dense kernel's time.
  // Vertex data traffic is not modelled, so this is a lower bound.
  const double coo_s = stats.seconds_for(TraversalKind::kDenseCoo);
  grind::partition::StorageInputs in;
  in.num_edges = stats.edges_for(TraversalKind::kDenseCoo);
  const double gbs =
      coo_s > 0 ? static_cast<double>(grind::partition::storage_coo(in)) / coo_s / 1e9
                : 0.0;
  rep.layer("engine.dense-coo.gbytes_per_s", gbs, "GB/s", dense_moves);
  rep.layer("engine.dense-coo.bw_frac", triad_gbs > 0 ? gbs / triad_gbs : 0.0,
            "fraction", dense_moves);
  const double q = std::max<double>(1, static_cast<double>(queries));
  rep.layer("engine.other_s", (query_s - kernel_s) / q, "s", sparse_moves);
  rep.layer("engine.us_per_sweep",
            sweeps > 0 ? query_s / static_cast<double>(sweeps) * 1e6 : 0.0, "us",
            sparse_moves);
  const auto rounds = static_cast<double>(stats.atomic_rounds + stats.nonatomic_rounds);
  rep.layer("engine.atomic_frac",
            rounds > 0 ? static_cast<double>(stats.atomic_rounds) / rounds : 0.0,
            "fraction", dense_moves);
  rep.layer("engine.home_visit_ratio", stats.home_visit_ratio(), "fraction",
            dense_moves);
  rep.layer("algorithms.sweeps_per_query", static_cast<double>(sweeps) / q, "count",
            "latency_p50_ms");
}

}  // namespace perfbench
