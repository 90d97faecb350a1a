// Shared pieces of the benchmark: run arguments, the metric report, and the
// staged graph build every workload times.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "engine/options.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "trace.hpp"

namespace perfbench {

/// OpenMP threads of the closed-loop workloads, and the parallelism of the
/// oracle check and the STREAM triad: one per CPU of the 4-CPU host the
/// workloads are sized for.
inline constexpr int kThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  double triad_gbs = 0.0;  ///< measured by the traced run before the workload
};

/// One reported number.  `moves` names the end-to-end metric a per-layer
/// metric is expected to move (empty for end-to-end metrics).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string moves;
  bool end_to_end = false;
};

/// Everything a workload reports: metrics, correctness counts, and notes
/// (host facts, labels) printed beside them.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< not ok, shed, or a wrong answer
  std::uint64_t mismatches = 0;  ///< wrong answers (oracle or repeat)

  void e2e(std::string name, double v, std::string unit) {
    metrics.push_back({std::move(name), v, std::move(unit), "", true});
  }
  void layer(std::string name, double v, std::string unit, std::string moves) {
    metrics.push_back({std::move(name), v, std::move(unit), std::move(moves), false});
  }
  void note(std::string s) { notes.push_back(std::move(s)); }
};

/// Wall time of each GraphBuilder stage for one build, in seconds.
struct BuildTimes {
  double order = 0, assign = 0, partition = 0, layouts = 0, finish = 0;
  [[nodiscard]] double total() const {
    return order + assign + partition + layouts + finish;
  }
  BuildTimes& operator+=(const BuildTimes& o) {
    order += o.order;
    assign += o.assign;
    partition += o.partition;
    layouts += o.layouts;
    finish += o.finish;
    return *this;
  }
};

/// Run the builder's stages one by one with the user defaults (contiguous
/// partitioner, auto P, original ordering, no PCPM bins), timing each and
/// recording a span per stage.  `el` is consumed.
grind::graph::Graph build_staged(grind::graph::EdgeList el, Tracer& tr,
                                 BuildTimes* times);

/// Median of each stage over several builds.
BuildTimes median_times(const std::vector<BuildTimes>& v);

/// graph.*_s per-layer metrics: each builder stage's median over the set-ups.
void report_build_stages(const std::vector<BuildTimes>& setups, Report& rep);

/// Source `s` on a rows×cols road lattice (vertex r·cols + c): the s-th
/// point of the R2 low-discrepancy sequence, moved by up to 2% of the side
/// by `rng`.  A source's BFS depth on a lattice ranges over 2× between the
/// centre and a corner; fixing the points keeps a workload's cost from
/// hinging on where a random draw landed, while the seed still varies the
/// graph and the exact vertices.
grind::vid_t lattice_source(grind::vid_t rows, grind::vid_t cols, int s,
                            std::mt19937_64& rng);

/// Seconds since `t0` on the steady clock.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Per-layer partition metrics of a built graph, read through the
/// Partitioning accessors (each call traced).
void report_partitioning(const grind::graph::Graph& g, Tracer& tr, Report& rep);

/// Engine counters summed over queries, each read from Engine::stats() and
/// Engine::sweeps_done() after the query.
struct EngineTotals {
  grind::engine::TraversalStats stats;
  double query_s = 0.0;  ///< wall time of the queries themselves
  std::uint64_t sweeps = 0;
  std::uint64_t queries = 0;

  void add(const grind::engine::TraversalStats& s, double secs, int sweeps_done);
  /// engine.* per-layer metrics.  `dense_moves` and `sparse_moves` name the
  /// end-to-end metrics the dense and sparse kernels should move.
  void report(Report& rep, double triad_gbs, const std::string& dense_moves,
              const std::string& sparse_moves) const;
};

int run_dense_rank(const Args& a, Tracer& tr, Report& rep);
int run_frontier_walk(const Args& a, Tracer& tr, Report& rep);
int run_service_mix(const Args& a, Tracer& tr, Report& rep);

}  // namespace perfbench
