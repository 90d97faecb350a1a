// Runtime configuration and statistics for the edge-traversal engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sys/cancel.hpp"
#include "sys/types.hpp"

namespace grind::engine {

/// Which traversal the engine uses for non-sparse frontiers.  kAuto is the
/// paper's Algorithm 2; the others force one layout, reproducing the Fig 5/6
/// configurations.
enum class Layout {
  kAuto,            ///< Algorithm 2: sparse→CSR, medium→CSC, dense→COO
  kSparseCsr,       ///< always forward over the whole CSR (Ligra-sparse style)
  kBackwardCsc,     ///< always backward over whole CSC, partitioned ranges
  kDenseCoo,        ///< always partitioned COO
  kPartitionedCsr,  ///< always partitioned pruned CSR (Fig 5 "CSR" curves)
};

/// Atomics policy for the partition-parallel kernels ("+a" / "+na" in the
/// figures).  kAuto elides atomics whenever every partition is processed by
/// a single thread (P ≥ threads — §IV-A).
enum class AtomicsMode { kAuto, kForceOn, kForceOff };

/// Algorithm orientation (§III-D): vertex-oriented algorithms (BFS, BC,
/// Bellman-Ford) perform ~constant work per vertex and balance traversal by
/// source vertices; edge-oriented ones balance by edges.  Algorithms declare
/// their orientation to the engine; engines map it to a balance criterion.
enum class Orientation { kVertex, kEdge };

/// Frontier density classes of Algorithm 2.
enum class Density { kSparse, kMedium, kDense };

/// Classify a frontier of traversal weight `w` (= |F| + Σ deg⁺) on a graph
/// of `m` edges with the paper's thresholds (5 % sparse, 50 % dense).
inline Density classify_density(eid_t w, eid_t m, double sparse_fraction = 0.05,
                                double dense_fraction = 0.5) {
  const auto wd = static_cast<double>(w);
  if (wd <= static_cast<double>(m) * sparse_fraction) return Density::kSparse;
  if (wd > static_cast<double>(m) * dense_fraction) return Density::kDense;
  return Density::kMedium;
}

/// Engine options.  Defaults reproduce the GG-v2 configuration.
struct Options {
  Layout layout = Layout::kAuto;
  AtomicsMode atomics = AtomicsMode::kAuto;

  /// Frontier-density thresholds of Algorithm 2, as fractions of |E|:
  /// weight ≤ sparse_fraction·|E| → sparse; > dense_fraction·|E| → dense;
  /// otherwise medium-dense.
  double sparse_fraction = 0.05;  // |E|/20
  double dense_fraction = 0.50;   // |E|/2

  /// The running algorithm's orientation.  §IV-A: "Vertex-oriented
  /// algorithms perform best when using the CSC layout, while edge-oriented
  /// algorithms perform best using the COO layout" — in kAuto mode, dense
  /// frontiers of vertex-oriented algorithms are routed to the backward CSC
  /// (whose per-destination early exit suits claim-style operators) instead
  /// of the COO.  It also picks the CSC computation range's balance
  /// criterion (§III-D): vertex-oriented algorithms split the backward
  /// gather over the vertex-balanced partitioning, edge-oriented ones over
  /// the edge-balanced one.
  Orientation orientation = Orientation::kEdge;

  /// Cooperative cancellation token, polled at every edge_map boundary and
  /// once per partition sweep inside the partition-parallel kernels.  When
  /// the token reports a stop, the engine throws sys::Cancelled out of the
  /// next poll point; kernels themselves never throw — they early-out and
  /// leave the verdict to the edge_map layer (see edge_map.hpp).  Null means
  /// the traversal is uncancellable (the historical behaviour).
  std::shared_ptr<const sys::CancelToken> cancel;
};

/// Home/stolen work split of one domain-affine traversal (domain_sched.hpp):
/// items are partitions / chunks; weight is the work each item carried
/// (edges examined or vertices scanned).  "Home" means the item was
/// processed by a thread attached to the item's NUMA domain; "stolen" means
/// a foreign thread took it for load balance.
struct AffineCounts {
  std::uint64_t home_items = 0;
  std::uint64_t stolen_items = 0;
  std::uint64_t home_weight = 0;
  std::uint64_t stolen_weight = 0;

  void merge(const AffineCounts& o) {
    home_items += o.home_items;
    stolen_items += o.stolen_items;
    home_weight += o.home_weight;
    stolen_weight += o.stolen_weight;
  }
};

/// Which kernel a single edge_map call selected.
enum class TraversalKind : std::uint8_t {
  kSparseCsr = 0,
  kBackwardCsc = 1,
  kDenseCoo = 2,
  kPartitionedCsr = 3,
};

/// Number of TraversalKind values (sizes the per-kind stats arrays).
inline constexpr std::size_t kNumTraversalKinds = 4;

/// Human-readable kernel name ("sparse-csr", ...).
std::string to_string(TraversalKind k);
std::string to_string(Layout l);

/// Aggregated engine statistics, one counter set per kernel.
struct TraversalStats {
  std::uint64_t calls[kNumTraversalKinds] = {};
  double seconds[kNumTraversalKinds] = {};
  std::uint64_t edges_examined[kNumTraversalKinds] = {};
  std::uint64_t atomic_rounds = 0;     ///< traversals that used atomics
  std::uint64_t nonatomic_rounds = 0;  ///< traversals that elided atomics
  AffineCounts affinity;               ///< home/stolen split, partition kernels

  void record(TraversalKind k, double secs, std::uint64_t edges,
              bool used_atomics) {
    const auto i = static_cast<std::size_t>(k);
    ++calls[i];
    seconds[i] += secs;
    edges_examined[i] += edges;
    if (used_atomics) ++atomic_rounds; else ++nonatomic_rounds;
  }

  void record_affinity(const AffineCounts& c) { affinity.merge(c); }

  /// Per-kind sweep count / time — lets ablation output attribute runtime
  /// to the kernel that actually ran (a forced dense layout still sends
  /// sparse frontiers through the CSR path).
  [[nodiscard]] std::uint64_t calls_for(TraversalKind k) const {
    return calls[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] double seconds_for(TraversalKind k) const {
    return seconds[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t edges_for(TraversalKind k) const {
    return edges_examined[static_cast<std::size_t>(k)];
  }

  /// Fraction of partition/chunk visits served by a home-domain thread;
  /// 1.0 when no partition-scheduled traversal has run yet.
  [[nodiscard]] double home_visit_ratio() const {
    const std::uint64_t total = affinity.home_items + affinity.stolen_items;
    return total == 0
               ? 1.0
               : static_cast<double>(affinity.home_items) /
                     static_cast<double>(total);
  }

  /// Same, weighted by per-item work (edges examined / vertices scanned).
  [[nodiscard]] double home_weight_ratio() const {
    const std::uint64_t total = affinity.home_weight + affinity.stolen_weight;
    return total == 0
               ? 1.0
               : static_cast<double>(affinity.home_weight) /
                     static_cast<double>(total);
  }

  [[nodiscard]] std::uint64_t total_calls() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kNumTraversalKinds; ++i) total += calls[i];
    return total;
  }
};

}  // namespace grind::engine
