// The edge-map decision procedure — Algorithm 2 of the paper.
//
//   weight = |F| + Σ_{v∈F} deg⁺(v)
//   weight >  |E|/2   →  dense frontier        → partitioned COO
//   weight >  |E|/20  →  medium-dense frontier → backward whole-CSC
//   otherwise         →  sparse frontier       → forward whole-CSR
//
// except that a medium frontier of an operator with no destination filter
// (FilterlessOperator) takes the forward push (see decide_traversal).
//
// "The distinction of forward vs. backward graph traversal folds into this
// decision and need no longer be specified by the programmer" (abstract):
// callers provide one operator with update / update_atomic / cond and the
// engine picks direction, layout and atomics policy.  The same decision and
// kernels serve the transposed graph (engine/direction.hpp).
//
// Options::layout can force a layout for the non-sparse iterations (sparse
// frontiers always use the unpartitioned CSR, which every configuration in
// the paper keeps, §III-A1) — this reproduces the Fig 5/6 curves.
#pragma once

#include "engine/direction.hpp"
#include "engine/operators.hpp"
#include "engine/options.hpp"
#include "engine/traverse_coo.hpp"
#include "engine/traverse_csc.hpp"
#include "engine/traverse_csr.hpp"
#include "engine/traverse_pcsr.hpp"
#include "engine/workspace.hpp"
#include "frontier/frontier.hpp"
#include "graph/graph.hpp"
#include "sys/cancel.hpp"
#include "sys/fault.hpp"
#include "sys/parallel.hpp"
#include "sys/timer.hpp"

namespace grind::engine {

/// Poll a cancellation token at a kernel boundary; throws sys::Cancelled
/// when the token (or the "engine.poll-cancel" fault site) has fired.
/// Safe to call with a null token.
inline void poll_cancel(const sys::CancelToken* token) {
  if (token == nullptr) return;
  const sys::CancelState s = token->state();
  if (s != sys::CancelState::kRun) throw sys::Cancelled(s);
  if (GRIND_FAULT_FIRE("engine.poll-cancel")) {
    throw sys::Cancelled(sys::CancelState::kCancelled);
  }
}

/// Pick the traversal kind for frontier weight `w` on a graph of `m` edges.
/// Exposed separately so tests can probe the decision thresholds directly.
///
/// `filters` is whether the operator's cond can reject a destination
/// (edge_map passes false for a FilterlessOperator; it defaults to true, the
/// classic decision).  Under Layout::kAuto a medium frontier of a
/// filterless operator takes the sparse push: the backward gather earns the
/// medium band by exiting early once a destination's cond turns false, so
/// without a filter it reads all |E| in-edges where the push reads w.
inline TraversalKind decide_traversal(eid_t w, eid_t m, const Options& opts,
                                      bool filters = true) {
  if (opts.layout == Layout::kSparseCsr) return TraversalKind::kSparseCsr;
  const auto sparse_cut =
      static_cast<double>(m) * opts.sparse_fraction;  // |E|/20
  const auto dense_cut = static_cast<double>(m) * opts.dense_fraction;  // |E|/2
  if (static_cast<double>(w) <= sparse_cut) return TraversalKind::kSparseCsr;
  switch (opts.layout) {
    case Layout::kBackwardCsc:
      return TraversalKind::kBackwardCsc;
    case Layout::kDenseCoo:
      return TraversalKind::kDenseCoo;
    case Layout::kPartitionedCsr:
      return TraversalKind::kPartitionedCsr;
    case Layout::kAuto:
    case Layout::kSparseCsr:
      break;
  }
  if (static_cast<double>(w) <= dense_cut)
    return filters ? TraversalKind::kBackwardCsc : TraversalKind::kSparseCsr;
  // Dense frontier: COO for edge-oriented algorithms; vertex-oriented ones
  // stay on the backward CSC (§IV-A's empirical classification).
  return opts.orientation == Orientation::kVertex
             ? TraversalKind::kBackwardCsc
             : TraversalKind::kDenseCoo;
}

/// Whether a partition-parallel kernel should use atomics: forced by the
/// options, else elided exactly when each partition can be processed by one
/// thread — P ≥ threads (§IV-A).
inline bool decide_atomics(const graph::Graph& g, const Options& opts) {
  switch (opts.atomics) {
    case AtomicsMode::kForceOn:
      return true;
    case AtomicsMode::kForceOff:
      return false;
    case AtomicsMode::kAuto:
      break;
  }
  return g.partitioning_edges().num_partitions() <
         static_cast<part_t>(num_threads());
}

/// Apply `op` to the out-edges (in direction D) of the active vertices of
/// `f`; returns the new frontier of vertices whose update returned true.
///
/// `f` is taken by mutable reference because the engine may convert its
/// representation (sparse list ↔ bitmap) in place; its logical content is
/// unchanged.  `ws` supplies all transient kernel state (next-frontier
/// bitmap, per-thread slots, edge counters, schedules) from reusable
/// pools, so steady-state iterations of a traversal loop perform no heap
/// allocation.
///
/// Direction::kTranspose runs the same decision with the frontier weighed
/// against in-degrees.  Its non-sparse frontiers always take the backward
/// gather: the partitioned layouts are partitioned by original destination,
/// which is the *reader* side under reversed flow, so a forced kDenseCoo or
/// kPartitionedCsr degrades to the single-writer gather.
template <Direction D = Direction::kForward, EdgeOperator Op>
Frontier edge_map(const graph::Graph& g, Frontier& f, Op op,
                  TraversalWorkspace& ws, const Options& opts = {},
                  TraversalStats* stats = nullptr) {
  const sys::CancelToken* token = opts.cancel.get();
  poll_cancel(token);
  if (f.empty()) return Frontier::empty(g.num_vertices());

  TraversalKind kind = decide_traversal(direction_weight<D>(g, f),
                                        g.num_edges(), opts,
                                        !FilterlessOperator<Op>);
  if (D == Direction::kTranspose && kind != TraversalKind::kSparseCsr)
    kind = TraversalKind::kBackwardCsc;
  const bool atomics = decide_atomics(g, opts);

  Timer timer;
  eid_t edges = 0;
  Frontier out;
  bool used_atomics = false;
  AffineCounts affinity;  // home/stolen split of the partition schedulers
  switch (kind) {
    case TraversalKind::kSparseCsr:
      out = traverse_csr_sparse<D>(g, f, op, &edges, ws);
      used_atomics = true;  // the sparse push inherently uses update_atomic
      break;
    case TraversalKind::kBackwardCsc: {
      const auto& ranges = opts.orientation == Orientation::kVertex
                               ? g.partitioning_vertices()
                               : g.partitioning_edges();
      out = traverse_csc_backward<D>(g, f, op, ranges, &edges, ws, &affinity,
                                     token, /*prefetch=*/true);
      used_atomics = false;  // backward is single-writer by construction
      break;
    }
    case TraversalKind::kDenseCoo:
      out = traverse_coo(g, f, op, atomics, &edges, ws, &affinity, token);
      used_atomics = atomics;
      break;
    case TraversalKind::kPartitionedCsr:
      out = traverse_partitioned_csr(g, f, op, atomics, &edges, ws, &affinity,
                                     token);
      used_atomics = atomics;
      break;
  }

  // The partition kernels early-out (skipping whole partitions) when the
  // token fires mid-sweep; they cannot throw from inside an OpenMP region.
  // The token is monotonic, so checking it *after* the sweep is conclusive:
  // still runnable here ⟹ it never fired during the sweep ⟹ `out` is
  // complete.  Otherwise `out` may be partial and must not be returned as a
  // valid frontier.
  poll_cancel(token);

  if (stats != nullptr) {
    stats->record(kind, timer.seconds(), edges, used_atomics);
    stats->record_affinity(affinity);
  }
  return out;
}

}  // namespace grind::engine
