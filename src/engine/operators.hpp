// The edge/vertex operator concepts of the Ligra-compatible API (§III-D:
// "GraphGrind is fully compatible with the Ligra API").
//
// An edge operator supplies:
//   update(s, d, w)        — apply the edge non-atomically; return true iff
//                            d became active for the next frontier.  Used by
//                            kernels whose destination writers are unique
//                            (backward CSC; partitioned COO/CSR "+na").
//   update_atomic(s, d, w) — same semantics with atomic read-modify-write;
//                            must return true *at most once* per destination
//                            per traversal (claim via CAS).  Used by the
//                            "+a" kernels and sparse forward traversal.
//   cond(d)                — destination filter; kernels skip (and backward
//                            kernels early-exit on) destinations whose cond
//                            is false.  Operators that never filter derive
//                            from CondTrue instead.
//
// Kernels run a private copy of the operator: one per work item (a COO
// partition or chunk, a CSC sub-chunk, a pruned-CSR partition or chunk) and
// one per thread in the sparse push.  A copy that is a local keeps the
// operator's fields in registers across its own stores (docs/ENGINE.md,
// "Kernel inner loops").  So an operator must be copyable, and every piece
// of mutable state it shares with the algorithm (ranks, flags, counters)
// must sit behind a pointer or a reference: a value member written by one
// copy is lost with it.  A lambda passed to make_edge_op captures such
// state by reference or through a pointer.
//
// Helper adaptors below build operators from lambdas so simple algorithms
// stay terse.
#pragma once

#include <concepts>
#include <utility>

#include "sys/types.hpp"

namespace grind::engine {

template <typename Op>
concept EdgeOperator = std::copy_constructible<Op> &&
                       requires(Op op, vid_t s, vid_t d, weight_t w) {
  { op.update(s, d, w) } -> std::convertible_to<bool>;
  { op.update_atomic(s, d, w) } -> std::convertible_to<bool>;
  { op.cond(d) } -> std::convertible_to<bool>;
};

/// cond() that never filters — for algorithms updating every destination.
/// Deriving from it (rather than writing `cond() { return true; }`) also
/// marks the operator FilterlessOperator, which sends its medium frontiers
/// to the sparse push (decide_traversal, edge_map.hpp).  Such operators are
/// aggregate-initialised with a leading `{}` for the empty base.
struct CondTrue {
  [[nodiscard]] bool cond(vid_t) const { return true; }
};

/// An edge operator whose cond() never filters, declared by deriving from
/// CondTrue.
template <typename Op>
concept FilterlessOperator =
    EdgeOperator<Op> && std::derived_from<Op, CondTrue>;

/// Adaptor: build an EdgeOperator from three callables.
template <typename Update, typename UpdateAtomic, typename Cond>
struct LambdaOp {
  Update update_fn;
  UpdateAtomic update_atomic_fn;
  Cond cond_fn;

  bool update(vid_t s, vid_t d, weight_t w) { return update_fn(s, d, w); }
  bool update_atomic(vid_t s, vid_t d, weight_t w) {
    return update_atomic_fn(s, d, w);
  }
  [[nodiscard]] bool cond(vid_t d) const { return cond_fn(d); }
};

template <typename U, typename UA, typename C>
LambdaOp<U, UA, C> make_edge_op(U update, UA update_atomic, C cond) {
  return LambdaOp<U, UA, C>{std::move(update), std::move(update_atomic),
                            std::move(cond)};
}

/// Adaptor for operators whose update is already idempotent/race-free at the
/// algorithm level (e.g. accumulate via atomic fetch_add): one callable used
/// for both update flavours.
template <typename U, typename C>
auto make_symmetric_op(U update, C cond) {
  return make_edge_op(update, update, std::move(cond));
}

}  // namespace grind::engine
