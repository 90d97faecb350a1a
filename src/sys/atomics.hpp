// Lock-free read-modify-write helpers built on std::atomic_ref, used by the
// algorithm operators' update_atomic implementations.
//
// The paper's point (§III-C) is that these operations are costly on the
// memory system; the partitioned kernels exist to avoid them.  They remain
// necessary for sparse forward traversal and the "+a" configurations.
#pragma once

#include <atomic>

namespace grind {

/// Relaxed load of a word other threads may update with the helpers below.
template <typename T>
T atomic_load(T& target) {
  return std::atomic_ref<T>(target).load(std::memory_order_relaxed);
}

/// Single compare-and-swap; returns true on success.
template <typename T>
bool atomic_cas(T& target, T expected, T desired) {
  std::atomic_ref<T> ref(target);
  return ref.compare_exchange_strong(expected, desired,
                                     std::memory_order_relaxed);
}

/// target += v, atomically (CAS loop; works for floating-point types).
template <typename T>
void atomic_add(T& target, T v) {
  std::atomic_ref<T> ref(target);
  T cur = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(cur, cur + v,
                                    std::memory_order_relaxed)) {
  }
}

/// target = min(target, v), atomically.  Returns true iff v improved target.
template <typename T>
bool atomic_write_min(T& target, T v) {
  std::atomic_ref<T> ref(target);
  T cur = ref.load(std::memory_order_relaxed);
  while (v < cur) {
    if (ref.compare_exchange_weak(cur, v, std::memory_order_relaxed))
      return true;
  }
  return false;
}

/// Test-and-set on a byte flag; returns true iff this call set it (claim).
/// The flag is read first and exchanged only while it reads 0, so the
/// edges reaching an already-claimed destination share its cache line
/// instead of each taking it exclusive.  The exchange still decides who
/// claims: at most one call per flag returns true.
inline bool atomic_claim(unsigned char& flag) {
  std::atomic_ref<unsigned char> ref(flag);
  return ref.load(std::memory_order_relaxed) == 0 &&
         ref.exchange(1, std::memory_order_relaxed) == 0;
}

}  // namespace grind
