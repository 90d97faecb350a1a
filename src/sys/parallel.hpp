// OpenMP-based parallel primitives: parallel_for over index ranges, tree
// reductions, inclusive/exclusive prefix sums, a stable counting scatter and
// a parallel merge-style sort.  This is the only module that touches OpenMP
// pragmas directly (apart from the traversal kernels), so the rest of the
// library stays portable.
//
// The paper's framework is built on Cilk with NUMA-aware loop scheduling;
// OpenMP dynamic scheduling over partitions provides the same work
// distribution semantics (see DESIGN.md §1).
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace grind {

/// Number of worker threads the runtime will use for parallel regions
/// launched by the *calling* thread.  A thread-local limit (ThreadLimitGuard)
/// takes precedence over the process-wide setting, so concurrent queries can
/// each run with their own parallelism budget; the process-wide value is
/// stored atomically so first use from several threads at once is race-free.
int num_threads();

/// The process-wide thread count, ignoring any thread-local limit; what
/// num_threads() returns on threads with no ThreadLimitGuard active.
int process_num_threads();

/// Set the process-wide number of worker threads (wraps omp_set_num_threads).
/// Not thread-safe in intent: call from a single-threaded phase (main, test
/// setup), never concurrently with running traversals.
void set_num_threads(int n);

/// The calling thread's thread-count limit; 0 when none is set.
int thread_limit();

/// Set (n >= 1) or clear (n == 0) the calling thread's thread-count limit.
/// Prefer ThreadLimitGuard, which also pins the OpenMP ICV and restores
/// both on scope exit.
void set_thread_limit(int n);

/// RAII guard that temporarily changes the process-wide thread count,
/// restoring the previous value on destruction (used by the scalability
/// benches).
class ThreadCountGuard {
 public:
  // Saves the raw process-wide value, not limit-aware num_threads(): a
  // ThreadCountGuard constructed on a thread under a ThreadLimitGuard must
  // not restore that thread's local limit into the global.
  explicit ThreadCountGuard(int n) : saved_(process_num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

/// RAII guard limiting parallelism for the *calling thread only*: both
/// num_threads() (the serial-fallback checks in the primitives below) and
/// the thread's OpenMP nthreads ICV (the raw pragmas in the traversal
/// kernels) see `n` until the guard is destroyed.  This is how GraphService
/// workers run many queries side by side without oversubscribing: each
/// worker holds a ThreadLimitGuard(threads_per_query) and other threads'
/// parallel regions are unaffected.
class ThreadLimitGuard {
 public:
  explicit ThreadLimitGuard(int n);
  ~ThreadLimitGuard();
  ThreadLimitGuard(const ThreadLimitGuard&) = delete;
  ThreadLimitGuard& operator=(const ThreadLimitGuard&) = delete;

 private:
  int saved_limit_;
  int saved_omp_;
};

/// Minimum trip count below which parallel_for runs serially; avoids paying
/// the fork-join overhead on tiny loops (frequent with sparse frontiers).
inline constexpr std::size_t kSerialCutoff = 2048;

/// Parallel for over [begin, end): f(i) is invoked exactly once per index.
/// Static scheduling: best for uniform per-iteration work (vertex loops).
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& f) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n < kSerialCutoff || num_threads() == 1) {
    for (std::size_t i = begin; i < end; ++i) f(i);
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::size_t i = begin; i < end; ++i) f(i);
}

/// Parallel for with dynamic scheduling; best for skewed per-iteration work
/// (per-partition or per-vertex-degree loops).
template <typename F>
void parallel_for_dynamic(std::size_t begin, std::size_t end, F&& f,
                          std::size_t chunk = 1) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n <= 1 || num_threads() == 1) {
    for (std::size_t i = begin; i < end; ++i) f(i);
    return;
  }
#pragma omp parallel for schedule(dynamic, chunk)
  for (std::size_t i = begin; i < end; ++i) f(i);
}

/// Parallel sum-reduction of f(i) over [begin, end).  Uses the OpenMP
/// reduction clause (tree combine) rather than a critical section, so the
/// combine step is O(log threads) instead of serialized.  T must be an
/// arithmetic type (all in-tree uses are).
template <typename T, typename F>
T parallel_reduce_sum(std::size_t begin, std::size_t end, F&& f) {
  const std::size_t n = end > begin ? end - begin : 0;
  T total{};
  if (n < kSerialCutoff || num_threads() == 1) {
    for (std::size_t i = begin; i < end; ++i) total += f(i);
    return total;
  }
#pragma omp parallel for schedule(static) reduction(+ : total)
  for (std::size_t i = begin; i < end; ++i) total += f(i);
  return total;
}

/// Parallel max-reduction of f(i) over [begin, end); returns `identity` for
/// an empty range.  Reduction clause for the same reason as above; note the
/// OpenMP max reduction initializes privates to the type's minimum, so the
/// identity is folded in afterwards.
template <typename T, typename F>
T parallel_reduce_max(std::size_t begin, std::size_t end, T identity, F&& f) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n < kSerialCutoff || num_threads() == 1) {
    T best = identity;
    for (std::size_t i = begin; i < end; ++i) best = std::max(best, f(i));
    return best;
  }
  T best = std::numeric_limits<T>::lowest();
#pragma omp parallel for schedule(static) reduction(max : best)
  for (std::size_t i = begin; i < end; ++i) best = std::max(best, f(i));
  return std::max(best, identity);
}

/// Exclusive prefix sum: out[i] = sum of in[0..i).  `out` may alias `in`.
/// Returns the grand total (== out[n] if out has n+1 slots; here out has the
/// same length as in, so the total is returned separately).
///
/// Used pervasively: CSR construction (degree counting → row offsets),
/// sparse-frontier compaction, partition offset computation.
template <typename T>
T exclusive_scan(const T* in, T* out, std::size_t n) {
  if (n == 0) return T{};
  const int nt = num_threads();
  if (n < kSerialCutoff || nt == 1) {
    T run{};
    for (std::size_t i = 0; i < n; ++i) {
      T v = in[i];
      out[i] = run;
      run += v;
    }
    return run;
  }
  std::vector<T> block_sum(static_cast<std::size_t>(nt) + 1, T{});
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    const std::size_t lo = n * static_cast<std::size_t>(t) /
                           static_cast<std::size_t>(nt);
    const std::size_t hi = n * (static_cast<std::size_t>(t) + 1) /
                           static_cast<std::size_t>(nt);
    T local{};
    for (std::size_t i = lo; i < hi; ++i) local += in[i];
    block_sum[static_cast<std::size_t>(t) + 1] = local;
#pragma omp barrier
#pragma omp single
    {
      for (int b = 1; b <= nt; ++b) block_sum[static_cast<std::size_t>(b)] +=
          block_sum[static_cast<std::size_t>(b) - 1];
    }
    T run = block_sum[static_cast<std::size_t>(t)];
    for (std::size_t i = lo; i < hi; ++i) {
      T v = in[i];
      out[i] = run;
      run += v;
    }
  }
  return block_sum.back();
}

/// Convenience overload for vectors; resizes `out` to in.size().
template <typename T>
T exclusive_scan(const std::vector<T>& in, std::vector<T>& out) {
  out.resize(in.size());
  return exclusive_scan(in.data(), out.data(), in.size());
}

/// Blocks a pass over n items is cut into: one per thread, or a single block
/// when n is below kSerialCutoff.
inline std::size_t num_blocks(std::size_t n) {
  return n < kSerialCutoff ? 1 : static_cast<std::size_t>(num_threads());
}

/// Run f(b, lo, hi) for each of `blocks` contiguous near-equal pieces of
/// [0, n) in parallel; piece b is [n·b/blocks, n·(b+1)/blocks).
template <typename F>
void parallel_for_blocks(std::size_t n, std::size_t blocks, F&& f) {
  parallel_for_dynamic(0, blocks, [&](std::size_t b) {
    f(b, n * b / blocks, n * (b + 1) / blocks);
  });
}

/// counting_scatter with cursors of type C.
template <typename C, typename T, typename Walk>
void detail_counting_scatter(std::size_t n, std::size_t num_keys,
                             std::vector<T>& offsets, Walk& walk) {
  const std::size_t nb = num_blocks(n);
  // cursor[b·num_keys + k]: block b's count of key k, then its next slot.
  std::vector<C> cursor(nb * num_keys, C{});
  parallel_for_blocks(n, nb, [&](std::size_t b, std::size_t lo,
                                 std::size_t hi) {
    C* c = cursor.data() + b * num_keys;
    walk(lo, hi, [c](std::size_t key, auto&&) { ++c[key]; });
  });
  offsets.assign(num_keys + 1, T{});
  parallel_for(0, num_keys, [&](std::size_t k) {
    T total{};
    for (std::size_t b = 0; b < nb; ++b) total += cursor[b * num_keys + k];
    offsets[k] = total;
  });
  offsets[num_keys] = exclusive_scan(offsets.data(), offsets.data(), num_keys);
  parallel_for(0, num_keys, [&](std::size_t k) {
    T next = offsets[k];
    for (std::size_t b = 0; b < nb; ++b) {
      const C count = cursor[b * num_keys + k];
      cursor[b * num_keys + k] = static_cast<C>(next);
      next += count;
    }
  });
  parallel_for_blocks(n, nb, [&](std::size_t b, std::size_t lo,
                                 std::size_t hi) {
    C* c = cursor.data() + b * num_keys;
    walk(lo, hi, [c](std::size_t key, auto&& store) { store(c[key]++); });
  });
}

/// Stable parallel counting scatter: a counting sort of n items by a key in
/// [0, num_keys).
///
/// The items are cut into num_blocks(n) contiguous blocks.  Each block
/// counts its keys into its own histogram, a scan turns the histograms into
/// per-block cursors, and each block then scatters its own items.  `walk(lo,
/// hi, emit)` visits items lo..hi-1 in order and calls `emit(key, store)`
/// once for each; on the scatter pass emit calls `store(slot)` with the
/// item's output position (on the counting pass it does not).  Items of one
/// key keep their input order, so the result does not depend on the thread
/// count.  `offsets` receives num_keys + 1 entries: key k's items occupy
/// [offsets[k], offsets[k+1]).
///
/// Temporaries: num_blocks(n)·num_keys cursors, 32-bit while n < 2^32.
template <typename T, typename Walk>
void counting_scatter(std::size_t n, std::size_t num_keys,
                      std::vector<T>& offsets, Walk&& walk) {
  if (n < std::numeric_limits<std::uint32_t>::max())
    detail_counting_scatter<std::uint32_t>(n, num_keys, offsets, walk);
  else
    detail_counting_scatter<T>(n, num_keys, offsets, walk);
}

template <typename It, typename Cmp>
void detail_parallel_sort(It first, It last, Cmp cmp, int depth);

/// Parallel sort (stable not guaranteed).  Recursive merge parallelism via
/// OpenMP tasks; falls back to std::sort for small inputs.
template <typename It, typename Cmp>
void parallel_sort(It first, It last, Cmp cmp) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n < 1u << 14 || num_threads() == 1) {
    std::sort(first, last, cmp);
    return;
  }
#pragma omp parallel
#pragma omp single nowait
  detail_parallel_sort(first, last, cmp, /*depth=*/0);
}

template <typename It>
void parallel_sort(It first, It last) {
  parallel_sort(first, last, std::less<>{});
}

/// Implementation helper for parallel_sort; splits until depth exhausts the
/// thread pool, then sorts serially and merges in-place.
template <typename It, typename Cmp>
void detail_parallel_sort(It first, It last, Cmp cmp, int depth) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n < 1u << 14 || depth > 6) {
    std::sort(first, last, cmp);
    return;
  }
  It mid = first + static_cast<std::ptrdiff_t>(n / 2);
#pragma omp task untied shared(cmp)
  detail_parallel_sort(first, mid, cmp, depth + 1);
  detail_parallel_sort(mid, last, cmp, depth + 1);
#pragma omp taskwait
  std::inplace_merge(first, mid, last, cmp);
}

/// Parallel fill.
template <typename T>
void parallel_fill(T* data, std::size_t n, const T& value) {
  parallel_for(0, n, [&](std::size_t i) { data[i] = value; });
}

template <typename T>
void parallel_fill(std::vector<T>& v, const T& value) {
  parallel_fill(v.data(), v.size(), value);
}

}  // namespace grind
