// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer's public entry point, recorded from
// the benchmark's side of the boundary: name, start, end, the span that was
// open on the same thread when it started (its parent), and the query it
// belongs to.  Spans stay in memory and are written out as JSON lines when
// the run ends.  When tracing is off, Scope does nothing, so the untraced run
// pays two branches per boundary.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  double start_s = 0.0;  ///< seconds since the tracer's epoch
  double end_s = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::int64_t query = -1;   ///< -1 outside a query
};

/// Per span name: how many spans, their summed duration, and their summed
/// self time (duration minus the part of it that child spans cover).
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const { return on_; }

  /// RAII span: opens at construction, closes at destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t query = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when tracing is off
    Span span_;
    std::int64_t saved_parent_ = -1;
  };

  /// Every recorded span (copy, under the lock).
  [[nodiscard]] std::vector<Span> spans() const;
  /// Totals and self times, by span name.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  /// One JSON object per span, one per line.  Returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  void record(const Span& s);

  const bool on_;
  const Clock::time_point epoch_;
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex m_;
  std::vector<Span> spans_;  // guarded by m_
};

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it.  Exposed for the self-test.
std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
