// Open-loop load generation: Poisson arrival schedules, a Zipf key sampler,
// nearest-rank percentiles, and the send/collect loop that times every
// request from the moment it was *due* to be sent.
//
// Timing from the intended send time is what keeps a stall honest: when the
// generator (or the system behind submit) stalls, the requests scheduled
// during the stall are sent late, and each is charged the whole delay since
// its scheduled time, not just the time after it finally went out.  How late
// the generator ran is reported separately (lag), so a run whose generator
// could not keep up is visible as such.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <future>
#include <limits>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile, p in (0, 1]: the smallest sample such that at
/// least p of the sample is ≤ it.  +inf entries (failed requests) sort last.
/// NaN for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Arrival offsets (seconds from the start) of a Poisson process with
/// `rate` arrivals per second, truncated to [0, duration).
inline std::vector<double> poisson_schedule(double rate, double duration,
                                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(rate * duration * 1.2) + 16);
  for (double t = gap(rng); t < duration; t += gap(rng)) at.push_back(t);
  return at;
}

/// Zipf(s) sampler over ranks [0, n): P(k) ∝ 1 / (k+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  template <typename Rng>
  std::size_t operator()(Rng& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One request's timeline, in seconds from the loop's start.
struct Outcome {
  double intended_s = 0.0;  ///< when the schedule said to send it
  double sent_s = 0.0;      ///< when send() was called
  double submitted_s = 0.0; ///< when send() returned
  double done_s = 0.0;      ///< when its future was seen ready
  bool ok = false;          ///< the done callback's verdict

  /// Latency charged to the request: from its intended send time to
  /// completion; +inf when it failed.
  [[nodiscard]] double latency_s() const { return ok ? done_s - intended_s : kInf; }
  /// How late the generator sent it.
  [[nodiscard]] double lag_s() const { return sent_s - intended_s; }
};

/// How often the collector polls the outstanding futures [s]: the resolution
/// of every completion time.
inline constexpr double kPollS = 100e-6;

/// Run an open loop over `schedule` (offsets in seconds, ascending).  The
/// calling thread is the generator: it sleeps until each request is due and
/// calls send(i), which returns a std::future.  A collector thread polls the
/// outstanding futures every kPollS seconds and, for each that is ready,
/// stamps its completion time (or keeps the generator's stamp when it was
/// ready as send returned) and calls done(i, result), which returns
/// whether the result was good.  done runs on the collector thread only and
/// must not throw.  If send throws, the loop stops sending, collects what it
/// already sent, and rethrows.
template <typename Send, typename Done>
std::vector<Outcome> run_open_loop(const std::vector<double>& schedule,
                                   Send&& send, Done&& done) {
  using Clock = std::chrono::steady_clock;
  using Future = decltype(send(std::size_t{0}));
  std::vector<Outcome> out(schedule.size());
  const Clock::time_point t0 = Clock::now();
  const auto since = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // A future already ready when send() returns (a request answered on the
  // submitting thread) is stamped done by the generator; the rest by the
  // collector when it sees them ready.
  struct Sent {
    std::size_t i;
    Future fut;
    bool stamped;
  };
  std::mutex m;
  std::vector<Sent> inbox;      // guarded by m
  bool generator_done = false;  // guarded by m

  std::thread collector([&] {
    std::vector<Sent> pending;
    for (;;) {
      bool finished = false;
      {
        std::lock_guard<std::mutex> lock(m);
        for (auto& p : inbox) pending.push_back(std::move(p));
        inbox.clear();
        finished = generator_done;
      }
      for (std::size_t j = 0; j < pending.size();) {
        auto& [i, fut, stamped] = pending[j];
        if (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++j;
          continue;
        }
        if (!stamped) out[i].done_s = since();
        auto result = fut.get();
        out[i].ok = done(i, result);
        if (j + 1 != pending.size()) pending[j] = std::move(pending.back());
        pending.pop_back();
      }
      if (finished && pending.empty()) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(kPollS));
    }
  });

  std::exception_ptr error;
  try {
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      out[i].intended_s = schedule[i];
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(schedule[i])));
      out[i].sent_s = since();
      Future f = send(i);
      out[i].submitted_s = since();
      const bool ready =
          f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
      if (ready) out[i].done_s = out[i].submitted_s;
      std::lock_guard<std::mutex> lock(m);
      inbox.push_back(Sent{i, std::move(f), ready});
    }
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(m);
    generator_done = true;
  }
  collector.join();
  if (error) std::rethrow_exception(error);
  return out;
}

}  // namespace perfbench
