// Self-test of the benchmark's own measurement code: the open-loop generator
// charges a stall to the requests behind it from their intended send times,
// the Poisson schedule has its nominal mean rate, the percentile helper is
// nearest-rank, and span self time subtracts child spans.
//
// Build and run: cmake --build <dir> --target perfbench_selftest &&
// <dir>/perfbench_selftest   (or ctest in the build directory).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(percentile(v, 0.50) == 50, "p50 of 1..100 is 50");
  expect(percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  expect(percentile(v, 1.00) == 100, "p100 of 1..100 is 100");
  expect(percentile(v, 0.001) == 1, "p0.1 of 1..100 is 1");
  expect(percentile({7}, 0.99) == 7, "percentile of one sample is that sample");
  v.push_back(kInf);  // a failed request counts as over any limit
  expect(std::isinf(percentile(v, 1.0)), "failed request sorts last");
  expect(percentile(v, 0.5) == 51, "p50 of 1..100 plus a failure is 51");
  expect(std::isnan(percentile({}, 0.5)), "empty sample has no percentile");
}

void test_poisson_rate() {
  // 20000 expected arrivals: the count's standard deviation is ~141, so
  // ±3% is more than 4 sigma for every seed.
  for (std::uint64_t seed : {1, 2, 3}) {
    const auto at = poisson_schedule(1000.0, 20.0, seed);
    const double rate = static_cast<double>(at.size()) / 20.0;
    expect(std::fabs(rate - 1000.0) < 30.0, "Poisson schedule mean rate within 3%");
    bool ascending = true;
    for (std::size_t i = 1; i < at.size(); ++i) ascending &= at[i] >= at[i - 1];
    expect(ascending && !at.empty() && at.back() < 20.0, "schedule ascends within duration");
  }
  expect(poisson_schedule(500.0, 1.0, 9) == poisson_schedule(500.0, 1.0, 9),
         "same seed, same schedule");
}

void test_stall_charged_from_intended_time() {
  // Requests every 2 ms; send() of request 10 stalls the generator 60 ms.
  // The service behind it answers instantly, so a closed-loop measurement
  // (send to done) would see ~0 for everyone.  Open-loop accounting must
  // charge each request scheduled during the stall from its intended time.
  constexpr double kGap = 0.002, kStall = 0.060;
  constexpr std::size_t kStalled = 10;
  std::vector<double> at;
  for (int i = 0; i < 80; ++i) at.push_back(0.001 + kGap * i);
  const auto out = run_open_loop(
      at,
      [&](std::size_t i) {
        if (i == kStalled)
          std::this_thread::sleep_for(std::chrono::duration<double>(kStall));
        std::promise<int> p;
        p.set_value(static_cast<int>(i));
        return p.get_future();
      },
      [](std::size_t i, int& v) { return v == static_cast<int>(i); });
  const double stall_end = out[kStalled].submitted_s;
  expect(stall_end >= at[kStalled] + kStall, "the stall happened");
  int behind = 0;
  for (std::size_t i = kStalled + 1; i < out.size(); ++i) {
    if (at[i] >= stall_end) break;
    ++behind;
    const double owed = stall_end - at[i];  // wait the stall imposed on it
    expect(out[i].ok, "request completed");
    expect(out[i].latency_s() >= owed - 1e-4, "charged from its intended send time");
    expect(out[i].lag_s() >= owed - 1e-4, "generator lag recorded");
    expect(out[i].done_s - out[i].sent_s < owed, "closed-loop view would hide it");
  }
  expect(behind >= 25, "about 29 requests were due during the stall");
  for (std::size_t i = 0; i < kStalled; ++i)
    expect(out[i].latency_s() < 0.02, "requests before the stall are fast");
}

void test_failed_request_is_infinite() {
  const auto out = run_open_loop(
      std::vector<double>{0.0, 0.001},
      [](std::size_t) {
        std::promise<bool> p;
        p.set_value(false);
        return p.get_future();
      },
      [](std::size_t, bool& ok) { return ok; });
  expect(std::isinf(out[0].latency_s()) && std::isinf(out[1].latency_s()),
         "a failed request's latency is +inf");
}

void test_self_time() {
  // root [0,10] with children [1,3] and [2,5] (overlapping) and [9,12]
  // (clipped to 10): covered = [1,5] + [9,10] = 5, so self = 5.
  std::vector<Span> s = {{"root", 0, 10, 0, -1, 7},
                         {"a", 1, 3, 1, 0, 7},
                         {"b", 2, 5, 2, 0, 7},
                         {"c", 9, 12, 3, 0, 7},
                         {"leaf", 1.5, 2.5, 4, 1, 7}};
  const auto self = self_times(s);
  expect(std::fabs(self[0] - 5.0) < 1e-12, "root self time subtracts merged children");
  expect(std::fabs(self[1] - 1.0) < 1e-12, "child self time subtracts its own child");
  expect(std::fabs(self[4] - 1.0) < 1e-12, "leaf self time is its duration");

  Tracer tr(true);
  {
    Tracer::Scope outer(tr, "outer", 3);
    Tracer::Scope inner(tr, "inner", 3);
  }
  const auto spans = tr.spans();
  expect(spans.size() == 2, "two spans recorded");
  if (spans.size() == 2)
    expect(spans[0].parent == spans[1].id && spans[1].parent == -1 &&
               spans[0].query == 3,
           "inner span's parent is the outer span");
  Tracer off(false);
  { Tracer::Scope s0(off, "x"); }
  expect(off.spans().empty(), "an untraced run records nothing");
}

}  // namespace

int main() {
  test_percentile();
  test_poisson_rate();
  test_stall_charged_from_intended_time();
  test_failed_request_is_infinite();
  test_self_time();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
