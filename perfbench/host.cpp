#include "host.hpp"

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common.hpp"

namespace perfbench {

namespace {

// Nodes in this process's allowed-memory mask (get_mempolicy with
// MPOL_F_MEMS_ALLOWED), without linking libnuma.
int allowed_numa_nodes() {
  constexpr unsigned long kMpolFMemsAllowed = 1UL << 2;
  unsigned long mask[16] = {};
  if (syscall(SYS_get_mempolicy, nullptr, mask, sizeof(mask) * 8, nullptr,
              kMpolFMemsAllowed) != 0)
    return 1;
  int n = 0;
  for (unsigned long w : mask) n += std::popcount(w);
  return std::max(n, 1);
}

// Whether a hardware LLC-miss counter for this process can be opened.
bool pmu_available() {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_CACHE_MISSES;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return false;
  close(static_cast<int>(fd));
  return true;
}

}  // namespace

HostFacts probe_host() {
  HostFacts h;
  h.nproc = static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  h.llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : 0;
  h.numa_nodes = allowed_numa_nodes();
  h.pmu = pmu_available();
  return h;
}

std::string describe(const HostFacts& h) {
  return "host: nproc " + std::to_string(h.nproc) + ", LLC " +
         (h.llc_bytes > 0 ? std::to_string(h.llc_bytes >> 20) + " MiB" : "unknown") +
         ", NUMA domains " + std::to_string(h.numa_nodes) + ", PMU " +
         (h.pmu ? "present" : "absent: MPKI unavailable (not estimated)");
}

namespace {

double triad_in_process(std::size_t n) {
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const auto len = static_cast<std::int64_t>(n);
#pragma omp parallel for num_threads(kThreads) schedule(static)
  for (std::int64_t i = 0; i < len; ++i) {  // first touch by the same threads
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 1e30;
  for (int pass = 0; pass < 4; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
#pragma omp parallel for num_threads(kThreads) schedule(static)
    for (std::int64_t i = 0; i < len; ++i) a[i] = b[i] + 3.0 * c[i];
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0).count());
  }
  if (a[n / 2] != 7.0) return 0.0;  // keeps the loop observable
  return static_cast<double>(3 * n * sizeof(double)) / best / 1e9;
}

}  // namespace

double triad_gbs(const HostFacts& h, std::size_t* total_bytes) {
  const std::size_t target =
      std::max<std::size_t>(4 * h.llc_bytes, std::size_t{1} << 30);
  const std::size_t n = target / (3 * sizeof(double)) + 1;
  if (total_bytes != nullptr) *total_bytes = 3 * n * sizeof(double);
  // In a child process, so the arrays never count toward this process's
  // peak resident set (an end-to-end metric).
  int fds[2];
  if (pipe(fds) != 0) return triad_in_process(n);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return triad_in_process(n);
  }
  if (pid == 0) {
    close(fds[0]);
    const double v = triad_in_process(n);
    const bool sent = write(fds[1], &v, sizeof(v)) == static_cast<ssize_t>(sizeof(v));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double v = 0.0;
  if (read(fds[0], &v, sizeof(v)) != static_cast<ssize_t>(sizeof(v))) v = 0.0;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? v : 0.0;
}

}  // namespace perfbench
