// Host facts recorded beside the metrics, and the in-process STREAM triad
// that gives this host's sustainable memory bandwidth.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

struct HostFacts {
  unsigned nproc = 0;
  std::size_t llc_bytes = 0;  ///< 0 when the C library cannot tell
  int numa_nodes = 0;         ///< memory nodes this process may use
  bool pmu = false;           ///< a hardware cache-miss counter can be opened
};

HostFacts probe_host();

/// One line for the report: nproc, LLC, domains, PMU / MPKI availability.
std::string describe(const HostFacts& h);

/// STREAM triad a[i] = b[i] + s·c[i] over three arrays whose combined size is
/// at least four times the LLC (at least 1 GiB when the LLC is unknown), on
/// kThreads OpenMP threads; best of a few passes, in GB/s counting 24 bytes
/// per element, measured in a child process.  `total_bytes` receives the
/// combined array size.  0 when the measurement failed.
double triad_gbs(const HostFacts& h, std::size_t* total_bytes);

}  // namespace perfbench
