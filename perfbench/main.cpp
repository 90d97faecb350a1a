// perfbench: runs one workload of the repository benchmark and reports every
// metric by name and unit.
//
//   perfbench --workload <dense-rank|frontier-walk|service-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// The seed drives every input: graph generators, query sources and arrival
// draws.  The untraced run (--trace 0) gives the end-to-end metrics; the
// traced run (--trace 1) keeps spans around every call into the library's
// layers, writes them to <out-dir>/<workload>-seed<n>.spans.jsonl, and gives
// the per-layer metrics.  Human-readable lines come first; the last line is
// one JSON object with every metric (run.py selects the declared ones).
// Exit status is non-zero when any answer was wrong.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "host.hpp"

using namespace perfbench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <dense-rank|frontier-walk|service-mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a)) {
    usage();
    return 2;
  }
  using Fn = int (*)(const Args&, Tracer&, Report&);
  Fn run = nullptr;
  if (a.workload == "dense-rank") run = run_dense_rank;
  if (a.workload == "frontier-walk") run = run_frontier_walk;
  if (a.workload == "service-mix") run = run_service_mix;
  if (run == nullptr) {
    usage();
    return 2;
  }

  Tracer tr(a.trace);
  Report rep;
  const HostFacts host = probe_host();
  rep.note(describe(host));
  if (a.trace) {
    std::size_t bytes = 0;
    a.triad_gbs = triad_gbs(host, &bytes);
    rep.layer("sys.triad_gbs", a.triad_gbs, "GB/s", "(context)");
    rep.note("triad: " + std::to_string(kThreads) + " threads, 3 arrays, " +
             std::to_string(bytes >> 20) + " MiB combined");
  }
  int rc = 0;
  try {
    rc = run(a, tr, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  const double failed_frac =
      rep.attempted > 0 ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                        : 1.0;

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  for (const std::string& n : rep.notes) std::printf("  note  %s\n", n.c_str());
  for (const Metric& m : rep.metrics)
    if (m.end_to_end || a.trace)
      std::printf("  %-5s %-34s %14.6g %-8s%s%s\n", m.end_to_end ? "e2e" : "layer",
                  m.name.c_str(), m.value, m.unit.c_str(),
                  m.moves.empty() ? "" : " -> moves ", m.moves.c_str());
  std::printf("  e2e   %-34s %14.6g %-8s (%llu of %llu queries; %llu wrong answers)\n",
              "failed_frac", failed_frac, "fraction",
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.mismatches));
  if (a.trace) {
    const std::string path =
        a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + ".spans.jsonl";
    const auto totals = tr.totals();
    std::printf("  spans (%s):\n", path.c_str());
    for (const auto& [name, t] : totals)
      std::printf("    %-26s count %7zu  total %10.4f s  self %10.4f s\n", name.c_str(),
                  t.count, t.total_s, t.self_s);
    if (!tr.write_jsonl(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  const bool correct = rc == 0 && rep.mismatches == 0 && rep.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  const char* sep = "";
  for (const Metric& m : rep.metrics) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\", \"end_to_end\": %s}", sep,
                m.name.c_str(), json_number(m.value).c_str(), m.unit.c_str(),
                m.end_to_end ? "true" : "false");
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
