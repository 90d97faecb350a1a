// Service throughput: queries/sec through one GraphService over one shared
// partitioned graph, as a function of client (worker) count.  This is the
// serving regime the partition-centric layouts
// exist for — many traversals over one read-only structure — and the scaling
// claim the PR is accepted against: ≥ 2× single-client throughput at 4
// clients on the bench graph.
//
// Queries run with threads_per_query = 1 (concurrency across queries, not
// inside them), so the scaling axis is pure inter-query parallelism over
// the shared layouts.
//
// Besides throughput each configuration reports the end-to-end latency
// distribution (queue wait + execution, nearest-rank p50/p99/p999) — the
// tail is what the admission-control knobs in docs/SERVICE.md manage.  When
// the binary is built with -DGRIND_FAULT_INJECT, each configuration runs a
// second time with a probabilistic "service.worker-stall" fault armed, so
// the trajectory records how the tail degrades with a slow worker in the
// tier ("slow_worker":true rows).
//
// One JSON object per client count goes to stdout for the perf trajectory,
// e.g.:
//   {"bench":"service_throughput","graph":"Twitter","clients":4,
//    "queries":64,"seconds":...,"qps":...,"speedup_vs_1":...,
//    "p50_ms":...,"p99_ms":...,"p999_ms":...,"slow_worker":false}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "service/graph_service.hpp"
#include "suite.hpp"
#include "sys/fault.hpp"
#include "sys/table.hpp"
#include "sys/timer.hpp"

using namespace grind;

namespace {

/// The fixed mixed workload every configuration executes (identical request
/// vector, so configurations are directly comparable).  Requests address
/// the registry by paper code; source-taking membership comes from the
/// registered capability flags.
std::vector<service::QueryRequest> make_workload(const graph::Graph& g,
                                                 std::size_t queries) {
  const auto& registry = algorithms::AlgorithmRegistry::instance();
  const char* const mix[] = {"BFS", "PR", "BF", "CC"};
  std::vector<service::QueryRequest> reqs;
  reqs.reserve(queries);
  for (std::size_t q = 0; q < queries; ++q) {
    service::QueryRequest req(mix[q % std::size(mix)]);
    if (registry.at(req.algorithm).caps.needs_source)
      req.params.set("source",
                     static_cast<vid_t>((q * 131 + 7) % g.num_vertices()));
    reqs.push_back(std::move(req));
  }
  return reqs;
}

struct RunResult {
  double secs = 0.0;
  std::size_t cache_hits = 0;     // queries answered from the result cache
  std::vector<double> latencies;  // per-query queue wait + execution [s]
};

/// Nearest-rank percentile of an unsorted latency sample, in milliseconds.
double percentile_ms(std::vector<double> lat, double p) {
  if (lat.empty()) return 0.0;
  std::sort(lat.begin(), lat.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(lat.size()))));
  return lat[std::min(rank, lat.size()) - 1] * 1e3;
}

/// Submit the fixed workload against an already-warm service and drain it,
/// timing wall clock and per-query latency.
RunResult run_workload(service::GraphService& svc, std::size_t queries) {
  auto reqs = make_workload(svc.graph(), queries);
  RunResult res;
  res.latencies.reserve(queries);
  Timer wall;
  std::vector<std::future<service::QueryResult>> futures;
  futures.reserve(reqs.size());
  for (auto& req : reqs) futures.push_back(svc.submit(std::move(req)));
  for (auto& f : futures) {
    const auto r = f.get();
    if (!r.ok()) std::cerr << "query failed: " << r.error << "\n";
    if (r.cached) ++res.cache_hits;
    res.latencies.push_back(r.queue_seconds + r.seconds);
  }
  res.secs = wall.seconds();
  return res;
}

RunResult run_once(const graph::EdgeList& el, std::size_t clients,
                   std::size_t queries) {
  service::ServiceConfig cfg;
  cfg.workers = clients;
  cfg.threads_per_query = 1;
  service::GraphService svc(graph::Graph::build(graph::EdgeList(el), {}),
                            cfg);

  // Warmup: warm the workers' workspaces and fault in the layouts.
  {
    auto warm = svc.run_batch(make_workload(svc.graph(), 2 * clients));
    for (const auto& r : warm)
      if (!r.ok()) std::cerr << "warmup failed: " << r.error << "\n";
  }
  return run_workload(svc, queries);
}

void emit_row(const std::string& graph_name, std::size_t clients,
              std::size_t queries, const RunResult& r, double base_qps,
              bool slow_worker) {
  const double qps = static_cast<double>(queries) / r.secs;
  std::printf(
      "{\"bench\":\"service_throughput\",\"graph\":\"%s\","
      "\"clients\":%zu,\"queries\":%zu,"
      "\"seconds\":%.6f,\"qps\":%.2f,\"speedup_vs_1\":%.3f,"
      "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"p999_ms\":%.3f,"
      "\"slow_worker\":%s}\n",
      graph_name.c_str(), clients, queries, r.secs, qps,
      base_qps > 0 ? qps / base_qps : 1.0, percentile_ms(r.latencies, 0.50),
      percentile_ms(r.latencies, 0.99), percentile_ms(r.latencies, 0.999),
      slow_worker ? "true" : "false");
  std::fflush(stdout);
}

void report(const std::string& graph_name) {
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t queries =
      static_cast<std::size_t>(64 * std::max(1.0, bench::suite_scale()));
  const graph::EdgeList el =
      bench::make_suite_graph(graph_name, bench::suite_scale());

  std::vector<std::size_t> client_counts = {1, 2, 4, 8};
  client_counts.erase(
      std::remove_if(client_counts.begin(), client_counts.end(),
                     [&](std::size_t c) {
                       return c > 1 && c > static_cast<std::size_t>(2 * hw);
                     }),
      client_counts.end());

  struct Row {
    std::size_t clients;
    double secs, qps, p50, p99, p999;
  };
  std::vector<Row> rows;
  double base_qps = 0.0;

  for (const std::size_t clients : client_counts) {
    const RunResult res = run_once(el, clients, queries);
    const double qps = static_cast<double>(queries) / res.secs;
    if (clients == 1) base_qps = qps;
    rows.push_back({clients, res.secs, qps, percentile_ms(res.latencies, 0.50),
                    percentile_ms(res.latencies, 0.99),
                    percentile_ms(res.latencies, 0.999)});
    emit_row(graph_name, clients, queries, res, base_qps,
             /*slow_worker=*/false);

#ifdef GRIND_FAULT_INJECT
    // Same configuration with one-in-five queries stalled 20 ms between
    // dequeue and execution: the p99/p999 deltas against the clean rows show
    // how much tail a slow worker costs at each concurrency level.
    {
      sys::fault::Spec stall;
      stall.probability = 0.2;
      stall.stall_ms = 20;
      stall.seed = 29;
      sys::fault::arm("service.worker-stall", stall);
      const RunResult slow = run_once(el, clients, queries);
      sys::fault::disarm_all();
      emit_row(graph_name, clients, queries, slow, base_qps,
               /*slow_worker=*/true);
    }
#endif
  }

  Table t("service throughput — " + graph_name + "-like, " +
          std::to_string(queries) + " mixed queries (BFS/PR/BF/CC), 1 "
          "thread per query, " + std::to_string(hw) + " hw threads");
  t.header({"clients", "seconds", "queries/s", "speedup vs 1", "p50 [ms]",
            "p99 [ms]", "p999 [ms]"});
  for (const auto& r : rows)
    t.row({Table::num(r.clients), Table::num(r.secs, 3), Table::num(r.qps, 1),
           Table::num(base_qps > 0 ? r.qps / base_qps : 1.0, 2),
           Table::num(r.p50, 2), Table::num(r.p99, 2),
           Table::num(r.p999, 2)});
  std::cout << t << '\n';
}

/// Cached vs cold: the same mixed workload through a cache-enabled service
/// whose cache was primed by one full pass, against a cache-disabled twin.
/// Every measured query hits (the workload is deterministic algorithms with
/// identical resolved params), so the row quantifies what a hit is worth —
/// no worker, no traversal, a refcount bump on the shared result.
/// Emitted under its own "service_cache" name so the service_throughput
/// scaling gate never sees cached rows.
void report_cache(const std::string& graph_name) {
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t clients =
      std::min<std::size_t>(4, static_cast<std::size_t>(hw));
  const std::size_t queries =
      static_cast<std::size_t>(64 * std::max(1.0, bench::suite_scale()));
  const graph::EdgeList el =
      bench::make_suite_graph(graph_name, bench::suite_scale());

  const RunResult cold = run_once(el, clients, queries);

  service::ServiceConfig cfg;
  cfg.workers = clients;
  cfg.threads_per_query = 1;
  cfg.result_cache_capacity = 2 * queries;  // hold the whole workload
  service::GraphService svc(graph::Graph::build(graph::EdgeList(el), {}),
                            cfg);
  {
    // Warm the workers, then prime every cache entry with one full pass.
    auto warm = svc.run_batch(make_workload(svc.graph(), 2 * clients));
    auto prime = svc.run_batch(make_workload(svc.graph(), queries));
    for (const auto& r : warm)
      if (!r.ok()) std::cerr << "warmup failed: " << r.error << "\n";
    for (const auto& r : prime)
      if (!r.ok()) std::cerr << "prime failed: " << r.error << "\n";
  }
  const RunResult hit = run_workload(svc, queries);
  const double hit_rate = static_cast<double>(hit.cache_hits) /
                          static_cast<double>(queries);
  const double cold_p50 = percentile_ms(cold.latencies, 0.50);
  const double hit_p50 = percentile_ms(hit.latencies, 0.50);

  std::printf(
      "{\"bench\":\"service_cache\",\"graph\":\"%s\",\"clients\":%zu,"
      "\"queries\":%zu,\"cold_seconds\":%.6f,\"cold_qps\":%.2f,"
      "\"cold_p50_ms\":%.3f,\"hit_seconds\":%.6f,\"hit_qps\":%.2f,"
      "\"hit_p50_ms\":%.3f,\"hit_rate\":%.3f,\"qps_speedup\":%.2f}\n",
      graph_name.c_str(), clients, queries, cold.secs,
      static_cast<double>(queries) / cold.secs, cold_p50, hit.secs,
      static_cast<double>(queries) / hit.secs, hit_p50, hit_rate,
      hit.secs > 0 ? cold.secs / hit.secs : 0.0);
  std::fflush(stdout);

  Table t("result cache — " + graph_name + "-like, same workload cold vs "
          "fully primed (" + std::to_string(clients) + " clients)");
  t.header({"pass", "seconds", "queries/s", "p50 [ms]", "p99 [ms]",
            "hit rate"});
  t.row({"cold", Table::num(cold.secs, 3),
         Table::num(static_cast<double>(queries) / cold.secs, 1),
         Table::num(cold_p50, 3), Table::num(percentile_ms(cold.latencies,
                                                           0.99), 3),
         "0.00"});
  t.row({"cached", Table::num(hit.secs, 3),
         Table::num(static_cast<double>(queries) / hit.secs, 1),
         Table::num(hit_p50, 3), Table::num(percentile_ms(hit.latencies,
                                                          0.99), 3),
         Table::num(hit_rate, 2)});
  std::cout << t << '\n';
}

}  // namespace

int main() {
  report("Twitter");
  report_cache("Twitter");
  std::cout << "Expected: queries/s scales with client count (>= 2x at 4\n"
               "clients on multi-core hosts).  The cached pass should beat\n"
               "the cold pass on p50 — a hit needs no worker and no\n"
               "traversal.\n";
  return 0;
}
