// Ablation (extension; §VI open question) — sensitivity of the Algorithm-2
// density thresholds.  The paper fixes 5% (sparse/medium) and 50%
// (medium/dense) "experimentally"; this bench sweeps both around the chosen
// values on the frontier-driven workloads, demonstrating that the defaults
// sit in a robust plateau.  A companion sweep toggles software prefetch in
// the CSR/CSC hot loops; its machine-readable rows (one JSON object per
// line) carry the per-algorithm seconds.
#include <cstdio>
#include <iostream>

#include "engine/engine.hpp"
#include "runners.hpp"
#include "suite.hpp"
#include "sys/table.hpp"

using namespace grind;

int main() {
  const auto el = bench::make_suite_graph("Twitter", bench::suite_scale());
  const auto g = graph::Graph::build(graph::EdgeList(el));
  const vid_t source = bench::max_out_degree_vertex(g);
  const int rounds = bench::suite_rounds();

  {
    Table t("Ablation: sparse threshold sweep (dense fixed at 50%) — "
            "Twitter-like");
    t.header({"sparse frac", "BFS [s]", "PRDelta [s]", "BC [s]", "BF [s]"});
    for (double sf : {0.0025, 0.01, 0.05, 0.15, 0.30}) {
      engine::Options opts;
      opts.sparse_fraction = sf;
      std::vector<std::string> row = {Table::pct(sf, 2)};
      for (const char* code : {"BFS", "PRDelta", "BC", "BF"}) {
        engine::Engine eng(g, opts);
        row.push_back(
            Table::num(bench::time_algorithm(code, eng, source, rounds), 4));
      }
      t.row(row);
    }
    std::cout << t << '\n';
  }
  {
    Table t("Ablation: dense threshold sweep (sparse fixed at 5%) — "
            "Twitter-like");
    t.header({"dense frac", "BFS [s]", "PRDelta [s]", "BC [s]", "BF [s]"});
    for (double df : {0.10, 0.25, 0.50, 0.75, 0.95}) {
      engine::Options opts;
      opts.dense_fraction = df;
      std::vector<std::string> row = {Table::pct(df, 0)};
      for (const char* code : {"BFS", "PRDelta", "BC", "BF"}) {
        engine::Engine eng(g, opts);
        row.push_back(
            Table::num(bench::time_algorithm(code, eng, source, rounds), 4));
      }
      t.row(row);
    }
    std::cout << t << '\n';
  }
  {
    // Prefetch toggle: the CSR sparse-forward and CSC backward kernels
    // prefetch upcoming neighbor/offset entries (traverse_csr.hpp,
    // traverse_csc.hpp); BFS and BF spend most sweeps there.
    Table t("Ablation: software prefetch in CSR/CSC hot loops — "
            "Twitter-like");
    t.header({"prefetch", "BFS [s]", "PRDelta [s]", "BC [s]", "BF [s]"});
    for (const bool pre : {true, false}) {
      engine::Options opts;
      opts.prefetch = pre;
      std::vector<std::string> row = {pre ? "on" : "off"};
      for (const char* code : {"BFS", "PRDelta", "BC", "BF"}) {
        engine::Engine eng(g, opts);
        const double secs = bench::time_algorithm(code, eng, source, rounds);
        row.push_back(Table::num(secs, 4));
        std::printf("{\"bench\":\"ablation_prefetch\",\"prefetch\":%s,"
                    "\"algo\":\"%s\",\"seconds\":%.4f}\n",
                    pre ? "true" : "false", code, secs);
      }
      t.row(row);
    }
    std::fflush(stdout);
    std::cout << t << '\n';
  }
  std::cout << "Expected: a shallow optimum around the paper's 5%/50% "
               "defaults; extreme settings degrade by forcing the wrong "
               "kernel onto mismatched frontier densities; prefetch "
               "helps most on the sparse/backward kernels' pointer-chasing "
               "loops.\n";
  return 0;
}
