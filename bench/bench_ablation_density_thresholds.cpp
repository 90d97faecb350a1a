// Ablation (extension; §VI open question) — sensitivity of the Algorithm-2
// density thresholds.  The paper fixes 5% (sparse/medium) and 50%
// (medium/dense) "experimentally"; this bench sweeps both around the chosen
// values on the frontier-driven workloads, demonstrating that the defaults
// sit in a robust plateau.
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
  std::cout << "Expected: a shallow optimum around the paper's 5%/50% "
               "defaults; extreme settings degrade by forcing the wrong "
               "kernel onto mismatched frontier densities.\n";
  return 0;
}
