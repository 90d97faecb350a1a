// The closed-loop workloads: one query at a time on a direct engine::Engine
// with 4 OpenMP threads, a fixed round-robin query list, repeated for whole
// rounds until the run's time is used up.
//
//   dense-rank     PR, PRDelta, SPMV, BP, CC on a Twitter-like RMAT graph:
//                  dense frontiers, so dense-coo sweeps carry the time.
//   frontier-walk  BFS, BC, BF from spread sources on a road lattice: high
//                  diameter, many tiny sweeps, sparse-csr and backward-csc
//                  carry the time and dense-coo stays idle.
#include <cstdio>
#include <map>
#include <random>

#include "common.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "loadgen.hpp"
#include "sys/parallel.hpp"
#include "verify.hpp"

namespace perfbench {

namespace gg = grind::graph;
namespace alg = grind::algorithms;

namespace {

constexpr int kSetupRepeats = 3;

struct BatchSpec {
  gg::EdgeList el;
  /// (algorithm, parameters) in round-robin order.
  std::vector<std::pair<std::string, alg::Params>> (*queries)(std::uint64_t seed);
};

int run_batch(const Args& a, Tracer& tr, Report& rep, BatchSpec spec) {
  grind::set_num_threads(kThreads);
  rep.note("closed loop, 1 query at a time, " + std::to_string(kThreads) +
           " OpenMP threads");

  // ---- setup: every builder stage, repeated; the last graph is kept ----
  std::vector<double> setup;
  std::vector<BuildTimes> stages;
  gg::Graph g;
  for (int r = 0; r < kSetupRepeats; ++r) {
    g = gg::Graph{};
    gg::EdgeList copy = spec.el;  // input generation is not set-up
    Tracer::Scope s(tr, "setup");
    const Clock::time_point t0 = Clock::now();
    BuildTimes bt;
    g = build_staged(std::move(copy), tr, &bt);
    setup.push_back(since(t0));
    stages.push_back(bt);
  }
  spec.el = gg::EdgeList{};  // the graph keeps its own copy
  if (a.trace) report_partitioning(g, tr, rep);

  // ---- keys: first run of each is the answer the oracle checks ----
  grind::engine::Engine eng(g);
  const auto& registry = alg::AlgorithmRegistry::instance();
  std::vector<QueryKey> keys;
  for (auto& [code, params] : spec.queries(a.seed)) {
    QueryKey k;
    k.desc = &registry.at(code);
    k.resolved = k.desc->resolve(params, g);
    k.label = code;
    if (k.resolved.has("source"))
      k.label += " source=" + std::to_string(k.resolved.get_int("source"));
    k.el = &g.edge_list();
    {
      Tracer::Scope s(tr, "warmup.run");
      k.checked = k.desc->run_resolved(eng, k.resolved);
    }
    keys.push_back(std::move(k));
  }

  // ---- timed: whole rounds until the run's time is used ----
  EngineTotals totals;
  std::vector<double> lat;
  std::map<std::string, std::vector<double>> lat_by, sweeps_by;
  const Clock::time_point start = Clock::now();
  std::int64_t qid = 0;
  do {
    for (const QueryKey& k : keys) {
      eng.reset_stats();
      const int sweeps0 = eng.sweeps_done();
      alg::AnyResult r;
      double secs = 0.0;
      {
        Tracer::Scope s(tr, "algorithms.run", qid);
        const Clock::time_point t0 = Clock::now();
        r = k.desc->run_resolved(eng, k.resolved);
        secs = since(t0);
      }
      {
        Tracer::Scope s(tr, "engine.stats", qid);
        totals.add(eng.stats(), secs, eng.sweeps_done() - sweeps0);
      }
      lat.push_back(secs);
      lat_by[k.desc->name].push_back(secs * 1e3);
      sweeps_by[k.desc->name].push_back(eng.sweeps_done() - sweeps0);
      ++rep.attempted;
      Tracer::Scope s(tr, "check.repeat", qid);
      if (!same_answer(k.desc->name, k.checked, r)) {
        ++rep.mismatches;
        ++rep.failed;
        std::fprintf(stderr, "mismatch: %s differs from its checked answer\n",
                     k.label.c_str());
      }
      ++qid;
    }
  } while (since(start) < a.seconds);

  // ---- oracle, outside the timed region ----
  {
    Tracer::Scope s(tr, "check.oracle");
    for (const std::string& e : oracle_check(keys)) {
      ++rep.mismatches;
      ++rep.failed;
      std::fprintf(stderr, "oracle: %s\n", e.c_str());
    }
  }
  rep.note("distinct keys " + std::to_string(keys.size()) +
           ", each checked against algorithms/ref; " + std::to_string(qid) +
           " timed queries compared with their key's checked answer");

  // ---- end to end ----
  rep.e2e("setup_s", median(setup), "s");
  rep.e2e("queries_per_s", static_cast<double>(lat.size()) / totals.query_s, "1/s");
  rep.e2e("latency_p50_ms", percentile(lat, 0.50) * 1e3, "ms");
  rep.e2e("latency_p90_ms", percentile(lat, 0.90) * 1e3, "ms");
  rep.e2e("latency_p99_ms", percentile(lat, 0.99) * 1e3, "ms");
  rep.note("latency samples " + std::to_string(lat.size()) + " (" +
           std::to_string(lat.size() / keys.size()) + " rounds of " +
           std::to_string(keys.size()) + ")");

  // ---- per layer ----
  report_build_stages(stages, rep);
  totals.report(rep, a.triad_gbs, "queries_per_s", "latency_p50_ms");
  for (const auto& [code, v] : lat_by) {
    rep.layer("algorithms." + code + ".p50_ms", median(v), "ms", "latency_p50_ms");
    rep.layer("algorithms." + code + ".sweeps", median(sweeps_by[code]), "count",
              "latency_p50_ms");
  }
  return 0;
}

std::vector<std::pair<std::string, alg::Params>> dense_queries(std::uint64_t) {
  // PRDelta runs to convergence (epsilon 1e-9, at most 300 rounds): the
  // setting under which its check hook compares it with the power-method
  // oracle (its registry fuzz_params).  At the default epsilon it stops
  // early and the oracle comparison does not apply.
  alg::Params prdelta;
  prdelta.set("epsilon", 1e-9);
  prdelta.set("max_rounds", 300);
  return {{"PR", {}}, {"PRDelta", prdelta}, {"SPMV", {}}, {"BP", {}}, {"CC", {}}};
}

constexpr grind::vid_t kWalkSide = 720;

std::vector<std::pair<std::string, alg::Params>> walk_queries(std::uint64_t seed) {
  // Four sources for BFS and BC, two of them for BF too: a BF query costs
  // about ten BC queries, and with two per round the p90 of a run is the
  // median BF query rather than its fastest one.
  constexpr int kSources = 4;
  std::mt19937_64 rng(seed ^ 0x5eed5eedULL);
  std::vector<std::pair<std::string, alg::Params>> q;
  for (int s = 0; s < kSources; ++s) {
    alg::Params p;
    p.set("source", lattice_source(kWalkSide, kWalkSide, s, rng));
    if (s % 2 == 0) q.emplace_back("BF", p);
    q.emplace_back("BFS", p);
    q.emplace_back("BC", std::move(p));
  }
  return q;
}

}  // namespace

int run_dense_rank(const Args& a, Tracer& tr, Report& rep) {
  BatchSpec spec;
  {
    Tracer::Scope s(tr, "input.generate");
    spec.el = gg::rmat(19, 16, a.seed);
  }
  rep.note("graph: RMAT scale 19, edge factor 16 (Twitter-like), seed " +
           std::to_string(a.seed));
  spec.queries = dense_queries;
  return run_batch(a, tr, rep, std::move(spec));
}

int run_frontier_walk(const Args& a, Tracer& tr, Report& rep) {
  BatchSpec spec;
  {
    Tracer::Scope s(tr, "input.generate");
    spec.el = gg::road_lattice(kWalkSide, kWalkSide, 0.05, a.seed);
  }
  rep.note("graph: road lattice 720x720, 5% shortcuts, seed " + std::to_string(a.seed));
  spec.queries = walk_queries;
  return run_batch(a, tr, rep, std::move(spec));
}

}  // namespace perfbench
