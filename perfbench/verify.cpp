#include "verify.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>

#include "algorithms/bc.hpp"
#include "algorithms/belief_propagation.hpp"
#include "algorithms/bellman_ford.hpp"
#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_delta.hpp"
#include "algorithms/spmv.hpp"
#include "common.hpp"

namespace perfbench {

namespace alg = grind::algorithms;

std::vector<std::string> oracle_check(const std::vector<QueryKey>& keys) {
  std::vector<std::string> errors;
  std::mutex m;
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < keys.size();) {
      const QueryKey& k = keys[i];
      std::string why;
      try {
        if (!k.desc->check)
          why = "no check hook";
        else if (!k.desc->check(alg::CheckContext{k.el, true}, k.resolved,
                                k.checked))
          why = "check hook skipped";
      } catch (const std::exception& e) {
        why = e.what();
      }
      if (!why.empty()) {
        std::lock_guard<std::mutex> lock(m);
        errors.push_back(k.label + ": " + why);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return errors;
}

namespace {

template <typename T>
bool near(const std::vector<T>& want, const std::vector<T>& got, double tol) {
  if (want.size() != got.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if constexpr (std::is_integral_v<T>) {
      if (want[i] != got[i]) return false;
    } else {
      const double a = want[i], b = got[i];
      if (std::isinf(a) && std::isinf(b) && std::signbit(a) == std::signbit(b))
        continue;
      if (!(std::fabs(a - b) <= tol)) return false;  // NaN fails
    }
  }
  return true;
}

}  // namespace

bool same_answer(const std::string& code, const alg::AnyResult& want,
                 const alg::AnyResult& got) noexcept try {
  if (want.empty() || got.empty()) return false;
  if (want.id() == got.id()) return true;
  // Tolerances are the check hooks' own (algorithms/*.cpp).
  if (code == "PR")
    return near(want.as<alg::PageRankResult>().rank,
                got.as<alg::PageRankResult>().rank, 1e-9);
  if (code == "PRDelta")
    return near(want.as<alg::PageRankDeltaResult>().rank,
                got.as<alg::PageRankDeltaResult>().rank, 1e-5);
  if (code == "SPMV")
    return near(want.as<alg::SpmvResult>().y, got.as<alg::SpmvResult>().y, 1e-9);
  if (code == "BP")
    return near(want.as<alg::BeliefPropagationResult>().belief0,
                got.as<alg::BeliefPropagationResult>().belief0, 1e-9);
  if (code == "CC")
    return near(want.as<alg::CcResult>().labels, got.as<alg::CcResult>().labels, 0);
  if (code == "BFS")
    return near(want.as<alg::BfsResult>().level, got.as<alg::BfsResult>().level, 0);
  if (code == "BC")
    return near(want.as<alg::BcResult>().dependency,
                got.as<alg::BcResult>().dependency, 1e-6);
  if (code == "BF")
    return near(want.as<alg::BellmanFordResult>().dist,
                got.as<alg::BellmanFordResult>().dist, 1e-6);
  return false;  // an algorithm this gate cannot compare is a failure
} catch (const std::exception&) {
  return false;  // a payload of the wrong type is a wrong answer
}

}  // namespace perfbench
