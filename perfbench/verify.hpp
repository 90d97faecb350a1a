// The benchmark's correctness gate.  Each distinct query key (graph,
// algorithm, resolved parameters) is checked once against the reference
// oracle through its registry `check` hook; every later answer for the same
// key — repeats and cache hits — is compared with that checked answer.
#pragma once

#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "graph/edge_list.hpp"

namespace perfbench {

/// One distinct query and the answer its first run gave.
struct QueryKey {
  const grind::algorithms::AlgorithmDesc* desc = nullptr;
  grind::algorithms::Params resolved;  ///< schema-resolved parameter bag
  std::string label;                   ///< e.g. "BFS source=17"
  const grind::graph::EdgeList* el = nullptr;  ///< the graph it runs on
  grind::algorithms::AnyResult checked;        ///< the answer under check
};

/// Run every key's check hook against its stored answer, kThreads keys at a
/// time (the oracles are serial and independent).  Returns the labels and
/// messages of the keys that failed; a key whose hook skipped is an error
/// too, because the gate must compare every key.
std::vector<std::string> oracle_check(const std::vector<QueryKey>& keys);

/// Whether `got` is the same answer as `want` for algorithm `code`: exact
/// for integer payloads (BFS levels, CC labels), within the check hook's own
/// tolerance for floating-point ones.  Payload identity (a cache hit sharing
/// the stored result) short-circuits.  An empty payload never matches.
bool same_answer(const std::string& code, const grind::algorithms::AnyResult& want,
                 const grind::algorithms::AnyResult& got) noexcept;

}  // namespace perfbench
