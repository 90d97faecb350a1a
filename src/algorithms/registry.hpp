// AlgorithmRegistry: one type-erased algorithm API for every surface.
//
// The paper's Table-II workload set is open-ended — the partitioned layouts
// are a substrate for *any* iterative vertex/edge-map algorithm — so the
// algorithms are not wired into the service, the CLI, the benches and the
// fuzzer by hand.  Instead each algorithm's .cpp registers one
// AlgorithmDesc: its paper code, capability flags, parameter schema
// (params.hpp), a type-erased run hook wrapping the existing template entry
// points, a human-readable result summariser, and an optional differential
// check against the reference oracles.  The four surfaces then enumerate
// the registry:
//
//   * service::GraphService looks requests up by name and derives its
//     validation (needs_source, parameter ranges) from the descriptor;
//   * ggtool run/serve/algos dispatch and list generically, with --param
//     key=value parsed by the schema;
//   * bench/runners.hpp exposes registry order as the Table-II code list
//     and times any engine through the type-indexed runners;
//   * the differential fuzzer iterates every entry and calls its check
//     hook, so a new algorithm is fuzzed the moment it registers.
//
// Registration is self-contained: a static algorithms::RegisterAlgorithm
// token in the algorithm's own translation unit (see registration.hpp) is
// the only wiring step — adding a workload touches no dispatch site.
// docs/ALGORITHMS.md walks through the contract using k-core as the
// example.
//
// Engines are type-erased per concrete engine type: algorithms are
// templates over the engine concept (edge_map / vertex_map / orientation),
// and registration instantiates one runner per known engine (the primary
// engine::Engine plus the Fig-9 baselines), stored under the engine's
// type_index.  run(eng, params) therefore works for any registered engine
// type with zero virtual calls on the traversal hot path — dispatch happens
// once per query, never per iteration.
#pragma once

#include <any>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "algorithms/params.hpp"
#include "sys/types.hpp"

namespace grind::graph {
class EdgeList;
class Graph;
}  // namespace grind::graph

namespace grind::algorithms {

/// Type-erased algorithm result.  Holds the algorithm's concrete result
/// struct (BfsResult, PageRankResult, …); consumers that know the type
/// recover it with as<T>(), generic consumers use the descriptor's
/// summarize hook.
///
/// The payload is immutable and shared: copying an AnyResult is a refcount
/// bump, never a deep copy of a |V|-sized result vector.  That is what lets
/// service::ResultCache hand the *same* stored result to every cache hit —
/// hits are bit-identical to the run that populated the entry by
/// construction (id() exposes the shared payload's identity so tests can
/// assert exactly that).
class AnyResult {
 public:
  AnyResult() = default;
  template <typename T,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<T>, AnyResult>>>
  AnyResult(T v)  // NOLINT(google-explicit-constructor)
      : value_(std::make_shared<const std::any>(std::move(v))) {}

  [[nodiscard]] bool empty() const {
    return value_ == nullptr || !value_->has_value();
  }

  template <typename T>
  [[nodiscard]] const T& as() const {
    const T* p = try_as<T>();
    if (p == nullptr)
      throw std::runtime_error("AnyResult: held type is not the requested one");
    return *p;
  }

  template <typename T>
  [[nodiscard]] const T* try_as() const {
    return value_ == nullptr ? nullptr : std::any_cast<T>(value_.get());
  }

  /// Identity of the shared payload (nullptr when empty).  Two AnyResults
  /// with equal id() hold the *same* object — the cache-hit bit-identity
  /// assertion, with no per-type equality needed.
  [[nodiscard]] const void* id() const { return value_.get(); }

 private:
  std::shared_ptr<const std::any> value_;
};

/// What an algorithm needs from its inputs and guarantees about its output.
struct AlgorithmCaps {
  /// Takes a start vertex ("source" parameter, original-ID space); the
  /// service substitutes its default source when the parameter is absent
  /// and every surface validates the range through the descriptor.
  bool needs_source = false;
  /// Consumes edge weights (BF, SPMV, BP); weight-less inputs still run but
  /// see weight 1.
  bool needs_weights = false;
  /// Consumes a per-vertex input vector ("x" parameter; SPMV).
  bool takes_vector_input = false;
  /// Output is a pure function of (graph, params) up to floating-point
  /// accumulation order — every current workload; prerequisite for the
  /// differential check hook.
  bool deterministic = true;
  /// Table-II orientation class (§III-D): vertex-oriented workloads declare
  /// Orientation::kVertex to the engine.
  bool vertex_oriented = false;
};

/// Context handed to a descriptor's differential check hook.
struct CheckContext {
  const graph::EdgeList* el = nullptr;  ///< the graph the result came from
  /// Whether the build used the identity VertexOrdering.  Checks whose
  /// oracle is only comparable in the input ID space (CC's directed
  /// label-propagation fixpoint) skip when false.
  bool identity_ordering = true;
};

/// Everything the surfaces need to know about one algorithm.
class AlgorithmDesc {
 public:
  std::string name;   ///< paper code ("BFS", "PR", "KCore", …) — the lookup key
  std::string title;  ///< one-line human description
  int table_order = 0;  ///< Table-II position; listings sort by this
  AlgorithmCaps caps;
  ParamSchema schema;

  /// Render the result for humans (ggtool run output).
  std::function<std::string(const AnyResult&)> summarize;

  /// Fuzz-harness parameter overrides for an |V|=n graph (e.g. PRDelta
  /// tightens epsilon so the oracle comparison converges; SPMV synthesises
  /// a non-uniform x).  Null ⇒ schema defaults.
  std::function<Params(vid_t n)> fuzz_params;

  /// Differential check of a run's result against the engine-independent
  /// reference oracle; throws std::runtime_error describing the mismatch.
  /// Returns true when the result was actually compared, false when the
  /// check is inapplicable under this context and was skipped (e.g. CC's
  /// oracle is only comparable under the identity ordering) — the fuzz
  /// harness counts real comparisons, not calls.  `params` is the resolved
  /// bag the run actually used.  Null ⇒ the algorithm is exercised but not
  /// oracle-checked.
  std::function<bool(const CheckContext&, const Params&, const AnyResult&)>
      check;

  /// Register a runner for one concrete engine type.  `fn` is the generic
  /// callable (templated lambda) shared by every engine instantiation.
  template <typename Eng, typename Fn>
  void add_runner(Fn fn) {
    runners_[std::type_index(typeid(Eng))] =
        [fn](void* eng, const Params& p) -> AnyResult {
      return fn(*static_cast<Eng*>(eng), p);
    };
  }

  [[nodiscard]] bool has_runner_for(std::type_index engine_type) const {
    return runners_.find(engine_type) != runners_.end();
  }

  /// Validate + default-fill `params` (schema plus the graph-dependent
  /// source rules) — the exact bag a run with these inputs would see.
  [[nodiscard]] Params resolve(const Params& params,
                               const graph::Graph& g) const;

  /// Run the algorithm on `eng` (any engine type registered via
  /// add_runner).  Parameters are resolved first: invalid keys/values and
  /// out-of-range sources throw before any traversal starts.  Dispatch is
  /// one hash lookup per call — never on the per-iteration hot path.
  template <typename Eng>
  AnyResult run(Eng& eng, const Params& params) const {
    return run_resolved(eng, resolve(params, eng.graph()));
  }

  /// As run(), but `resolved` must already be the output of resolve() for
  /// this graph — for callers that resolved early to inspect the bag
  /// (ggtool's info output, the fuzz harness handing resolved params to
  /// check hooks); skips the duplicate schema walk.
  template <typename Eng>
  AnyResult run_resolved(Eng& eng, const Params& resolved) const {
    const auto it = runners_.find(std::type_index(typeid(Eng)));
    if (it == runners_.end())
      throw std::invalid_argument(name +
                                  ": no runner registered for this engine "
                                  "type (see algorithms/registration.hpp)");
    return it->second(static_cast<void*>(&eng), resolved);
  }

 private:
  std::unordered_map<std::type_index,
                     std::function<AnyResult(void*, const Params&)>>
      runners_;
};

/// Process-wide registry of self-registered algorithms.  Registration
/// happens during static initialisation (single-threaded); lookups after
/// main() starts are lock-free reads.
class AlgorithmRegistry {
 public:
  static AlgorithmRegistry& instance();

  /// Register one algorithm; throws std::logic_error on duplicate names.
  void add(AlgorithmDesc desc);

  /// nullptr when no algorithm has this paper code.
  [[nodiscard]] const AlgorithmDesc* find(std::string_view name) const;

  /// Throwing lookup (std::invalid_argument names the unknown code).
  [[nodiscard]] const AlgorithmDesc& at(std::string_view name) const;

  /// All entries, sorted by table_order (paper order, extensions after).
  [[nodiscard]] std::vector<const AlgorithmDesc*> entries() const;

  /// Paper codes in table order.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const { return descs_.size(); }

 private:
  AlgorithmRegistry() = default;
  // May reallocate while registrations run (static init, before any lookup
  // escapes); descriptor pointers handed out by find()/entries() are stable
  // from then on because nothing registers after static initialisation.
  std::vector<AlgorithmDesc> descs_;
};

namespace detail {

/// Oracle comparison helpers for check hooks: like the gtest matchers in
/// tests/common/expect_vectors.hpp, but throwing (hooks live in the library
/// and cannot depend on gtest).
template <typename T>
void check_eq_vec(const std::vector<T>& got, const std::vector<T>& want,
                  const char* label) {
  if (got.size() != want.size())
    throw std::runtime_error(std::string(label) + ": size " +
                             std::to_string(got.size()) + " != " +
                             std::to_string(want.size()));
  for (std::size_t i = 0; i < want.size(); ++i)
    if (got[i] != want[i]) {
      std::ostringstream os;
      os << label << " mismatch at [" << i << "]: got " << got[i] << ", want "
         << want[i];
      throw std::runtime_error(os.str());
    }
}

inline void check_near_vec(const std::vector<double>& got,
                           const std::vector<double>& want, double tol,
                           const char* label) {
  if (got.size() != want.size())
    throw std::runtime_error(std::string(label) + ": size " +
                             std::to_string(got.size()) + " != " +
                             std::to_string(want.size()));
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double a = got[i], b = want[i];
    if (std::isinf(a) && std::isinf(b) && std::signbit(a) == std::signbit(b))
      continue;
    if (!(std::fabs(a - b) <= tol)) {  // NaN-safe: NaN fails
      std::ostringstream os;
      os << label << " mismatch at [" << i << "]: got " << a << ", want " << b
         << " (tol " << tol << ")";
      throw std::runtime_error(os.str());
    }
  }
}

}  // namespace detail

}  // namespace grind::algorithms
