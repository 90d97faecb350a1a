// PartitionerRegistry: one type-erased partitioning-strategy API for every
// surface, mirroring the AlgorithmRegistry contract (algorithms/registry.hpp).
//
// The paper's thesis is that the *partitioning* manufactures memory
// locality, yet the contiguous Algorithm-1 split is only one point in the
// strategy space (streaming vertex partitioners — LDG, Fennel — and
// degree-based hashing trade replication factor against balance very
// differently; SNIPPETS.md §2 maps the space).  Strategies therefore are
// not wired into the builder, the CLI, the benches and the fuzzer by hand:
// each strategy's .cpp registers one PartitionerDesc — name, capability
// flags, a typed parameter schema (reusing algorithms::Params) and a
// type-erased run hook that emits a vertex → partition assignment — and
// the surfaces enumerate the registry:
//
//   * graph::GraphBuilder resolves BuildOptions::partitioner by name and
//     composes the emitted assignment into its staged pipeline (a new
//     `assign` stage between order and partition);
//   * ggtool partitioners/run/serve/partition-report dispatch and list
//     generically, with --ppart key=value parsed by the schema;
//   * bench_fig3_replication sweeps the registry into the partitioner ×
//     algorithm locality matrix;
//   * the differential fuzzer draws its partitioner knob from the registry
//     and asserts every entry is exercised.
//
// Registration is self-contained: a static partition::RegisterPartitioner
// token in the strategy's own translation unit (registration.hpp) is the
// only wiring step — adding a strategy touches no dispatch site.  The
// grind OBJECT library (top-level CMakeLists.txt) guarantees the
// registration-only objects are never dropped by the linker.
//
// Composition contract (docs/PARTITIONING.md): a strategy emits an
// arbitrary assignment over the *ordered internal* ID space; the builder
// converts it into a VertexRemap (vertices stably sorted by partition)
// plus contiguous aligned ranges via plan_assignment().  After that the
// partitioning is contiguous again, so the traversal kernels, NUMA
// arenas and the atomic-free bitmap alignment all work unchanged for
// every strategy — nothing downstream knows assignments were ever
// non-contiguous.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/params.hpp"
#include "graph/edge_list.hpp"
#include "graph/reorder.hpp"
#include "partition/partitioner.hpp"
#include "sys/types.hpp"

namespace grind::partition {

/// The baseline strategy every build defaults to (the paper's Algorithm 1
/// contiguous split); guaranteed to be registered.
inline constexpr const char* kContiguousPartitioner = "contiguous";

/// What a strategy needs from its inputs and guarantees about its output.
struct PartitionerCaps {
  /// Single pass over the vertex/edge stream with O(P) or O(V) state —
  /// the class that scales to out-of-core builds (ROADMAP item 2).
  bool streaming = false;
  /// Consumes a degree array (the builder provides it for free; flag is
  /// informational for listings and the out-of-core path).
  bool needs_degrees = false;
  /// Assignment is a pure function of (edge list, P, params) — every
  /// current strategy; prerequisite for the equivalence tests and the
  /// epoch-keyed result cache to stay valid across rebuilds.
  bool deterministic = true;
};

/// Everything the surfaces need to know about one partitioning strategy.
class PartitionerDesc {
 public:
  std::string name;   ///< lookup key ("contiguous", "ldg", "fennel", …)
  std::string title;  ///< one-line human description
  int list_order = 0;  ///< listing position (baseline first)
  PartitionerCaps caps;
  algorithms::ParamSchema schema;

  /// Emit the home partition of every vertex of `el` (ordered internal ID
  /// space): a vector of length el.num_vertices() with values in [0, P).
  /// `opts` carries the build's alignment/balance configuration so the
  /// contiguous baseline can reproduce Algorithm 1 bit-for-bit; streaming
  /// strategies are free to ignore it (the builder re-imposes alignment
  /// when it converts the assignment into contiguous ranges).
  /// `params` is the schema-resolved bag — hooks never re-validate.
  std::function<std::vector<part_t>(
      const graph::EdgeList& el, part_t num_partitions,
      const PartitionOptions& opts, const algorithms::Params& params)>
      run;

  /// Validate + default-fill `params` against the schema — the exact bag a
  /// run with these inputs would see.  Throws std::invalid_argument /
  /// std::out_of_range naming the offending key.
  [[nodiscard]] algorithms::Params resolve(
      const algorithms::Params& params) const {
    return schema.resolve(params);
  }
};

/// Process-wide registry of self-registered strategies.  Registration
/// happens during static initialisation (single-threaded); lookups after
/// main() starts are lock-free reads.
class PartitionerRegistry {
 public:
  static PartitionerRegistry& instance();

  /// Register one strategy; throws std::logic_error on duplicate names.
  void add(PartitionerDesc desc);

  /// nullptr when no strategy has this name.
  [[nodiscard]] const PartitionerDesc* find(std::string_view name) const;

  /// Throwing lookup (std::invalid_argument names the unknown strategy).
  [[nodiscard]] const PartitionerDesc& at(std::string_view name) const;

  /// All entries, sorted by list_order (baseline first, name tiebreak).
  [[nodiscard]] std::vector<const PartitionerDesc*> entries() const;

  /// Strategy names in listing order.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const { return descs_.size(); }

 private:
  PartitionerRegistry() = default;
  // May reallocate while registrations run (static init, before any lookup
  // escapes); pointers from find()/entries() are stable from then on.
  std::vector<PartitionerDesc> descs_;
};

/// The builder-side half of the composition contract: turn an arbitrary
/// assignment into (a) the VertexRemap that stably sorts vertices by home
/// partition — vertices keep their relative order inside a partition, so a
/// monotone assignment (the contiguous baseline) collapses to the identity
/// and costs nothing — and (b) the P contiguous ranges the sorted vertices
/// occupy, with every boundary snapped *up* to a multiple of
/// `boundary_align` (the trailing vertices of partition p+1 that alignment
/// absorbs into p keep the bitmap words single-writer; the quantisation is
/// the same one Algorithm 1 applies to its own boundaries).  The last
/// range always ends at |V|.
struct AssignmentPlan {
  /// Maps pre-assignment internal IDs ↔ post-assignment internal IDs
  /// (identity when the assignment is already monotone non-decreasing).
  graph::VertexRemap remap;
  /// Aligned contiguous ranges over the post-assignment ID space.
  std::vector<VertexRange> ranges;
};

/// Validates the assignment (length n, every value < num_partitions; throws
/// std::invalid_argument otherwise) and builds the plan described above.
AssignmentPlan plan_assignment(const std::vector<part_t>& assignment,
                               part_t num_partitions, vid_t boundary_align);

}  // namespace grind::partition
