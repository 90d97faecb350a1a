// GraphService: concurrent query execution over shared immutable Graphs.
//
// The paper's partitioned layouts exist to make *many* traversals over one
// read-only structure cache-friendly; this module supplies the serving
// shape that regime implies.  A GraphService owns
//   * a GraphCatalog of named immutable Graphs (all layouts + remap, built
//     once, refcounted and epoch-versioned — see graph_catalog.hpp),
//   * a ResultCache of completed deterministic results keyed by
//     (graph, epoch, algorithm, canonical params fingerprint) — see
//     result_cache.hpp; hits resolve on the submitter's thread without a
//     queue slot or a workspace lease,
//   * a WorkspacePool of TraversalWorkspace instances (lazily grown up to a
//     cap) so concurrent queries never share mutable scratch —
//     TraversalWorkspace is graph-agnostic (buffers keyed by size), so one
//     pool serves every catalog entry,
//   * a fixed set of worker threads draining a submission queue.
//
// Queries address {graph, algorithm, params}: the graph by catalog name
// (empty = the default graph, so single-graph callers never name one), the
// algorithm through the AlgorithmRegistry (algorithms/registry.hpp), so
// every registered workload — including ones registered after this file
// was written — is servable with no dispatch edits here.  Validation
// (unknown graph/algorithm, parameter schema, source range) is derived
// from the catalog and the registered descriptor, never from hand-kept
// lists, and the default source for source-taking algorithms is per-graph
// (resolved once at load).
//
// Robustness contract (docs/SERVICE.md "Query model"):
//   * every future resolves, exactly once, with a structured
//     QueryResult::status — a query can finish (kOk), fail (kError), hit its
//     deadline or an external cancel mid-run (kDeadlineExceeded /
//     kCancelled, with partial progress reported), or be refused under
//     overload (kShed).  No code path hangs a future or throws through it;
//   * deadlines are cooperative: the CancelToken rides engine::Options into
//     every edge-map boundary poll, so all registered algorithms are
//     cancellable with zero per-algorithm edits, and a deadline is honoured
//     within one iteration boundary (one partition sweep for long single
//     iterations);
//   * admission control never blocks the submitter: a full queue sheds
//     immediately (max_queue_depth), a stale queue entry sheds at dequeue
//     (admission_timeout), and a worker waits at most lease_timeout for
//     scratch (try_acquire_until) so it can never wedge on the pool;
//   * past Overload::queue_watermark queued entries, iterative algorithms'
//     iteration caps are clamped (degrading accuracy before availability);
//     clamped results carry QueryResult::degraded.
//
// Thread-safety contract (docs/SERVICE.md):
//   * the Graph is strictly read-only after construction — every layout
//     accessor is const, and all lazily-computable state (partition chunk
//     work lists, the default source) is materialised eagerly at build /
//     service-construction time, never on first traversal;
//   * each in-flight query gets a private Engine (a few words: options +
//     stats + orientation) bound to a workspace leased from the pool, so
//     per-query mutable state is thread-confined;
//   * workers run their queries under a ThreadLimitGuard(threads_per_query),
//     which limits OpenMP parallelism for that thread only — concurrency
//     across queries, not oversubscription within them;
//   * workers are pinned round-robin to the graph's NUMA domains
//     (DomainPinGuard): worker i's home is NumaModel::domain_of_thread(i),
//     so its traversals visit home-domain partitions first and its
//     workspace leases prefer scratch last used on the same domain.
//
// submit() is the one execution path: it queues one query and returns a
// future.  run_batch() is a convenience over it (submit all, wait all).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/params.hpp"
#include "algorithms/registry.hpp"
#include "engine/options.hpp"
#include "graph/graph.hpp"
#include "service/graph_catalog.hpp"
#include "service/result_cache.hpp"
#include "service/workspace_pool.hpp"
#include "sys/cancel.hpp"
#include "sys/thread_safety.hpp"
#include "sys/types.hpp"

namespace grind::service {

/// How a query's future resolved.  Every future resolves with exactly one of
/// these; `error` is non-empty for every status except kOk.
enum class QueryStatus : std::uint8_t {
  kOk = 0,            ///< ran to completion; `value` holds the result
  kError,             ///< validation or execution failure (see `error`)
  kDeadlineExceeded,  ///< deadline hit; partial progress in iterations_done
  kCancelled,         ///< external cancel or service shutdown
  kShed,              ///< refused by admission control; never executed
};

/// Stable lower-case label ("ok", "error", "deadline", "cancelled", "shed").
[[nodiscard]] const char* to_string(QueryStatus s);

/// One query: a catalog graph name, an algorithm paper code (registry
/// lookup key) and its typed parameters.  Source-taking algorithms read the
/// "source" parameter (original-ID space, like every user-facing boundary);
/// when it is absent the service substitutes the *target graph's* default
/// source (its max-out-degree vertex, resolved once at load).  Validation —
/// unknown graph, unknown keys, wrong types, out-of-range values and
/// sources — happens against the catalog and the registered schema at
/// submission, and failures are reported in QueryResult::error.
struct QueryRequest {
  /// Catalog name of the graph to query; empty addresses the default graph
  /// (the one the single-graph constructor loaded), so callers that never
  /// touch the catalog never name a graph.
  std::string graph;
  std::string algorithm = "PR";
  algorithms::Params params;

  /// Per-query deadline measured from submission — it covers queue wait as
  /// well as execution, because a caller's latency budget does not pause
  /// while the query sits in line.  Zero means no deadline.
  std::chrono::milliseconds deadline{0};

  /// Optional external cancellation handle.  Keep a reference and call
  /// request_cancel() to stop the query cooperatively; the service creates
  /// a private token when only a deadline is set.
  std::shared_ptr<sys::CancelToken> cancel;

  QueryRequest() = default;
  explicit QueryRequest(std::string algo, algorithms::Params p = {})
      : algorithm(std::move(algo)), params(std::move(p)) {}
};

struct QueryResult {
  std::string algorithm;          ///< paper code of the executed algorithm
  QueryStatus status = QueryStatus::kOk;
  algorithms::AnyResult value;    ///< empty unless status == kOk
  double seconds = 0.0;           ///< execution wall-clock (excludes queueing)
  double queue_seconds = 0.0;     ///< time spent waiting for a worker
  /// Edge-map sweeps completed before the query finished or was cancelled —
  /// the partial-progress report of a kDeadlineExceeded / kCancelled query.
  int iterations_done = 0;
  /// True when the overload policy clamped this query's iteration cap.
  bool degraded = false;
  /// True when the value came from the result cache — no execution, no
  /// workspace lease; `seconds` and `iterations_done` stay 0.
  bool cached = false;
  std::string error;              ///< non-empty ⇔ status != kOk

  [[nodiscard]] bool ok() const { return status == QueryStatus::kOk; }
};

struct ServiceConfig {
  /// Worker threads executing queries (≥ 1).
  std::size_t workers = 4;
  /// WorkspacePool cap; 0 = same as workers (every worker can hold a lease
  /// simultaneously).  A smaller cap throttles concurrency below the worker
  /// count — workers block in acquire() — which the stress tests exercise.
  std::size_t pool_capacity = 0;
  /// OpenMP parallelism per query (ThreadLimitGuard on each worker).  The
  /// throughput default is 1: concurrency across queries, serial inside.
  int threads_per_query = 1;
  /// Engine options applied to every query's private Engine.
  engine::Options engine{};

  /// Admission control: maximum queued (not yet running) entries before
  /// submit() sheds instead of enqueueing.  0 = unbounded (no shedding).
  std::size_t max_queue_depth = 0;
  /// A queued entry older than this is shed at dequeue instead of executed —
  /// when the tier is saturated, serving a stale query only makes every
  /// queued one later.  0 = disabled.
  std::chrono::milliseconds admission_timeout{0};
  /// Longest a worker waits for a workspace lease before shedding the query
  /// (kShed).  0 = wait indefinitely (bounded in practice by the query's
  /// own deadline, which also caps the wait when set).
  std::chrono::milliseconds lease_timeout{0};

  /// Graceful degradation: when more than `queue_watermark` entries are
  /// queued, iterative algorithms' iteration caps ("iterations",
  /// "max_rounds") are clamped to `max_iterations` — the tier trades
  /// accuracy for availability instead of queueing to death.  Disabled
  /// unless both fields are positive.
  struct Overload {
    std::size_t queue_watermark = 0;
    std::int64_t max_iterations = 0;
  } overload;

  /// GraphCatalog byte budget (estimated resident graph bytes); 0 =
  /// unbounded.  load_graph() throws when a load would exceed it.
  std::size_t catalog_byte_budget = 0;
  /// ResultCache capacity in entries; 0 disables caching (the default —
  /// every query executes, preserving measurement-oriented callers'
  /// expectations).  Only descriptors with caps.deterministic are cached.
  std::size_t result_cache_capacity = 0;
};

/// Aggregate execution counters (snapshot via GraphService::stats()).
/// queries_completed counts every resolved future regardless of status;
/// the per-status counters partition the non-kOk remainder.
struct ServiceStats {
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_failed = 0;             ///< status == kError
  std::uint64_t queries_shed = 0;               ///< status == kShed
  std::uint64_t queries_cancelled = 0;          ///< status == kCancelled
  std::uint64_t queries_deadline_exceeded = 0;  ///< status == kDeadlineExceeded
  std::uint64_t queries_degraded = 0;           ///< overload-clamped queries
  std::uint64_t batches = 0;
  double busy_seconds = 0.0;  ///< summed per-query execution time

  /// Result-cache counters (mirrors ResultCache::Stats): hits resolve
  /// without execution; misses count cache-eligible queries that went on to
  /// run; evictions are capacity pressure only.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;

  /// Per-graph breakdown, keyed by catalog name (the default graph appears
  /// under GraphService::kDefaultGraphName).
  struct PerGraph {
    std::uint64_t queries = 0;     ///< resolved futures addressed here
    std::uint64_t cache_hits = 0;  ///< of which served from cache
  };
  std::map<std::string, PerGraph> per_graph;
};

class GraphService {
 public:
  /// Catalog name the single-graph constructor loads under, and the name
  /// empty QueryRequest::graph resolves to.
  static constexpr const char* kDefaultGraphName = "default";

  /// Takes ownership of the (already-built) graph and loads it as the
  /// default graph.  Resolves its default source eagerly so no query ever
  /// mutates shared state lazily.
  explicit GraphService(graph::Graph g, ServiceConfig cfg = {});
  /// Start with an empty catalog (no default graph): every request must
  /// name a graph loaded via load_graph().
  explicit GraphService(ServiceConfig cfg);
  ~GraphService();

  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  /// The default graph (the one the single-graph constructor loaded; it is
  /// pinned for the service's lifetime).  Throws std::logic_error on a
  /// catalog-only service with no default graph.
  [[nodiscard]] const graph::Graph& graph() const;

  /// Load (or replace, bumping the epoch) a named graph.  Returns the new
  /// entry's epoch.  Throws on an empty/invalid name or when the catalog
  /// byte budget would be exceeded.  Thread-safe; callable while queries
  /// are in flight (they keep their pinned entries).
  std::uint64_t load_graph(const std::string& name, graph::Graph g);
  /// Unlink a named graph and purge its cached results.  In-flight queries
  /// keep their pins — see GraphCatalog::EvictOutcome.
  GraphCatalog::EvictOutcome evict_graph(const std::string& name);
  /// Signal that a graph's underlying data changed: installs a fresh epoch
  /// so cached results for the old epoch become unreachable.  Returns the
  /// new epoch, 0 when the name is unknown.
  std::uint64_t bump_epoch(const std::string& name);
  /// Snapshot of resident graphs, sorted by name.
  [[nodiscard]] std::vector<GraphCatalog::Info> list_graphs() const;
  [[nodiscard]] const GraphCatalog& catalog() const { return catalog_; }
  [[nodiscard]] const ResultCache& result_cache() const { return cache_; }

  /// Enqueue one query; the future resolves when a worker finishes it (or
  /// immediately with kShed when the queue is full — submit never blocks on
  /// a saturated tier).  All failures are reported in QueryResult::status,
  /// not as future exceptions, so a batch of futures can be drained
  /// unconditionally.  Throws only after shutdown().
  [[nodiscard]] std::future<QueryResult> submit(QueryRequest req);

  /// Submit every request in order, wait for all of them and return the
  /// results in request order.  Each request is admitted exactly like a
  /// submit() (a full queue sheds it, not the batch); requests the batch
  /// could not submit because shutdown() landed partway resolve kCancelled.
  /// Throws when called after shutdown().  Must not be called from inside a
  /// worker (it waits on the same queue it feeds).
  [[nodiscard]] std::vector<QueryResult> run_batch(
      std::vector<QueryRequest> reqs);

  /// Stop the service: queries still queued resolve kCancelled, in-flight
  /// queries run to completion, blocked pool waits wake, workers join.
  /// Idempotent; the destructor calls it.  Further submit()/run_batch()
  /// calls throw.
  void shutdown() GRIND_EXCLUDES(shutdown_m_, queue_m_);

  [[nodiscard]] ServiceStats stats() const GRIND_EXCLUDES(stats_m_);
  [[nodiscard]] const WorkspacePool& pool() const { return pool_; }
  /// Mutable pool access — robustness tests use it to starve workers by
  /// holding external leases; production callers have no reason to.
  [[nodiscard]] WorkspacePool& pool() { return pool_; }
  [[nodiscard]] std::size_t num_workers() const GRIND_EXCLUDES(shutdown_m_) {
    sys::MutexLock lock(shutdown_m_);
    return workers_.size();
  }
  /// Queued (not yet running) entries right now.
  [[nodiscard]] std::size_t queue_depth() const GRIND_EXCLUDES(queue_m_);
  /// The *default graph's* source for source-taking algorithms when the
  /// request has no "source" parameter (original-ID space); other graphs
  /// use their own (GraphCatalog::Entry::default_source).  kInvalidVertex
  /// on a catalog-only service with no default graph.
  [[nodiscard]] vid_t default_source() const {
    return default_handle_ != nullptr ? default_handle_->default_source()
                                      : kInvalidVertex;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Everything resolved about a query before it queues: the registry
  /// descriptor, the pinned catalog entry (held across the queue wait — no
  /// use-after-evict), the schema-resolved parameter bag, and the cache key
  /// when the descriptor is cacheable.
  struct Prepared {
    const algorithms::AlgorithmDesc* desc = nullptr;
    GraphCatalog::Handle entry;
    algorithms::Params resolved;
    bool cacheable = false;
    ResultCache::Key key;
  };

  /// One admitted query.  Its promise is resolved exactly once: by
  /// run_one(), or by drop() when the entry is shed at dequeue or stolen by
  /// shutdown().
  struct Job {
    Prepared prep;
    std::shared_ptr<sys::CancelToken> token;
    std::promise<QueryResult> promise;
    std::string graph;  ///< catalog name, for the per-graph stats
    Clock::time_point enqueued;
  };

  void start_workers() GRIND_EXCLUDES(shutdown_m_);
  void worker_loop(std::size_t index) GRIND_EXCLUDES(queue_m_);
  /// Throws std::runtime_error naming `call` once shutdown() has begun.
  void throw_if_stopped(const char* call) const GRIND_EXCLUDES(queue_m_);
  /// False when the queue is full — `job` is left intact so the caller can
  /// resolve it.  Throws after shutdown.
  [[nodiscard]] bool enqueue(Job& job) GRIND_EXCLUDES(queue_m_);
  /// Resolve a request end to end on the submitter's thread: catalog
  /// lookup, registry lookup, per-graph default source, schema resolution,
  /// cache probe.  True ⇒ `out` is ready to execute; false ⇒ `*early` is
  /// the terminal result (validation error or cache hit).  Never throws.
  [[nodiscard]] bool prepare(const QueryRequest& req, Prepared* out,
                             QueryResult* early);
  /// Lease a workspace and execute the dequeued job, then resolve its
  /// future.  The lease wait is bounded by the query's deadline and
  /// cfg_.lease_timeout (unbounded only when neither is set); a failed wait
  /// resolves kShed / kDeadlineExceeded / kCancelled / kError.  The one
  /// place a query leases a workspace; never throws.
  void run_one(Job& job);
  /// Resolve a queued job with a terminal status without executing it.
  void drop(Job& job, QueryStatus status, const char* why);
  /// Record `r` and hand it to the job's future.
  void finish(Job& job, QueryResult r);
  /// Run one prepared query on a leased workspace (no locks held); never
  /// throws.
  [[nodiscard]] QueryResult execute(
      const Prepared& prep,
      const std::shared_ptr<const sys::CancelToken>& token,
      engine::TraversalWorkspace& ws, std::size_t depth_at_start) const;
  /// Insert a finished run into the cache when eligible (cacheable, kOk,
  /// not degraded).
  void maybe_cache(const Prepared& prep, const QueryResult& r);
  /// A terminal result for a query that did not run (shed / cancelled).
  [[nodiscard]] static QueryResult unrun_result(const std::string& algorithm,
                                                QueryStatus status,
                                                std::string why);
  /// The catalog name a request addresses (empty → kDefaultGraphName).
  [[nodiscard]] static const std::string& graph_name_of(
      const QueryRequest& req);
  void record(const QueryResult& r, const std::string& graph_name)
      GRIND_EXCLUDES(stats_m_);

  ServiceConfig cfg_;
  GraphCatalog catalog_;
  ResultCache cache_;
  /// Pin on the default graph's entry for the service lifetime — graph()
  /// and worker NUMA pinning stay valid even if someone evicts "default".
  GraphCatalog::Handle default_handle_;
  WorkspacePool pool_;

  mutable sys::Mutex queue_m_;
  sys::CondVar queue_cv_;
  std::deque<Job> queue_ GRIND_GUARDED_BY(queue_m_);
  bool stopping_ GRIND_GUARDED_BY(queue_m_) = false;
  /// Serialises shutdown() against itself AND guards workers_: join/clear
  /// must never race a num_workers() observer (a real data race the first
  /// annotation pass surfaced — see docs/STATIC_ANALYSIS.md).
  mutable sys::Mutex shutdown_m_;
  std::vector<std::thread> workers_ GRIND_GUARDED_BY(shutdown_m_);

  mutable sys::Mutex stats_m_;
  ServiceStats stats_ GRIND_GUARDED_BY(stats_m_);
};

}  // namespace grind::service
