#include "service/graph_service.hpp"

#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>

#include "engine/engine.hpp"
#include "sys/fault.hpp"
#include "sys/parallel.hpp"
#include "sys/timer.hpp"

namespace grind::service {

namespace {

/// Parameter keys that cap an iterative algorithm's round count; the
/// overload policy clamps whichever of these the target schema declares.
constexpr const char* kIterationKeys[] = {"iterations", "max_rounds"};

QueryStatus status_of(sys::CancelState s) {
  return s == sys::CancelState::kDeadlineExceeded
             ? QueryStatus::kDeadlineExceeded
             : QueryStatus::kCancelled;
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* to_string(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kError: return "error";
    case QueryStatus::kDeadlineExceeded: return "deadline";
    case QueryStatus::kCancelled: return "cancelled";
    case QueryStatus::kShed: return "shed";
  }
  return "?";
}

GraphService::GraphService(graph::Graph g, ServiceConfig cfg)
    : cfg_(cfg),
      catalog_(GraphCatalog::Config{cfg.catalog_byte_budget}),
      cache_(ResultCache::Config{cfg.result_cache_capacity}) {
  if (cfg_.workers == 0) cfg_.workers = 1;
  // Load eagerly under the default name: the entry resolves the per-graph
  // default source at load, so queries are never the first to compute
  // state reachable from the shared graph.  The handle pins the entry for
  // the service lifetime.
  default_handle_ = catalog_.load(kDefaultGraphName, std::move(g));
  start_workers();
}

GraphService::GraphService(ServiceConfig cfg)
    : cfg_(cfg),
      catalog_(GraphCatalog::Config{cfg.catalog_byte_budget}),
      cache_(ResultCache::Config{cfg.result_cache_capacity}) {
  if (cfg_.workers == 0) cfg_.workers = 1;
  start_workers();
}

void GraphService::start_workers() {
  // Construction is single-threaded, but workers_ is guarded by
  // shutdown_m_ and the lock is uncontended here — take it so the
  // annotation holds everywhere rather than special-casing the ctor.
  sys::MutexLock lock(shutdown_m_);
  workers_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

const graph::Graph& GraphService::graph() const {
  if (default_handle_ == nullptr)
    throw std::logic_error(
        "GraphService: no default graph (catalog-only service)");
  return default_handle_->graph();
}

std::uint64_t GraphService::load_graph(const std::string& name,
                                       graph::Graph g) {
  return catalog_.load(name, std::move(g))->epoch();
}

GraphCatalog::EvictOutcome GraphService::evict_graph(const std::string& name) {
  const GraphCatalog::EvictOutcome outcome = catalog_.evict(name);
  // Cached results for the unlinked graph are dead either way — a reload
  // gets a fresh (never-reused) epoch — so return their memory now instead
  // of waiting for LRU aging.
  if (outcome != GraphCatalog::EvictOutcome::kNotFound)
    cache_.purge_graph(name);
  return outcome;
}

std::uint64_t GraphService::bump_epoch(const std::string& name) {
  return catalog_.bump_epoch(name);
}

std::vector<GraphCatalog::Info> GraphService::list_graphs() const {
  return catalog_.list();
}

GraphService::~GraphService() { shutdown(); }

void GraphService::shutdown() {
  // Serialise whole shutdowns so two concurrent calls (or an explicit call
  // racing the destructor) cannot both join the same threads.
  sys::MutexLock shutdown_lock(shutdown_m_);
  std::deque<Job> stolen;
  {
    sys::MutexLock lock(queue_m_);
    stopping_ = true;
    stolen.swap(queue_);  // steal atomically with the flag: workers that
                          // wake on stopping_ find an empty queue
  }
  queue_cv_.notify_all();
  // Every stolen entry resolves its future: shutdown cancels queued work, it
  // never drops it.  In-flight queries run to completion.
  for (auto& job : stolen)
    drop(job, QueryStatus::kCancelled, "service shutdown");
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
}

void GraphService::worker_loop(std::size_t index) {
  // Limit OpenMP parallelism for this worker only: queries run with
  // threads_per_query-wide inner parallelism, so k workers never
  // oversubscribe beyond k·threads_per_query.
  ThreadLimitGuard limit(cfg_.threads_per_query);
  // Pin the worker round-robin to the default graph's NUMA domains: its
  // traversals start from its home domain's partitions, and under a
  // physical libnuma backend the OS thread is bound to the node holding
  // those partitions' arenas.  A catalog-only service leaves workers
  // unpinned — resident graphs may disagree on domain count, and pinning
  // to one of them would be arbitrary.
  std::optional<DomainPinGuard> pin;
  if (default_handle_ != nullptr) {
    const NumaModel& numa = default_handle_->graph().numa();
    pin.emplace(numa.domain_of_thread(static_cast<int>(index),
                                      static_cast<int>(cfg_.workers)));
  }
  // Built after the pin: this thread first-touches the workspace's scratch
  // on its own domain, and the buffers stay warm across every query the
  // worker runs.  One query at a time per worker ⇒ one workspace suffices.
  engine::TraversalWorkspace ws;
  for (;;) {
    std::optional<Job> job;  // not a default Job: that allocates a promise
    {
      sys::UniqueLock lock(queue_m_);
      while (!stopping_ && queue_.empty()) queue_cv_.wait(lock);
      // shutdown() steals the queue under the same lock that sets
      // stopping_, so stopping_ ⇒ nothing left to run here.
      if (stopping_) return;
      job.emplace(std::move(queue_.front()));
      queue_.pop_front();
    }
    if (cfg_.admission_timeout.count() > 0 &&
        Clock::now() - job->enqueued > cfg_.admission_timeout) {
      // Stale entry: the submitter's latency budget is already blown and
      // executing it only delays everything behind it.
      drop(*job, QueryStatus::kShed, "admission timeout exceeded in queue");
    } else {
      run_one(*job, ws);
    }
  }
}

void GraphService::throw_if_stopped(const char* call) const {
  sys::MutexLock lock(queue_m_);
  if (stopping_)
    throw std::runtime_error(std::string("GraphService: ") + call +
                             " after shutdown");
}

bool GraphService::enqueue(Job& job) {
  {
    sys::MutexLock lock(queue_m_);
    if (stopping_)
      throw std::runtime_error("GraphService: submit after shutdown");
    if (cfg_.max_queue_depth != 0 && queue_.size() >= cfg_.max_queue_depth)
      return false;
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return true;
}

std::size_t GraphService::queue_depth() const {
  sys::MutexLock lock(queue_m_);
  return queue_.size();
}

QueryResult GraphService::unrun_result(const std::string& algorithm,
                                       QueryStatus status, std::string why) {
  QueryResult r;
  r.algorithm = algorithm;
  r.status = status;
  r.error = std::move(why);
  return r;
}

const std::string& GraphService::graph_name_of(const QueryRequest& req) {
  static const std::string kDefault = kDefaultGraphName;
  return req.graph.empty() ? kDefault : req.graph;
}

bool GraphService::prepare(const QueryRequest& req, Prepared* out,
                           QueryResult* early) {
  const std::string& name = graph_name_of(req);
  out->entry = catalog_.find(name);
  if (out->entry == nullptr) {
    *early = unrun_result(req.algorithm, QueryStatus::kError,
                          "unknown graph: " + name);
    return false;
  }
  out->desc = algorithms::AlgorithmRegistry::instance().find(req.algorithm);
  if (out->desc == nullptr) {
    *early = unrun_result(req.algorithm, QueryStatus::kError,
                          "unknown algorithm: " + req.algorithm);
    return false;
  }
  try {
    algorithms::Params params = req.params;
    // The *target graph's* default source, resolved once at load — never a
    // service-wide default that would serve the wrong vertex on a second
    // graph.
    if (out->desc->caps.needs_source && !params.has("source") &&
        out->entry->default_source() != kInvalidVertex)
      params.set("source", out->entry->default_source());
    // Full schema resolution up front: defaults filled, ranges (including
    // the source, against *this* graph) checked.  The resolved bag is what
    // the run will see and what the cache key fingerprints.
    out->resolved = out->desc->resolve(params, out->entry->graph());
  } catch (const std::exception& e) {
    *early = unrun_result(req.algorithm, QueryStatus::kError, e.what());
    return false;
  }
  if (cache_.enabled() && out->desc->caps.deterministic) {
    out->key = ResultCache::Key{name, out->entry->epoch(), out->desc->name,
                                algorithms::canonical_fingerprint(out->resolved)};
    out->cacheable = true;
    if (std::optional<algorithms::AnyResult> hit = cache_.get(out->key)) {
      // Served on the submitter's thread: no queue slot, no worker, the
      // shared payload the populating run produced.
      QueryResult r;
      r.algorithm = req.algorithm;
      r.value = std::move(*hit);
      r.cached = true;
      *early = std::move(r);
      return false;
    }
  }
  return true;
}

void GraphService::maybe_cache(const Prepared& prep, const QueryResult& r) {
  // Degraded runs are approximations under a clamped iteration cap — never
  // serve them to callers who asked for the real thing.
  if (prep.cacheable && r.status == QueryStatus::kOk && !r.degraded)
    cache_.put(prep.key, r.value);
}

std::future<QueryResult> GraphService::submit(QueryRequest req) {
  // Before prepare(): a validation failure or a cache hit must not slip a
  // resolved future past a shut-down service.
  throw_if_stopped("submit");
  Job job;
  job.graph = graph_name_of(req);
  std::future<QueryResult> fut = job.promise.get_future();

  // The deadline clock starts at admission: queue wait counts against it.
  job.token = req.cancel;
  if (job.token == nullptr && req.deadline.count() > 0)
    job.token = std::make_shared<sys::CancelToken>();
  if (job.token != nullptr && req.deadline.count() > 0)
    job.token->set_deadline_in(req.deadline);

  // Resolve {graph, algorithm, params} and probe the cache before
  // queueing: validation failures and cache hits resolve right here on the
  // submitter's thread, consuming neither a queue slot nor (for hits) a
  // worker.  The Prepared entry handle pins the graph across the
  // queue wait, so an evict/reload landing mid-queue cannot yank it.
  QueryResult early;
  if (!prepare(req, &job.prep, &early)) {
    finish(job, std::move(early));
    return fut;
  }

  job.enqueued = Clock::now();
  if (!enqueue(job)) {
    // Full queue: shed on the submitter's thread, immediately — admission
    // control must never block the caller.
    finish(job, unrun_result(req.algorithm, QueryStatus::kShed,
                             "queue full (max_queue_depth)"));
  }
  return fut;
}

void GraphService::finish(Job& job, QueryResult r) {
  record(r, job.graph);
  job.promise.set_value(std::move(r));
}

void GraphService::drop(Job& job, QueryStatus status, const char* why) {
  QueryResult r = unrun_result(job.prep.desc->name, status, why);
  // The real queue wait, not 0: admission-timeout sheds and
  // cancelled-in-queue resolutions are exactly the tail the latency
  // percentiles exist to expose.
  r.queue_seconds = seconds_between(job.enqueued, Clock::now());
  finish(job, std::move(r));
}

void GraphService::run_one(Job& job, engine::TraversalWorkspace& ws) {
  const Clock::time_point start = Clock::now();
  // The deadline may already have passed while the query sat in line.
  const sys::CancelState state =
      job.token != nullptr ? job.token->state() : sys::CancelState::kRun;
  QueryResult r;
  if (state != sys::CancelState::kRun) {
    r = unrun_result(job.prep.desc->name, status_of(state),
                     state == sys::CancelState::kDeadlineExceeded
                         ? "deadline exceeded in queue"
                         : "cancelled in queue");
  } else {
    GRIND_FAULT_STALL("service.worker-stall");
    r = execute(job.prep, job.token, ws, queue_depth());
    maybe_cache(job.prep, r);
  }
  r.queue_seconds = seconds_between(job.enqueued, start);
  finish(job, std::move(r));
}

std::vector<QueryResult> GraphService::run_batch(
    std::vector<QueryRequest> reqs) {
  throw_if_stopped("run_batch");
  std::vector<QueryResult> results(reqs.size());
  std::vector<std::future<QueryResult>> futs(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    try {
      futs[i] = submit(reqs[i]);
    } catch (const std::runtime_error&) {
      // shutdown() landed partway through the batch: the rest resolve like
      // any other queued-at-shutdown work instead of throwing a
      // half-submitted batch at the caller.
      results[i] = unrun_result(reqs[i].algorithm, QueryStatus::kCancelled,
                                "service shutdown");
      record(results[i], graph_name_of(reqs[i]));
    }
  }
  for (std::size_t i = 0; i < reqs.size(); ++i)
    if (futs[i].valid()) results[i] = futs[i].get();
  {
    sys::MutexLock lock(stats_m_);
    ++stats_.batches;
  }
  return results;
}

QueryResult GraphService::execute(
    const Prepared& prep,
    const std::shared_ptr<const sys::CancelToken>& token,
    engine::TraversalWorkspace& ws, std::size_t depth_at_start) const {
  QueryResult r;
  r.algorithm = prep.desc->name;
  Timer timer;
  // The engine outlives the try so the catch handlers can read its sweep
  // count — the partial-progress report of a cancelled query.  The graph
  // is the query's pinned catalog entry: valid for as long as this runs,
  // whatever the catalog did meanwhile.
  engine::Options opts = cfg_.engine;
  opts.cancel = token;
  engine::Engine eng(prep.entry->graph(), opts, ws);
  try {
    // Stands in for any allocation failure inside a query: it fails this
    // query with kError, never the worker.
    if (GRIND_FAULT_FIRE("service.execute-alloc")) throw std::bad_alloc();
    // prepare() already resolved the schema (defaults + per-graph source +
    // range checks); only the overload clamp can still rewrite the bag.
    algorithms::Params params = prep.resolved;
    // Overload policy: past the queue-depth watermark, clamp the iteration
    // cap of iterative algorithms — degrade accuracy before availability.
    if (cfg_.overload.queue_watermark > 0 && cfg_.overload.max_iterations > 0 &&
        depth_at_start > cfg_.overload.queue_watermark) {
      for (const char* key : kIterationKeys) {
        const algorithms::ParamSpec* spec = prep.desc->schema.find(key);
        if (spec == nullptr) continue;
        std::int64_t requested = cfg_.overload.max_iterations + 1;
        if (params.has(key)) {
          requested = params.get_int(key);
        } else if (spec->default_value.has_value()) {
          requested = std::get<std::int64_t>(*spec->default_value);
        }
        if (requested > cfg_.overload.max_iterations) {
          params.set(key, cfg_.overload.max_iterations);
          r.degraded = true;
        }
      }
    }
    r.value = prep.desc->run_resolved(eng, params);
    r.iterations_done = eng.sweeps_done();
  } catch (const sys::Cancelled& c) {
    // Must precede the std::exception handler (Cancelled derives from
    // runtime_error): a stopped query is a status, not an error class.
    r.value = algorithms::AnyResult{};
    r.status = status_of(c.why());
    r.error = c.what();
    r.iterations_done = eng.sweeps_done();
  } catch (const std::bad_alloc&) {
    r.value = algorithms::AnyResult{};
    r.status = QueryStatus::kError;
    r.error = "allocation failure during query execution";
  } catch (const std::exception& e) {
    r.value = algorithms::AnyResult{};
    r.status = QueryStatus::kError;
    r.error = e.what();
  } catch (...) {
    r.value = algorithms::AnyResult{};
    r.status = QueryStatus::kError;
    r.error = "unknown error";
  }
  r.seconds = timer.seconds();
  return r;
}

void GraphService::record(const QueryResult& r,
                          const std::string& graph_name) {
  sys::MutexLock lock(stats_m_);
  ++stats_.queries_completed;
  switch (r.status) {
    case QueryStatus::kOk: break;
    case QueryStatus::kError: ++stats_.queries_failed; break;
    case QueryStatus::kShed: ++stats_.queries_shed; break;
    case QueryStatus::kCancelled: ++stats_.queries_cancelled; break;
    case QueryStatus::kDeadlineExceeded:
      ++stats_.queries_deadline_exceeded;
      break;
  }
  if (r.degraded) ++stats_.queries_degraded;
  stats_.busy_seconds += r.seconds;
  ServiceStats::PerGraph& pg = stats_.per_graph[graph_name];
  ++pg.queries;
  if (r.cached) ++pg.cache_hits;
}

ServiceStats GraphService::stats() const {
  ServiceStats s;
  {
    sys::MutexLock lock(stats_m_);
    s = stats_;
  }
  // The cache keeps its own counters (it has its own lock); merge at
  // snapshot time so the two never deadlock or double-count.
  const ResultCache::Stats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  s.cache_evictions = cs.evictions;
  return s;
}

}  // namespace grind::service
