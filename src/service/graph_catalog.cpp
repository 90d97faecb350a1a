#include "service/graph_catalog.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace grind::service {

namespace {

/// Resident-byte estimate from the graph's public shape.  Deliberately
/// coarse (the budget is an admission guard, not an allocator): CSR + CSC
/// offsets per vertex, and per edge the retained edge list, the partitioned
/// COO copy, and one (vid, weight) pair in each of CSR/CSC; the optional
/// partitioned CSR adds roughly an edge-array.
std::size_t approx_graph_bytes(const graph::Graph& g) {
  const auto nv = static_cast<std::size_t>(g.num_vertices());
  const auto ne = static_cast<std::size_t>(g.num_edges());
  std::size_t per_edge = sizeof(Edge)                      // edge list
                         + sizeof(Edge)                    // partitioned COO
                         + 2 * (sizeof(vid_t) + sizeof(weight_t));  // CSR+CSC
  if (g.has_partitioned_csr()) per_edge += sizeof(vid_t) + sizeof(eid_t);
  const std::size_t per_vertex = 2 * sizeof(eid_t)         // CSR+CSC offsets
                                 + 2 * sizeof(vid_t);      // remap both ways
  return nv * per_vertex + ne * per_edge;
}

}  // namespace

GraphCatalog::Handle GraphCatalog::load(const std::string& name,
                                        graph::Graph g) {
  if (name.empty())
    throw std::invalid_argument("GraphCatalog: graph name must be non-empty");
  const std::size_t bytes = approx_graph_bytes(g);
  const vid_t source =
      g.num_vertices() > 0 ? g.max_out_degree_source() : kInvalidVertex;
  auto owned = std::make_unique<graph::Graph>(std::move(g));

  sys::MutexLock lock(m_);
  // Reserve the bytes *before* attaching the releasing deleter: a refused
  // load must not run a deleter that returns bytes it never held.
  {
    sys::MutexLock ledger_lock(ledger_->m);
    if (cfg_.byte_budget != 0 && ledger_->bytes + bytes > cfg_.byte_budget)
      throw std::runtime_error(
          "GraphCatalog: loading '" + name + "' (" + std::to_string(bytes) +
          " bytes) would exceed the byte budget (" +
          std::to_string(ledger_->bytes) + " of " +
          std::to_string(cfg_.byte_budget) + " resident); evict first");
    ledger_->bytes += bytes;
  }
  // The deleter returns the bytes to the ledger when the last pin drops —
  // eviction "defers" by construction, and the accounting follows the
  // memory, not the catalog entry (which may outlive the catalog itself).
  std::shared_ptr<Ledger> ledger = ledger_;
  std::shared_ptr<const graph::Graph> shared(
      owned.release(),
      [ledger, bytes](const graph::Graph* p) {
        delete p;
        sys::MutexLock lock(ledger->m);
        ledger->bytes -= bytes;
      });
  auto entry = Handle(new Entry(name, ++next_epoch_, std::move(shared), bytes,
                                source));
  for (Handle& h : entries_) {
    if (h->name() == name) {
      h = std::move(entry);  // old entry lives on through query pins
      return h;
    }
  }
  entries_.push_back(std::move(entry));
  return entries_.back();
}

GraphCatalog::EvictOutcome GraphCatalog::evict(const std::string& name) {
  sys::MutexLock lock(m_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if ((*it)->name() != name) continue;
    // use_count is exact here: we hold the only catalog reference under the
    // catalog lock, so any count above 1 is an outstanding query pin.
    const bool pinned = it->use_count() > 1;
    entries_.erase(it);  // unlink either way: new lookups must miss
    return pinned ? EvictOutcome::kDeferred : EvictOutcome::kEvicted;
  }
  return EvictOutcome::kNotFound;
}

GraphCatalog::Handle GraphCatalog::find(const std::string& name) const {
  sys::MutexLock lock(m_);
  for (const Handle& h : entries_)
    if (h->name() == name) return h;
  return nullptr;
}

std::uint64_t GraphCatalog::bump_epoch(const std::string& name) {
  sys::MutexLock lock(m_);
  for (Handle& h : entries_) {
    if (h->name() != name) continue;
    // Same shared Graph (no bytes change hands), fresh epoch.
    h = Handle(new Entry(h->name(), ++next_epoch_, h->graph_, h->bytes(),
                         h->default_source()));
    return h->epoch();
  }
  return 0;
}

std::vector<GraphCatalog::Info> GraphCatalog::list() const {
  std::vector<Info> out;
  {
    sys::MutexLock lock(m_);
    out.reserve(entries_.size());
    for (const Handle& h : entries_) {
      Info info;
      info.name = h->name();
      info.epoch = h->epoch();
      info.bytes = h->bytes();
      info.pins = static_cast<std::size_t>(
          std::max<long>(0, h.use_count() - 1));
      info.num_vertices = h->graph().num_vertices();
      info.num_edges = h->graph().num_edges();
      out.push_back(std::move(info));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Info& a, const Info& b) { return a.name < b.name; });
  return out;
}

std::size_t GraphCatalog::resident_bytes() const {
  sys::MutexLock lock(ledger_->m);
  return ledger_->bytes;
}

std::size_t GraphCatalog::size() const {
  sys::MutexLock lock(m_);
  return entries_.size();
}

}  // namespace grind::service
