#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {
// The span open on this thread, parent of the next span it opens.
thread_local std::int64_t tl_open = -1;
}  // namespace

Tracer::Scope::Scope(Tracer& t, const char* name, std::int64_t query) {
  if (!t.on_) return;
  tracer_ = &t;
  span_.name = name;
  span_.id = t.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = tl_open;
  span_.query = query;
  saved_parent_ = tl_open;
  tl_open = span_.id;
  span_.start_s = t.now_s();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_s = tracer_->now_s();
  tl_open = saved_parent_;
  tracer_->record(span_);
}

void Tracer::record(const Span& s) {
  std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(m_);
  return spans_;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times(all);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    SpanTotals& t = out[all[i].name];
    ++t.count;
    t.total_s += all[i].end_s - all[i].start_s;
    t.self_s += self[i];
  }
  return out;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Child intervals of each span, clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const double lo = std::max(s.start_s, p.start_s);
    const double hi = std::min(s.end_s, p.end_s);
    if (hi > lo) kids[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, run_lo = 0.0, run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_s - spans[i].start_s) - covered;
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans())
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"id\":%lld,\"parent\":%lld,\"query\":%lld}\n",
                 s.name, s.start_s, s.end_s, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.query));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
