// A wedge query for GraphService tests: one long PageRank that keeps a
// worker busy until the test releases it, so entries submitted meanwhile
// stay queued behind it (used by the deadline, stress, fault and cache
// suites).
#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>

#include "service/graph_service.hpp"
#include "sys/cancel.hpp"

namespace grind::testing {

/// A PR request big enough that it cannot finish inside any test's time:
/// each iteration is one full |E| sweep, and the iteration count (the
/// schema's maximum) bounds the total run way past any test deadline.
inline service::QueryRequest long_pagerank(int iterations = 1000000) {
  service::QueryRequest req("PR");
  req.params.set("iterations", iterations);
  return req;
}

/// Submits long_pagerank() with its own CancelToken and returns once a
/// worker has taken it off the queue.  The queue must be empty on entry.
/// release() cancels it, so the wedge itself resolves kCancelled; the
/// destructor releases too, so a failing test never leaves the service's
/// shutdown joining a million-iteration run.
class Wedge {
 public:
  explicit Wedge(service::GraphService& svc)
      : token_(std::make_shared<sys::CancelToken>()) {
    service::QueryRequest req = long_pagerank();
    req.cancel = token_;
    result_ = svc.submit(std::move(req));
    while (svc.queue_depth() > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ~Wedge() { release(); }
  Wedge(const Wedge&) = delete;
  Wedge& operator=(const Wedge&) = delete;

  void release() { token_->request_cancel(); }
  /// The wedge's own result (kCancelled once released).
  service::QueryResult get() { return result_.get(); }

 private:
  std::shared_ptr<sys::CancelToken> token_;
  std::future<service::QueryResult> result_;
};

}  // namespace grind::testing
