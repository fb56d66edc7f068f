#ifndef PPDP_SERVE_COALESCER_H_
#define PPDP_SERVE_COALESCER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "core/publisher.h"
#include "serve/request_trace.h"

namespace ppdp::serve {

/// Request coalescing for publisher runs: requests that name the same
/// corpus + sanitization config (same key) share one run. The first
/// arrival for a key becomes the leader and starts the run at once; the
/// run stays listed under its key until it completes, so a same-key
/// request arriving mid-run joins it and shares its result. No request
/// ever waits for a batch to fill. Publisher::Publish is const and
/// deterministic for equal configs, which is what makes sharing sound; ε
/// accounting stays per-request (every member's tenant is charged by the
/// caller before joining), so coalescing saves compute, never privacy
/// budget.
class BatchCoalescer {
 public:
  /// Ignored. The coalescer once held each batch open for a window; it no
  /// longer waits, but callers that pass a window still compile. Delete
  /// it with its last caller.
  struct Options {
    double window_seconds = 0.0;
  };

  using Runner = std::function<Result<core::PublishOutput>()>;

  struct Outcome {
    Result<core::PublishOutput> result;
    bool leader = false;    ///< this call executed the run
    size_t batch_size = 1;  ///< members (leader + followers) sharing the result
    /// Request id of the member that executed the run — for a waiter, the
    /// id its latency should be attributed to. Empty when no context was
    /// passed (coalescer unit tests).
    std::string leader_request_id;
  };

  BatchCoalescer() = default;
  explicit BatchCoalescer(Options /*ignored*/) {}
  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

  /// Joins the run in flight for `key`, or leads a new one. Blocks until
  /// that run has completed and returns its (shared) result. When
  /// `context` is non-null its stage timeline is annotated: the leader
  /// records serve.coalesce.wait (the time to claim the key) and
  /// serve.publish (the run); a waiter records serve.coalesce.wait for its
  /// whole wait.
  Outcome Run(const std::string& key, RequestContext* context, const Runner& runner);

  uint64_t batches_run() const { return batches_run_.load(std::memory_order_relaxed); }
  uint64_t followers_served() const { return followers_served_.load(std::memory_order_relaxed); }

 private:
  struct Batch {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;  ///< result is populated; guarded by `mutex`
    /// Counted under the coalescer's mutex_ while the batch is listed;
    /// final once the leader un-lists it, which happens before `done`.
    size_t members = 1;
    /// Set by the leader before the batch is listed in running_ (so the
    /// registry lock orders it before any follower's read).
    std::string leader_request_id;
    Result<core::PublishOutput> result = Status::Internal("batch pending");
  };

  std::atomic<uint64_t> batches_run_{0};
  std::atomic<uint64_t> followers_served_{0};
  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Batch>> running_;
};

}  // namespace ppdp::serve

#endif  // PPDP_SERVE_COALESCER_H_
