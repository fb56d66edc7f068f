#include "serve/coalescer.h"

#include <optional>
#include <utility>

namespace ppdp::serve {

BatchCoalescer::Outcome BatchCoalescer::Run(const std::string& key, RequestContext* context,
                                            const Runner& runner) {
  // A leader's coalesce.wait is the time to claim the key; a waiter's runs
  // until the leader's result arrives.
  std::optional<StageTimer> wait_stage;
  if (context != nullptr) wait_stage.emplace(context, "serve.coalesce.wait");
  std::shared_ptr<Batch> batch;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<Batch>& listed = running_[key];
    if (listed != nullptr) {
      batch = listed;
      ++batch->members;
    } else {
      listed = std::make_shared<Batch>();
      if (context != nullptr) listed->leader_request_id = context->record.request_id;
      batch = listed;
      leader = true;
    }
  }

  if (leader) {
    wait_stage.reset();
    Result<core::PublishOutput> result = [&] {
      std::optional<StageTimer> publish_stage;
      if (context != nullptr) publish_stage.emplace(context, "serve.publish");
      return runner();
    }();
    batches_run_.fetch_add(1, std::memory_order_relaxed);
    {
      // Un-list only now: every arrival up to here joined this run, and
      // every later one starts a fresh run.
      std::lock_guard<std::mutex> lock(mutex_);
      running_.erase(key);
    }
    {
      std::lock_guard<std::mutex> batch_lock(batch->mutex);
      batch->result = std::move(result);
      batch->done = true;
    }
    batch->cv.notify_all();
  } else {
    followers_served_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> batch_lock(batch->mutex);
    batch->cv.wait(batch_lock, [&batch] { return batch->done; });
  }

  std::lock_guard<std::mutex> batch_lock(batch->mutex);
  return Outcome{batch->result, leader, batch->members, batch->leader_request_id};
}

}  // namespace ppdp::serve
