#include "store/resilient_store.h"

#include <algorithm>

#include "admit/deadline.h"

namespace dstore {

Status RetryingStore::Around(StoreOp, const OpCall& call) {
  int64_t backoff = options_.initial_backoff_nanos;
  Status result = call();
  for (int attempt = 1;
       attempt < options_.max_attempts && IsTransient(result);
       ++attempt) {
    int64_t sleep_nanos = std::min(backoff, options_.max_backoff_nanos);
    if (options_.full_jitter && sleep_nanos > 0) {
      MutexLock lock(mu_);
      sleep_nanos = static_cast<int64_t>(
          rng_.Uniform(static_cast<uint64_t>(sleep_nanos)));
    }
    const admit::Deadline deadline = admit::CurrentDeadline();
    if (deadline.has_deadline() &&
        deadline.remaining_nanos() <= sleep_nanos) {
      // The budget cannot cover the backoff sleep, let alone the attempt
      // after it: stop here and surface the last real error instead of
      // timing out inside a sleep.
      break;
    }
    clock_->SleepFor(sleep_nanos);
    {
      MutexLock lock(mu_);
      ++stats_.retries;
      stats_.backoff_nanos += static_cast<uint64_t>(sleep_nanos);
    }
    obs_retries_->Increment();
    obs_backoff_nanos_->Increment(static_cast<uint64_t>(sleep_nanos));
    backoff = static_cast<int64_t>(static_cast<double>(backoff) *
                                   options_.backoff_multiplier);
    result = call();
  }
  if (IsTransient(result)) {
    {
      MutexLock lock(mu_);
      ++stats_.exhausted;
    }
    obs_exhausted_->Increment();
  }
  return result;
}

RetryingStore::RetryStats RetryingStore::GetRetryStats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace dstore
