#ifndef DSTORE_STORE_RESILIENT_STORE_H_
#define DSTORE_STORE_RESILIENT_STORE_H_

#include <memory>
#include <string>

#include "common/clock.h"
#include "common/random.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "store/forwarding_store.h"

namespace dstore {

// RetryingStore: retries transient failures (Unavailable, IOError,
// TimedOut) with capped exponential backoff and full jitter before giving
// up. Cloud stores fail transiently in practice — the studies the paper
// cites observed sub-1% failure rates — and a client library is where
// retries belong, since no server cooperation is needed.
//
// Admission-control integration (src/admit/):
//  - Overloaded is deliberately NOT transient: it is the backend (or a
//    breaker/limiter) explicitly asking for less traffic, and retrying it
//    immediately would turn one overload into a retry storm.
//  - An ambient admit::Deadline bounds the whole retry loop: no further
//    attempt starts once the budget cannot cover the next backoff sleep,
//    and the loop returns the last real error rather than burning budget.
class RetryingStore : public WrappingStore {
 public:
  struct Options {
    int max_attempts = 3;
    int64_t initial_backoff_nanos = 1'000'000;  // 1 ms
    double backoff_multiplier = 2.0;
    // Exponential growth stops here — without a cap, attempt 10 of a long
    // retry budget would sleep for minutes.
    int64_t max_backoff_nanos = 250'000'000;  // 250 ms
    // Full jitter: sleep Uniform[0, backoff) instead of exactly backoff,
    // so clients that failed together do not retry together (the AWS
    // architecture-blog result: full jitter empties a contended resource
    // fastest). Seeded, so tests replay exact schedules; disable for
    // exact-backoff assertions.
    bool full_jitter = true;
    uint64_t jitter_seed = 42;
  };

  struct RetryStats {
    uint64_t retries = 0;        // re-attempts performed
    uint64_t exhausted = 0;      // operations that failed all attempts
    uint64_t backoff_nanos = 0;  // total time slept between attempts
  };

  RetryingStore(std::shared_ptr<KeyValueStore> inner, const Options& options,
                Clock* clock = nullptr)
      : WrappingStore(std::move(inner)),
        options_(options),
        clock_(clock != nullptr ? clock : RealClock::Default()),
        rng_(options.jitter_seed) {
    auto* registry = obs::MetricsRegistry::Default();
    const obs::Labels labels = {{"store", inner_->Name()}};
    obs_retries_ = registry->GetCounter(
        "dstore_retry_attempts_total", labels,
        "Re-attempts after a transient failure.");
    obs_exhausted_ = registry->GetCounter(
        "dstore_retry_exhausted_total", labels,
        "Operations that failed every attempt.");
    obs_backoff_nanos_ = registry->GetCounter(
        "dstore_retry_backoff_sleep_nanos_total", labels,
        "Total nanoseconds slept backing off between attempts.");
  }
  explicit RetryingStore(std::shared_ptr<KeyValueStore> inner)
      : RetryingStore(std::move(inner), Options()) {}

  std::string Name() const override { return inner_->Name() + "+retry"; }

  RetryStats GetRetryStats() const;

 protected:
  // Runs `call` with retry/backoff.
  Status Around(StoreOp op, const OpCall& call) override;

 private:
  static bool IsTransient(const Status& status) {
    return status.IsUnavailable() || status.IsIOError() || status.IsTimedOut();
  }

  Options options_;
  Clock* clock_;
  mutable Mutex mu_;
  Random rng_ GUARDED_BY(mu_);
  RetryStats stats_ GUARDED_BY(mu_);
  // Process-wide mirrors of stats_, labelled by inner store name.
  obs::Counter* obs_retries_;
  obs::Counter* obs_exhausted_;
  obs::Counter* obs_backoff_nanos_;
};

}  // namespace dstore

#endif  // DSTORE_STORE_RESILIENT_STORE_H_
