#ifndef DSTORE_ADMIT_ADMIT_STORE_H_
#define DSTORE_ADMIT_ADMIT_STORE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "admit/breaker.h"
#include "admit/introspect.h"
#include "admit/limiter.h"
#include "admit/token_bucket.h"
#include "common/clock.h"
#include "obs/metrics.h"
#include "store/forwarding_store.h"

namespace dstore {
namespace admit {

// KeyValueStore decorators that bolt the admission-control primitives onto
// any store — the client-side face of src/admit/, composing with the other
// wrappers exactly like FaultInjectingStore and RetryingStore do:
//
//   sharded( breaker( admitting( retrying( cloud ))))
//
// They live in src/admit/ but are compiled into the dstore_store library
// (the fault_store.cc precedent) so dstore_admit itself stays free of a
// store dependency.

// AdmittingStore enforces the per-operation budget and local rate /
// concurrency limits before the inner store is touched:
//
//  1. Deadline gate — an already-expired CurrentDeadline() fails with
//     TimedOut without any backend work; a success that completes after
//     the deadline expired is *converted* to TimedOut (the caller has
//     moved on; for writes this is the acknowledged-uncertain case the
//     chaos harness models), which also makes stalled backends visible to
//     limiters and breakers stacked above as genuine overload signals.
//  2. TokenBucket — optional rate limit; over-rate operations shed with
//     Overloaded.
//  3. AdaptiveLimiter — optional AIMD concurrency limit; every admitted
//     operation's outcome feeds the controller.
class AdmittingStore : public WrappingStore {
 public:
  struct Options {
    bool enforce_deadline = true;
    // Optional, shared so several stores can share one budget.
    std::shared_ptr<TokenBucket> rate_limiter;
    std::shared_ptr<AdaptiveLimiter> limiter;
    bool publish_metrics = true;
    Clock* clock = nullptr;  // for tests; null = RealClock
  };

  AdmittingStore(std::shared_ptr<KeyValueStore> inner, const Options& options);
  explicit AdmittingStore(std::shared_ptr<KeyValueStore> inner)
      : AdmittingStore(std::move(inner), Options()) {}

  std::string Name() const override { return inner_->Name() + "+admit"; }

  const std::shared_ptr<AdaptiveLimiter>& limiter() const {
    return options_.limiter;
  }
  const std::shared_ptr<TokenBucket>& rate_limiter() const {
    return options_.rate_limiter;
  }

  std::string DebugLine() const;

 protected:
  Status Around(StoreOp op, const OpCall& call) override;

 private:
  const Options options_;
  obs::Counter* obs_deadline_expired_ = nullptr;
  obs::Counter* obs_late_ = nullptr;
  obs::Counter* obs_rate_limited_ = nullptr;
  ScopedIntrospection introspection_;
};

// CircuitBreakerStore short-circuits operations while its per-store
// CircuitBreaker is open, so a failing backend sees no traffic until its
// recovery probe succeeds. Overload-class failures (TimedOut, Unavailable,
// Overloaded — the same classification ResilientStore retries on) feed the
// breaker; application errors like NotFound do not.
class CircuitBreakerStore : public WrappingStore {
 public:
  // `breaker_options.name` defaults to the inner store's Name() when left
  // at its stock value, giving per-store metrics labels for free.
  CircuitBreakerStore(std::shared_ptr<KeyValueStore> inner,
                      CircuitBreaker::Options breaker_options);
  explicit CircuitBreakerStore(std::shared_ptr<KeyValueStore> inner)
      : CircuitBreakerStore(std::move(inner), CircuitBreaker::Options()) {}

  std::string Name() const override { return inner_->Name() + "+breaker"; }

  CircuitBreaker* breaker() { return &breaker_; }

 protected:
  Status Around(StoreOp op, const OpCall& call) override;

 private:
  static CircuitBreaker::Options WithDefaultName(
      CircuitBreaker::Options options, const KeyValueStore& inner);

  CircuitBreaker breaker_;
  ScopedIntrospection introspection_;
};

}  // namespace admit
}  // namespace dstore

#endif  // DSTORE_ADMIT_ADMIT_STORE_H_
