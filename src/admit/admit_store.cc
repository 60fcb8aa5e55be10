#include "admit/admit_store.h"

#include <cstdio>

#include "admit/deadline.h"
#include "obs/trace.h"

namespace dstore {
namespace admit {

AdmittingStore::AdmittingStore(std::shared_ptr<KeyValueStore> inner,
                               const Options& options)
    : WrappingStore(std::move(inner)),
      options_(options),
      introspection_([this] { return DebugLine(); }) {
  if (options_.publish_metrics) {
    auto* registry = obs::MetricsRegistry::Default();
    const obs::Labels labels = {{"store", inner_->Name()}};
    obs_deadline_expired_ = registry->GetCounter(
        "dstore_admit_deadline_expired_total", labels,
        "Operations abandoned before the backend: deadline already "
        "expired.");
    obs_late_ = registry->GetCounter(
        "dstore_admit_late_total", labels,
        "Successes converted to TimedOut: completed after the deadline.");
    obs_rate_limited_ = registry->GetCounter(
        "dstore_admit_rate_limited_total", labels,
        "Operations shed by the token-bucket rate limiter.");
  }
}

Status AdmittingStore::Around(StoreOp op, const OpCall& call) {
  const char* op_name = StoreOpName(op);
  obs::Span span(std::string("admit.") + op_name, obs::Stage::kAdmit);
  const Deadline deadline = CurrentDeadline();
  if (options_.enforce_deadline && deadline.expired()) {
    if (obs_deadline_expired_ != nullptr) obs_deadline_expired_->Increment();
    return Status::TimedOut("deadline expired before " +
                            std::string(op_name) + " on " + Name());
  }
  if (options_.rate_limiter != nullptr &&
      !options_.rate_limiter->TryAcquire()) {
    if (obs_rate_limited_ != nullptr) obs_rate_limited_->Increment();
    return Status::Overloaded("rate limit exceeded on " + Name());
  }
  if (options_.limiter != nullptr && !options_.limiter->TryAcquire()) {
    return Status::Overloaded("concurrency limit reached on " + Name());
  }
  Status result = call();
  if (options_.enforce_deadline && deadline.has_deadline() &&
      deadline.expired() && result.ok()) {
    // Completed, but too late: the caller's budget is spent, and stacked
    // limiters/breakers must see a stalled backend as overload, not as a
    // slow success.
    if (obs_late_ != nullptr) obs_late_->Increment();
    result = Status::TimedOut("completed after deadline on " + Name());
  }
  if (options_.limiter != nullptr) {
    options_.limiter->Release(result);
  }
  span.SetStatus(result);
  return result;
}

std::string AdmittingStore::DebugLine() const {
  std::string line = "admit   " + Name();
  if (options_.limiter != nullptr) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " limit=%.1f in_flight=%lld",
                  options_.limiter->limit(),
                  static_cast<long long>(options_.limiter->in_flight()));
    line += buf;
  }
  if (options_.rate_limiter != nullptr) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " tokens=%.1f",
                  options_.rate_limiter->Available());
    line += buf;
  }
  return line;
}

CircuitBreaker::Options CircuitBreakerStore::WithDefaultName(
    CircuitBreaker::Options options, const KeyValueStore& inner) {
  if (options.name == CircuitBreaker::Options().name) {
    options.name = inner.Name();
  }
  return options;
}

CircuitBreakerStore::CircuitBreakerStore(
    std::shared_ptr<KeyValueStore> inner,
    CircuitBreaker::Options breaker_options)
    : WrappingStore(std::move(inner)),
      breaker_(WithDefaultName(std::move(breaker_options), *inner_)),
      introspection_([this] { return breaker_.DebugLine(); }) {}

Status CircuitBreakerStore::Around(StoreOp, const OpCall& call) {
  DSTORE_RETURN_IF_ERROR(breaker_.Admit());
  Status result = call();
  breaker_.OnResult(result);
  return result;
}

}  // namespace admit
}  // namespace dstore
