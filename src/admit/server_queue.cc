#include "admit/server_queue.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

#include "admit/deadline.h"

namespace dstore {
namespace admit {

ServerQueue::ServerQueue(const Options& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : RealClock::Default()) {
  if (options_.publish_metrics) {
    auto* registry = obs::MetricsRegistry::Default();
    const obs::Labels labels = {{"queue", options_.name}};
    obs_active_ = registry->GetGauge("dstore_admit_queue_active", labels,
                                     "Requests currently executing.");
    obs_depth_ = registry->GetGauge("dstore_admit_queue_depth", labels,
                                    "Requests currently waiting in queue.");
    obs_admitted_ = registry->GetCounter(
        "dstore_admit_queue_admitted_total", labels,
        "Requests admitted through the normal lane.");
    obs_priority_ = registry->GetCounter(
        "dstore_admit_queue_priority_total", labels,
        "Requests admitted through the priority lane (bypass).");
    const std::string help =
        "Requests shed by the admission queue, by reason.";
    obs_shed_full_ = registry->GetCounter(
        "dstore_admit_queue_shed_total",
        {{"queue", options_.name}, {"reason", "full"}}, help);
    obs_shed_timeout_ = registry->GetCounter(
        "dstore_admit_queue_shed_total",
        {{"queue", options_.name}, {"reason", "timeout"}}, help);
    obs_shed_deadline_ = registry->GetCounter(
        "dstore_admit_queue_shed_total",
        {{"queue", options_.name}, {"reason", "deadline"}}, help);
    obs_shed_injected_ = registry->GetCounter(
        "dstore_admit_queue_shed_total",
        {{"queue", options_.name}, {"reason", "injected"}}, help);
    obs_wait_ms_ = registry->GetHistogram(
        "dstore_admit_queue_wait_ms", labels,
        "Time admitted requests spent waiting in queue.");
  }
}

void ServerQueue::ShedLocked(obs::Counter* counter) {
  ++shed_;
  if (counter != nullptr) counter->Increment();
}

Status ServerQueue::Enter(Lane lane, int64_t* wait_nanos) {
  if (wait_nanos != nullptr) *wait_nanos = 0;
  std::optional<fault::Fault> injected;
  if (lane == Lane::kNormal && options_.fault_plan != nullptr) {
    injected = options_.fault_plan->Evaluate("admit.queue", "enter");
  }
  MutexLock lock(mu_);
  if (lane == Lane::kPriority) {
    // Control plane (/metrics, /healthz) bypasses limit and queue: the
    // whole point of overload protection is lost if overload also blinds
    // the operator.
    ++priority_active_;
    if (obs_priority_ != nullptr) obs_priority_->Increment();
    return Status::OK();
  }
  if (injected.has_value() && injected->kind == fault::FaultKind::kError) {
    ShedLocked(obs_shed_injected_);
    return Status::Overloaded("injected shed at admit.queue");
  }
  if (CurrentDeadline().expired()) return ShedDeadlineLocked();
  if (active_ < options_.max_concurrency && queue_.empty()) {
    ++active_;
    if (obs_active_ != nullptr) obs_active_->Set(active_);
    if (obs_admitted_ != nullptr) obs_admitted_->Increment();
    return Status::OK();
  }
  if (static_cast<int>(queue_.size()) >= options_.max_queue_depth) {
    ShedLocked(obs_shed_full_);
    return Status::Overloaded("server queue " + options_.name + " full");
  }

  Waiter waiter;
  waiter.enqueue_nanos = clock_->NowNanos();
  queue_.push_back(&waiter);
  if (obs_depth_ != nullptr) obs_depth_->Set(static_cast<double>(
      queue_.size()));
  bool deadline_expired = false;
  while (!waiter.admitted && !waiter.shed) {
    const int64_t waited = clock_->NowNanos() - waiter.enqueue_nanos;
    const int64_t budget_left = options_.queue_budget_nanos - waited;
    if (budget_left <= 0) break;
    const int64_t deadline_left = CurrentDeadline().remaining_nanos();
    if (deadline_left <= 0) {
      deadline_expired = true;
      break;
    }
    cv_.WaitFor(mu_, std::chrono::nanoseconds(
                         std::min(budget_left, deadline_left)));
  }
  if (waiter.admitted && CurrentDeadline().expired()) {
    // Handed a slot, but the budget ran out before this thread woke: pass
    // the slot on rather than run work whose caller has given up.
    ReleaseSlotLocked();
    return ShedDeadlineLocked();
  }
  if (waiter.admitted) {
    const int64_t waited = clock_->NowNanos() - waiter.enqueue_nanos;
    if (wait_nanos != nullptr) *wait_nanos = waited;
    if (obs_wait_ms_ != nullptr) {
      obs_wait_ms_->Record(static_cast<double>(waited) / 1e6);
    }
    if (obs_admitted_ != nullptr) obs_admitted_->Increment();
    return Status::OK();
  }
  if (!waiter.shed) {
    // Wait budget or deadline ran out in place: still queued, remove self.
    queue_.erase(std::find(queue_.begin(), queue_.end(), &waiter));
  }
  if (obs_depth_ != nullptr) obs_depth_->Set(static_cast<double>(
      queue_.size()));
  if (deadline_expired) return ShedDeadlineLocked();
  if (!waiter.shed) ShedLocked(obs_shed_timeout_);
  return Status::Overloaded("server queue " + options_.name +
                            " wait budget exceeded");
}

void ServerQueue::Exit(Lane lane) {
  MutexLock lock(mu_);
  if (lane == Lane::kPriority) {
    if (priority_active_ > 0) --priority_active_;
    return;
  }
  ReleaseSlotLocked();
}

Status ServerQueue::ShedDeadlineLocked() {
  ShedLocked(obs_shed_deadline_);
  return Status::TimedOut("deadline expired at queue " + options_.name);
}

void ServerQueue::ReleaseSlotLocked() {
  if (active_ > 0) --active_;
  const int64_t now = clock_->NowNanos();
  while (!queue_.empty() && active_ < options_.max_concurrency) {
    Waiter* front = queue_.front();
    queue_.pop_front();
    if (now - front->enqueue_nanos > options_.queue_budget_nanos) {
      // Shed-oldest-beyond-budget: its caller has given up; running it now
      // would be pure goodput loss.
      front->shed = true;
      ShedLocked(obs_shed_timeout_);
      continue;
    }
    front->admitted = true;
    ++active_;
    break;
  }
  if (obs_active_ != nullptr) obs_active_->Set(active_);
  if (obs_depth_ != nullptr) obs_depth_->Set(static_cast<double>(
      queue_.size()));
  cv_.NotifyAll();
}

int ServerQueue::active() const {
  MutexLock lock(mu_);
  return active_;
}

int ServerQueue::queued() const {
  MutexLock lock(mu_);
  return static_cast<int>(queue_.size());
}

uint64_t ServerQueue::shed_total() const {
  MutexLock lock(mu_);
  return shed_;
}

std::string ServerQueue::DebugLine() const {
  MutexLock lock(mu_);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "queue   %-16s active=%d/%d depth=%zu/%d shed=%llu",
                options_.name.c_str(), active_, options_.max_concurrency,
                queue_.size(), options_.max_queue_depth,
                static_cast<unsigned long long>(shed_));
  return buf;
}

}  // namespace admit
}  // namespace dstore
