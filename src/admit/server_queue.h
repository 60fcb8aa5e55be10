#ifndef DSTORE_ADMIT_SERVER_QUEUE_H_
#define DSTORE_ADMIT_SERVER_QUEUE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "common/sync.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace dstore {
namespace admit {

// Server-side bounded admission queue with load shedding — the
// overload-protection stage a request passes through before any data-plane
// work. Up to `max_concurrency` requests execute at once; up to
// `max_queue_depth` more wait FIFO. Beyond that, new arrivals are shed
// immediately with Overloaded (fail fast beats queueing forever). A waiter
// that has been queued longer than `queue_budget_nanos` is also shed — when
// a slot frees, Exit() discards oldest-beyond-budget waiters rather than
// running requests whose callers have almost certainly given up (the
// classic sojourn-time shedding argument: a full queue of stale work keeps
// the server 100% busy producing 0 goodput).
//
// Two lanes: Lane::kNormal takes the full treatment; Lane::kPriority (the
// /metrics and /healthz control plane) bypasses both the limit and the
// queue, so the server stays observable during the very overload this queue
// is managing.
//
// The waiter's budget is additionally capped by the ambient
// CurrentDeadline(): a request whose deadline has expired — on arrival,
// while queued, or by the time it wakes holding a slot — is shed with
// TimedOut (reason "deadline") before it ever touches the backend. This is
// the one place deadline shedding is decided.
//
// Fault site: with a FaultPlan attached, Enter() consults "admit.queue"
// (op "enter"); a fired error-kind rule sheds that request deterministically.
class ServerQueue {
 public:
  enum class Lane { kNormal, kPriority };

  struct Options {
    std::string name = "server";  // metrics label
    int max_concurrency = 8;
    int max_queue_depth = 64;
    // Longest a request may wait in queue before it is shed.
    int64_t queue_budget_nanos = 100'000'000;  // 100ms
    bool publish_metrics = true;
    // Optional deterministic fault schedule for site "admit.queue".
    std::shared_ptr<fault::FaultPlan> fault_plan;
    Clock* clock = nullptr;  // null = RealClock
  };

  explicit ServerQueue(const Options& options);

  // Blocks until a slot is free (normal lane, possibly queueing), or
  // returns Overloaded (shed) / TimedOut (deadline expired).
  // Every OK return must be paired with one Exit() on the same lane.
  // `wait_nanos`, when non-null, receives the time spent queued (0 when
  // admitted immediately or shed at the door) — the queue-stage latency a
  // server span attributes to Stage::kQueue.
  // May park the calling thread in the queue: never enter from a reactor
  // loop thread (the async servers admit on worker threads).
  Status Enter(Lane lane = Lane::kNormal, int64_t* wait_nanos = nullptr)
      EXCLUDES(mu_) DSTORE_BLOCKING;

  // Releases the slot and hands it to the first still-fresh waiter,
  // shedding any older-than-budget waiters ahead of it.
  void Exit(Lane lane = Lane::kNormal) EXCLUDES(mu_);

  // RAII wrapper: enters on construction, exits on destruction iff entry
  // succeeded. Check ok() before doing data-plane work.
  class Admission {
   public:
    explicit Admission(ServerQueue* queue, Lane lane = Lane::kNormal)
        : queue_(queue),
          lane_(lane),
          status_(queue->Enter(lane, &wait_nanos_)) {}
    ~Admission() {
      if (status_.ok()) queue_->Exit(lane_);
    }
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;

    bool ok() const { return status_.ok(); }
    const Status& status() const { return status_; }
    // Time this request spent waiting in the queue (0 if never queued).
    int64_t wait_nanos() const { return wait_nanos_; }

   private:
    ServerQueue* queue_;
    Lane lane_;
    int64_t wait_nanos_ = 0;
    Status status_;
  };

  int active() const;
  int queued() const;
  uint64_t shed_total() const;
  std::string DebugLine() const;

 private:
  // One queued request, owned by the waiting thread's stack; the queue
  // holds pointers and flips flags under mu_.
  struct Waiter {
    int64_t enqueue_nanos = 0;
    bool admitted = false;
    bool shed = false;
  };

  void ShedLocked(obs::Counter* counter) REQUIRES(mu_);
  // The body of Exit() for a normal-lane slot.
  void ReleaseSlotLocked() REQUIRES(mu_);
  Status ShedDeadlineLocked() REQUIRES(mu_);

  const Options options_;
  Clock* const clock_;
  mutable Mutex mu_;
  CondVar cv_;
  int active_ GUARDED_BY(mu_) = 0;
  int priority_active_ GUARDED_BY(mu_) = 0;
  std::deque<Waiter*> queue_ GUARDED_BY(mu_);
  uint64_t shed_ GUARDED_BY(mu_) = 0;
  obs::Gauge* obs_active_ = nullptr;
  obs::Gauge* obs_depth_ = nullptr;
  obs::Counter* obs_admitted_ = nullptr;
  obs::Counter* obs_priority_ = nullptr;
  obs::Counter* obs_shed_full_ = nullptr;
  obs::Counter* obs_shed_timeout_ = nullptr;
  obs::Counter* obs_shed_deadline_ = nullptr;
  obs::Counter* obs_shed_injected_ = nullptr;
  obs::Histogram* obs_wait_ms_ = nullptr;
};

}  // namespace admit
}  // namespace dstore

#endif  // DSTORE_ADMIT_SERVER_QUEUE_H_
