#ifndef DSTORE_STORE_REPLICA_STATE_H_
#define DSTORE_STORE_REPLICA_STATE_H_

#include <cstdint>

#include "common/status.h"

namespace dstore {

// A replica's high-water marks: the leadership epoch it has accepted and
// the highest log sequence it has applied.
struct ReplicaState {
  uint64_t epoch = 0;
  uint64_t applied = 0;
};

// The status a replica answers when an apply or fence carries a stale epoch
// — the fencing that stops a deposed primary's late writes from landing
// after failover. Deliberately NOT a transient error: the caller's
// leadership is gone, so retrying or failing over on its behalf would be
// wrong.
Status FencedStatus(uint64_t epoch, uint64_t accepted_epoch);
bool IsFenced(const Status& status);

// The fence/apply rule every replica host runs: replica::LocalReplica in
// process, and CloudStoreServer's /replica/* verbs for remote replicas.
// Takes no lock of its own: each owner guards it with the lock that covers
// its data, so the server's apply stays atomic with its object-map write.
class ReplicaWatermark {
 public:
  // Accepts `epoch` (raising the accepted epoch), or answers FencedStatus
  // when a higher epoch was already accepted.
  Status Admit(uint64_t epoch);

  // True when `seq` is at or below the applied watermark: an idempotent
  // replay the owner skips.
  bool IsReplay(uint64_t seq) const { return seq <= state_.applied; }

  // Records `seq` as applied.
  void MarkApplied(uint64_t seq);

  // Admits `epoch`, then caps the applied watermark at `max_applied`: a new
  // primary's history may be shorter than a deposed one's, so the surplus is
  // fenced off and applied again by ordered replay.
  Status Fence(uint64_t epoch, uint64_t max_applied);

  const ReplicaState& state() const { return state_; }

 private:
  ReplicaState state_;
};

}  // namespace dstore

#endif  // DSTORE_STORE_REPLICA_STATE_H_
