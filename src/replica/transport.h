#ifndef DSTORE_REPLICA_TRANSPORT_H_
#define DSTORE_REPLICA_TRANSPORT_H_

#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/sync.h"
#include "replica/log.h"
#include "store/cloud_client.h"
#include "store/key_value.h"
#include "store/replica_state.h"

namespace dstore {
namespace replica {

// How a ReplicaGroup talks to one replica. Two implementations: LocalReplica
// wraps an in-process KeyValueStore plus an in-memory ReplicaWatermark;
// CloudReplica speaks the /replica/* verbs of a CloudStoreServer, whose
// watermark survives the client (so a rejoining group handle probes the
// truth). Both enforce the one rule in store/replica_state.h.
class ReplicaTransport {
 public:
  virtual ~ReplicaTransport() = default;

  // Applies one log entry under `epoch`. FencedStatus when the
  // replica has accepted a higher epoch; idempotent when `entry.seq` is at
  // or below the replica's applied watermark.
  virtual Status Apply(const LogEntry& entry, uint64_t epoch) = 0;

  // Raises the replica's accepted epoch and caps its applied watermark at
  // `max_applied` (a new primary's history may be shorter than a deposed
  // one's — the surplus is fenced off and repaired by anti-entropy). An
  // apply already in flight completes first: once Fence returns, no apply
  // under a lower epoch reaches the replica's store.
  virtual Status Fence(uint64_t epoch, uint64_t max_applied) = 0;

  // The replica's current state (used on rejoin and by status surfaces).
  virtual StatusOr<ReplicaState> Probe() = 0;

  // The read surface — the replica's backing store. Never null.
  virtual KeyValueStore* store() = 0;
};

// In-process replica: any KeyValueStore plus local metadata.
class LocalReplica : public ReplicaTransport {
 public:
  explicit LocalReplica(std::shared_ptr<KeyValueStore> store)
      : store_(std::move(store)) {}

  Status Apply(const LogEntry& entry, uint64_t epoch) override;
  Status Fence(uint64_t epoch, uint64_t max_applied) override;
  StatusOr<ReplicaState> Probe() override;
  KeyValueStore* store() override { return store_.get(); }

 private:
  const std::shared_ptr<KeyValueStore> store_;
  Mutex mu_;
  ReplicaWatermark watermark_ GUARDED_BY(mu_);
};

// Remote replica behind a CloudStoreServer: applies and fencing go over the
// /replica/* verbs, so the epoch/applied watermarks live server-side and
// fencing holds across independent client handles (split-brain safety).
class CloudReplica : public ReplicaTransport {
 public:
  explicit CloudReplica(std::unique_ptr<CloudStoreClient> client)
      : client_(std::move(client)) {}

  Status Apply(const LogEntry& entry, uint64_t epoch) override;
  Status Fence(uint64_t epoch, uint64_t max_applied) override;
  StatusOr<ReplicaState> Probe() override;
  KeyValueStore* store() override { return client_.get(); }

 private:
  const std::unique_ptr<CloudStoreClient> client_;
};

}  // namespace replica
}  // namespace dstore

#endif  // DSTORE_REPLICA_TRANSPORT_H_
