#include "replica/transport.h"

namespace dstore {
namespace replica {

Status LocalReplica::Apply(const LogEntry& entry, uint64_t epoch) {
  {
    MutexLock lock(mu_);
    DSTORE_RETURN_IF_ERROR(watermark_.Admit(epoch));
    if (watermark_.IsReplay(entry.seq)) return Status::OK();
  }
  // The store call runs outside the metadata lock (it may be slow or
  // fault-injected); the group applies to any one replica from a single
  // thread at a time and in seq order (writers serialize on the group's
  // write mutex, and the replicator never streams to a transport with an
  // inline apply in flight), so there is no concurrent-apply race to guard.
  Status status;
  switch (entry.op) {
    case OpType::kPut:
      status = store_->Put(entry.key, entry.value);
      break;
    case OpType::kDelete:
      status = store_->Delete(entry.key);
      break;
    case OpType::kClear:
      status = store_->Clear();
      break;
  }
  if (!status.ok()) return status;
  MutexLock lock(mu_);
  watermark_.MarkApplied(entry.seq);
  return Status::OK();
}

Status LocalReplica::Fence(uint64_t epoch, uint64_t max_applied) {
  MutexLock lock(mu_);
  return watermark_.Fence(epoch, max_applied);
}

StatusOr<ReplicaState> LocalReplica::Probe() {
  MutexLock lock(mu_);
  return watermark_.state();
}

Status CloudReplica::Apply(const LogEntry& entry, uint64_t epoch) {
  return client_->ReplicaApply(std::string(OpName(entry.op)), entry.key,
                               entry.value.get(), entry.seq, epoch);
}

Status CloudReplica::Fence(uint64_t epoch, uint64_t max_applied) {
  return client_->ReplicaFence(epoch, max_applied);
}

StatusOr<ReplicaState> CloudReplica::Probe() {
  return client_->ReplicaStatus();
}

}  // namespace replica
}  // namespace dstore
