#include "replica/transport.h"

namespace dstore {
namespace replica {

Status LocalReplica::Apply(const LogEntry& entry, uint64_t epoch) {
  // Admit, store call and watermark move are one step under mu_, as in
  // CloudStoreServer. Two applies can reach one replica at once across a
  // promotion: the replicator's apply of a deposed epoch's entry is still
  // in flight when this replica, now primary, takes an inline write. A
  // Fence therefore waits for an in-flight apply, and a late old-epoch
  // apply is refused instead of overwriting the newer write.
  MutexLock lock(mu_);
  DSTORE_RETURN_IF_ERROR(watermark_.Admit(epoch));
  if (watermark_.IsReplay(entry.seq)) return Status::OK();
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
