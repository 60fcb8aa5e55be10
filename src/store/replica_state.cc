#include "store/replica_state.h"

#include <string>

namespace dstore {

namespace {
constexpr char kFencedPrefix[] = "fenced:";
}  // namespace

Status FencedStatus(uint64_t epoch, uint64_t accepted_epoch) {
  return Status::Unavailable(std::string(kFencedPrefix) + " epoch " +
                             std::to_string(epoch) + " superseded by epoch " +
                             std::to_string(accepted_epoch));
}

bool IsFenced(const Status& status) {
  return status.IsUnavailable() &&
         status.message().rfind(kFencedPrefix, 0) == 0;
}

Status ReplicaWatermark::Admit(uint64_t epoch) {
  if (epoch < state_.epoch) return FencedStatus(epoch, state_.epoch);
  state_.epoch = epoch;
  return Status::OK();
}

void ReplicaWatermark::MarkApplied(uint64_t seq) {
  if (seq > state_.applied) state_.applied = seq;
}

Status ReplicaWatermark::Fence(uint64_t epoch, uint64_t max_applied) {
  DSTORE_RETURN_IF_ERROR(Admit(epoch));
  if (state_.applied > max_applied) state_.applied = max_applied;
  return Status::OK();
}

}  // namespace dstore
