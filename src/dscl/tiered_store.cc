#include "dscl/tiered_store.h"

namespace dstore {

Status TieredStore::Put(const std::string& key, ValuePtr value) {
  if (value == nullptr) return Status::InvalidArgument("null value");
  DSTORE_RETURN_IF_ERROR(inner_->Put(key, value));
  switch (policy_) {
    case WritePolicy::kWriteThrough:
      return front_->Put(key, std::move(value));
    case WritePolicy::kInvalidate:
      return front_->Delete(key);
  }
  return Status::OK();
}

StatusOr<ValuePtr> TieredStore::Get(const std::string& key) {
  auto from_front = front_->Get(key);
  if (from_front.ok()) {
    front_hits_.fetch_add(1, std::memory_order_relaxed);
    return from_front;
  }
  if (!from_front.status().IsNotFound()) {
    // Front tier unavailable is not fatal; fall back to the main store.
  }
  front_misses_.fetch_add(1, std::memory_order_relaxed);
  DSTORE_ASSIGN_OR_RETURN(ValuePtr value, inner_->Get(key));
  front_->Put(key, value).ok();  // best effort populate
  return value;
}

Status TieredStore::Delete(const std::string& key) {
  DSTORE_RETURN_IF_ERROR(inner_->Delete(key));
  return front_->Delete(key);
}

StatusOr<bool> TieredStore::Contains(const std::string& key) {
  auto in_front = front_->Contains(key);
  if (in_front.ok() && *in_front) return true;
  return inner_->Contains(key);
}

Status TieredStore::Clear() {
  DSTORE_RETURN_IF_ERROR(inner_->Clear());
  return front_->Clear();
}

TieredStore::Stats TieredStore::GetStats() const {
  Stats stats;
  stats.front_hits = front_hits_.load(std::memory_order_relaxed);
  stats.front_misses = front_misses_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace dstore
