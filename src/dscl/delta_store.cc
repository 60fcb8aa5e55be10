#include "dscl/delta_store.h"

#include <algorithm>

#include "obs/trace.h"

namespace dstore {

DeltaStore::DeltaStore(std::shared_ptr<KeyValueStore> base,
                       const Options& options)
    : PerKeyStore(std::move(base)), options_(options) {}

StatusOr<Bytes> DeltaStore::Reconstruct(const std::string& key,
                                        uint64_t chain_length) {
  obs::Span span("delta.reconstruct", obs::Stage::kTransform);
  DSTORE_ASSIGN_OR_RETURN(ValuePtr base_value, inner_->Get(BaseKey(key)));
  Bytes current = *base_value;
  for (uint64_t i = 1; i <= chain_length; ++i) {
    DSTORE_ASSIGN_OR_RETURN(ValuePtr delta, inner_->Get(DeltaKey(key, i)));
    DSTORE_ASSIGN_OR_RETURN(current, ApplyDelta(current, *delta));
  }
  return current;
}

Status DeltaStore::PutFull(const std::string& key, const Bytes& value,
                           uint64_t old_chain_length) {
  DSTORE_RETURN_IF_ERROR(inner_->Put(BaseKey(key), MakeValue(Bytes(value))));
  Bytes meta;
  PutVarint64(&meta, 0);
  DSTORE_RETURN_IF_ERROR(inner_->Put(key, MakeValue(std::move(meta))));
  for (uint64_t i = 1; i <= old_chain_length; ++i) {
    DSTORE_RETURN_IF_ERROR(inner_->Delete(DeltaKey(key, i)));
  }
  stats_.actual_put_bytes += value.size();
  ++stats_.full_puts;
  if (old_chain_length > 0) ++stats_.chain_collapses;
  return Status::OK();
}

Status DeltaStore::Put(const std::string& key, ValuePtr value) {
  if (value == nullptr) return Status::InvalidArgument("null value");
  MutexLock lock(mu_);
  stats_.logical_put_bytes += value->size();

  // Determine the current chain length and previous value.
  uint64_t chain_length = 0;
  bool exists = false;
  auto meta = inner_->Get(key);
  if (meta.ok()) {
    size_t pos = 0;
    auto parsed = GetVarint64(**meta, &pos);
    if (parsed.ok()) {
      chain_length = *parsed;
      exists = true;
    }
  }

  if (!exists) {
    DSTORE_RETURN_IF_ERROR(PutFull(key, *value, 0));
    last_value_[key] = *value;
    return Status::OK();
  }

  // Find the previous full value: the client-side copy if we wrote it, a
  // reconstruction from the server otherwise.
  Bytes previous;
  auto cached = last_value_.find(key);
  if (cached != last_value_.end()) {
    previous = cached->second;
  } else {
    DSTORE_ASSIGN_OR_RETURN(previous, Reconstruct(key, chain_length));
  }

  const Bytes delta = [&] {
    obs::Span span("delta.encode", obs::Stage::kTransform);
    return EncodeDelta(previous, *value, options_.delta);
  }();
  const bool delta_worthwhile =
      chain_length < options_.max_chain_length &&
      static_cast<double>(delta.size()) <
          options_.delta_threshold * static_cast<double>(value->size());

  if (delta_worthwhile) {
    DSTORE_RETURN_IF_ERROR(
        inner_->Put(DeltaKey(key, chain_length + 1), MakeValue(Bytes(delta))));
    Bytes meta_bytes;
    PutVarint64(&meta_bytes, chain_length + 1);
    DSTORE_RETURN_IF_ERROR(inner_->Put(key, MakeValue(std::move(meta_bytes))));
    stats_.actual_put_bytes += delta.size();
    ++stats_.delta_puts;
  } else {
    DSTORE_RETURN_IF_ERROR(PutFull(key, *value, chain_length));
  }
  last_value_[key] = *value;
  return Status::OK();
}

StatusOr<ValuePtr> DeltaStore::Get(const std::string& key) {
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(ValuePtr meta, inner_->Get(key));
  size_t pos = 0;
  DSTORE_ASSIGN_OR_RETURN(uint64_t chain_length, GetVarint64(*meta, &pos));
  DSTORE_ASSIGN_OR_RETURN(Bytes value, Reconstruct(key, chain_length));
  return MakeValue(std::move(value));
}

Status DeltaStore::Delete(const std::string& key) {
  MutexLock lock(mu_);
  uint64_t chain_length = 0;
  auto meta = inner_->Get(key);
  if (meta.ok()) {
    size_t pos = 0;
    auto parsed = GetVarint64(**meta, &pos);
    if (parsed.ok()) chain_length = *parsed;
  }
  DSTORE_RETURN_IF_ERROR(inner_->Delete(key));
  DSTORE_RETURN_IF_ERROR(inner_->Delete(BaseKey(key)));
  for (uint64_t i = 1; i <= chain_length; ++i) {
    DSTORE_RETURN_IF_ERROR(inner_->Delete(DeltaKey(key, i)));
  }
  last_value_.erase(key);
  return Status::OK();
}

StatusOr<std::vector<std::string>> DeltaStore::ListKeys() {
  DSTORE_ASSIGN_OR_RETURN(std::vector<std::string> raw, inner_->ListKeys());
  // Metadata keys are the logical keys; filter out @base / @delta.N keys.
  std::vector<std::string> keys;
  for (std::string& key : raw) {
    if (key.find("@base") == std::string::npos &&
        key.find("@delta.") == std::string::npos) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

StatusOr<size_t> DeltaStore::Count() {
  DSTORE_ASSIGN_OR_RETURN(std::vector<std::string> keys, ListKeys());
  return keys.size();
}

Status DeltaStore::Clear() {
  MutexLock lock(mu_);
  last_value_.clear();
  return inner_->Clear();
}

DeltaStore::TransferStats DeltaStore::GetTransferStats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace dstore
