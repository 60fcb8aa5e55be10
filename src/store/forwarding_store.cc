#include "store/forwarding_store.h"

#include <optional>

namespace dstore {

namespace {

// Uniform view of a call's outcome, so Wrap treats Status and StatusOr<T>
// alike.
const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const StatusOr<T>& s) {
  return s.status();
}

}  // namespace

const char* StoreOpName(StoreOp op) {
  static constexpr const char* kNames[] = {
      "put", "get", "delete", "contains", "listkeys", "count", "clear",
      "getifchanged"};
  return kNames[static_cast<int>(op)];
}

template <typename R, typename Call>
R WrappingStore::Wrap(StoreOp op, Call&& call) {
  std::optional<R> result;
  Status status = Around(op, [&] {
    result.emplace(call());
    return StatusOf(*result);
  });
  if (!status.ok()) return R(std::move(status));
  if (!result) {
    return R(Status::Internal("Around returned OK without running the call"));
  }
  return std::move(*result);
}

Status WrappingStore::Put(const std::string& key, ValuePtr value) {
  return Wrap<Status>(StoreOp::kPut, [&] { return inner_->Put(key, value); });
}

StatusOr<ValuePtr> WrappingStore::Get(const std::string& key) {
  return Wrap<StatusOr<ValuePtr>>(StoreOp::kGet,
                                  [&] { return inner_->Get(key); });
}

Status WrappingStore::Delete(const std::string& key) {
  return Wrap<Status>(StoreOp::kDelete, [&] { return inner_->Delete(key); });
}

StatusOr<bool> WrappingStore::Contains(const std::string& key) {
  return Wrap<StatusOr<bool>>(StoreOp::kContains,
                              [&] { return inner_->Contains(key); });
}

StatusOr<std::vector<std::string>> WrappingStore::ListKeys() {
  return Wrap<StatusOr<std::vector<std::string>>>(
      StoreOp::kListKeys, [&] { return inner_->ListKeys(); });
}

StatusOr<size_t> WrappingStore::Count() {
  return Wrap<StatusOr<size_t>>(StoreOp::kCount,
                                [&] { return inner_->Count(); });
}

Status WrappingStore::Clear() {
  return Wrap<Status>(StoreOp::kClear, [&] { return inner_->Clear(); });
}

StatusOr<ConditionalGetResult> WrappingStore::GetIfChanged(
    const std::string& key, const std::string& etag) {
  return Wrap<StatusOr<ConditionalGetResult>>(
      StoreOp::kGetIfChanged, [&] { return inner_->GetIfChanged(key, etag); });
}

}  // namespace dstore
