#ifndef DSTORE_STORE_FORWARDING_STORE_H_
#define DSTORE_STORE_FORWARDING_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "store/key_value.h"

namespace dstore {

// The one base for KeyValueStore decorators — the paper's "any layer stacks
// over any store through one interface". It owns the inner store and
// forwards every virtual to it unchanged, so a decorator overrides only the
// calls it changes and the rest (whole-store calls, conditional reads,
// batches) reach the backend by construction.
//
// Transparent means exactly that: a decorator that changes Get or Put must
// also change MultiGet/MultiPut and GetIfChanged, or those bypass its logic.
// Deriving from PerKeyStore below does that.
class ForwardingStore : public KeyValueStore {
 public:
  explicit ForwardingStore(std::shared_ptr<KeyValueStore> inner)
      : inner_(std::move(inner)) {}

  Status Put(const std::string& key, ValuePtr value) override {
    return inner_->Put(key, std::move(value));
  }
  StatusOr<ValuePtr> Get(const std::string& key) override {
    return inner_->Get(key);
  }
  Status Delete(const std::string& key) override { return inner_->Delete(key); }
  StatusOr<bool> Contains(const std::string& key) override {
    return inner_->Contains(key);
  }
  StatusOr<std::vector<std::string>> ListKeys() override {
    return inner_->ListKeys();
  }
  StatusOr<size_t> Count() override { return inner_->Count(); }
  Status Clear() override { return inner_->Clear(); }
  StatusOr<ConditionalGetResult> GetIfChanged(
      const std::string& key, const std::string& etag) override {
    return inner_->GetIfChanged(key, etag);
  }
  std::vector<StatusOr<ValuePtr>> MultiGet(
      const std::vector<std::string>& keys) override {
    return inner_->MultiGet(keys);
  }
  Status MultiPut(
      const std::vector<std::pair<std::string, ValuePtr>>& entries) override {
    return inner_->MultiPut(entries);
  }
  std::string Name() const override { return inner_->Name(); }

  KeyValueStore* inner() const { return inner_.get(); }

 protected:
  const std::shared_ptr<KeyValueStore> inner_;
};

// A ForwardingStore for decorators that change what Get and Put do
// (transform, cache, re-key, delay or police them): GetIfChanged, MultiGet
// and MultiPut run KeyValueStore's per-key defaults over the decorator's own
// Get/Put instead of forwarding past it.
class PerKeyStore : public ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;

  StatusOr<ConditionalGetResult> GetIfChanged(
      const std::string& key, const std::string& etag) override {
    return KeyValueStore::GetIfChanged(key, etag);
  }
  std::vector<StatusOr<ValuePtr>> MultiGet(
      const std::vector<std::string>& keys) override {
    return KeyValueStore::MultiGet(keys);
  }
  Status MultiPut(
      const std::vector<std::pair<std::string, ValuePtr>>& entries) override {
    return KeyValueStore::MultiPut(entries);
  }
};

// The calls a WrappingStore runs through its hook. StoreOpName gives the
// names FaultPlan rules and admission spans use ("put", "listkeys", ...).
enum class StoreOp {
  kPut, kGet, kDelete, kContains, kListKeys, kCount, kClear, kGetIfChanged
};
const char* StoreOpName(StoreOp op);

// One attempt of the wrapped call: runs the inner store's call and returns
// its status (WrappingStore keeps the value).
using OpCall = std::function<Status()>;

// A decorator whose policy is one hook: Put, Get, Delete, Contains,
// ListKeys, Count, Clear and GetIfChanged each run through Around(op, call).
// Admission, circuit breaking, retries and monitoring are each one Around.
//
// Batches keep the per-key path (PerKeyStore), so every key passes the
// policy. Forwarding one batch through admit -> breaker -> retry sends every
// MultiGet into ShardedStore's pool scatter-gather, which costs more CPU
// than it saves; carrying batches through is an override of MultiGet and
// MultiPut once the layers below batch cheaply.
class WrappingStore : public PerKeyStore {
 public:
  using PerKeyStore::PerKeyStore;

  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  StatusOr<bool> Contains(const std::string& key) override;
  StatusOr<std::vector<std::string>> ListKeys() override;
  StatusOr<size_t> Count() override;
  Status Clear() override;
  StatusOr<ConditionalGetResult> GetIfChanged(const std::string& key,
                                              const std::string& etag) override;

 protected:
  // Runs `call` zero or more times and returns the operation's status: the
  // last call's, or the hook's own failure (shed, timed out, short-
  // circuited). Returns OK only when the last call returned OK; an OK
  // without any call fails the operation with Internal.
  virtual Status Around(StoreOp op, const OpCall& call) = 0;

 private:
  template <typename R, typename Call>
  R Wrap(StoreOp op, Call&& call);
};

}  // namespace dstore

#endif  // DSTORE_STORE_FORWARDING_STORE_H_
