#ifndef DSTORE_DSCL_INVALIDATION_H_
#define DSTORE_DSCL_INVALIDATION_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "cache/cache.h"
#include "common/sync.h"
#include "store/forwarding_store.h"

namespace dstore {

// Stronger cache consistency — the use case the paper calls "most
// compelling" for its in-progress consistency work (Section VII). When
// several enhanced clients cache the same backing store, a write through
// one client must invalidate the others' cached copies; otherwise they
// serve stale data until their TTLs expire.
//
// InvalidationBus is a process-wide publish/subscribe channel for key
// invalidations. InvalidatingStore publishes every mutation of a shared
// store onto a bus; SubscribeCache wires a bus to any Cache so published
// keys are evicted. Cross-process propagation would ride the remote-cache
// protocol; within one process this gives read-your-writes across clients
// sharing a bus.
class InvalidationBus {
 public:
  using Callback = std::function<void(const std::string& key)>;
  using Subscription = uint64_t;

  // Registers `callback`, invoked synchronously on every Publish.
  Subscription Subscribe(Callback callback);
  void Unsubscribe(Subscription subscription);

  // Notifies all subscribers that `key` changed (or was deleted).
  void Publish(const std::string& key);

  size_t subscriber_count() const;

 private:
  mutable Mutex mu_;
  std::map<Subscription, Callback> subscribers_ GUARDED_BY(mu_);
  Subscription next_id_ GUARDED_BY(mu_) = 1;
};

// Evicts `cache` entries for every key published on `bus`. Returns a guard;
// destroying it unsubscribes. `cache` must outlive the guard.
class CacheInvalidationSubscription {
 public:
  CacheInvalidationSubscription(std::shared_ptr<InvalidationBus> bus,
                                Cache* cache);
  ~CacheInvalidationSubscription();

  CacheInvalidationSubscription(const CacheInvalidationSubscription&) = delete;
  CacheInvalidationSubscription& operator=(
      const CacheInvalidationSubscription&) = delete;

 private:
  std::shared_ptr<InvalidationBus> bus_;
  InvalidationBus::Subscription subscription_;
};

// KeyValueStore decorator that publishes every Put/MultiPut/Delete/Clear on a
// bus. Wrap the SHARED base store with this once, then hand the wrapped store
// to each enhanced client.
class InvalidatingStore : public ForwardingStore {
 public:
  InvalidatingStore(std::shared_ptr<KeyValueStore> inner,
                    std::shared_ptr<InvalidationBus> bus)
      : ForwardingStore(std::move(inner)), bus_(std::move(bus)) {}

  Status Put(const std::string& key, ValuePtr value) override {
    DSTORE_RETURN_IF_ERROR(inner_->Put(key, std::move(value)));
    bus_->Publish(key);
    return Status::OK();
  }

  // Publishes every key, even when the batch fails part-way: some writes
  // may have landed, and a spurious eviction is harmless.
  Status MultiPut(
      const std::vector<std::pair<std::string, ValuePtr>>& entries) override {
    Status status = inner_->MultiPut(entries);
    for (const auto& entry : entries) bus_->Publish(entry.first);
    return status;
  }

  Status Delete(const std::string& key) override {
    DSTORE_RETURN_IF_ERROR(inner_->Delete(key));
    bus_->Publish(key);
    return Status::OK();
  }

  Status Clear() override {
    DSTORE_ASSIGN_OR_RETURN(std::vector<std::string> keys, inner_->ListKeys());
    DSTORE_RETURN_IF_ERROR(inner_->Clear());
    for (const std::string& key : keys) bus_->Publish(key);
    return Status::OK();
  }

  std::string Name() const override { return inner_->Name() + "+inval"; }

  InvalidationBus* bus() { return bus_.get(); }

 private:
  std::shared_ptr<InvalidationBus> bus_;
};

}  // namespace dstore

#endif  // DSTORE_DSCL_INVALIDATION_H_
