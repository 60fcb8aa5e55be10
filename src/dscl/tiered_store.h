#ifndef DSTORE_DSCL_TIERED_STORE_H_
#define DSTORE_DSCL_TIERED_STORE_H_

#include <atomic>
#include <memory>
#include <string>

#include "store/forwarding_store.h"

namespace dstore {

// The paper's *third* caching approach (Section III): because every data
// store implements the common key-value interface, "any data store supported
// by the UDSM can function as a cache or secondary repository for another
// data store". TieredStore composes two KeyValueStores: reads try `front`
// first and fall back to `back`, populating `front` on a miss; writes go to
// both (write-through) or invalidate `front`. `back` is the forwarded inner
// store, so ListKeys and Count answer from it.
//
// Unlike EnhancedStore this deliberately has no expiration management — the
// paper notes the UDSM-level approach "lacks some of the caching features
// provided by the DSCL such as expiration time management".
class TieredStore : public PerKeyStore {
 public:
  enum class WritePolicy { kWriteThrough, kInvalidate };

  struct Stats {
    uint64_t front_hits = 0;
    uint64_t front_misses = 0;
  };

  TieredStore(std::shared_ptr<KeyValueStore> front,
              std::shared_ptr<KeyValueStore> back,
              WritePolicy policy = WritePolicy::kWriteThrough)
      : PerKeyStore(std::move(back)),
        front_(std::move(front)),
        policy_(policy) {}

  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  StatusOr<bool> Contains(const std::string& key) override;
  Status Clear() override;
  std::string Name() const override {
    return inner_->Name() + "<-" + front_->Name();
  }

  Stats GetStats() const;

 private:
  std::shared_ptr<KeyValueStore> front_;
  WritePolicy policy_;
  mutable std::atomic<uint64_t> front_hits_{0};
  mutable std::atomic<uint64_t> front_misses_{0};
};

}  // namespace dstore

#endif  // DSTORE_DSCL_TIERED_STORE_H_
