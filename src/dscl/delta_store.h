#ifndef DSTORE_DSCL_DELTA_STORE_H_
#define DSTORE_DSCL_DELTA_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/sync.h"
#include "delta/delta.h"
#include "store/forwarding_store.h"

namespace dstore {

// Client-managed delta encoding over a server with NO delta support (paper
// Section IV): "The client communicates an update to the server by storing
// a delta at the server with an appropriate name. After some number of
// deltas have been sent to the server, the client will send a complete
// object ... If a delta encoded object needs to be read from the server,
// the base object and all deltas will have to be retrieved."
//
// Layout in the underlying store, for a logical key K:
//   K            -> metadata: varint chain length N
//   K@base       -> full base object
//   K@delta.1..N -> successive deltas
//
// Writes send only the delta when it is small enough (relative to
// Options::delta_threshold) and the chain is shorter than
// Options::max_chain_length; otherwise the full object is written and the
// chain collapsed. Transfer accounting (logical vs actual bytes) backs the
// delta-encoding benchmark.
class DeltaStore : public PerKeyStore {
 public:
  struct Options {
    // Collapse the chain after this many deltas (reads must fetch base +
    // every delta, so long chains make reads expensive).
    size_t max_chain_length = 8;
    // Send a delta only if it is smaller than threshold * full size.
    double delta_threshold = 0.5;
    DeltaOptions delta;
  };

  struct TransferStats {
    uint64_t logical_put_bytes = 0;  // sum of full object sizes written
    uint64_t actual_put_bytes = 0;   // bytes actually sent (delta or full)
    uint64_t delta_puts = 0;
    uint64_t full_puts = 0;
    uint64_t chain_collapses = 0;
  };

  DeltaStore(std::shared_ptr<KeyValueStore> base, const Options& options);
  explicit DeltaStore(std::shared_ptr<KeyValueStore> base)
      : DeltaStore(std::move(base), Options()) {}

  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  StatusOr<std::vector<std::string>> ListKeys() override;
  StatusOr<size_t> Count() override;
  Status Clear() override;
  std::string Name() const override { return inner_->Name() + "+delta"; }

  TransferStats GetTransferStats() const;

 private:
  static std::string BaseKey(const std::string& key) { return key + "@base"; }
  static std::string DeltaKey(const std::string& key, size_t index) {
    return key + "@delta." + std::to_string(index);
  }

  // Reconstructs the current value (base + deltas).
  StatusOr<Bytes> Reconstruct(const std::string& key, uint64_t chain_length)
      REQUIRES(mu_);
  // Writes a full object and deletes any delta chain.
  Status PutFull(const std::string& key, const Bytes& value,
                 uint64_t old_chain_length) REQUIRES(mu_);

  Options options_;

  mutable Mutex mu_;
  // Client-side memory of each key's current full value, so deltas can be
  // computed without a read-back from the server.
  std::unordered_map<std::string, Bytes> last_value_ GUARDED_BY(mu_);
  TransferStats stats_ GUARDED_BY(mu_);
};

}  // namespace dstore

#endif  // DSTORE_DSCL_DELTA_STORE_H_
