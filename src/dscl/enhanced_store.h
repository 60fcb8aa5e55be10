#ifndef DSTORE_DSCL_ENHANCED_STORE_H_
#define DSTORE_DSCL_ENHANCED_STORE_H_

#include <atomic>
#include <memory>
#include <string>

#include "cache/expiring_cache.h"
#include "common/clock.h"
#include "dscl/transformer.h"
#include "obs/metrics.h"
#include "store/forwarding_store.h"

namespace dstore {

// Counters for the enhanced client's behaviour, matching what the paper's
// performance monitoring reports about caching effectiveness.
struct EnhancedStoreStats {
  uint64_t cache_hits = 0;          // fresh cache hits, no server contact
  uint64_t cache_misses = 0;        // value fetched from the server
  uint64_t revalidations = 0;       // expired hit -> conditional GET sent
  uint64_t revalidations_saved = 0; // ... of which the server said 304
};

// The DSCL's *tight integration* (paper Section II / III, first caching
// approach): a KeyValueStore decorator whose Get/Put/Delete transparently
// maintain an integrated cache and run values through the transform chain
// (compression, encryption) — "the data store client handles these
// operations automatically". Applications keep using the plain KeyValueStore
// interface; swapping `EnhancedStore(base)` for `base` is the whole change.
//
// Semantics:
//  * Get: fresh cache hit -> returned without server contact. Expired hit
//    with revalidation enabled -> conditional GET with the cached etag
//    (Fig. 7); a 304 refreshes the entry without transferring the value.
//    Miss -> fetch, reverse-transform, cache.
//  * Put: value is transformed (compress -> encrypt) before it leaves the
//    client; the cache is then updated (write-through) or invalidated,
//    per Options::write_policy.
//  * The cache stores decoded (plaintext) values by default for the fast
//    in-process hit path; set Options::cache_encoded to keep cache contents
//    compressed/encrypted at rest (paper Section III security discussion).
class EnhancedStore : public PerKeyStore {
 public:
  enum class WritePolicy {
    kWriteThrough,  // update the cache with the new value on Put
    kInvalidate,    // drop the cache entry on Put
    // Leave the cache alone on Put: cached copies stay visible until their
    // TTL expires, so reads may be stale for up to one TTL. This is the
    // classic TTL-consistency mode — only use it WITH a TTL (or an external
    // invalidation bus); with ttl=0 a rewritten key would be served stale
    // forever.
    kBypass,
  };

  struct Options {
    // TTL for cached entries; <= 0 means entries never expire.
    int64_t cache_ttl_nanos = 0;
    WritePolicy write_policy = WritePolicy::kWriteThrough;
    // On expired entries, revalidate with an etag instead of refetching.
    bool revalidate_expired = true;
    // Cache transformed (encrypted/compressed) bytes instead of plaintext.
    bool cache_encoded = false;
  };

  // `base` is the real data store client. `cache` may be null (then the
  // store only applies transforms). `chain` may be null (no transforms).
  EnhancedStore(std::shared_ptr<KeyValueStore> base,
                std::shared_ptr<ExpiringCache> cache,
                std::shared_ptr<TransformChain> chain, const Options& options);

  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  StatusOr<bool> Contains(const std::string& key) override;
  Status Clear() override;
  std::string Name() const override;

  EnhancedStoreStats Stats() const;
  ExpiringCache* cache() { return cache_.get(); }

  // Explicit cache control for applications that need fine-grained access
  // alongside the transparent path (the paper recommends combining the
  // tight and explicit approaches).
  Status InvalidateCached(const std::string& key);

 private:
  StatusOr<Bytes> Encode(const Bytes& value) const;
  StatusOr<ValuePtr> Decode(const Bytes& value) const;
  // Fetches from the base store, decodes, and caches. Returns decoded value.
  StatusOr<ValuePtr> FetchAndCache(const std::string& key);
  Status CacheValue(const std::string& key, const ValuePtr& decoded,
                    const Bytes& encoded, const std::string& etag);

  std::shared_ptr<ExpiringCache> cache_;
  std::shared_ptr<TransformChain> chain_;
  Options options_;

  // Per-instance counts back Stats(); the obs counters mirror the same
  // events into the process-wide registry (labelled by base store name) so
  // /metrics sees every EnhancedStore in the process.
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> cache_misses_{0};
  mutable std::atomic<uint64_t> revalidations_{0};
  mutable std::atomic<uint64_t> revalidations_saved_{0};
  obs::Counter* obs_hits_;
  obs::Counter* obs_misses_;
  obs::Counter* obs_revalidations_;
  obs::Counter* obs_revalidations_saved_;
};

}  // namespace dstore

#endif  // DSTORE_DSCL_ENHANCED_STORE_H_
