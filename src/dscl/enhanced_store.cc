#include "dscl/enhanced_store.h"

#include "obs/trace.h"

namespace dstore {

EnhancedStore::EnhancedStore(std::shared_ptr<KeyValueStore> base,
                             std::shared_ptr<ExpiringCache> cache,
                             std::shared_ptr<TransformChain> chain,
                             const Options& options)
    : PerKeyStore(std::move(base)),
      cache_(std::move(cache)),
      chain_(std::move(chain)),
      options_(options) {
  auto* registry = obs::MetricsRegistry::Default();
  const obs::Labels labels = {{"store", inner_->Name()}};
  obs_hits_ = registry->GetCounter(
      "dstore_enhanced_cache_hits_total", labels,
      "Fresh integrated-cache hits served without server contact.");
  obs_misses_ = registry->GetCounter(
      "dstore_enhanced_cache_misses_total", labels,
      "Gets that fetched the value from the base store.");
  obs_revalidations_ = registry->GetCounter(
      "dstore_enhanced_revalidations_total", labels,
      "Expired cache hits that sent a conditional GET.");
  obs_revalidations_saved_ = registry->GetCounter(
      "dstore_enhanced_revalidations_saved_total", labels,
      "Conditional GETs answered 304 (no value transferred).");
}

StatusOr<Bytes> EnhancedStore::Encode(const Bytes& value) const {
  if (chain_ == nullptr || chain_->empty()) return value;
  obs::Span span("transform.encode", obs::Stage::kTransform);
  return chain_->Apply(value);
}

StatusOr<ValuePtr> EnhancedStore::Decode(const Bytes& value) const {
  if (chain_ == nullptr || chain_->empty()) return MakeValue(Bytes(value));
  obs::Span span("transform.decode", obs::Stage::kTransform);
  DSTORE_ASSIGN_OR_RETURN(Bytes decoded, chain_->Reverse(value));
  return MakeValue(std::move(decoded));
}

Status EnhancedStore::CacheValue(const std::string& key,
                                 const ValuePtr& decoded, const Bytes& encoded,
                                 const std::string& etag) {
  if (cache_ == nullptr) return Status::OK();
  const ValuePtr to_cache =
      options_.cache_encoded ? MakeValue(Bytes(encoded)) : decoded;
  return cache_->PutWithTtl(key, to_cache, options_.cache_ttl_nanos, etag);
}

Status EnhancedStore::Put(const std::string& key, ValuePtr value) {
  if (value == nullptr) return Status::InvalidArgument("null value");
  obs::Span span("enhanced.put");
  DSTORE_ASSIGN_OR_RETURN(Bytes encoded, Encode(*value));
  {
    obs::Span base_span("base.put", obs::Stage::kBackend);
    DSTORE_RETURN_IF_ERROR(inner_->Put(key, MakeValue(Bytes(encoded))));
  }

  if (cache_ == nullptr) return Status::OK();
  switch (options_.write_policy) {
    case WritePolicy::kWriteThrough:
      return CacheValue(key, value, encoded, ComputeEtag(encoded));
    case WritePolicy::kInvalidate:
      return cache_->Delete(key);
    case WritePolicy::kBypass:
      return Status::OK();
  }
  return Status::OK();
}

StatusOr<ValuePtr> EnhancedStore::FetchAndCache(const std::string& key) {
  auto encoded = [&] {
    obs::Span span("base.get", obs::Stage::kBackend);
    return inner_->Get(key);
  }();
  DSTORE_RETURN_IF_ERROR(encoded.status());
  DSTORE_ASSIGN_OR_RETURN(ValuePtr decoded, Decode(**encoded));
  DSTORE_RETURN_IF_ERROR(
      CacheValue(key, decoded, **encoded, ComputeEtag(**encoded)));
  return decoded;
}

StatusOr<ValuePtr> EnhancedStore::Get(const std::string& key) {
  obs::Span get_span("enhanced.get");

  if (cache_ == nullptr) {
    auto encoded = [&] {
      obs::Span span("base.get", obs::Stage::kBackend);
      return inner_->Get(key);
    }();
    DSTORE_RETURN_IF_ERROR(encoded.status());
    return Decode(**encoded);
  }

  auto entry = [&] {
    obs::Span span("cache.lookup");
    return cache_->GetEntry(key);
  }();
  if (entry.ok() && !entry->expired) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    obs_hits_->Increment();
    if (options_.cache_encoded) return Decode(*entry->value);
    return entry->value;
  }

  if (entry.ok() && entry->expired && options_.revalidate_expired &&
      !entry->etag.empty()) {
    // Fig. 7: ask the server whether our version is still current.
    revalidations_.fetch_add(1, std::memory_order_relaxed);
    obs_revalidations_->Increment();
    auto conditional = [&] {
      obs::Span span("base.conditional_get", obs::Stage::kBackend);
      return inner_->GetIfChanged(key, entry->etag);
    }();
    if (conditional.ok()) {
      if (conditional->not_modified) {
        revalidations_saved_.fetch_add(1, std::memory_order_relaxed);
        obs_revalidations_saved_->Increment();
        cache_->Touch(key, options_.cache_ttl_nanos).ok();
        if (options_.cache_encoded) return Decode(*entry->value);
        return entry->value;
      }
      DSTORE_ASSIGN_OR_RETURN(ValuePtr decoded, Decode(*conditional->value));
      DSTORE_RETURN_IF_ERROR(CacheValue(key, decoded, *conditional->value,
                                        conditional->etag));
      return decoded;
    }
    if (conditional.status().IsNotFound()) {
      cache_->Delete(key).ok();
      return conditional.status();
    }
    // Revalidation path failed (e.g. transient server error): fall through
    // to a plain fetch below.
  }

  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  obs_misses_->Increment();
  return FetchAndCache(key);
}

Status EnhancedStore::Delete(const std::string& key) {
  DSTORE_RETURN_IF_ERROR(inner_->Delete(key));
  if (cache_ != nullptr) return cache_->Delete(key);
  return Status::OK();
}

StatusOr<bool> EnhancedStore::Contains(const std::string& key) {
  if (cache_ != nullptr && cache_->Contains(key)) return true;
  return inner_->Contains(key);
}

Status EnhancedStore::Clear() {
  DSTORE_RETURN_IF_ERROR(inner_->Clear());
  if (cache_ != nullptr) cache_->Clear();
  return Status::OK();
}

std::string EnhancedStore::Name() const {
  std::string name = inner_->Name() + "+enhanced";
  if (chain_ != nullptr && !chain_->empty()) {
    name += "[" + chain_->Describe() + "]";
  }
  return name;
}

EnhancedStoreStats EnhancedStore::Stats() const {
  EnhancedStoreStats stats;
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  stats.revalidations = revalidations_.load(std::memory_order_relaxed);
  stats.revalidations_saved =
      revalidations_saved_.load(std::memory_order_relaxed);
  return stats;
}

Status EnhancedStore::InvalidateCached(const std::string& key) {
  if (cache_ == nullptr) return Status::OK();
  return cache_->Delete(key);
}

}  // namespace dstore
