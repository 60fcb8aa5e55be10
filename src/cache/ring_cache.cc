#include "cache/ring_cache.h"

namespace dstore {

RingCache::RingCache(std::vector<Node> nodes) {
  for (Node& node : nodes) {
    ring_.AddShard(node.name);
    nodes_.emplace(node.name, std::move(node.cache));
  }
}

Cache* RingCache::Route(const std::string& key) const {
  const std::string* owner = ring_.OwnerOf(key);
  return owner == nullptr ? nullptr : nodes_.at(*owner).get();
}

Status RingCache::Put(const std::string& key, ValuePtr value) {
  MutexLock lock(mu_);
  Cache* node = Route(key);
  if (node == nullptr) return Status::Unavailable("ring has no nodes");
  return node->Put(key, std::move(value));
}

StatusOr<ValuePtr> RingCache::Get(const std::string& key) {
  MutexLock lock(mu_);
  Cache* node = Route(key);
  if (node == nullptr) return Status::Unavailable("ring has no nodes");
  return node->Get(key);
}

Status RingCache::Delete(const std::string& key) {
  MutexLock lock(mu_);
  Cache* node = Route(key);
  if (node == nullptr) return Status::Unavailable("ring has no nodes");
  return node->Delete(key);
}

void RingCache::Clear() {
  MutexLock lock(mu_);
  for (const auto& [name, cache] : nodes_) cache->Clear();
}

bool RingCache::Contains(const std::string& key) const {
  MutexLock lock(mu_);
  Cache* node = Route(key);
  return node != nullptr && node->Contains(key);
}

size_t RingCache::EntryCount() const {
  MutexLock lock(mu_);
  size_t total = 0;
  for (const auto& [name, cache] : nodes_) total += cache->EntryCount();
  return total;
}

size_t RingCache::ChargeUsed() const {
  MutexLock lock(mu_);
  size_t total = 0;
  for (const auto& [name, cache] : nodes_) total += cache->ChargeUsed();
  return total;
}

CacheStats RingCache::Stats() const {
  MutexLock lock(mu_);
  CacheStats total;
  for (const auto& [name, cache] : nodes_) {
    const CacheStats stats = cache->Stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.puts += stats.puts;
    total.evictions += stats.evictions;
  }
  return total;
}

std::string RingCache::Name() const {
  MutexLock lock(mu_);
  return "ring(" + std::to_string(nodes_.size()) + " nodes)";
}

StatusOr<std::vector<std::string>> RingCache::Keys() const {
  MutexLock lock(mu_);
  std::vector<std::string> keys;
  for (const auto& [name, cache] : nodes_) {
    DSTORE_ASSIGN_OR_RETURN(std::vector<std::string> node_keys, cache->Keys());
    keys.insert(keys.end(), node_keys.begin(), node_keys.end());
  }
  return keys;
}

Status RingCache::AddNode(Node node) {
  if (node.cache == nullptr || node.name.empty()) {
    return Status::InvalidArgument("node needs a name and a cache");
  }
  MutexLock lock(mu_);
  if (nodes_.count(node.name) > 0) {
    return Status::AlreadyExists("node already in ring: " + node.name);
  }
  ring_.AddShard(node.name);
  nodes_.emplace(node.name, std::move(node.cache));
  return Status::OK();
}

Status RingCache::RemoveNode(const std::string& name) {
  MutexLock lock(mu_);
  if (nodes_.erase(name) == 0) {
    return Status::NotFound("no such ring node: " + name);
  }
  ring_.RemoveShard(name);
  return Status::OK();
}

size_t RingCache::node_count() const {
  MutexLock lock(mu_);
  return nodes_.size();
}

std::string RingCache::NodeFor(const std::string& key) const {
  MutexLock lock(mu_);
  const std::string* owner = ring_.OwnerOf(key);
  return owner == nullptr ? std::string() : *owner;
}

}  // namespace dstore
