#include "cache/ring_cache.h"

namespace dstore {

RingCache::RingCache(std::vector<Node> nodes) {
  for (Node& node : nodes) {
    ring_.AddShard(node.name);
    nodes_.emplace(node.name, std::move(node.cache));
  }
}

std::shared_ptr<Cache> RingCache::Route(const std::string& key) const {
  MutexLock lock(mu_);
  const std::string* owner = ring_.OwnerOf(key);
  return owner == nullptr ? nullptr : nodes_.at(*owner);
}

std::vector<std::shared_ptr<Cache>> RingCache::AllNodes() const {
  MutexLock lock(mu_);
  std::vector<std::shared_ptr<Cache>> nodes;
  nodes.reserve(nodes_.size());
  for (const auto& [name, cache] : nodes_) nodes.push_back(cache);
  return nodes;
}

Status RingCache::Put(const std::string& key, ValuePtr value) {
  const std::shared_ptr<Cache> node = Route(key);
  if (node == nullptr) return Status::Unavailable("ring has no nodes");
  return node->Put(key, std::move(value));
}

StatusOr<ValuePtr> RingCache::Get(const std::string& key) {
  const std::shared_ptr<Cache> node = Route(key);
  if (node == nullptr) return Status::Unavailable("ring has no nodes");
  return node->Get(key);
}

Status RingCache::Delete(const std::string& key) {
  const std::shared_ptr<Cache> node = Route(key);
  if (node == nullptr) return Status::Unavailable("ring has no nodes");
  return node->Delete(key);
}

void RingCache::Clear() {
  for (const auto& node : AllNodes()) node->Clear();
}

bool RingCache::Contains(const std::string& key) const {
  const std::shared_ptr<Cache> node = Route(key);
  return node != nullptr && node->Contains(key);
}

size_t RingCache::EntryCount() const {
  size_t total = 0;
  for (const auto& node : AllNodes()) total += node->EntryCount();
  return total;
}

size_t RingCache::ChargeUsed() const {
  size_t total = 0;
  for (const auto& node : AllNodes()) total += node->ChargeUsed();
  return total;
}

CacheStats RingCache::Stats() const {
  CacheStats total;
  for (const auto& node : AllNodes()) {
    const CacheStats stats = node->Stats();
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
  std::vector<std::string> keys;
  for (const auto& node : AllNodes()) {
    DSTORE_ASSIGN_OR_RETURN(std::vector<std::string> node_keys, node->Keys());
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
