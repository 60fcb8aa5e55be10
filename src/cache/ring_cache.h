#ifndef DSTORE_CACHE_RING_CACHE_H_
#define DSTORE_CACHE_RING_CACHE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "common/sync.h"
#include "shard/ring.h"

namespace dstore {

// Consistent-hash router over multiple cache nodes — the scaling story the
// paper sketches for remote-process caches ("remote process caches can
// often be scaled across multiple processes and nodes to handle high
// request rates and increase availability", Section III; its related work
// discusses load balancing across memcached servers).
//
// Each node is any Cache implementation — typically a RemoteCache client to
// a distinct server process. Keys map to nodes through the same consistent-
// hash ring that places shards (shard::HashRing, default options), so a key
// routes to the node a ShardedStore with the same names would pick, and
// adding or removing a node remaps only ~1/N of the key space (the rest
// keep their cached entries).
//
// The ring lock covers routing only: each call copies its node's
// shared_ptr under it and calls the node outside it, so a slow node stalls
// only the calls routed to it.
class RingCache : public Cache {
 public:
  struct Node {
    std::string name;  // unique, stable identity (feeds the ring hash)
    std::shared_ptr<Cache> cache;
  };

  explicit RingCache(std::vector<Node> nodes);

  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  void Clear() override;
  bool Contains(const std::string& key) const override;
  size_t EntryCount() const override;
  size_t ChargeUsed() const override;
  CacheStats Stats() const override;
  std::string Name() const override;
  StatusOr<std::vector<std::string>> Keys() const override;

  // Topology changes. AddNode/RemoveNode only redirect future lookups;
  // entries cached on their old nodes age out by eviction (standard
  // consistent-hashing behaviour — no migration).
  Status AddNode(Node node);
  Status RemoveNode(const std::string& name);
  size_t node_count() const;

  // The node `key` currently routes to (for tests and diagnostics).
  std::string NodeFor(const std::string& key) const;

 private:
  // The node `key` routes to (null on an empty ring), and every node.
  std::shared_ptr<Cache> Route(const std::string& key) const EXCLUDES(mu_);
  std::vector<std::shared_ptr<Cache>> AllNodes() const EXCLUDES(mu_);

  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Cache>> nodes_ GUARDED_BY(mu_);
  shard::HashRing ring_ GUARDED_BY(mu_);
};

}  // namespace dstore

#endif  // DSTORE_CACHE_RING_CACHE_H_
