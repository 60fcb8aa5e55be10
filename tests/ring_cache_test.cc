#include "cache/ring_cache.h"

#include <chrono>
#include <future>
#include <map>

#include <gtest/gtest.h>

#include "cache/lru_cache.h"
#include "cache/clock_cache.h"
#include "common/random.h"
#include "shard/ring.h"

namespace dstore {
namespace {

std::vector<RingCache::Node> MakeNodes(int count) {
  std::vector<RingCache::Node> nodes;
  for (int i = 0; i < count; ++i) {
    nodes.push_back({"node" + std::to_string(i),
                     std::make_shared<LruCache>(64u << 20)});
  }
  return nodes;
}

TEST(RingCacheTest, RoutesConsistently) {
  RingCache ring(MakeNodes(4));
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(ring.NodeFor(key), ring.NodeFor(key)) << "routing is stable";
  }
}

TEST(RingCacheTest, PutGetDeleteThroughRing) {
  RingCache ring(MakeNodes(3));
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(ring.Put(key, MakeValue("v" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i);
    auto got = ring.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(ToString(**got), "v" + std::to_string(i));
  }
  ASSERT_TRUE(ring.Delete("k0").ok());
  EXPECT_FALSE(ring.Contains("k0"));
  EXPECT_EQ(ring.EntryCount(), 49u);
}

TEST(RingCacheTest, KeysSpreadAcrossNodes) {
  auto nodes = MakeNodes(4);
  std::vector<std::shared_ptr<Cache>> backing;
  for (auto& node : nodes) backing.push_back(node.cache);
  RingCache ring(std::move(nodes));
  for (int i = 0; i < 400; ++i) {
    (void)ring.Put("key" + std::to_string(i), MakeValue(std::string_view("v")));
  }
  // Every node should hold a meaningful share (not perfectly uniform, but
  // no node should be empty or hold nearly everything).
  for (const auto& cache : backing) {
    EXPECT_GT(cache->EntryCount(), 25u);
    EXPECT_LT(cache->EntryCount(), 250u);
  }
}

TEST(RingCacheTest, NodeForMatchesHashRingOwner) {
  RingCache ring(MakeNodes(4));
  shard::HashRing shards;
  for (int i = 0; i < 4; ++i) shards.AddShard("node" + std::to_string(i));
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(ring.NodeFor(key), *shards.OwnerOf(key)) << key;
  }
}

TEST(RingCacheTest, RemovingNodeRemapsOnlyItsShare) {
  RingCache ring(MakeNodes(4));
  std::map<std::string, std::string> before;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    before[key] = ring.NodeFor(key);
  }
  ASSERT_TRUE(ring.RemoveNode("node2").ok());
  int moved = 0;
  for (const auto& [key, node] : before) {
    const std::string now = ring.NodeFor(key);
    if (node == "node2") {
      EXPECT_NE(now, "node2");
    } else if (now != node) {
      ++moved;
    }
  }
  // Consistent hashing: keys on surviving nodes stay put.
  EXPECT_EQ(moved, 0);
}

TEST(RingCacheTest, AddingNodeStealsBoundedShare) {
  RingCache ring(MakeNodes(4));
  std::map<std::string, std::string> before;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    before[key] = ring.NodeFor(key);
  }
  ASSERT_TRUE(
      ring.AddNode({"node4", std::make_shared<LruCache>(64u << 20)}).ok());
  int moved = 0;
  for (const auto& [key, node] : before) {
    if (ring.NodeFor(key) != node) {
      ++moved;
      EXPECT_EQ(ring.NodeFor(key), "node4") << "moves only onto the new node";
    }
  }
  // ~1/5 of keys move; allow generous slack.
  EXPECT_GT(moved, 80);
  EXPECT_LT(moved, 400);
}

TEST(RingCacheTest, DuplicateNodeRejected) {
  RingCache ring(MakeNodes(2));
  EXPECT_TRUE(
      ring.AddNode({"node0", std::make_shared<LruCache>(1024)}).IsAlreadyExists());
  EXPECT_TRUE(ring.RemoveNode("ghost").IsNotFound());
}

TEST(RingCacheTest, EmptyRingReportsUnavailable) {
  RingCache ring({});
  EXPECT_TRUE(ring.Put("k", MakeValue(std::string_view("v"))).IsUnavailable());
  EXPECT_TRUE(ring.Get("k").status().IsUnavailable());
  EXPECT_EQ(ring.NodeFor("k"), "");
}

TEST(RingCacheTest, HeterogeneousNodeTypes) {
  std::vector<RingCache::Node> nodes;
  nodes.push_back({"lru", std::make_shared<LruCache>(64u << 20)});
  nodes.push_back({"clock", std::make_shared<ClockCache>(64u << 20)});
  RingCache ring(std::move(nodes));
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(ring.Put(key, MakeValue(std::string_view("v"))).ok());
    EXPECT_TRUE(ring.Get(key).ok());
  }
}

TEST(RingCacheTest, AggregatedStatsAndKeys) {
  RingCache ring(MakeNodes(3));
  for (int i = 0; i < 30; ++i) {
    (void)ring.Put("k" + std::to_string(i), MakeValue(std::string_view("v")));
  }
  for (int i = 0; i < 30; ++i) ring.Get("k" + std::to_string(i)).ok();
  ring.Get("missing").status();
  const CacheStats stats = ring.Stats();
  EXPECT_EQ(stats.puts, 30u);
  EXPECT_EQ(stats.hits, 30u);
  EXPECT_EQ(stats.misses, 1u);
  auto keys = ring.Keys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 30u);
}

// A node whose Get blocks until released: a stand-in for a stalled remote
// cache node.
class StallingCache : public LruCache {
 public:
  StallingCache() : LruCache(1u << 20), released_(release_.get_future()) {}

  StatusOr<ValuePtr> Get(const std::string& key) override {
    entered_.set_value();
    released_.wait();
    return LruCache::Get(key);
  }

  void WaitEntered() { entered_future_.wait(); }
  void Release() { release_.set_value(); }

 private:
  std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::promise<void> release_;
  std::shared_future<void> released_;
};

TEST(RingCacheTest, StalledNodeDoesNotDelayOtherNodes) {
  auto stalled = std::make_shared<StallingCache>();
  std::vector<RingCache::Node> nodes;
  nodes.push_back({"stalled", stalled});
  nodes.push_back({"healthy", std::make_shared<LruCache>(1u << 20)});
  RingCache ring(std::move(nodes));
  std::string stalled_key;
  std::string healthy_key;
  for (int i = 0; stalled_key.empty() || healthy_key.empty(); ++i) {
    const std::string key = "k" + std::to_string(i);
    (ring.NodeFor(key) == "stalled" ? stalled_key : healthy_key) = key;
  }
  ASSERT_TRUE(ring.Put(healthy_key, MakeValue(std::string_view("v"))).ok());

  auto blocked =
      std::async(std::launch::async, [&] { return ring.Get(stalled_key); });
  stalled->WaitEntered();
  // The stalled node holds one Get; a Get routed elsewhere must finish.
  auto healthy =
      std::async(std::launch::async, [&] { return ring.Get(healthy_key); });
  const bool finished = healthy.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  stalled->Release();
  EXPECT_TRUE(finished) << "a stalled node delayed a get on another node";
  EXPECT_TRUE(healthy.get().ok());
  EXPECT_TRUE(blocked.get().status().IsNotFound());
}

}  // namespace
}  // namespace dstore
