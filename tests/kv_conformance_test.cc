// Conformance suite run against EVERY KeyValueStore implementation — the
// point of the paper's common key-value interface is that all stores behave
// identically behind it, so one parameterized suite covers file system, SQL,
// cloud, remote-cache, and memory stores.

#include <filesystem>
#include <functional>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "admit/admit_store.h"
#include "admit/limiter.h"
#include "admit/token_bucket.h"
#include "cache/expiring_cache.h"
#include "cache/lru_cache.h"
#include "common/clock.h"
#include "common/random.h"
#include "counting_store.h"
#include "dscl/enhanced_store.h"
#include "dscl/invalidation.h"
#include "fault/fault_store.h"
#include "net/latency_model.h"
#include "store/cloud_client.h"
#include "store/cloud_server.h"
#include "store/file_store.h"
#include "store/key_value.h"
#include "store/lsm/lsm_store.h"
#include "shard/sharded_store.h"
#include "store/memory_store.h"
#include "store/overhead_store.h"
#include "store/remote_cache.h"
#include "store/resilient_store.h"
#include "replica/placement.h"
#include "replica/replicated_store.h"
#include "udsm/monitor.h"
#include "store/sql_client.h"
#include "store/sql_server.h"

namespace dstore {
namespace {

// Holds a store plus whatever server machinery keeps it alive.
struct StoreFixture {
  std::shared_ptr<KeyValueStore> store;
  std::function<void()> teardown;
};

using FixtureFactory = StoreFixture (*)();

StoreFixture MakeMemoryFixture() {
  return {std::make_unique<MemoryStore>(), [] {}};
}

// A fresh per-process directory, and the teardown that removes it.
std::filesystem::path ScratchDir(const std::string& tag) {
  static int counter = 0;
  return std::filesystem::temp_directory_path() /
         ("dstore_kv_conformance_" + tag + std::to_string(::getpid()) + "_" +
          std::to_string(counter++));
}

std::function<void()> RemoveDir(const std::filesystem::path& root) {
  return [root] {
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  };
}

StoreFixture MakeFileFixture() {
  const auto root = ScratchDir("");
  auto store = FileStore::Open(root);
  EXPECT_TRUE(store.ok());
  return {*std::move(store), RemoveDir(root)};
}

// Small memtable so the conformance workload (1 MiB values) actually
// exercises flushes and L0 reads, not just the memtable.
std::unique_ptr<lsm::LsmStore> OpenLsmAt(const std::filesystem::path& root) {
  lsm::LsmOptions options;
  options.memtable_bytes = 256u << 10;
  auto store = lsm::LsmStore::Open(root, options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.ok() ? *std::move(store) : nullptr;
}

StoreFixture MakeLsmFixture() {
  const auto root = ScratchDir("lsm_");
  return {OpenLsmAt(root), RemoveDir(root)};
}

// ShardedStore over three LsmStore shards: routing must compose with a
// real persistent backend, not just MemoryStore.
StoreFixture MakeShardedLsmFixture() {
  const auto root = ScratchDir("lsm_shards_");
  ShardedStore::ShardList shards;
  for (int i = 0; i < 3; ++i) {
    shards.emplace_back(
        "lsm" + std::to_string(i),
        std::shared_ptr<KeyValueStore>(
            OpenLsmAt(root / ("shard" + std::to_string(i)))));
  }
  return {std::make_unique<ShardedStore>(std::move(shards)), RemoveDir(root)};
}

StoreFixture MakeSqlFixture() {
  auto server = SqlServer::Start("");
  EXPECT_TRUE(server.ok());
  auto client = SqlClient::Connect("127.0.0.1", (*server)->port());
  EXPECT_TRUE(client.ok());
  auto shared_server = std::shared_ptr<SqlServer>(std::move(*server));
  return {*std::move(client), [shared_server] { shared_server->Stop(); }};
}

StoreFixture MakeCloudFixture() {
  auto server = CloudStoreServer::Start(std::make_unique<NoLatency>());
  EXPECT_TRUE(server.ok());
  auto client = CloudStoreClient::Connect("127.0.0.1", (*server)->port());
  EXPECT_TRUE(client.ok());
  auto shared_server = std::shared_ptr<CloudStoreServer>(std::move(*server));
  return {*std::move(client), [shared_server] { shared_server->Stop(); }};
}

StoreFixture MakeRemoteCacheFixture() {
  auto server =
      RemoteCacheServer::Start(std::make_unique<LruCache>(64u << 20));
  EXPECT_TRUE(server.ok());
  auto conn = RemoteCacheConnection::Connect("127.0.0.1", (*server)->port());
  EXPECT_TRUE(conn.ok());
  auto shared_server = std::shared_ptr<RemoteCacheServer>(std::move(*server));
  return {std::make_unique<RemoteCacheStore>(*conn),
          [shared_server] { shared_server->Stop(); }};
}

// Every decorator, configured so it never changes an answer (a probability-0
// fault plan, admission that never sheds, a 0 ns overhead, ...), must be
// behaviour-identical to the bare store: the suite runs again over each.
using StorePtr = std::shared_ptr<KeyValueStore>;
using Wrapper = StorePtr (*)(StorePtr);

StorePtr WrapFault0(StorePtr s) {
  auto plan = std::make_shared<fault::FaultPlan>(1);
  plan->AddRule(*fault::FaultRule::Parse("site=store p=0.0"));
  return std::make_shared<FaultInjectingStore>(s, plan);
}

StorePtr WrapBreaker(StorePtr s) {
  admit::CircuitBreaker::Options never_trips;
  never_trips.failure_threshold = 1 << 30;
  return std::make_shared<admit::CircuitBreakerStore>(s, never_trips);
}

StorePtr WrapAdmit(StorePtr s) {
  admit::AdmittingStore::Options options;
  options.limiter = std::make_shared<admit::AdaptiveLimiter>(
      admit::AdaptiveLimiter::Options{
          .initial_limit = 1e6, .min_limit = 1e6, .max_limit = 1e6});
  options.rate_limiter = std::make_shared<admit::TokenBucket>(
      admit::TokenBucket::Options{1e9, 1e9});
  return WrapBreaker(std::make_shared<admit::AdmittingStore>(s, options));
}

StorePtr WrapRetry(StorePtr s) { return std::make_shared<RetryingStore>(s); }

StorePtr WrapMonitor(StorePtr s) {
  return std::make_shared<MonitoredStore>(
      s, std::make_shared<PerformanceMonitor>(16, nullptr));
}

StorePtr WrapOverhead0(StorePtr s) {
  return std::make_shared<OverheadStore>(s, OverheadStore::Overheads());
}

StorePtr WrapInval(StorePtr s) {
  return std::make_shared<InvalidatingStore>(
      s, std::make_shared<InvalidationBus>());
}

template <FixtureFactory kBase, Wrapper kWrap>
StoreFixture Wrapped() {
  StoreFixture base = kBase();
  return {kWrap(base.store), base.teardown};
}

// ShardedStore over k memory shards must satisfy the same contract as any
// single store — routing and scatter-gather are invisible to clients.
template <int kShards>
StoreFixture MakeShardedMemoryFixture() {
  ShardedStore::ShardList shards;
  for (int i = 0; i < kShards; ++i) {
    shards.emplace_back("m" + std::to_string(i),
                        std::make_shared<MemoryStore>());
  }
  return {std::make_unique<ShardedStore>(std::move(shards)), [] {}};
}

// A 3-replica primary-backup group over memory backends (W=2, R=2): the
// replication layer must be behaviour-identical to a bare store.
StoreFixture MakeReplicated3Fixture() {
  std::vector<replica::ReplicatedStore::Backend> backends;
  for (int i = 0; i < 3; ++i) {
    backends.push_back(
        {"r" + std::to_string(i), std::make_shared<MemoryStore>()});
  }
  replica::ReplicaGroup::Options options;
  options.name = "conformance";
  auto store = replica::ReplicatedStore::Create(std::move(backends), options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return {*store, [] {}};
}

// The paper's cross-store replication: one group (W=2, R=2) whose replicas
// are three different engines, including the LSM the composed stack serves.
StoreFixture MakeReplicated3MixedFixture() {
  const auto root = ScratchDir("mixed_");
  auto file = FileStore::Open(root / "file");
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  std::vector<replica::ReplicatedStore::Backend> backends = {
      {"memory", std::make_shared<MemoryStore>()},
      {"file", *std::move(file)},
      {"lsm", OpenLsmAt(root / "lsm")}};
  replica::ReplicaGroup::Options options;
  options.name = "conformance-mixed";
  auto store = replica::ReplicatedStore::Create(std::move(backends), options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return {*store, RemoveDir(root)};
}

// The paper-shaped topology: a sharded store whose shards are replica
// groups placed on distinct nodes by the ring's successor lists.
StoreFixture MakeShardedReplicatedFixture() {
  replica::ReplicatedRingOptions options;
  options.nodes = {"n0", "n1", "n2", "n3"};
  options.groups = 3;
  options.replication_factor = 3;
  options.group.name = "conf-ring";
  options.backend_factory = [](const std::string&, const std::string&) {
    return std::make_shared<MemoryStore>();
  };
  auto store = replica::BuildReplicatedRing(options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return {*store, [] {}};
}

struct Param {
  const char* name;
  FixtureFactory factory;
};

class KvConformanceTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    fixture_ = GetParam().factory();
    ASSERT_NE(fixture_.store, nullptr);
    ASSERT_TRUE(fixture_.store->Clear().ok());
  }
  void TearDown() override {
    if (fixture_.store) fixture_.store->Clear().ok();
    if (fixture_.teardown) fixture_.teardown();
  }

  KeyValueStore& store() { return *fixture_.store; }

  StoreFixture fixture_;
};

TEST_P(KvConformanceTest, PutThenGet) {
  ASSERT_TRUE(store().PutString("key", "value").ok());
  auto got = store().GetString("key");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "value");
}

TEST_P(KvConformanceTest, GetMissingIsNotFound) {
  EXPECT_TRUE(store().Get("missing").status().IsNotFound());
}

TEST_P(KvConformanceTest, PutOverwrites) {
  (void)store().PutString("key", "v1");
  (void)store().PutString("key", "v2");
  EXPECT_EQ(*store().GetString("key"), "v2");
}

TEST_P(KvConformanceTest, DeleteThenGetIsNotFound) {
  (void)store().PutString("key", "v");
  ASSERT_TRUE(store().Delete("key").ok());
  EXPECT_TRUE(store().Get("key").status().IsNotFound());
}

TEST_P(KvConformanceTest, DeleteMissingIsOk) {
  EXPECT_TRUE(store().Delete("never-existed").ok());
}

TEST_P(KvConformanceTest, ContainsReflectsState) {
  EXPECT_FALSE(*store().Contains("key"));
  (void)store().PutString("key", "v");
  EXPECT_TRUE(*store().Contains("key"));
  (void)store().Delete("key");
  EXPECT_FALSE(*store().Contains("key"));
}

TEST_P(KvConformanceTest, CountTracksEntries) {
  EXPECT_EQ(*store().Count(), 0u);
  for (int i = 0; i < 5; ++i) {
    (void)store().PutString("key" + std::to_string(i), "v");
  }
  EXPECT_EQ(*store().Count(), 5u);
  (void)store().Delete("key0");
  EXPECT_EQ(*store().Count(), 4u);
}

TEST_P(KvConformanceTest, ClearEmptiesStore) {
  for (int i = 0; i < 5; ++i) {
    (void)store().PutString("key" + std::to_string(i), "v");
  }
  ASSERT_TRUE(store().Clear().ok());
  EXPECT_EQ(*store().Count(), 0u);
}

TEST_P(KvConformanceTest, ListKeysReturnsAll) {
  std::set<std::string> expected;
  for (int i = 0; i < 7; ++i) {
    const std::string key = "k" + std::to_string(i);
    (void)store().PutString(key, "v");
    expected.insert(key);
  }
  auto keys = store().ListKeys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(std::set<std::string>(keys->begin(), keys->end()), expected);
}

TEST_P(KvConformanceTest, BinaryValuesSurvive) {
  Random rng(5);
  const Bytes value = rng.RandomBytes(4096);
  ASSERT_TRUE(store().Put("bin", MakeValue(Bytes(value))).ok());
  auto got = store().Get("bin");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, value);
}

TEST_P(KvConformanceTest, AwkwardKeysSurvive) {
  // Keys with path separators, spaces, quotes, and non-ASCII bytes must be
  // handled by every backend (hex in file names / paths, escaping in SQL).
  const std::vector<std::string> keys = {
      "a/b/c", "with space", "quote'quote", "semi;colon",
      std::string("nul\0byte", 8), "uni\xc3\xa9"};
  for (const auto& key : keys) {
    ASSERT_TRUE(store().PutString(key, "v:" + key).ok()) << key;
  }
  for (const auto& key : keys) {
    auto got = store().GetString(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, "v:" + key);
  }
}

TEST_P(KvConformanceTest, EmptyValueAllowed) {
  ASSERT_TRUE(store().Put("empty", MakeValue(Bytes{})).ok());
  auto got = store().Get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE((*got)->empty());
}

TEST_P(KvConformanceTest, LargeValueRoundTrips) {
  Random rng(17);
  const Bytes value = rng.CompressibleBytes(1 << 20, 0.5);  // 1 MiB
  ASSERT_TRUE(store().Put("large", MakeValue(Bytes(value))).ok());
  auto got = store().Get("large");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, value);
}

TEST_P(KvConformanceTest, NullValueRejected) {
  EXPECT_TRUE(store().Put("key", nullptr).IsInvalidArgument());
}

TEST_P(KvConformanceTest, MultiGetMatchesIndividualGets) {
  (void)store().PutString("m1", "v1");
  (void)store().PutString("m3", "v3");
  auto results = store().MultiGet({"m1", "m2", "m3"});
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(ToString(**results[0]), "v1");
  EXPECT_TRUE(results[1].status().IsNotFound());
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(ToString(**results[2]), "v3");
}

TEST_P(KvConformanceTest, MultiPutVisibleToGets) {
  ASSERT_TRUE(store()
                  .MultiPut({{"b1", MakeValue(std::string_view("x"))},
                             {"b2", MakeValue(std::string_view("y"))}})
                  .ok());
  EXPECT_EQ(*store().GetString("b1"), "x");
  EXPECT_EQ(*store().GetString("b2"), "y");
}

TEST_P(KvConformanceTest, GetIfChangedRevalidates) {
  (void)store().PutString("key", "version-1");
  auto first = store().GetIfChanged("key", "");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->not_modified);
  ASSERT_NE(first->value, nullptr);
  EXPECT_FALSE(first->etag.empty());

  // Same version: revalidation confirms without a body.
  auto second = store().GetIfChanged("key", first->etag);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->not_modified);

  // New version: full value returned with a new etag.
  (void)store().PutString("key", "version-2");
  auto third = store().GetIfChanged("key", first->etag);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->not_modified);
  EXPECT_EQ(ToString(*third->value), "version-2");
  EXPECT_NE(third->etag, first->etag);
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, KvConformanceTest,
    ::testing::Values(
        Param{"memory", &MakeMemoryFixture},
        Param{"file", &MakeFileFixture},
        Param{"lsm", &MakeLsmFixture},
        Param{"sql", &MakeSqlFixture},
        Param{"cloud", &MakeCloudFixture},
        Param{"rediscache", &MakeRemoteCacheFixture},
        Param{"memory_fault0", &Wrapped<&MakeMemoryFixture, &WrapFault0>},
        Param{"file_fault0", &Wrapped<&MakeFileFixture, &WrapFault0>},
        Param{"lsm_fault0", &Wrapped<&MakeLsmFixture, &WrapFault0>},
        Param{"sql_fault0", &Wrapped<&MakeSqlFixture, &WrapFault0>},
        Param{"cloud_fault0", &Wrapped<&MakeCloudFixture, &WrapFault0>},
        Param{"rediscache_fault0",
              &Wrapped<&MakeRemoteCacheFixture, &WrapFault0>},
        Param{"shard1", &MakeShardedMemoryFixture<1>},
        Param{"shard3", &MakeShardedMemoryFixture<3>},
        Param{"shard8", &MakeShardedMemoryFixture<8>},
        Param{"shard3_lsm", &MakeShardedLsmFixture},
        Param{"shard3_fault0",
              &Wrapped<&MakeShardedMemoryFixture<3>, &WrapFault0>},
        Param{"replicated3", &MakeReplicated3Fixture},
        Param{"replicated3_mixed", &MakeReplicated3MixedFixture},
        Param{"replicated3_fault0",
              &Wrapped<&MakeReplicated3Fixture, &WrapFault0>},
        Param{"shard3_replicated", &MakeShardedReplicatedFixture},
        Param{"memory_admit", &Wrapped<&MakeMemoryFixture, &WrapAdmit>},
        Param{"cloud_admit", &Wrapped<&MakeCloudFixture, &WrapAdmit>},
        Param{"shard3_admit",
              &Wrapped<&MakeShardedMemoryFixture<3>, &WrapAdmit>},
        Param{"memory_retry", &Wrapped<&MakeMemoryFixture, &WrapRetry>},
        Param{"memory_breaker", &Wrapped<&MakeMemoryFixture, &WrapBreaker>},
        Param{"memory_monitor", &Wrapped<&MakeMemoryFixture, &WrapMonitor>},
        Param{"memory_overhead0", &Wrapped<&MakeMemoryFixture, &WrapOverhead0>},
        Param{"memory_inval", &Wrapped<&MakeMemoryFixture, &WrapInval>}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return info.param.name;
    });

// Under every decorator, whole-store calls and revalidation reach the
// backend as one call of the same kind (never a per-key fallback), and
// batches still pass through the decorator's policy. Name() suffixes are
// part of the contract: metrics are labelled with them.
TEST(DecoratorForwardingTest, CallsReachTheBottomThroughEachPolicy) {
  const std::tuple<const char*, Wrapper, const char*> decorators[] = {
      {"fault0", &WrapFault0, "memory+fault"},
      {"admit", &WrapAdmit, "memory+admit+breaker"},
      {"retry", &WrapRetry, "memory+retry"},
      {"breaker", &WrapBreaker, "memory+breaker"},
      {"monitor", &WrapMonitor, "memory"},
      {"overhead0", &WrapOverhead0, "memory"},
      {"inval", &WrapInval, "memory+inval"}};
  const std::string etag = ComputeEtag(*MakeValue(std::string_view("v")));
  for (const auto& [label, wrap, name] : decorators) {
    SCOPED_TRACE(label);
    auto bottom = std::make_shared<CountingStore>();
    const StorePtr top = wrap(bottom);
    EXPECT_EQ(top->Name(), name);
    ASSERT_TRUE(top->PutString("k", "v").ok());
    const std::pair<std::string, std::function<Status()>> calls[] = {
        {"getifchanged", [&] { return top->GetIfChanged("k", etag).status(); }},
        {"contains", [&] { return top->Contains("k").status(); }},
        {"listkeys", [&] { return top->ListKeys().status(); }},
        {"count", [&] { return top->Count().status(); }},
        {"clear", [&] { return top->Clear(); }}};
    for (const auto& [kind, call] : calls) {
      bottom->calls.clear();
      ASSERT_TRUE(call().ok()) << kind;
      EXPECT_EQ(bottom->calls[kind], 1) << kind;
      EXPECT_EQ(bottom->calls["get"], 0) << kind;
    }
  }

  // Fault: a multiget rule fires once on the batch, which never reaches the
  // bottom.
  const std::vector<std::string> keys = {"a", "b", "c"};
  auto bottom = std::make_shared<CountingStore>();
  auto plan = std::make_shared<fault::FaultPlan>(1);
  plan->AddRule(*fault::FaultRule::Parse("site=store op=multiget"));
  for (const auto& result : FaultInjectingStore(bottom, plan).MultiGet(keys)) {
    EXPECT_TRUE(result.status().IsUnavailable());
  }
  EXPECT_EQ(plan->injected_total(), 1u);
  EXPECT_TRUE(bottom->calls.empty());

  // Invalidation: every MultiPut key is published.
  auto bus = std::make_shared<InvalidationBus>();
  std::vector<std::string> published;
  bus->Subscribe([&](const std::string& key) { published.push_back(key); });
  std::vector<std::pair<std::string, ValuePtr>> entries;
  for (const auto& key : keys) entries.emplace_back(key, MakeValue(Bytes{}));
  ASSERT_TRUE(InvalidatingStore(bottom, bus).MultiPut(entries).ok());
  EXPECT_EQ(published, keys);

  // Admission: a two-token bucket admits two keys and sheds the third.
  admit::AdmittingStore::Options options;
  options.rate_limiter = std::make_shared<admit::TokenBucket>(
      admit::TokenBucket::Options{1e-9, 2});
  auto admitted = admit::AdmittingStore(bottom, options).MultiGet(keys);
  EXPECT_TRUE(admitted[1].ok());
  EXPECT_TRUE(admitted[2].status().IsOverloaded());

  // Breaker: two failing keys open it and the third is short-circuited.
  auto failing = std::make_shared<fault::FaultPlan>(1);
  failing->AddRule(*fault::FaultRule::Parse("site=store op=get"));
  admit::CircuitBreaker::Options breaker;
  breaker.failure_threshold = 2;
  auto broken = admit::CircuitBreakerStore(
                    std::make_shared<FaultInjectingStore>(bottom, failing),
                    breaker)
                    .MultiGet(keys);
  EXPECT_TRUE(broken[1].status().IsUnavailable());
  EXPECT_TRUE(broken[2].status().IsOverloaded());
}

// A hook that returns OK without running the call has no value to hand
// back: the call fails with Internal rather than reading an empty result.
class SkippingStore : public WrappingStore {
 public:
  SkippingStore() : WrappingStore(std::make_shared<MemoryStore>()) {}

 protected:
  Status Around(StoreOp, const OpCall&) override { return Status::OK(); }
};

TEST(DecoratorForwardingTest, AroundThatSkipsTheCallIsInternal) {
  SkippingStore store;
  EXPECT_TRUE(store.Get("k").status().IsInternal());
  EXPECT_TRUE(store.Put("k", MakeValue(Bytes{})).IsInternal());
}

// The paper's revalidation (Fig. 7) survives a retry layer: an expired
// EnhancedStore entry revalidates through RetryingStore, and the cloud
// server answers 304 instead of sending the value again.
TEST(DecoratorForwardingTest, EnhancedStoreRevalidatesThroughRetry) {
  StoreFixture cloud = MakeCloudFixture();
  auto bottom = std::make_shared<CountingStore>(cloud.store);
  SimulatedClock clock;
  EnhancedStore::Options options;
  options.cache_ttl_nanos = 1000;
  EnhancedStore store(std::make_shared<RetryingStore>(bottom),
                      std::make_shared<ExpiringCache>(
                          std::make_unique<LruCache>(1 << 20), &clock),
                      nullptr, options);
  ASSERT_TRUE(store.PutString("k", "v").ok());
  clock.Advance(2000);  // the cached entry expires
  bottom->calls.clear();
  EXPECT_EQ(*store.GetString("k"), "v");
  EXPECT_EQ(store.Stats().revalidations_saved, 1u);
  EXPECT_EQ(bottom->calls, (std::map<std::string, int>{{"getifchanged", 1}}));
  cloud.teardown();
}

}  // namespace
}  // namespace dstore
