// End-to-end integration tests: the full stack wired together the way the
// paper's deployment would run it — UDSM + enhanced clients + simulated
// cloud/SQL/remote-cache servers + async access + multi-store transactions.

#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "cache/lru_cache.h"
#include "common/random.h"
#include "dscl/enhanced_store.h"
#include "dscl/tiered_store.h"
#include "dscl/transformer.h"
#include "net/latency_model.h"
#include "replica/replicated_store.h"
#include "store/cloud_client.h"
#include "store/cloud_server.h"
#include "store/file_store.h"
#include "store/remote_cache.h"
#include "store/sql_client.h"
#include "store/sql_server.h"
#include "udsm/transaction.h"
#include "udsm/udsm.h"

namespace dstore {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = std::filesystem::temp_directory_path() /
                ("dstore_integration_" + std::to_string(::getpid()));
    std::filesystem::create_directories(temp_dir_);

    auto cloud_server = CloudStoreServer::Start(std::make_unique<NoLatency>());
    ASSERT_TRUE(cloud_server.ok());
    cloud_server_ = *std::move(cloud_server);

    auto sql_server = SqlServer::Start((temp_dir_ / "sql").string());
    ASSERT_TRUE(sql_server.ok());
    sql_server_ = *std::move(sql_server);

    auto cache_server =
        RemoteCacheServer::Start(std::make_unique<LruCache>(64u << 20));
    ASSERT_TRUE(cache_server.ok());
    cache_server_ = *std::move(cache_server);

    auto cloud = CloudStoreClient::Connect("127.0.0.1", cloud_server_->port());
    ASSERT_TRUE(cloud.ok());
    auto sql = SqlClient::Connect("127.0.0.1", sql_server_->port());
    ASSERT_TRUE(sql.ok());
    auto file = FileStore::Open(temp_dir_ / "files");
    ASSERT_TRUE(file.ok());

    ASSERT_TRUE(udsm_.RegisterStore(
        "cloud", std::shared_ptr<KeyValueStore>(std::move(*cloud))).ok());
    ASSERT_TRUE(udsm_.RegisterStore(
        "sql", std::shared_ptr<KeyValueStore>(std::move(*sql))).ok());
    ASSERT_TRUE(udsm_.RegisterStore(
        "file", std::shared_ptr<KeyValueStore>(std::move(*file))).ok());
  }

  void TearDown() override {
    cloud_server_->Stop();
    sql_server_->Stop();
    cache_server_->Stop();
    std::error_code ec;
    std::filesystem::remove_all(temp_dir_, ec);
  }

  std::filesystem::path temp_dir_;
  std::unique_ptr<CloudStoreServer> cloud_server_;
  std::unique_ptr<SqlServer> sql_server_;
  std::unique_ptr<RemoteCacheServer> cache_server_;
  Udsm udsm_;
};

TEST_F(IntegrationTest, SameCodeRunsAgainstEveryStore) {
  Random rng(1);
  for (const std::string& name : udsm_.StoreNames()) {
    KeyValueStore* store = udsm_.GetStore(name);
    ASSERT_NE(store, nullptr);
    const Bytes payload = rng.CompressibleBytes(20000, 0.4);
    ASSERT_TRUE(store->Put("doc", MakeValue(Bytes(payload))).ok()) << name;
    auto got = store->Get("doc");
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(**got, payload) << name;
    ASSERT_TRUE(store->Delete("doc").ok()) << name;
  }
}

TEST_F(IntegrationTest, EnhancedCloudClientFullPipeline) {
  // Cloud store + remote-process cache + compression + encryption, all at
  // once — the maximal enhanced client.
  auto conn = RemoteCacheConnection::Connect("127.0.0.1",
                                             cache_server_->port());
  ASSERT_TRUE(conn.ok());
  auto cache = std::make_shared<ExpiringCache>(
      std::make_unique<RemoteCache>(*conn), RealClock::Default());

  auto chain = MakeStandardChain(
      std::make_unique<GzipCodec>(),
      std::move(AesCbcCipher::MakeWithSeed(Bytes(16, 7), 3)).value());
  ASSERT_TRUE(chain.ok());

  EnhancedStore::Options options;
  options.cache_encoded = true;  // ciphertext at rest in the remote cache
  EnhancedStore store(udsm_.GetStoreShared("cloud"), cache, *chain, options);

  Random rng(2);
  const Bytes secret = rng.CompressibleBytes(50000, 0.7);
  ASSERT_TRUE(store.Put("secret", MakeValue(Bytes(secret))).ok());

  // Round trip through cache hit path and through a cold client.
  auto hit = store.Get("secret");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(**hit, secret);
  EXPECT_EQ(store.Stats().cache_hits, 1u);

  EnhancedStore cold(udsm_.GetStoreShared("cloud"), nullptr, *chain, {});
  auto cold_read = cold.Get("secret");
  ASSERT_TRUE(cold_read.ok());
  EXPECT_EQ(**cold_read, secret);

  // The cloud server holds neither plaintext nor anything decryptable.
  auto raw = udsm_.GetStore("cloud")->Get("secret");
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(**raw, secret);
  EXPECT_LT((*raw)->size(), secret.size());  // compressed before encryption
}

TEST_F(IntegrationTest, AsyncFanOutAcrossStores) {
  auto cloud = udsm_.GetAsyncStore("cloud");
  auto sql = udsm_.GetAsyncStore("sql");
  auto file = udsm_.GetAsyncStore("file");
  ASSERT_TRUE(cloud.ok());
  ASSERT_TRUE(sql.ok());
  ASSERT_TRUE(file.ok());

  // Write the same object to three stores concurrently.
  std::vector<ListenableFuture<Status>> writes;
  writes.push_back(cloud->PutAsync("obj", MakeValue(std::string_view("x"))));
  writes.push_back(sql->PutAsync("obj", MakeValue(std::string_view("x"))));
  writes.push_back(file->PutAsync("obj", MakeValue(std::string_view("x"))));
  for (auto& write : writes) {
    EXPECT_TRUE(write.Get().ok());
  }
  for (const std::string name : {"cloud", "sql", "file"}) {
    EXPECT_TRUE(*udsm_.GetStore(name)->Contains("obj")) << name;
  }
}

TEST_F(IntegrationTest, TransactionSpansCloudAndSql) {
  // Atomic transfer: debit in the SQL store, credit in the cloud store,
  // journaled in the file store.
  auto coordinator = udsm_.GetStoreShared("file");
  auto sql = udsm_.GetStoreShared("sql");
  auto cloud = udsm_.GetStoreShared("cloud");

  ASSERT_TRUE(sql->PutString("balance/alice", "100").ok());
  ASSERT_TRUE(cloud->PutString("balance/bob", "50").ok());

  MultiStoreTransaction txn(coordinator, MakeTransactionId());
  txn.Put(sql, "sql", "balance/alice", MakeValue(std::string_view("70")));
  txn.Put(cloud, "cloud", "balance/bob", MakeValue(std::string_view("80")));
  ASSERT_TRUE(txn.Commit().ok());

  EXPECT_EQ(*sql->GetString("balance/alice"), "70");
  EXPECT_EQ(*cloud->GetString("balance/bob"), "80");
  // Journal fully cleaned up in the durable coordinator.
  auto keys = coordinator->ListKeys();
  ASSERT_TRUE(keys.ok());
  for (const auto& key : *keys) {
    EXPECT_FALSE(MultiStoreTransaction::IsInternalKey(key)) << key;
  }
}

TEST_F(IntegrationTest, ReplicateAcrossHeterogeneousStores) {
  replica::ReplicaGroup::Options options;
  options.name = "integration";
  options.write_quorum = 3;  // write concern "all"
  auto replicated = replica::ReplicatedStore::Create(
      {{"file", udsm_.GetStoreShared("file")},
       {"sql", udsm_.GetStoreShared("sql")},
       {"cloud", udsm_.GetStoreShared("cloud")}},
      options);
  ASSERT_TRUE(replicated.ok()) << replicated.status().ToString();
  replica::ReplicaGroup* group = (*replicated)->group();
  ASSERT_TRUE((*replicated)->PutString("replicated", "everywhere").ok());
  ASSERT_TRUE(group->WaitForReplication().ok());

  for (const std::string name : {"file", "sql", "cloud"}) {
    EXPECT_EQ(*udsm_.GetStore(name)->GetString("replicated"), "everywhere")
        << name;
  }

  // Corrupt one replica behind the group's back; anti-entropy repairs it
  // from the primary.
  (void)udsm_.GetStore("sql")->PutString("replicated", "corrupted");
  auto repair = group->RepairPass();
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_GE(repair->keys_repaired, 1u);
  EXPECT_EQ(*udsm_.GetStore("sql")->GetString("replicated"), "everywhere");
}

TEST_F(IntegrationTest, TieredCloudOverSqlThroughCommonInterface) {
  // The paper's third caching approach across real client/server stores:
  // the SQL store acts as a (local, durable) cache for the cloud store.
  TieredStore tiered(udsm_.GetStoreShared("sql"),
                     udsm_.GetStoreShared("cloud"));
  ASSERT_TRUE(tiered.PutString("cfg", "v1").ok());
  EXPECT_EQ(*tiered.GetString("cfg"), "v1");
  EXPECT_GE(tiered.GetStats().front_hits, 1u);
  // Both tiers hold the value.
  EXPECT_TRUE(*udsm_.GetStore("sql")->Contains("cfg"));
  EXPECT_TRUE(*udsm_.GetStore("cloud")->Contains("cfg"));
}

TEST_F(IntegrationTest, SqlNativeInterfaceCoexistsWithKv) {
  SqlClient* native = udsm_.GetNative<SqlClient>("sql");
  // The UDSM wraps stores in monitors; the raw client is still reachable.
  ASSERT_NE(native, nullptr);
  ASSERT_TRUE(native
                  ->Execute("CREATE TABLE events (id INTEGER PRIMARY KEY, "
                            "kind TEXT)")
                  .ok());
  ASSERT_TRUE(native->Execute("INSERT INTO events VALUES (1, 'login')").ok());
  auto result = native->Execute("SELECT kind FROM events WHERE id = 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsText(), "login");
  // Meanwhile the KV interface on the same server still works.
  EXPECT_TRUE(udsm_.GetStore("sql")->PutString("kv-key", "kv-val").ok());
}

TEST_F(IntegrationTest, MonitorSeesTrafficFromAllStores) {
  for (const std::string& name : udsm_.StoreNames()) {
    (void)udsm_.GetStore(name)->PutString("m", "1");
    (void)udsm_.GetStore(name)->GetString("m");
  }
  const auto tracked = udsm_.monitor()->Tracked();
  // 3 stores x at least {put,get}.
  EXPECT_GE(tracked.size(), 6u);
  EXPECT_GE(udsm_.monitor()->Summary("cloud", "get").count, 1u);
  // Persist monitoring data into one of the stores, as the paper describes.
  ASSERT_TRUE(
      udsm_.monitor()->SaveTo(udsm_.GetStore("file"), "perf-snapshot").ok());
  PerformanceMonitor restored;
  ASSERT_TRUE(restored.LoadFrom(udsm_.GetStore("file"), "perf-snapshot").ok());
  EXPECT_GE(restored.Summary("cloud", "get").count, 1u);
}

TEST_F(IntegrationTest, ConcurrentMixedWorkloadAcrossStores) {
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([this, t, &failures] {
      const std::string store_name =
          t % 3 == 0 ? "cloud" : (t % 3 == 1 ? "sql" : "file");
      KeyValueStore* store = udsm_.GetStore(store_name);
      for (int i = 0; i < 30; ++i) {
        const std::string key =
            "w" + std::to_string(t) + "_" + std::to_string(i);
        if (!store->PutString(key, key).ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto got = store->GetString(key);
        if (!got.ok() || *got != key) failures.fetch_add(1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace dstore
