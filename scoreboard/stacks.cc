#include "stacks.h"

#include <algorithm>
#include <mutex>
#include <thread>
#include <utility>

#include "admit/admit_store.h"
#include "cache/expiring_cache.h"
#include "cache/lru_cache.h"
#include "common/clock.h"
#include "compress/codec.h"
#include "crypto/cipher.h"
#include "dscl/enhanced_store.h"
#include "dscl/transformer.h"
#include "net/latency_model.h"
#include "obs/metrics.h"
#include "probe.h"
#include "replica/replicated_store.h"
#include "shard/sharded_store.h"
#include "store/cloud_client.h"
#include "store/cloud_server.h"
#include "store/lsm/lsm_store.h"
#include "store/resilient_store.h"

namespace scoreboard {
namespace {

using dstore::KeyValueStore;
using dstore::Status;
using dstore::StatusOr;
using dstore::ValuePtr;

constexpr int64_t kSecond = 1'000'000'000;

// Workload parameters. Nominal rates are a quarter to a third of each
// workload's slo_ops_per_s on an idle 4-CPU host, so that latency at the
// nominal rate measures the program rather than queueing even when other
// tenants of a shared host take a share of its CPUs.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;

    WorkloadSpec cloud;
    cloud.name = "cloud-read-mostly";
    cloud.stack =
        "EnhancedStore(write-through, ttl 0; shared ExpiringCache<LruCache>, "
        "gzip->aes-cbc) -> CloudStoreClient -> loopback TCP -> "
        "CloudStoreServer(async core, NoLatency)";
    cloud.cloud = true;
    cloud.load.keys = 4000;
    cloud.load.value_min = 1024;
    cloud.load.value_max = 4096;
    cloud.load.redundancy = 0.5;
    cloud.load.put_share = 0.05;
    cloud.nominal_rate = 2000;
    cloud.slo_p99_us = 10000;
    cloud.failed_limit = 0.001;
    cloud.cache_bytes = 2u << 20;  // ~800 of the ~4000 values
    cloud.flush_policy = "in-memory server; no disk writes";
    out.push_back(cloud);

    WorkloadSpec update;
    update.name = "stack-update-heavy";
    update.stack =
        "admit -> breaker -> retry -> shard:3 -> replica:3/2 (read repair, "
        "durable group log) -> lsm";
    update.load.keys = 6000;
    update.load.value_min = 1024;
    update.load.value_max = 1024;
    update.load.put_share = 0.5;
    update.nominal_rate = 600;
    update.slo_p99_us = 20000;
    update.failed_limit = 0.001;
    update.deadline_ns = 2 * kSecond;
    update.memtable_bytes = 256u << 10;
    update.cache_bytes = 512u << 10;
    update.flush_policy =
        "lsm sync_writes=true (WAL group fsync per write), replica group "
        "log fsync per append; memtable 256 KiB, block cache 512 KiB";
    out.push_back(update);

    WorkloadSpec batch;
    batch.name = "stack-read-batch";
    batch.stack = update.stack;
    batch.load.keys = 10000;
    batch.load.value_min = 1024;
    batch.load.value_max = 1024;
    batch.load.put_share = 0.05;
    batch.load.multiget_share = 0.475;
    batch.nominal_rate = 4000;
    batch.slo_p99_us = 10000;
    batch.failed_limit = 0.001;
    batch.deadline_ns = 2 * kSecond;
    // The data fits the default 8 MiB block cache; the small memtable makes
    // the 5% of Puts flush and compact inside the window, so the LSM's
    // write path and L0 lookups are measured here too.
    batch.memtable_bytes = 128u << 10;
    batch.flush_policy =
        "lsm sync_writes=true (WAL group fsync per write), replica group "
        "log fsync per append; memtable 128 KiB, default block cache";
    out.push_back(batch);
    return out;
  }();
  return specs;
}

// Sums every instrument of one registry family: counter/gauge values, or
// a histogram's sum and count.
struct FamilyTotal {
  double value = 0;
  double sum = 0;
  double count = 0;
};
std::map<std::string, FamilyTotal> RegistryTotals() {
  std::map<std::string, FamilyTotal> out;
  for (const auto& family : dstore::obs::MetricsRegistry::Default()->Snapshot()) {
    FamilyTotal& total = out[family.name];
    for (const auto& inst : family.instruments) {
      total.value += inst.value;
      total.sum += inst.sum;
      total.count += static_cast<double>(inst.count);
    }
  }
  return out;
}

uint64_t DirBytes(const std::filesystem::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// Reads keys [0, n) on `threads` threads with read(key) and checks each.
template <typename ReadFn>
std::string CheckEveryKey(const Oracle& oracle, int threads, ReadFn read,
                          uint64_t* checked) {
  std::mutex mu;
  std::string first;
  std::atomic<uint64_t> count{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (uint32_t k = t; k < oracle.keys(); k += threads) {
        const uint32_t floor = oracle.Acked(k);
        const StatusOr<ValuePtr> value = read(t, k);
        std::string bad;
        if (!value.ok() && !value.status().IsNotFound()) {
          bad = KeyName(k) + ": final read failed: " +
                value.status().ToString();
        } else {
          bad = oracle.CheckRead(k, floor, value);
        }
        count.fetch_add(1);
        if (!bad.empty()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first.empty()) first = bad;
          return;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  *checked = count.load();
  return first;
}

// --- cloud-read-mostly ------------------------------------------------------

class CloudStack : public Stack {
 public:
  std::vector<KeyValueStore*> Stores() override {
    std::vector<KeyValueStore*> out;
    for (auto& top : tops_) out.push_back(top.get());
    return out;
  }

  std::string VerifyAll(const Oracle& oracle, int threads,
                        uint64_t* checked) override {
    // Fresh clients and no cache: every value comes from the server and
    // back through the transform chain.
    std::vector<std::shared_ptr<KeyValueStore>> readers;
    for (int t = 0; t < threads; ++t) {
      auto client = dstore::CloudStoreClient::Connect("127.0.0.1", port_);
      if (!client.ok()) return "verify connect: " + client.status().ToString();
      readers.push_back(std::make_shared<dstore::EnhancedStore>(
          std::shared_ptr<KeyValueStore>(std::move(*client)), nullptr, chain_,
          dstore::EnhancedStore::Options()));
    }
    return CheckEveryKey(
        oracle, threads,
        [&](int t, uint32_t k) { return readers[t]->Get(KeyName(k)); },
        checked);
  }

  std::map<std::string, double> Counters() override {
    std::map<std::string, double> out;
    for (auto& store : enhanced_) {
      const auto stats = store->Stats();
      out["dscl.hits"] += stats.cache_hits;
      out["dscl.misses"] += stats.cache_misses;
    }
    const dstore::CacheStats cache = cache_->Stats();
    out["cache.evictions"] = cache.evictions;
    const auto totals = RegistryTotals();
    auto get = [&totals](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() ? FamilyTotal() : it->second;
    };
    out["server.request_ms.sum"] = get("dstore_cloud_request_ms").sum;
    out["server.request_ms.count"] = get("dstore_cloud_request_ms").count;
    out["admit.queue_wait_ms.sum"] = get("dstore_admit_queue_wait_ms").sum;
    out["admit.queue_wait_ms.count"] = get("dstore_admit_queue_wait_ms").count;
    out["admit.server_shed"] = get("dstore_admit_queue_shed_total").value;
    return out;
  }

  std::map<std::string, double> Gauges() override { return {}; }
  uint64_t DiskBytes() override { return 0; }

  std::pair<uint64_t, uint64_t> CompressBytes() override {
    if (compress_probe_ == nullptr) return {0, 0};
    return {compress_probe_->apply_bytes_in(),
            compress_probe_->apply_bytes_out()};
  }

  // Declared first: destroyed after every client.
  std::unique_ptr<dstore::CloudStoreServer> server_;
  uint16_t port_ = 0;
  std::shared_ptr<dstore::ExpiringCache> cache_;
  std::shared_ptr<dstore::TransformChain> chain_;
  ProbeTransformer* compress_probe_ = nullptr;  // owned by chain_
  std::vector<std::shared_ptr<dstore::EnhancedStore>> enhanced_;
  std::vector<std::shared_ptr<KeyValueStore>> tops_;
};

std::unique_ptr<Stack> BuildCloud(const WorkloadSpec& spec,
                                  const OpGenerator& generator, int workers,
                                  bool traced, Oracle* oracle,
                                  std::string* error) {
  auto stack = std::make_unique<CloudStack>();
  auto server = dstore::CloudStoreServer::Start(
      std::make_unique<dstore::NoLatency>(), 0, {}, dstore::ServerCore::kAsync);
  if (!server.ok()) {
    *error = "cloud server: " + server.status().ToString();
    return nullptr;
  }
  stack->server_ = std::move(*server);
  stack->port_ = stack->server_->port();

  std::unique_ptr<dstore::Cache> lru =
      std::make_unique<dstore::LruCache>(spec.cache_bytes);
  if (traced) lru = std::make_unique<ProbeCache>(std::move(lru));
  stack->cache_ = std::make_shared<dstore::ExpiringCache>(
      std::move(lru), dstore::RealClock::Default());

  std::unique_ptr<dstore::ValueTransformer> gzip =
      std::make_unique<dstore::CompressionTransformer>(
          std::make_unique<dstore::GzipCodec>());
  auto cipher = dstore::AesCbcCipher::Make(dstore::ToBytes("scoreboard-key16"));
  if (!cipher.ok()) {
    *error = "cipher: " + cipher.status().ToString();
    return nullptr;
  }
  std::unique_ptr<dstore::ValueTransformer> aes =
      std::make_unique<dstore::EncryptionTransformer>(std::move(*cipher));
  if (traced) {
    auto probe = std::make_unique<ProbeTransformer>(Layer::kCompress,
                                                    std::move(gzip));
    stack->compress_probe_ = probe.get();
    gzip = std::move(probe);
    aes = std::make_unique<ProbeTransformer>(Layer::kCrypto, std::move(aes));
  }
  stack->chain_ = std::make_shared<dstore::TransformChain>();
  stack->chain_->Add(std::move(gzip));
  stack->chain_->Add(std::move(aes));

  dstore::EnhancedStore::Options options;
  options.cache_ttl_nanos = 0;
  options.write_policy = dstore::EnhancedStore::WritePolicy::kWriteThrough;
  for (int w = 0; w < workers; ++w) {
    auto client = dstore::CloudStoreClient::Connect("127.0.0.1", stack->port_);
    if (!client.ok()) {
      *error = "cloud client: " + client.status().ToString();
      return nullptr;
    }
    std::shared_ptr<KeyValueStore> base = std::move(*client);
    if (traced) base = std::make_shared<ProbeStore>(Layer::kCloud, w, base);
    auto enhanced = std::make_shared<dstore::EnhancedStore>(
        base, stack->cache_, stack->chain_, options);
    stack->enhanced_.push_back(enhanced);
    std::shared_ptr<KeyValueStore> top = enhanced;
    if (traced) top = std::make_shared<ProbeStore>(Layer::kDscl, w, top);
    stack->tops_.push_back(top);
  }

  // Preload through the DSCL, each worker writing the keys it owns.
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (uint32_t k = 0; k < spec.load.keys; ++k) {
        if (WorkerFor(k, workers) != w) continue;
        const Status status = stack->tops_[w]->Put(
            KeyName(k), dstore::MakeValue(generator.PreloadValue(k)));
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (error->empty()) *error = "preload: " + status.ToString();
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!error->empty()) return nullptr;
  for (uint32_t k = 0; k < spec.load.keys; ++k) {
    oracle->BeginPut(k, 1);
    oracle->AckPut(k, 1, static_cast<uint32_t>(generator.PreloadSize(k)));
  }
  return stack;
}

// --- stack-update-heavy / stack-read-batch ---------------------------------

constexpr int kShards = 3;
constexpr int kReplicas = 3;

// Preload sink: one shard's replicas, written directly (one WAL record and
// fsync per batch per replica) before the replica groups exist.
class ReplicaFanOut : public KeyValueStore {
 public:
  explicit ReplicaFanOut(std::vector<KeyValueStore*> replicas)
      : replicas_(std::move(replicas)) {}
  Status MultiPut(
      const std::vector<std::pair<std::string, ValuePtr>>& entries) override {
    for (KeyValueStore* replica : replicas_) {
      DSTORE_RETURN_IF_ERROR(replica->MultiPut(entries));
    }
    return Status::OK();
  }
  Status Put(const std::string& key, ValuePtr value) override {
    return MultiPut({{key, std::move(value)}});
  }
  StatusOr<ValuePtr> Get(const std::string&) override { return Unsupported(); }
  Status Delete(const std::string&) override { return Unsupported(); }
  StatusOr<bool> Contains(const std::string&) override {
    return Unsupported();
  }
  StatusOr<std::vector<std::string>> ListKeys() override {
    return Unsupported();
  }
  StatusOr<size_t> Count() override { return Unsupported(); }
  Status Clear() override { return Unsupported(); }
  std::string Name() const override { return "preload"; }

 private:
  static Status Unsupported() {
    return Status::NotSupported("preload sink is write-only");
  }
  std::vector<KeyValueStore*> replicas_;
};

dstore::ShardedStore::Options ShardOptions() {
  dstore::ShardedStore::Options options;
  options.name = "shard";
  options.seed = 1;
  return options;
}

class ComposedStack : public Stack {
 public:
  std::vector<KeyValueStore*> Stores() override {
    return std::vector<KeyValueStore*>(workers_, top_.get());
  }

  std::string VerifyAll(const Oracle& oracle, int threads,
                        uint64_t* checked) override {
    return CheckEveryKey(
        oracle, threads,
        [&](int, uint32_t k) { return sharded_->Get(KeyName(k)); }, checked);
  }

  std::map<std::string, double> Counters() override {
    std::map<std::string, double> out;
    const auto totals = RegistryTotals();
    auto value = [&totals](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.value;
    };
    out["admit.rejected"] = value("dstore_admit_deadline_expired_total") +
                            value("dstore_admit_late_total") +
                            value("dstore_admit_rate_limited_total") +
                            value("dstore_admit_breaker_shortcircuit_total");
    out["resilient.retries"] = value("dstore_retry_attempts_total");
    out["replica.read_repairs"] = value("dstore_replica_read_repair_total");
    for (auto& lsm : lsms_) {
      const dstore::lsm::LsmStats stats = lsm->GetStats();
      out["lsm.flushes"] += stats.flushes;
      out["lsm.compactions"] += stats.compactions;
      out["lsm.bloom_checks"] += stats.bloom_checks;
      out["lsm.bloom_negatives"] += stats.bloom_negatives;
    }
    return out;
  }

  std::map<std::string, double> Gauges() override {
    std::map<std::string, double> out;
    double lag = 0;
    for (auto& group : groups_) {
      for (const auto& replica : group->group()->GetStatus().replicas) {
        lag = std::max(lag, static_cast<double>(replica.lag));
      }
    }
    out["replica.lag_max"] = lag;
    double l0 = 0, debt = 0;
    for (auto& lsm : lsms_) {
      const dstore::lsm::LsmStats stats = lsm->GetStats();
      if (!stats.levels.empty()) {
        l0 = std::max(l0, static_cast<double>(stats.levels[0].files));
      }
      debt += stats.compaction_debt_bytes;
    }
    out["lsm.l0_files_max"] = l0;
    out["lsm.compaction_debt_mb"] = debt / (1 << 20);
    return out;
  }

  uint64_t DiskBytes() override { return DirBytes(dir_); }

  int workers_ = 1;
  std::filesystem::path dir_;
  // Declaration order is teardown order reversed: the decorators above go
  // first, the LSMs last.
  std::vector<std::shared_ptr<dstore::lsm::LsmStore>> lsms_;  // shard-major
  std::vector<std::shared_ptr<dstore::replica::ReplicatedStore>> groups_;
  std::shared_ptr<dstore::ShardedStore> sharded_;
  std::shared_ptr<KeyValueStore> top_;
};

std::unique_ptr<Stack> BuildComposed(const WorkloadSpec& spec,
                                     const OpGenerator& generator,
                                     const std::filesystem::path& dir,
                                     int workers, bool traced, Oracle* oracle,
                                     std::string* error) {
  auto stack = std::make_unique<ComposedStack>();
  stack->workers_ = workers;
  stack->dir_ = dir;

  dstore::lsm::LsmOptions lsm_options;  // sync_writes stays on
  if (spec.memtable_bytes > 0) lsm_options.memtable_bytes = spec.memtable_bytes;
  if (spec.cache_bytes > 0) lsm_options.block_cache_bytes = spec.cache_bytes;
  for (int s = 0; s < kShards; ++s) {
    for (int r = 0; r < kReplicas; ++r) {
      auto lsm = dstore::lsm::LsmStore::Open(
          dir / ("s" + std::to_string(s) + "r" + std::to_string(r)),
          lsm_options);
      if (!lsm.ok()) {
        *error = "lsm open: " + lsm.status().ToString();
        return nullptr;
      }
      stack->lsms_.push_back(std::move(*lsm));
    }
  }

  // Preload: route with a ShardedStore built exactly like the real one, so
  // each key lands on the replicas of the shard that will own it.
  {
    dstore::ShardedStore::ShardList sinks;
    for (int s = 0; s < kShards; ++s) {
      std::vector<KeyValueStore*> replicas;
      for (int r = 0; r < kReplicas; ++r) {
        replicas.push_back(stack->lsms_[s * kReplicas + r].get());
      }
      sinks.emplace_back("s" + std::to_string(s),
                         std::make_shared<ReplicaFanOut>(replicas));
    }
    dstore::ShardedStore router(std::move(sinks), ShardOptions());
    constexpr uint32_t kBatch = 256;
    for (uint32_t first = 0; first < spec.load.keys; first += kBatch) {
      std::vector<std::pair<std::string, ValuePtr>> batch;
      for (uint32_t k = first; k < std::min(spec.load.keys, first + kBatch);
           ++k) {
        batch.emplace_back(KeyName(k),
                           dstore::MakeValue(generator.PreloadValue(k)));
      }
      const Status status = router.MultiPut(batch);
      if (!status.ok()) {
        *error = "preload: " + status.ToString();
        return nullptr;
      }
    }
  }
  for (auto& lsm : stack->lsms_) {
    const Status status = lsm->CompactAll();
    if (!status.ok()) {
      *error = "settle compaction: " + status.ToString();
      return nullptr;
    }
  }
  for (uint32_t k = 0; k < spec.load.keys; ++k) {
    oracle->BeginPut(k, 1);
    oracle->AckPut(k, 1, static_cast<uint32_t>(generator.PreloadSize(k)));
  }

  dstore::ShardedStore::ShardList shards;
  for (int s = 0; s < kShards; ++s) {
    std::vector<dstore::replica::ReplicatedStore::Backend> backends;
    for (int r = 0; r < kReplicas; ++r) {
      std::shared_ptr<KeyValueStore> lsm = stack->lsms_[s * kReplicas + r];
      if (traced) {
        lsm = std::make_shared<ProbeStore>(Layer::kLsm, s * kReplicas + r, lsm);
      }
      backends.push_back({"r" + std::to_string(r), lsm});
    }
    dstore::replica::ReplicaGroup::Options options;
    options.name = "s" + std::to_string(s);
    options.write_quorum = 2;
    options.read_quorum = 2;
    options.read_repair = true;
    options.log_dir = dir / ("log-s" + std::to_string(s));
    auto group =
        dstore::replica::ReplicatedStore::Create(std::move(backends), options);
    if (!group.ok()) {
      *error = "replica group: " + group.status().ToString();
      return nullptr;
    }
    stack->groups_.push_back(*group);
    std::shared_ptr<KeyValueStore> shard = *group;
    if (traced) shard = std::make_shared<ProbeStore>(Layer::kReplica, s, shard);
    shards.emplace_back("s" + std::to_string(s), shard);
  }
  stack->sharded_ =
      std::make_shared<dstore::ShardedStore>(std::move(shards), ShardOptions());
  std::shared_ptr<KeyValueStore> top = stack->sharded_;
  if (traced) top = std::make_shared<ProbeStore>(Layer::kShard, 0, top);
  top = std::make_shared<dstore::RetryingStore>(top);
  if (traced) top = std::make_shared<ProbeStore>(Layer::kResilient, 0, top);
  top = std::make_shared<dstore::admit::CircuitBreakerStore>(top);
  top = std::make_shared<dstore::admit::AdmittingStore>(top);
  if (traced) top = std::make_shared<ProbeStore>(Layer::kAdmit, 0, top);
  stack->top_ = top;
  return stack;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec,
                                  const OpGenerator& generator,
                                  const std::filesystem::path& dir,
                                  int workers, bool traced, Oracle* oracle,
                                  std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "create " + dir.string() + ": " + ec.message();
    return nullptr;
  }
  if (spec.cloud) {
    return BuildCloud(spec, generator, workers, traced, oracle, error);
  }
  return BuildComposed(spec, generator, dir, workers, traced, oracle, error);
}

}  // namespace scoreboard
