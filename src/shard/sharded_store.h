#ifndef DSTORE_SHARD_SHARDED_STORE_H_
#define DSTORE_SHARD_SHARDED_STORE_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "shard/ring.h"
#include "store/key_value.h"

namespace dstore {

// ShardedStore partitions one keyspace over N backend stores using the
// consistent-hash ring in shard/ring.h. Any KeyValueStore can be a shard —
// memory, file, SQL client, cloud client, a replica::ReplicatedStore group,
// or any decorated stack of those — and the composite is itself a
// KeyValueStore, so it nests under monitoring, retries, and the UDSM
// registry like every other backend.
//
//  * Single-key operations route to the ring owner.
//  * MultiGet/MultiPut/ListKeys/Count scatter per-shard batches on a thread
//    pool and gather the results.
//  * AddShard/RemoveShard are online: a background migrator streams only
//    the keys whose ring ownership moved. While it runs, reads that miss at
//    the new owner are forwarded to the pre-resize owner, so no
//    acknowledged write is ever unobservable (the chaos suite pins this).
//  * Per-shard consecutive-transient-error streaks mark shards unhealthy;
//    forwarding-window reads prefer the old owner over a shard that is
//    currently failing.
//
// Thread-safe. Rebalance guarantee (see docs/udsm_guide.md §8): between the
// topology swap and migration completion, every key is observable at its
// new owner or — via forwarding — at its old one; writes during the window
// land at the new owner and win over any migrated copy.
class ShardedStore : public KeyValueStore {
 public:
  struct Options {
    std::string name = "shard";  // metrics label + Name() prefix
    size_t vnodes_per_shard = 64;
    uint64_t seed = 1;
    // Pool for scatter-gather fan-out. Not owned; pass the UDSM pool to
    // share threads. When null, the store owns a small private pool.
    ThreadPool* pool = nullptr;
    size_t scatter_threads = 4;  // private-pool size when pool == nullptr
    // Consecutive transient errors before a shard is considered unhealthy.
    int unhealthy_after = 3;
    // Optional fault plan consulted by the migrator at site "shard.migrator"
    // (ops: list, copy, cleanup) so chaos tests can break rebalancing.
    std::shared_ptr<fault::FaultPlan> fault_plan;
    Clock* clock = nullptr;  // defaults to RealClock
    // Sleep between migrator passes when shards keep erroring.
    int64_t migration_retry_backoff_nanos = 1'000'000;  // 1 ms
  };

  using ShardList =
      std::vector<std::pair<std::string, std::shared_ptr<KeyValueStore>>>;

  // `shards` is the initial topology (at least one shard for the store to
  // be usable; with zero shards every operation returns Unavailable).
  ShardedStore(ShardList shards, const Options& options);
  explicit ShardedStore(ShardList shards)
      : ShardedStore(std::move(shards), Options()) {}
  ~ShardedStore() override;

  // --- Online topology changes ---

  // Adds/removes a shard and starts a background migration of the keys
  // whose ring ownership moved. Returns immediately; the store stays fully
  // usable while the migrator runs. A second topology change blocks until
  // the in-flight migration finishes. RemoveShard keeps draining the
  // removed store until its moved keys are copied out, and refuses to
  // remove the last shard.
  Status AddShard(const std::string& name,
                  std::shared_ptr<KeyValueStore> store);
  Status RemoveShard(const std::string& name);

  // Blocks until no migration is in flight.
  void WaitForRebalance();
  bool RebalanceActive() const { return migration_active_.load(); }

  // --- KeyValueStore ---
  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  StatusOr<bool> Contains(const std::string& key) override;
  StatusOr<std::vector<std::string>> ListKeys() override;
  StatusOr<size_t> Count() override;
  Status Clear() override;
  std::vector<StatusOr<ValuePtr>> MultiGet(
      const std::vector<std::string>& keys) override;
  Status MultiPut(
      const std::vector<std::pair<std::string, ValuePtr>>& entries) override;
  std::string Name() const override;

  // --- Introspection ---

  struct ShardStatus {
    std::string name;
    double ownership = 0;     // fraction of the ring
    int64_t keys = -1;        // -1 when Count() failed
    uint64_t error_streak = 0;
    bool healthy = true;
    bool draining = false;  // removed shard still being migrated out
  };
  std::vector<ShardStatus> ShardStatuses();

  // Ring ownership + per-shard key counts + health, one shard per line;
  // what `udsm_cli topology` prints.
  std::string DescribeTopology();
  // Placement summary alone (no I/O); equal strings = identical ring.
  std::string DescribeRing() const;

  // Ordered log of completed migration steps ("#<rebalance> move <key>
  // <from> -> <to>" / "#<rebalance> drop <key> <from>"). With quiescent
  // resizes this is a deterministic function of the seed and topology
  // sequence — the determinism suite diffs it across same-seed runs.
  std::string MigrationTraceString() const;

  uint64_t keys_migrated_total() const { return keys_migrated_.load(); }
  size_t shard_count() const;

  // Test hook: runs after every migrator key step (post stripe-unlock).
  void SetMigrationStepHook(std::function<void()> hook);

 private:
  struct Shard {
    std::shared_ptr<KeyValueStore> store;
    std::atomic<uint64_t> error_streak{0};
    obs::Counter* ops = nullptr;
    obs::Counter* errors = nullptr;
  };
  using ShardMap = std::map<std::string, std::shared_ptr<Shard>>;

  static constexpr size_t kStripes = 64;

  std::shared_ptr<Shard> MakeShard(const std::string& name,
                                   std::shared_ptr<KeyValueStore> store);
  // Counts the op and tracks the consecutive-transient-error streak.
  void Observe(Shard* shard, const Status& status);
  bool Unhealthy(const Shard& shard) const {
    return shard.error_streak.load(std::memory_order_relaxed) >=
           static_cast<uint64_t>(options_.unhealthy_after);
  }

  Mutex& StripeFor(const std::string& key);
  bool IsMigrated(const std::string& key);
  void MarkMigrated(const std::string& key);

  // Cores that assume resize_mu_ is already held (shared) by the caller.
  StatusOr<ValuePtr> GetLocked(const std::string& key)
      REQUIRES_SHARED(resize_mu_);
  StatusOr<std::vector<std::string>> ListKeysLocked()
      REQUIRES_SHARED(resize_mu_);

  // Pre-resize owner of `key` if migration is active and ownership moved;
  // null otherwise. Looks in shards_ then draining_.
  std::shared_ptr<Shard> ForwardTarget(const std::string& key,
                                       const std::string& current_owner)
      REQUIRES_SHARED(resize_mu_);

  void MigratorMain(shard::HashRing old_ring, shard::HashRing new_ring,
                    ShardMap sources, uint64_t rebalance_id);
  // One pass over every source shard; returns the number of keys that
  // still need work (retry next pass) and sets *made_progress.
  size_t MigratePass(const shard::HashRing& old_ring,
                     const shard::HashRing& new_ring, const ShardMap& sources,
                     uint64_t rebalance_id, bool* made_progress);
  Status MigratorFault(const char* op);
  void RecordMigration(uint64_t rebalance_id, const char* action,
                       const std::string& key, const std::string& from,
                       const std::string& to);

  // Runs the batch thunks on the pool (or inline for <= 1) and blocks
  // until all complete.
  void RunBatches(std::vector<std::function<void()>> batches);

  void JoinMigrator() REQUIRES(topo_mu_);

  Options options_;
  Clock* clock_;
  ThreadPool* pool_;
  std::unique_ptr<ThreadPool> owned_pool_;

  // Serializes topology changes (and WaitForRebalance) against each other.
  Mutex topo_mu_;
  std::thread migrator_ GUARDED_BY(topo_mu_);
  std::atomic<bool> stop_{false};

  // Client ops hold shared; the ring/shard-map swap holds unique, so every
  // in-flight op sees one coherent topology.
  mutable SharedMutex resize_mu_;
  shard::HashRing ring_ GUARDED_BY(resize_mu_);
  std::optional<shard::HashRing> old_ring_
      GUARDED_BY(resize_mu_);  // set while migrating
  ShardMap shards_ GUARDED_BY(resize_mu_);
  ShardMap draining_
      GUARDED_BY(resize_mu_);  // removed shards still owning un-migrated keys
  uint64_t rebalance_seq_ GUARDED_BY(resize_mu_) = 0;

  std::atomic<bool> migration_active_{false};

  // Keys written under the post-resize ring (or already migrated): the
  // forwarding window is closed for them and the migrator must not copy an
  // older value over them. Cleared at each topology swap.
  Mutex migrated_mu_;
  std::unordered_set<std::string> migrated_ GUARDED_BY(migrated_mu_);

  // Per-key stripes make a client operation and a migrator step on the
  // same key mutually exclusive during the migration window.
  std::array<Mutex, kStripes> stripes_;

  mutable Mutex trace_mu_;
  std::vector<std::string> migration_trace_ GUARDED_BY(trace_mu_);
  std::function<void()> migration_step_hook_ GUARDED_BY(trace_mu_);

  std::atomic<uint64_t> keys_migrated_{0};

  obs::Counter* obs_forwarded_ = nullptr;
  obs::Counter* obs_migrated_ = nullptr;
  obs::Counter* obs_rebalances_ = nullptr;
  obs::Counter* obs_scatter_batches_ = nullptr;
  obs::Gauge* obs_migration_active_ = nullptr;
  obs::Gauge* obs_shard_count_ = nullptr;
};

}  // namespace dstore

#endif  // DSTORE_SHARD_SHARDED_STORE_H_
