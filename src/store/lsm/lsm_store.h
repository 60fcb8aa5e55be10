#ifndef DSTORE_STORE_LSM_LSM_STORE_H_
#define DSTORE_STORE_LSM_LSM_STORE_H_

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "common/sync.h"
#include "store/fs_util.h"
#include "store/key_value.h"
#include "store/lsm/memtable.h"
#include "store/lsm/version.h"
#include "store/lsm/wal.h"

namespace dstore {
namespace lsm {

// A from-scratch log-structured merge-tree KeyValueStore:
//
//   writes:  WAL append (group fsync) -> memtable -> [flush] -> L0 SST
//            -> [leveled compaction] -> L1..L6 key-disjoint SSTs
//   reads:   memtable -> immutable memtable -> L0 (newest first) -> L1..L6,
//            each SST guarded by a Bloom filter
//
// Random writes become sequential I/O (one WAL append now, sorted-file
// writes later in the background), which is the whole point: FileStore pays
// a file create + fsync + rename per Put, LsmStore pays an appended record.
//
// Consistency model: every mutation gets a monotonically increasing
// sequence number. Reads execute at a point-in-time snapshot (by default
// "now"), so a Get or ListKeys racing a flush or compaction sees exactly
// the versions that were visible when it started — rewriting entries into
// different files never changes what any reader observes. GetSnapshot()
// exposes the same mechanism to callers and additionally pins the
// snapshot's versions against tombstone GC.
//
// Durability: a Put/Delete is acknowledged only after its WAL record is
// fsynced (options.sync_writes). Flush and compaction publish SSTs with
// temp-write -> fsync -> rename -> dir-fsync and commit them by atomically
// rewriting the MANIFEST; crashing at any instrumented fault site (lsm.wal.*,
// lsm.sst.*, lsm.manifest.*) loses no acknowledged write.
//
// A single background thread runs flushes and compactions; Flush() /
// CompactAll() run them synchronously for tests and the CLI.

struct LsmOptions {
  // Freeze + flush the memtable once it holds this many bytes.
  size_t memtable_bytes = 4u << 20;
  // SST layout knobs (see sst.h).
  size_t block_bytes = 4096;
  int bloom_bits_per_key = 10;
  // Shared LRU cache over verified SST data blocks. Hot point reads skip
  // the pread and the block CRC re-check. Only point reads fill it, and a
  // retired SST's blocks leave it (see SstReader). 0 disables it.
  size_t block_cache_bytes = 8u << 20;
  // Acknowledge writes only after the WAL fsync. Off trades durability of
  // the last few writes for throughput (page-cache-only appends).
  bool sync_writes = true;
  // Compact L0 into L1 once this many L0 files accumulate.
  int l0_compaction_trigger = 4;
  // Size target for L1; each deeper level is level_multiplier times bigger.
  uint64_t level_base_bytes = 8ull << 20;
  double level_multiplier = 8.0;
  // Cap on one compaction output file before rolling to the next.
  uint64_t max_output_file_bytes = 4ull << 20;
};

struct LsmStats {
  struct Level {
    size_t files = 0;
    uint64_t bytes = 0;
    uint64_t entries = 0;
  };
  std::vector<Level> levels;
  size_t memtable_bytes = 0;
  size_t memtable_entries = 0;
  bool has_immutable = false;
  uint64_t last_sequence = 0;
  size_t live_snapshots = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t tombstones_dropped = 0;
  uint64_t bloom_checks = 0;
  uint64_t bloom_negatives = 0;
  uint64_t bloom_false_positives = 0;
  // Bytes above the per-level size targets (plus over-trigger L0 bytes):
  // how much work the compactor still owes.
  uint64_t compaction_debt_bytes = 0;
  // Block cache: charge (block bytes + key + per-entry overhead, see
  // EntryCharge) and entries now; hits and misses over every block lookup,
  // point reads and scans alike. All zero when the cache is disabled.
  size_t block_cache_bytes = 0;
  size_t block_cache_entries = 0;
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
};

class LsmStore : public KeyValueStore {
 public:
  // Opens (creating if needed) an LSM directory: loads the MANIFEST,
  // removes temp/orphan files, replays WAL segments, starts the background
  // thread. Recovery after a crash is this same path.
  static StatusOr<std::unique_ptr<LsmStore>> Open(
      const std::filesystem::path& dir, LsmOptions options = {});

  ~LsmStore() override;

  // KeyValueStore.
  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  StatusOr<bool> Contains(const std::string& key) override;
  StatusOr<std::vector<std::string>> ListKeys() override;
  StatusOr<size_t> Count() override;
  Status Clear() override;
  std::string Name() const override;
  // One WAL record and one group fsync for the whole batch: the entries
  // become durable (and visible) atomically.
  Status MultiPut(
      const std::vector<std::pair<std::string, ValuePtr>>& entries) override;

  // --- Snapshots ---
  //
  // A pinned point in time. Reads through the handle see the store exactly
  // as of its creation, regardless of later writes, flushes, or
  // compactions. Must not outlive the store.
  class Snapshot {
   public:
    ~Snapshot();
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    uint64_t sequence() const { return sequence_; }

   private:
    friend class LsmStore;
    Snapshot(LsmStore* store, uint64_t sequence)
        : store_(store), sequence_(sequence) {}
    LsmStore* const store_;
    const uint64_t sequence_;
  };

  std::unique_ptr<Snapshot> GetSnapshot();
  StatusOr<ValuePtr> GetAt(const Snapshot& snapshot, const std::string& key);
  StatusOr<std::vector<std::string>> ListKeysAt(const Snapshot& snapshot);

  // --- Maintenance (tests, CLI, benchmarks) ---

  // Freezes the current memtable (if non-empty) and waits until it is an
  // L0 SST recorded in the manifest.
  Status Flush();
  // Runs one compaction if L0 holds any files or a level is over target;
  // *did_work reports whether anything ran.
  Status CompactOnce(bool* did_work);
  // Flush + compact until every level is within target.
  Status CompactAll();

  LsmStats GetStats();

  // [smallest, largest] per file of `level`, for test assertions about
  // level shape.
  std::vector<std::pair<std::string, std::string>> LevelRangesForTest(
      int level);
  // Keys ("<file>:<block>") currently in the block cache.
  std::vector<std::string> BlockCacheKeysForTest();

 private:
  LsmStore(std::filesystem::path dir, LsmOptions options);

  // One compaction unit: `inputs` from `level` merged with `overlaps` from
  // level+1 into new level+1 files.
  struct CompactionJob {
    int level = 0;
    std::vector<FileMeta> inputs;
    std::vector<FileMeta> overlaps;
  };

  Status WriteBatch(std::vector<BatchEntry> batch) EXCLUDES(mu_);
  StatusOr<ValuePtr> GetInternal(const std::string& key, uint64_t snapshot)
      EXCLUDES(mu_);
  // Merged "what keys are live at `snapshot`" view across memtables + SSTs.
  StatusOr<std::vector<std::string>> LiveKeys(uint64_t snapshot) EXCLUDES(mu_);

  // Ensures mem_ has room; rotates to a fresh memtable + WAL when full
  // (waiting out a flush backlog first). Surfaces sticky background errors.
  Status MakeRoomForWrite() REQUIRES(mu_);
  Status RotateMemTable() REQUIRES(mu_);

  // Background maintenance. Both entry points claim the single maintenance
  // slot (maintenance_active_) and drop mu_ for the I/O.
  void BackgroundMain() EXCLUDES(mu_);
  void FlushImmLocked() REQUIRES(mu_);
  // `force` compacts a non-empty L0 even below the trigger — the manual
  // CompactOnce/CompactAll path, so "compact everything" means everything.
  bool PickCompaction(CompactionJob* job, bool force = false) REQUIRES(mu_);
  void RunCompactionLocked(const CompactionJob& job) REQUIRES(mu_);
  uint64_t AllocateFileNumber() EXCLUDES(mu_);
  // Lock-agnostic helpers (no mu_ access): build one SST from a frozen
  // memtable / merge a compaction's inputs into rolled output files.
  StatusOr<FileMeta> WriteMemTableToSst(const MemTable& mem,
                                        uint64_t file_number);
  StatusOr<std::vector<FileMeta>> MergeCompact(const CompactionJob& job,
                                               const Version& base,
                                               uint64_t smallest_snapshot);
  uint64_t LevelTargetBytes(int level) const;
  Status PersistVersion(std::shared_ptr<const Version> next,
                        uint64_t wal_floor) REQUIRES(mu_);

  void ReleaseSnapshot(uint64_t sequence) EXCLUDES(mu_);
  uint64_t OldestSnapshot() REQUIRES(mu_);

  void RegisterMetrics();
  void UnregisterMetrics();

  const std::filesystem::path dir_;
  const LsmOptions options_;
  // Block cache shared by every SstReader of this store (null if disabled).
  // Point reads fill it; each SstReader erases its own blocks when the
  // retired file's last reference drops.
  const std::shared_ptr<Cache> block_cache_;

  Mutex mu_;
  // Single condvar for all state transitions: writers waiting for room,
  // Flush()/CompactAll() waiting for maintenance, the background thread
  // waiting for work.
  CondVar cv_;

  std::shared_ptr<MemTable> mem_ GUARDED_BY(mu_);
  std::shared_ptr<MemTable> imm_ GUARDED_BY(mu_);
  // shared_ptr: in-flight Sync() calls may hold the writer across a
  // rotation or flush.
  std::shared_ptr<WalWriter> wal_ GUARDED_BY(mu_);
  std::shared_ptr<WalWriter> imm_wal_ GUARDED_BY(mu_);
  uint64_t wal_number_ GUARDED_BY(mu_) = 0;
  uint64_t imm_wal_number_ GUARDED_BY(mu_) = 0;

  std::shared_ptr<const Version> version_ GUARDED_BY(mu_);
  uint64_t next_file_number_ GUARDED_BY(mu_) = 1;
  uint64_t last_sequence_ GUARDED_BY(mu_) = 0;
  std::multiset<uint64_t> snapshots_ GUARDED_BY(mu_);
  // Round-robin cursor per level: compact the first file whose largest key
  // is past the cursor, so repeated compactions sweep the whole level.
  std::vector<std::string> compact_cursor_ GUARDED_BY(mu_) =
      std::vector<std::string>(kNumLevels);

  // First unrecoverable background failure; sticky — the store refuses
  // writes afterwards (reopen to recover), like any torn-state situation.
  Status bg_error_ GUARDED_BY(mu_);
  bool maintenance_active_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::thread bg_thread_;

  // Stats (lock-free so the read/write hot paths never contend on them).
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> tombstones_dropped_{0};
  std::atomic<uint64_t> bloom_checks_{0};
  std::atomic<uint64_t> bloom_negatives_{0};
  std::atomic<uint64_t> bloom_false_positives_{0};

  // This store's last contribution to the process-wide dstore_lsm_*
  // gauges and block-cache counters. The collector publishes the change
  // since then, so the instruments sum over every open store.
  struct Published {
    double sst_files = 0;
    double sst_bytes = 0;
    double memtable_bytes = 0;
    double debt_bytes = 0;
    double block_cache_bytes = 0;
    uint64_t block_cache_hits = 0;
    uint64_t block_cache_misses = 0;
  };
  void PublishMetrics() EXCLUDES(publish_mu_, mu_);
  Mutex publish_mu_;
  Published published_ GUARDED_BY(publish_mu_);

  int collector_id_ = 0;
};

}  // namespace lsm
}  // namespace dstore

#endif  // DSTORE_STORE_LSM_LSM_STORE_H_
