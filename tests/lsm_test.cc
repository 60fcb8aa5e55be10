// LsmStore unit suite: flush and compaction correctness, tombstone GC,
// snapshot isolation across compactions, bloom-filter effectiveness, the
// block cache's fill and retirement rules, and WAL replay on reopen.
// Crash-point recovery lives in tests/chaos/crash_recovery_test.cc; the
// randomized soak in tests/chaos/lsm_chaos_test.cc.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "store/lsm/bloom.h"
#include "store/lsm/format.h"
#include "store/lsm/lsm_store.h"
#include "store/lsm/memtable.h"
#include "obs/metrics.h"

namespace dstore {
namespace lsm {
namespace {

class LsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dstore_lsm_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  // High L0 trigger so compaction only runs when a test asks for it.
  static LsmOptions QuietOptions() {
    LsmOptions options;
    options.l0_compaction_trigger = 100;
    return options;
  }

  std::unique_ptr<LsmStore> Open(LsmOptions options = QuietOptions()) {
    auto store = LsmStore::Open(dir_, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? *std::move(store) : nullptr;
  }

  static std::string Key(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key-%04d", i);
    return buf;
  }

  // File numbers of the SSTs on disk. After Flush/CompactAll return,
  // retired inputs are already unlinked, so these are the live files.
  std::set<uint64_t> SstNumbersOnDisk() const {
    std::set<uint64_t> numbers;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      uint64_t number = 0;
      if (ParseSstFileName(entry.path().filename().string(), &number)) {
        numbers.insert(number);
      }
    }
    return numbers;
  }

  // Every cached block ("<file>:<block>") names a file that is still live.
  void ExpectCacheNamesOnlyLiveFiles(LsmStore* store) const {
    const std::set<uint64_t> live = SstNumbersOnDisk();
    for (const std::string& key : store->BlockCacheKeysForTest()) {
      const uint64_t number = std::stoull(key.substr(0, key.find(':')));
      EXPECT_EQ(live.count(number), 1u) << "cached block " << key
                                        << " belongs to a retired SST";
    }
  }

  std::filesystem::path dir_;
};

TEST_F(LsmTest, FlushMovesMemtableToL0) {
  auto store = Open();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->PutString(Key(i), "v" + std::to_string(i)).ok());
  }
  LsmStats before = store->GetStats();
  EXPECT_EQ(before.memtable_entries, 10u);
  EXPECT_EQ(before.levels[0].files, 0u);

  ASSERT_TRUE(store->Flush().ok());

  LsmStats after = store->GetStats();
  EXPECT_EQ(after.memtable_entries, 0u);
  EXPECT_EQ(after.levels[0].files, 1u);
  EXPECT_EQ(after.levels[0].entries, 10u);
  EXPECT_GE(after.flushes, 1u);

  // Every value must now come off the SST, not the memtable.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*store->GetString(Key(i)), "v" + std::to_string(i));
  }
  auto ranges = store->LevelRangesForTest(0);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, Key(0));
  EXPECT_EQ(ranges[0].second, Key(9));
}

TEST_F(LsmTest, FlushOfEmptyMemtableIsNoop) {
  auto store = Open();
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_EQ(store->GetStats().levels[0].files, 0u);
}

TEST_F(LsmTest, ReopenReplaysWal) {
  auto store = Open();
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(store->PutString(Key(i), "wal-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store->Delete(Key(7)).ok());
  const uint64_t seq = store->GetStats().last_sequence;
  store.reset();  // no flush: everything lives in the WAL

  store = Open();
  for (int i = 0; i < 25; ++i) {
    if (i == 7) {
      EXPECT_TRUE(store->Get(Key(i)).status().IsNotFound());
    } else {
      EXPECT_EQ(*store->GetString(Key(i)), "wal-" + std::to_string(i));
    }
  }
  EXPECT_EQ(*store->Count(), 24u);
  // Sequence numbers never run backwards across recovery, or replayed
  // entries could be shadowed by pre-crash SST versions.
  EXPECT_GE(store->GetStats().last_sequence, seq);
}

TEST_F(LsmTest, ReopenMergesSstAndWalTail) {
  auto store = Open();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->PutString(Key(i), "flushed").ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  // Unflushed tail: overwrite some flushed keys, add fresh ones.
  ASSERT_TRUE(store->PutString(Key(3), "tail").ok());
  ASSERT_TRUE(store->PutString(Key(20), "tail").ok());
  ASSERT_TRUE(store->Delete(Key(9)).ok());
  store.reset();

  store = Open();
  EXPECT_EQ(*store->GetString(Key(0)), "flushed");
  EXPECT_EQ(*store->GetString(Key(3)), "tail");
  EXPECT_EQ(*store->GetString(Key(20)), "tail");
  EXPECT_TRUE(store->Get(Key(9)).status().IsNotFound());
  EXPECT_EQ(*store->Count(), 10u);
}

TEST_F(LsmTest, TombstoneInWalShadowsSstAfterReopen) {
  auto store = Open();
  ASSERT_TRUE(store->PutString("k", "v").ok());
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->Delete("k").ok());  // tombstone only in the WAL
  store.reset();

  store = Open();
  // The recovery flush writes the replayed tombstone into a NEWER L0 file
  // than the pre-crash SST; it must still win.
  EXPECT_TRUE(store->Get("k").status().IsNotFound());
  EXPECT_EQ(*store->Count(), 0u);
}

TEST_F(LsmTest, CompactionMergesOverlappingL0IntoDisjointL1) {
  auto store = Open();
  // Four overlapping L0 files: every flush covers the whole key range.
  for (int round = 0; round < 4; ++round) {
    for (int i = round; i < 200; i += 4) {
      ASSERT_TRUE(
          store->PutString(Key(i), "r" + std::to_string(round)).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  ASSERT_EQ(store->GetStats().levels[0].files, 4u);

  ASSERT_TRUE(store->CompactAll().ok());

  LsmStats stats = store->GetStats();
  EXPECT_EQ(stats.levels[0].files, 0u);
  EXPECT_GE(stats.levels[1].files, 1u);
  EXPECT_EQ(stats.levels[1].entries, 200u);
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_EQ(stats.compaction_debt_bytes, 0u);

  // L1 files must be sorted and key-disjoint.
  auto ranges = store->LevelRangesForTest(1);
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_LE(ranges[i].first, ranges[i].second);
    if (i > 0) {
      EXPECT_LT(ranges[i - 1].second, ranges[i].first);
    }
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(*store->GetString(Key(i)), "r" + std::to_string(i % 4));
  }
}

TEST_F(LsmTest, CompactionCollapsesOverwrites) {
  auto store = Open();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          store->PutString(Key(i), "round-" + std::to_string(round)).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  // 150 versions across L0; with no snapshots pinning history, compaction
  // keeps only the newest per key.
  ASSERT_TRUE(store->CompactAll().ok());
  LsmStats stats = store->GetStats();
  EXPECT_EQ(stats.levels[1].entries, 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(*store->GetString(Key(i)), "round-2");
  }
}

TEST_F(LsmTest, TombstoneGcAtBottomLevel) {
  auto store = Open();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store->PutString(Key(i), "v").ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->Delete(Key(i)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());

  ASSERT_TRUE(store->CompactAll().ok());

  // Nothing lives below L1, so the tombstones (and the versions they
  // shadow) are garbage-collected instead of rewritten.
  LsmStats stats = store->GetStats();
  EXPECT_GE(stats.tombstones_dropped, 10u);
  EXPECT_EQ(stats.levels[1].entries, 10u);
  EXPECT_EQ(*store->Count(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(store->Get(Key(i)).status().IsNotFound());
  }
  for (int i = 10; i < 20; ++i) {
    EXPECT_EQ(*store->GetString(Key(i)), "v");
  }
}

TEST_F(LsmTest, SnapshotSeesPreCompactionState) {
  auto store = Open();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->PutString(Key(i), "old").ok());
  }
  auto snapshot = store->GetSnapshot();
  EXPECT_EQ(store->GetStats().live_snapshots, 1u);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->PutString(Key(i), "new").ok());
  }
  ASSERT_TRUE(store->Delete(Key(5)).ok());
  // Rewrite everything into L1 while the snapshot is live.
  ASSERT_TRUE(store->CompactAll().ok());

  // Point-in-time reads are unaffected by the rewrite.
  for (int i = 0; i < 10; ++i) {
    auto got = store->GetAt(*snapshot, Key(i));
    ASSERT_TRUE(got.ok()) << Key(i) << ": " << got.status().ToString();
    EXPECT_EQ(ToString(**got), "old");
  }
  auto old_keys = store->ListKeysAt(*snapshot);
  ASSERT_TRUE(old_keys.ok());
  EXPECT_EQ(old_keys->size(), 10u);

  // "Now" reads see the new state.
  EXPECT_TRUE(store->Get(Key(5)).status().IsNotFound());
  EXPECT_EQ(*store->GetString(Key(0)), "new");
  EXPECT_EQ(*store->Count(), 9u);

  // Releasing the snapshot unpins history: the next compaction that
  // touches these files collapses them to one live version per key.
  snapshot.reset();
  EXPECT_EQ(store->GetStats().live_snapshots, 0u);
  for (int i = 0; i < 10; ++i) {
    if (i == 5) continue;
    ASSERT_TRUE(store->PutString(Key(i), "newer").ok());
  }
  ASSERT_TRUE(store->CompactAll().ok());
  EXPECT_EQ(store->GetStats().levels[1].entries, 9u);
}

TEST_F(LsmTest, SnapshotIsStableAcrossLaterWrites) {
  auto store = Open();
  ASSERT_TRUE(store->PutString("k", "v1").ok());
  auto snap1 = store->GetSnapshot();
  ASSERT_TRUE(store->PutString("k", "v2").ok());
  auto snap2 = store->GetSnapshot();
  ASSERT_TRUE(store->Delete("k").ok());

  EXPECT_EQ(ToString(**store->GetAt(*snap1, "k")), "v1");
  EXPECT_EQ(ToString(**store->GetAt(*snap2, "k")), "v2");
  EXPECT_TRUE(store->Get("k").status().IsNotFound());
  EXPECT_TRUE(store->GetAt(*snap1, "missing").status().IsNotFound());
}

TEST_F(LsmTest, BloomFiltersSkipSstsForMissingKeys) {
  auto store = Open();
  for (int i = 0; i <= 100; ++i) {
    ASSERT_TRUE(store->PutString(Key(i), "v").ok());
  }
  ASSERT_TRUE(store->Flush().ok());

  // Missing keys *inside* the SST's key range, so the lookup passes the
  // range check and it is the bloom filter that rejects the file.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(store->Get(Key(i) + "-absent").status().IsNotFound());
  }
  LsmStats stats = store->GetStats();
  EXPECT_EQ(stats.bloom_checks, 100u);
  // 10 bits/key gives ~1% false positives; 80/100 is a generous floor.
  EXPECT_GE(stats.bloom_negatives, 80u);
  EXPECT_EQ(stats.bloom_false_positives,
            stats.bloom_checks - stats.bloom_negatives);

  // Present keys must never be filtered out.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(store->Get(Key(i)).ok());
  }
}

TEST_F(LsmTest, BloomFilterHasNoFalseNegatives) {
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 1000; ++i) {
    hashes.push_back(
        BloomFilter::HashKey("bloom-key-" + std::to_string(i * 7)));
  }
  const Bytes bits = BloomFilter::Build(hashes, 10);
  for (uint64_t hash : hashes) {
    EXPECT_TRUE(BloomFilter::MayContain(bits, hash));
  }
  int false_positives = 0;
  for (int i = 0; i < 1000; ++i) {
    if (BloomFilter::MayContain(
            bits, BloomFilter::HashKey("other-" + std::to_string(i)))) {
      ++false_positives;
    }
  }
  EXPECT_LT(false_positives, 50);  // ~1% expected at 10 bits/key
}

TEST_F(LsmTest, MultiPutIsAtomicAndDurable) {
  auto store = Open();
  ASSERT_TRUE(store
                  ->MultiPut({{"a", MakeValue(std::string_view("1"))},
                              {"b", MakeValue(std::string_view("2"))},
                              {"c", MakeValue(std::string_view("3"))}})
                  .ok());
  // One batch = one contiguous sequence window.
  EXPECT_EQ(store->GetStats().last_sequence, 3u);
  store.reset();
  store = Open();
  EXPECT_EQ(*store->GetString("a"), "1");
  EXPECT_EQ(*store->GetString("b"), "2");
  EXPECT_EQ(*store->GetString("c"), "3");
}

TEST_F(LsmTest, ClearSurvivesReopen) {
  auto store = Open();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(store->PutString(Key(i), "v").ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->Clear().ok());
  EXPECT_EQ(*store->Count(), 0u);
  store.reset();
  store = Open();
  EXPECT_EQ(*store->Count(), 0u);
  EXPECT_TRUE(store->Get(Key(0)).status().IsNotFound());
}

TEST_F(LsmTest, AutomaticFlushAndCompactionUnderSmallMemtable) {
  LsmOptions options;
  options.memtable_bytes = 2048;
  options.l0_compaction_trigger = 2;
  options.level_base_bytes = 16384;
  auto store = Open(options);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store->PutString(Key(i % 100),
                                 "value-" + std::to_string(i))
                    .ok());
  }
  // The background thread has been flushing and compacting on its own the
  // whole time; quiesce and check the data, not the shape.
  ASSERT_TRUE(store->CompactAll().ok());
  LsmStats stats = store->GetStats();
  EXPECT_GE(stats.flushes, 2u);
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_EQ(*store->Count(), 100u);
  for (int i = 400; i < 500; ++i) {
    EXPECT_EQ(*store->GetString(Key(i % 100)), "value-" + std::to_string(i));
  }
}

// Compaction and scans read every block of their inputs but leave the
// block cache as they found it: with no point read, it stays empty.
TEST_F(LsmTest, CompactionAndScansDoNotFillBlockCache) {
  auto store = Open();
  const std::string value(300, 'v');
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(store->PutString(Key(i), value + std::to_string(round)).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  ASSERT_TRUE(store->CompactAll().ok());
  ASSERT_GE(store->GetStats().compactions, 1u);
  EXPECT_EQ(*store->Count(), 200u);
  EXPECT_EQ(store->ListKeys()->size(), 200u);

  LsmStats stats = store->GetStats();
  EXPECT_EQ(stats.block_cache_entries, 0u);
  EXPECT_EQ(stats.block_cache_bytes, 0u);
  EXPECT_GT(stats.block_cache_misses, 0u);  // scans did consult the cache

  // A point read fills it with exactly the one block it had to read.
  EXPECT_EQ(*store->GetString(Key(7)), value + "2");
  stats = store->GetStats();
  EXPECT_EQ(stats.block_cache_entries, 1u);
  EXPECT_EQ(*store->GetString(Key(7)), value + "2");
  EXPECT_EQ(store->GetStats().block_cache_hits, stats.block_cache_hits + 1);
}

// Over many put/flush/compact/read rounds the cache never holds more than
// the live SSTs' blocks (plus per-entry charge), and never a block of a
// file that compaction has retired.
TEST_F(LsmTest, BlockCacheHoldsOnlyLiveBlocks) {
  auto store = Open();
  const std::string value(200, 'x');
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          store->PutString(Key(i), value + std::to_string(round)).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
    if (round % 2 == 1) {
      ASSERT_TRUE(store->CompactAll().ok());
    }
    for (int i = 0; i < 300; ++i) {
      ASSERT_EQ(*store->GetString(Key(i)), value + std::to_string(round));
    }

    const LsmStats stats = store->GetStats();
    uint64_t live_bytes = 0;
    for (const auto& level : stats.levels) live_bytes += level.bytes;
    // Charge per entry: the "<file>:<block>" key plus EntryCharge's 64.
    const uint64_t per_entry = 64 + 24;
    EXPECT_LE(stats.block_cache_bytes,
              live_bytes + stats.block_cache_entries * per_entry)
        << "round " << round;
    EXPECT_GT(stats.block_cache_entries, 0u);
    ExpectCacheNamesOnlyLiveFiles(store.get());
  }
}

// Point reads race compactions that keep rewriting (and retiring) the files
// they read from. A Get that pinned the old version still reads the retired
// file's blocks; its cache entries go only when the last reader lets go.
TEST_F(LsmTest, GetRacingCompactionThatRetiresItsFileReturnsRightValue) {
  auto store = Open();
  const auto stable_value = [](int i) { return "stable-" + std::to_string(i); };
  for (int i = 0; i < 200; i += 2) {
    ASSERT_TRUE(store->PutString(Key(i), stable_value(i)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());

  std::atomic<bool> done{false};
  std::atomic<int> wrong{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      int i = t * 2;
      while (!done.load(std::memory_order_relaxed)) {
        const StatusOr<std::string> got = store->GetString(Key(i));
        if (!got.ok() || *got != stable_value(i)) wrong.fetch_add(1);
        reads.fetch_add(1, std::memory_order_relaxed);
        i = (i + 6) % 200;
      }
    });
  }
  // Odd keys interleave with the stable ones, so every compaction rewrites
  // the files that hold the stable keys and retires the old ones. Failures
  // are recorded, not asserted, so the readers are always joined.
  Status churn;
  for (int round = 0; round < 20 && churn.ok(); ++round) {
    for (int i = 1; i < 200 && churn.ok(); i += 2) {
      churn = store->PutString(Key(i), "churn-" + std::to_string(round));
    }
    if (churn.ok()) churn = store->Flush();
    if (churn.ok()) churn = store->CompactAll();
  }
  done.store(true);
  for (auto& reader : readers) reader.join();

  ASSERT_TRUE(churn.ok()) << churn.ToString();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GE(store->GetStats().compactions, 20u);
  ExpectCacheNamesOnlyLiveFiles(store.get());
}

// The block-cache gauge sums over every open store and drops a store's
// share when it closes; hits and misses are process-wide counters.
TEST_F(LsmTest, BlockCacheMetricsSumOverStores) {
  const auto family_value = [](const std::string& name) {
    double total = 0;
    for (const auto& family : obs::MetricsRegistry::Default()->Snapshot()) {
      if (family.name != name) continue;
      for (const auto& inst : family.instruments) total += inst.value;
    }
    return total;
  };
  const double bytes_before = family_value("dstore_lsm_block_cache_bytes");
  const double hits_before = family_value("dstore_lsm_block_cache_hits_total");

  auto a = Open();
  auto b = LsmStore::Open(dir_.string() + "_b", QuietOptions());
  ASSERT_TRUE(b.ok());
  for (LsmStore* store : {a.get(), b->get()}) {
    ASSERT_TRUE(store->PutString("k", "v").ok());
    ASSERT_TRUE(store->Flush().ok());
    ASSERT_TRUE(store->Get("k").ok());  // miss, fill
    ASSERT_TRUE(store->Get("k").ok());  // hit
  }
  const size_t expected =
      a->GetStats().block_cache_bytes + (*b)->GetStats().block_cache_bytes;
  EXPECT_EQ(family_value("dstore_lsm_block_cache_bytes") - bytes_before,
            static_cast<double>(expected));
  EXPECT_EQ(family_value("dstore_lsm_block_cache_hits_total") - hits_before,
            2.0);

  b->reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_.string() + "_b", ec);
  EXPECT_EQ(family_value("dstore_lsm_block_cache_bytes") - bytes_before,
            static_cast<double>(a->GetStats().block_cache_bytes));
}

// Recorded at the byte-at-a-time CRC-32, before the slicing kernel: every
// WAL, SST and MANIFEST byte a fixed write sequence leaves on disk.
constexpr size_t kGoldenDirBytes = 121391;
constexpr uint64_t kGoldenDirDigest = 10258532066330740717ull;

// WAL framing, SST blocks, index, filter and footer and the MANIFEST are the
// on-disk format: the same writes must keep producing the same bytes.
TEST_F(LsmTest, OnDiskBytesGolden) {
  {
    auto store = Open();
    Random rng(1705);
    const auto value = [&rng] {
      return rng.CompressibleBytes(16 + rng.Uniform(600), 0.5);
    };
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(store->Put(Key(i), MakeValue(value())).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
    for (int i = 0; i < 400; i += 3) {
      ASSERT_TRUE(store->Put(Key(i), MakeValue(value())).ok());
    }
    for (int i = 0; i < 400; i += 7) ASSERT_TRUE(store->Delete(Key(i)).ok());
    ASSERT_TRUE(store->Flush().ok());
    ASSERT_TRUE(store->CompactAll().ok());
    // An unflushed tail, so the live WAL segment is not empty.
    for (int i = 400; i < 420; ++i) {
      ASSERT_TRUE(store->Put(Key(i), MakeValue(value())).ok());
    }
    ASSERT_TRUE(store->Delete(Key(1)).ok());
  }
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    names.insert(entry.path().filename().string());
  }
  uint64_t digest = 0;
  size_t total = 0;
  int wals = 0;
  int ssts = 0;
  for (const std::string& name : names) {
    uint64_t number = 0;
    wals += ParseWalFileName(name, &number);
    ssts += ParseSstFileName(name, &number);
    std::ifstream in(dir_ / name, std::ios::binary);
    const std::string contents((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    digest = Mix64(digest ^ Fnv1a64(name));
    digest = Mix64(digest ^ Fnv1a64(contents));
    total += contents.size();
  }
  // The digest covers all three file kinds.
  EXPECT_EQ(names.count(kManifestName), 1u);
  EXPECT_EQ(wals, 1);
  EXPECT_EQ(ssts, 1);
  EXPECT_EQ(total, kGoldenDirBytes);
  EXPECT_EQ(digest, kGoldenDirDigest);
}

TEST_F(LsmTest, NameIdentifiesBackendAndPath) {
  auto store = Open();
  EXPECT_EQ(store->Name(), "lsm:" + dir_.string());
}

TEST_F(LsmTest, FileNameRoundTrip) {
  EXPECT_EQ(SstFileName(7), "000007.sst");
  EXPECT_EQ(WalFileName(12), "000012.wal");
  uint64_t number = 0;
  EXPECT_TRUE(ParseSstFileName("000007.sst", &number));
  EXPECT_EQ(number, 7u);
  EXPECT_TRUE(ParseWalFileName("000012.wal", &number));
  EXPECT_EQ(number, 12u);
  EXPECT_FALSE(ParseSstFileName("000012.wal", &number));
  EXPECT_FALSE(ParseWalFileName("junk", &number));
}

}  // namespace
}  // namespace lsm
}  // namespace dstore
