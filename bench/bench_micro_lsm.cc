// Microbenchmarks for the LSM storage engine (store/lsm/), including the
// head-to-head against FileStore that motivates it: random durable writes
// become one WAL append + group fsync instead of a file create + fsync +
// rename + dir-fsync per Put. scripts/bench_snapshot.sh reads the
// BM_RandomWrite / BM_RandomRead rows into BENCH_lsm.json and checks the
// headlines (concurrent random-write throughput >= 5x FileStore, read
// p99 <= 2x FileStore).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "store/file_store.h"
#include "store/key_value.h"
#include "store/lsm/lsm_store.h"

namespace dstore {
namespace {

std::filesystem::path FreshDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dstore_lsmbench_" + std::to_string(::getpid()) + "_" +
                    tag);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

constexpr int kKeySpace = 4096;
constexpr size_t kValueBytes = 256;

std::string BenchKey(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "bench-%08llu",
                static_cast<unsigned long long>(i));
  return buf;
}

// Opens both contenders at the same durability point so the comparison is
// structural, never buffered-vs-fsynced: `durable` turns on sync_writes for
// whichever store is asked for.
std::unique_ptr<KeyValueStore> OpenStore(bool use_lsm, bool durable,
                                         const std::string& tag) {
  if (use_lsm) {
    lsm::LsmOptions options;
    options.sync_writes = durable;
    return std::move(lsm::LsmStore::Open(FreshDir(tag), options)).value();
  }
  FileStore::Options options;
  options.sync_writes = durable;
  return std::move(FileStore::Open(FreshDir(tag), options)).value();
}

void ReportP99(benchmark::State& state, std::vector<double>* samples) {
  if (samples->empty()) return;
  std::sort(samples->begin(), samples->end());
  state.counters["p99_us"] = benchmark::Counter(
      (*samples)[std::min(samples->size() - 1,
                          static_cast<size_t>(
                              static_cast<double>(samples->size()) * 0.99))]);
}

// Random writes, head-to-head at matched durability. Args: {lsm?,
// concurrent writers, durable?}. Each iteration gives every writer a run
// of kPutsPerWriter back-to-back Puts and waits for all of them; per-op
// time is wall / total puts.
//
// The buffered rows (durable=0, FileStore's default and the paper's
// file-system baseline) isolate the structural difference the LSM exists
// for: a random Put is one log append + memtable insert instead of a file
// create + write + rename per key. That ratio is the BENCH_lsm.json write
// headline (>= 5x). The durable rows ack only after fsync; there the
// multi-writer runs show the WAL's group commit — every FileStore Put pays
// its own file fsync plus a directory fsync, while concurrent LSM writers
// share one WAL fsync, and back-to-back runs let appends pipeline behind
// the in-flight fsync the way a loaded server would.
void BM_RandomWrite(benchmark::State& state) {
  constexpr int kPutsPerWriter = 4;
  const bool use_lsm = state.range(0) != 0;
  const int writers = static_cast<int>(state.range(1));
  const bool durable = state.range(2) != 0;
  const int per_burst = writers * kPutsPerWriter;
  auto store = OpenStore(use_lsm, durable,
                         (use_lsm ? "wl" : "wf") + std::to_string(writers) +
                             (durable ? "d" : "b"));
  ThreadPool pool(static_cast<size_t>(writers));
  Random rng(0x5EED);
  const ValuePtr value = MakeValue(rng.RandomBytes(kValueBytes));

  std::vector<double> samples;
  samples.reserve(1 << 14);
  std::atomic<int> failures{0};
  for (auto _ : state) {
    std::vector<std::vector<std::string>> runs(
        static_cast<size_t>(writers));
    for (auto& run : runs) {
      run.reserve(kPutsPerWriter);
      for (int i = 0; i < kPutsPerWriter; ++i) {
        run.push_back(BenchKey(rng.Uniform(kKeySpace)));
      }
    }
    const auto start = std::chrono::steady_clock::now();
    for (auto& run : runs) {
      pool.Submit([&store, &value, &failures, run = std::move(run)] {
        for (const std::string& key : run) {
          if (!store->Put(key, value).ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    pool.Wait();
    samples.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      per_burst);
    if (failures.load(std::memory_order_relaxed) != 0) {
      state.SkipWithError("put failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * per_burst);
  ReportP99(state, &samples);
  state.counters["writers"] = writers;
  state.SetLabel(std::string(use_lsm ? "lsm" : "file") +
                 (durable ? "-durable" : "-buffered"));
}
BENCHMARK(BM_RandomWrite)
    ->Args({0, 1, 0})
    ->Args({1, 1, 0})
    ->Args({0, 8, 0})
    ->Args({1, 8, 0})
    ->Args({0, 1, 1})
    ->Args({1, 1, 1})
    ->Args({0, 8, 1})
    ->Args({1, 8, 1})
    ->Args({0, 16, 1})
    ->Args({1, 16, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Random point reads from a compacted store (LSM: everything in SSTs
// behind bloom filters; FileStore: one file per key). The snapshot script
// compares the p99 counters.
void BM_RandomRead(benchmark::State& state) {
  const bool use_lsm = state.range(0) != 0;
  // Durability does not affect the read path; fill buffered for speed.
  auto store = OpenStore(use_lsm, /*durable=*/false, use_lsm ? "rl" : "rf");
  {
    Random fill_rng(0xF111);
    const ValuePtr value = MakeValue(fill_rng.RandomBytes(kValueBytes));
    for (int i = 0; i < kKeySpace; ++i) {
      (void)store->Put(BenchKey(static_cast<uint64_t>(i)), value);
    }
  }
  if (use_lsm) {
    auto* lsm_store = static_cast<lsm::LsmStore*>(store.get());
    if (!lsm_store->CompactAll().ok()) {
      state.SkipWithError("compact failed");
      return;
    }
  }

  Random rng(0xD00D);
  std::vector<double> samples;
  samples.reserve(1 << 15);
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto got = store->Get(BenchKey(rng.Uniform(kKeySpace)));
    if (!got.ok()) {
      state.SkipWithError(got.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(*got);
    samples.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  state.SetItemsProcessed(state.iterations());
  ReportP99(state, &samples);
  state.SetLabel(use_lsm ? "lsm" : "file");
}
BENCHMARK(BM_RandomRead)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Sequential fill throughput: the pure ingest path (WAL append + memtable
// insert, flushes in the background).
void BM_LsmFill(benchmark::State& state) {
  auto store = std::move(lsm::LsmStore::Open(FreshDir("fill"))).value();
  Random rng(0xF1);
  const ValuePtr value = MakeValue(rng.RandomBytes(kValueBytes));
  uint64_t i = 0;
  for (auto _ : state) {
    const Status put = store->Put("fill-" + std::to_string(i++), value);
    if (!put.ok()) {
      state.SkipWithError(put.ToString().c_str());
      break;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kValueBytes));
}
BENCHMARK(BM_LsmFill)->Unit(benchmark::kMicrosecond);

// Full compaction of a freshly filled store: how fast the background
// machinery turns an L0 backlog into disjoint L1 files. The untimed tail
// reads every key once and reports cache_per_live_sst: block-cache bytes
// over live SST bytes. Compaction fills nothing and retired inputs leave
// the cache, so the ratio stays near 1 (data blocks plus per-entry charge).
void BM_LsmCompact(benchmark::State& state) {
  double cache_per_live_sst = 0;
  for (auto _ : state) {
    state.PauseTiming();
    lsm::LsmOptions options;
    options.memtable_bytes = 256u << 10;
    options.l0_compaction_trigger = 1 << 20;  // pile up L0, compact once
    options.sync_writes = false;  // fill fast; the compaction is the meat
    auto store =
        std::move(lsm::LsmStore::Open(FreshDir("compact"), options)).value();
    Random rng(0xC0);
    const ValuePtr value = MakeValue(rng.RandomBytes(kValueBytes));
    std::vector<std::string> keys;
    for (int i = 0; i < 8192; ++i) {
      keys.push_back(BenchKey(static_cast<uint64_t>(rng.Uniform(1 << 20))));
      (void)store->Put(keys.back(), value);
    }
    state.ResumeTiming();
    const Status status = store->CompactAll();
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
    state.PauseTiming();
    for (const std::string& key : keys) (void)store->Get(key);
    const lsm::LsmStats stats = store->GetStats();
    uint64_t live_bytes = 0;
    for (const auto& level : stats.levels) live_bytes += level.bytes;
    cache_per_live_sst = static_cast<double>(stats.block_cache_bytes) /
                         static_cast<double>(std::max<uint64_t>(live_bytes, 1));
    store.reset();
    state.ResumeTiming();
  }
  state.counters["cache_per_live_sst"] = cache_per_live_sst;
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192 *
                          static_cast<int64_t>(kValueBytes));
}
BENCHMARK(BM_LsmCompact)->Unit(benchmark::kMillisecond)->Iterations(3);

// Block-cache footprint of the stack-read-batch scoreboard workload's LSM
// layer, without the layers above it: 3 shards x 3 replicas = 9 stores
// with its 128 KiB memtable and default 8 MiB block cache, 10000 1-KiB
// keys preloaded in 256-key batches and compacted, then four rounds of
// puts to 5% of the keys followed by a read pass over every key on every
// replica (an upper bound on what read quorums touch). Reports the summed
// block-cache bytes of the nine stores, their summed live SST bytes, and
// the block-cache hit ratio over every lookup (reads and compaction scans).
void BM_StackShapedBlockCache(benchmark::State& state) {
  constexpr int kShards = 3;
  constexpr int kReplicas = 3;
  constexpr uint64_t kKeys = 10000;
  double cache_mib = 0;
  double live_mib = 0;
  double hit_ratio = 0;
  for (auto _ : state) {
    lsm::LsmOptions options;
    options.memtable_bytes = 128u << 10;
    options.sync_writes = false;  // the cache, not fsync, is measured
    std::vector<std::filesystem::path> dirs;
    std::vector<std::unique_ptr<lsm::LsmStore>> stores;
    for (int i = 0; i < kShards * kReplicas; ++i) {
      dirs.push_back(FreshDir("stack" + std::to_string(i)));
      stores.push_back(
          std::move(lsm::LsmStore::Open(dirs.back(), options)).value());
    }
    Random rng(0x5B);
    const ValuePtr value = MakeValue(rng.RandomBytes(1024));
    const auto shard_of = [](uint64_t k) {
      return static_cast<int>(k % kShards);
    };
    for (uint64_t first = 0; first < kKeys; first += 256) {
      std::vector<std::vector<std::pair<std::string, ValuePtr>>> batches(
          kShards);
      for (uint64_t k = first; k < std::min(kKeys, first + 256); ++k) {
        batches[static_cast<size_t>(shard_of(k))].emplace_back(BenchKey(k),
                                                               value);
      }
      for (int s = 0; s < kShards; ++s) {
        for (int r = 0; r < kReplicas; ++r) {
          (void)stores[static_cast<size_t>(s * kReplicas + r)]->MultiPut(
              batches[static_cast<size_t>(s)]);
        }
      }
    }
    for (auto& store : stores) (void)store->CompactAll();
    for (int round = 0; round < 4; ++round) {
      for (uint64_t i = 0; i < kKeys / 20; ++i) {
        const uint64_t k = rng.Uniform(kKeys);
        for (int r = 0; r < kReplicas; ++r) {
          (void)stores[static_cast<size_t>(shard_of(k) * kReplicas + r)]->Put(
              BenchKey(k), value);
        }
      }
      for (uint64_t k = 0; k < kKeys; ++k) {
        for (int r = 0; r < kReplicas; ++r) {
          (void)stores[static_cast<size_t>(shard_of(k) * kReplicas + r)]->Get(
              BenchKey(k));
        }
      }
    }
    uint64_t cache_bytes = 0;
    uint64_t live_bytes = 0;
    uint64_t hits = 0;
    uint64_t lookups = 0;
    for (auto& store : stores) {
      const lsm::LsmStats stats = store->GetStats();
      cache_bytes += stats.block_cache_bytes;
      for (const auto& level : stats.levels) live_bytes += level.bytes;
      hits += stats.block_cache_hits;
      lookups += stats.block_cache_hits + stats.block_cache_misses;
    }
    cache_mib = static_cast<double>(cache_bytes) / (1 << 20);
    live_mib = static_cast<double>(live_bytes) / (1 << 20);
    hit_ratio = static_cast<double>(hits) /
                static_cast<double>(std::max<uint64_t>(lookups, 1));
    stores.clear();
    for (const auto& dir : dirs) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
  state.counters["cache_mib_sum"] = cache_mib;
  state.counters["live_sst_mib_sum"] = live_mib;
  state.counters["hit_ratio"] = hit_ratio;
}
BENCHMARK(BM_StackShapedBlockCache)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Set-up of the stack-read-batch scoreboard workload's LSM layer: open the
// 3 shards x 3 replicas = 9 stores (128 KiB memtable, sync_writes on),
// preload 10000 1-KiB keys in 256-key MultiPut batches applied to all three
// replicas of each shard, then CompactAll every store. Values are generated
// before the timed region, so the row is the engine's own work: WAL framing
// and fsync, flushes, SST block/index/filter CRCs and the compaction's
// re-read and rewrite. Process CPU covers the background flush threads.
void BM_StackShapedPreload(benchmark::State& state) {
  constexpr int kShards = 3;
  constexpr int kReplicas = 3;
  constexpr uint64_t kKeys = 10000;
  constexpr uint64_t kBatch = 256;
  Random rng(0x9E);
  std::vector<ValuePtr> values;
  for (uint64_t k = 0; k < kKeys; ++k) {
    values.push_back(MakeValue(rng.CompressibleBytes(1024, 0.5)));
  }
  int round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::filesystem::path> dirs;
    for (int i = 0; i < kShards * kReplicas; ++i) {
      dirs.push_back(FreshDir("preload" + std::to_string(round) + "_" +
                              std::to_string(i)));
    }
    ++round;
    state.ResumeTiming();
    lsm::LsmOptions options;
    options.memtable_bytes = 128u << 10;
    std::vector<std::unique_ptr<lsm::LsmStore>> stores;
    for (const auto& dir : dirs) {
      stores.push_back(std::move(lsm::LsmStore::Open(dir, options)).value());
    }
    for (uint64_t first = 0; first < kKeys; first += kBatch) {
      std::vector<std::vector<std::pair<std::string, ValuePtr>>> batches(
          kShards);
      for (uint64_t k = first; k < std::min(kKeys, first + kBatch); ++k) {
        batches[k % kShards].emplace_back(BenchKey(k), values[k]);
      }
      for (int s = 0; s < kShards; ++s) {
        for (int r = 0; r < kReplicas; ++r) {
          const Status put =
              stores[static_cast<size_t>(s * kReplicas + r)]->MultiPut(
                  batches[static_cast<size_t>(s)]);
          if (!put.ok()) state.SkipWithError(put.ToString().c_str());
        }
      }
    }
    for (auto& store : stores) {
      const Status compact = store->CompactAll();
      if (!compact.ok()) state.SkipWithError(compact.ToString().c_str());
    }
    state.PauseTiming();
    stores.clear();
    for (const auto& dir : dirs) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKeys) * 1024 * kReplicas);
}
BENCHMARK(BM_StackShapedPreload)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Iterations(5);

}  // namespace
}  // namespace dstore

BENCHMARK_MAIN();
