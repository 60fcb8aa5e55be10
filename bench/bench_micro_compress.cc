// Microbenchmarks for the compression substrate: deflate levels (ablation
// on chain depth / lazy matching), redundancy sensitivity, inflate, and the
// CRC-32 kernel every store format and the gzip trailer share. The
// *Value rows use the DSCL's value sizes (1-4 KiB), where the fixed per-call
// cost dominates; the 100 KB and 1 MB rows hide it.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
#include "compress/crc32.h"
#include "compress/deflate.h"
#include "compress/gzip.h"
#include "compress/huffman.h"

namespace dstore {
namespace {

Bytes TestData(size_t n, double redundancy) {
  Random rng(21);
  return rng.CompressibleBytes(n, redundancy);
}

void BM_DeflateCompressLevels(benchmark::State& state) {
  const auto level = static_cast<DeflateLevel>(state.range(0));
  const Bytes data = TestData(100000, 0.6);
  size_t compressed_size = 0;
  for (auto _ : state) {
    const Bytes out = DeflateCompress(data, level);
    compressed_size = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 100000);
  state.counters["ratio"] =
      static_cast<double>(compressed_size) / static_cast<double>(data.size());
}
BENCHMARK(BM_DeflateCompressLevels)
    ->Arg(static_cast<int>(DeflateLevel::kStored))
    ->Arg(static_cast<int>(DeflateLevel::kFast))
    ->Arg(static_cast<int>(DeflateLevel::kDefault))
    ->Arg(static_cast<int>(DeflateLevel::kBest));

void BM_DeflateRedundancySweep(benchmark::State& state) {
  const double redundancy = static_cast<double>(state.range(0)) / 100.0;
  const Bytes data = TestData(100000, redundancy);
  size_t compressed_size = 0;
  for (auto _ : state) {
    const Bytes out = DeflateCompress(data);
    compressed_size = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["ratio"] =
      static_cast<double>(compressed_size) / static_cast<double>(data.size());
}
BENCHMARK(BM_DeflateRedundancySweep)->Arg(0)->Arg(50)->Arg(95);

void BM_Inflate(benchmark::State& state) {
  const Bytes data = TestData(static_cast<size_t>(state.range(0)), 0.6);
  const Bytes compressed = DeflateCompress(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeflateDecompress(compressed));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Inflate)->Arg(10000)->Arg(1000000);

void BM_GzipRoundTrip(benchmark::State& state) {
  const Bytes data = TestData(100000, 0.6);
  for (auto _ : state) {
    auto decompressed = GzipDecompress(GzipCompress(data));
    benchmark::DoNotOptimize(decompressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 200000);
}
BENCHMARK(BM_GzipRoundTrip);

// 400 values of 1-4 KiB at redundancy 0.5, like the scoreboard's
// cloud-read-mostly preload. One iteration handles one value.
const std::vector<Bytes>& DsclValues() {
  static const std::vector<Bytes> values = [] {
    Random rng(400);
    std::vector<Bytes> v;
    for (int i = 0; i < 400; ++i) {
      v.push_back(rng.CompressibleBytes(1024 + rng.Uniform(3073), 0.5));
    }
    return v;
  }();
  return values;
}

void BM_GzipCompressValue(benchmark::State& state) {
  const std::vector<Bytes>& values = DsclValues();
  size_t i = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    const Bytes& value = values[i++ % values.size()];
    benchmark::DoNotOptimize(GzipCompress(value));
    bytes += static_cast<int64_t>(value.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_GzipCompressValue)->Unit(benchmark::kMicrosecond);

void BM_GzipDecompressValue(benchmark::State& state) {
  std::vector<Bytes> compressed;
  for (const Bytes& value : DsclValues()) {
    compressed.push_back(GzipCompress(value));
  }
  size_t i = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    auto out = GzipDecompress(compressed[i++ % compressed.size()]);
    bytes += static_cast<int64_t>(out->size());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_GzipDecompressValue)->Unit(benchmark::kMicrosecond);

// CRC-32 over a buffer of state.range(0) bytes: 64 B is a WAL record
// header's scale, 4 KiB an SST block, 64 KiB a large value or gzip body.
void BM_Crc32(benchmark::State& state) {
  const Bytes data = TestData(static_cast<size_t>(state.range(0)), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(4096)->Arg(65536);

// Package-merge over the literal/length alphabet (286 symbols, 15-bit
// limit) with the skewed, tie-heavy counts a 1-4 KiB block produces.
void BM_HuffmanCodeLengths286(benchmark::State& state) {
  Random rng(286);
  std::vector<std::vector<uint64_t>> freqs(64, std::vector<uint64_t>(286));
  for (auto& f : freqs) {
    for (size_t s = 0; s < f.size(); ++s) {
      f[s] = rng.Bernoulli(0.2) ? 0 : rng.Uniform(s < 256 ? 40 : 8);
    }
    f[256] = 1;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildHuffmanCodeLengths(freqs[i++ % freqs.size()], 15));
  }
}
BENCHMARK(BM_HuffmanCodeLengths286)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dstore

BENCHMARK_MAIN();
