#include "compress/deflate.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "compress/bitstream.h"
#include "compress/huffman.h"

namespace dstore {
namespace {

// Recorded from the original symbol-list package-merge encoder.
constexpr size_t kGoldenTotalBytes = 3272329;
constexpr uint64_t kGoldenDigest = 2212221308955552213ull;

void ExpectRoundTrip(const Bytes& input, DeflateLevel level) {
  const Bytes compressed = DeflateCompress(input, level);
  auto decompressed = DeflateDecompress(compressed);
  ASSERT_TRUE(decompressed.ok()) << decompressed.status().ToString();
  EXPECT_EQ(*decompressed, input);
}

TEST(DeflateTest, EmptyInput) {
  ExpectRoundTrip({}, DeflateLevel::kDefault);
  ExpectRoundTrip({}, DeflateLevel::kStored);
}

TEST(DeflateTest, SingleByte) { ExpectRoundTrip({0x42}, DeflateLevel::kDefault); }

TEST(DeflateTest, ShortText) {
  ExpectRoundTrip(ToBytes("hello world"), DeflateLevel::kDefault);
}

TEST(DeflateTest, HighlyRepetitiveCompressesWell) {
  const Bytes input(100000, 'a');
  const Bytes compressed = DeflateCompress(input, DeflateLevel::kDefault);
  EXPECT_LT(compressed.size(), input.size() / 50);
  auto decompressed = DeflateDecompress(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, input);
}

TEST(DeflateTest, RepeatedPhraseUsesMatches) {
  Bytes input;
  for (int i = 0; i < 500; ++i) {
    const std::string phrase = "the quick brown fox #" + std::to_string(i % 7);
    input.insert(input.end(), phrase.begin(), phrase.end());
  }
  const Bytes compressed = DeflateCompress(input, DeflateLevel::kDefault);
  EXPECT_LT(compressed.size(), input.size() / 4);
  ExpectRoundTrip(input, DeflateLevel::kDefault);
}

TEST(DeflateTest, IncompressibleDataFallsBackToStored) {
  Random rng(42);
  const Bytes input = rng.RandomBytes(10000);
  const Bytes compressed = DeflateCompress(input, DeflateLevel::kDefault);
  // Stored fallback bounds expansion to block framing overhead.
  EXPECT_LT(compressed.size(), input.size() + 64);
  ExpectRoundTrip(input, DeflateLevel::kDefault);
}

TEST(DeflateTest, StoredLevelRoundTripsLargeInput) {
  Random rng(7);
  // Exercises the multi-block stored path (> 65535 bytes).
  const Bytes input = rng.RandomBytes(150000);
  ExpectRoundTrip(input, DeflateLevel::kStored);
}

TEST(DeflateTest, AllLevelsRoundTrip) {
  Random rng(11);
  Bytes input = rng.CompressibleBytes(50000, 0.7);
  for (DeflateLevel level : {DeflateLevel::kStored, DeflateLevel::kFast,
                             DeflateLevel::kDefault, DeflateLevel::kBest}) {
    ExpectRoundTrip(input, level);
  }
}

TEST(DeflateTest, BestLevelAtLeastAsSmallAsFast) {
  Random rng(13);
  const Bytes input = rng.CompressibleBytes(80000, 0.6);
  const size_t fast = DeflateCompress(input, DeflateLevel::kFast).size();
  const size_t best = DeflateCompress(input, DeflateLevel::kBest).size();
  EXPECT_LE(best, fast + fast / 20);  // allow 5% slack; usually strictly less
}

TEST(DeflateTest, OverlappingMatchesDecodeCorrectly) {
  // "abcabcabc..." produces matches with distance < length (RLE-style).
  Bytes input;
  for (int i = 0; i < 1000; ++i) input.push_back("abc"[i % 3]);
  ExpectRoundTrip(input, DeflateLevel::kDefault);
}

TEST(DeflateTest, MatchesAcross32KWindow) {
  Random rng(17);
  Bytes chunk = rng.RandomBytes(1000);
  Bytes input;
  // Repeat the same chunk at distances beyond the window so some repeats
  // cannot be matched; correctness must hold regardless.
  for (int i = 0; i < 80; ++i) {
    input.insert(input.end(), chunk.begin(), chunk.end());
  }
  ExpectRoundTrip(input, DeflateLevel::kDefault);
}

TEST(DeflateTest, BinaryDataWithAllByteValues) {
  Bytes input;
  for (int rep = 0; rep < 40; ++rep) {
    for (int b = 0; b < 256; ++b) input.push_back(static_cast<uint8_t>(b));
  }
  ExpectRoundTrip(input, DeflateLevel::kDefault);
}

TEST(DeflateTest, RandomizedRoundTripProperty) {
  Random rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t size = rng.Uniform(20000);
    const double redundancy = rng.NextDouble();
    ExpectRoundTrip(rng.CompressibleBytes(size, redundancy),
                    DeflateLevel::kDefault);
  }
}

TEST(DeflateTest, MaxOutputLimitEnforced) {
  const Bytes input(10000, 'x');
  const Bytes compressed = DeflateCompress(input, DeflateLevel::kDefault);
  auto limited = DeflateDecompress(compressed, 100);
  EXPECT_TRUE(limited.status().IsInvalidArgument());
  auto unlimited = DeflateDecompress(compressed, 10000);
  EXPECT_TRUE(unlimited.ok());
}

TEST(DeflateTest, TruncatedStreamReportsCorruption) {
  const Bytes input = ToBytes("some data to compress for truncation test");
  Bytes compressed = DeflateCompress(input, DeflateLevel::kDefault);
  compressed.resize(compressed.size() / 2);
  EXPECT_FALSE(DeflateDecompress(compressed).ok());
}

TEST(DeflateTest, GarbageInputDoesNotCrash) {
  Random rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const Bytes garbage = rng.RandomBytes(1 + rng.Uniform(500));
    // Must return (any) status or valid data without crashing; cap output so
    // random streams that happen to parse cannot balloon.
    (void)DeflateDecompress(garbage, 1 << 20);
  }
}

TEST(DeflateTest, ReservedBlockTypeRejected) {
  // BFINAL=1, BTYPE=11 (reserved).
  Bytes bad = {0x07};
  EXPECT_TRUE(DeflateDecompress(bad).status().IsCorruption());
}

// Text-like input: words from a small vocabulary with numbers, so the
// literal alphabet is skewed, ties are common and matches span many
// distances. CompressibleBytes alone only repeats one 64-byte pattern.
Bytes WordSoup(Random* rng, size_t n) {
  static const char* const kWords[] = {
      "the",   "data",  "store", "client", "cache", "value",  "key",
      "put",   "get",   "cloud", "gzip",   "aes",   "encrypt", "of",
      "a",     "to",    "and",   "server", "miss",  "hit",    "latency",
      "delta", "block", "redis", "sql",    "file",  "remote", "object"};
  Bytes out;
  out.reserve(n + 16);
  while (out.size() < n) {
    const std::string word =
        kWords[rng->Uniform(sizeof(kWords) / sizeof(kWords[0]))];
    out.insert(out.end(), word.begin(), word.end());
    if (rng->Bernoulli(0.2)) {
      const std::string num = std::to_string(rng->Uniform(100000));
      out.insert(out.end(), num.begin(), num.end());
    }
    out.push_back(rng->Bernoulli(0.1) ? '\n' : ' ');
  }
  out.resize(n);
  return out;
}

// The seeded corpus behind the golden digest: edge sizes, the DSCL's 1-4 KiB
// values, and sizes up to 64 KiB at redundancy 0-1, plus text, runs and
// ramps. Changing it changes the digest.
std::vector<Bytes> GoldenCorpus() {
  Random rng(20170417);
  std::vector<Bytes> corpus;
  for (size_t size : {0, 1, 2, 3, 4, 5, 257, 258, 259, 1024, 4096, 65535,
                      65536}) {
    corpus.push_back(rng.CompressibleBytes(size, rng.NextDouble()));
  }
  for (int i = 0; i < 48; ++i) {
    const size_t size =
        i % 2 == 0 ? 1024 + rng.Uniform(3073) : rng.Uniform(65537);
    const double redundancy = static_cast<double>(rng.Uniform(11)) / 10.0;
    corpus.push_back(rng.CompressibleBytes(size, redundancy));
  }
  for (int i = 0; i < 12; ++i) {
    corpus.push_back(WordSoup(&rng, i % 3 == 0 ? rng.Uniform(65537)
                                               : 1024 + rng.Uniform(3073)));
  }
  corpus.push_back(Bytes(65536, 'a'));
  corpus.push_back(Bytes(1000, 0));
  Bytes ramp;
  for (int i = 0; i < 20000; ++i) ramp.push_back(static_cast<uint8_t>(i * 7));
  corpus.push_back(ramp);
  return corpus;
}

// DeflateCompress output is part of the stored data format: every level must
// keep producing exactly the bytes it did when this digest was recorded.
TEST(DeflateTest, GoldenDigestAtEveryLevel) {
  uint64_t digest = 0;
  size_t total = 0;
  for (const Bytes& input : GoldenCorpus()) {
    for (DeflateLevel level : {DeflateLevel::kStored, DeflateLevel::kFast,
                               DeflateLevel::kDefault, DeflateLevel::kBest}) {
      const Bytes out = DeflateCompress(input, level);
      digest = Mix64(digest ^ Fnv1a64(out.data(), out.size()));
      total += out.size();
    }
  }
  EXPECT_EQ(total, kGoldenTotalBytes);
  EXPECT_EQ(digest, kGoldenDigest);
}

TEST(DeflateTest, StoredLenNlenMismatchRejected) {
  // BFINAL=1, BTYPE=00, then LEN=1, NLEN=0 (should be ~1).
  Bytes bad = {0x01, 0x01, 0x00, 0x00, 0x00, 0xaa};
  EXPECT_TRUE(DeflateDecompress(bad).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Hostile input. Every stream below must come back as a non-OK Status (or,
// for the controls, the intended bytes) without crashing or reading out of
// bounds; the asan and ubsan CI legs run these.
// ---------------------------------------------------------------------------

constexpr int kClOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                              11, 4,  12, 3, 13, 2, 14, 1, 15};

// Hand-assembles DEFLATE streams bit by bit.
class Forge {
 public:
  void Bits(uint32_t value, int count) { writer_.WriteBits(value, count); }
  // A Huffman code, most significant bit first.
  void Code(uint32_t code, int length) {
    writer_.WriteBits(ReverseBits(code, length), length);
  }
  // Literal/length symbol under the fixed code (RFC 1951 §3.2.6).
  void FixedSymbol(int symbol) {
    if (symbol < 144) {
      Code(0x30 + symbol, 8);
    } else if (symbol < 256) {
      Code(0x190 + symbol - 144, 9);
    } else if (symbol < 280) {
      Code(symbol - 256, 7);
    } else {
      Code(0xc0 + symbol - 280, 8);
    }
  }
  void FixedDistance(int code) { Code(code, 5); }
  void FixedHeader() {
    Bits(1, 1);  // BFINAL
    Bits(1, 2);  // fixed Huffman
  }
  Bytes Finish() {
    writer_.Finish();
    return bytes_;
  }

 private:
  Bytes bytes_;
  BitWriter writer_{&bytes_};
};

struct ClSym {
  int symbol;
  uint32_t extra = 0;
  int extra_bits = 0;
};

// Writes a dynamic block header: the code-length code given by `cl_lengths`
// (indexed by symbol), then `cl_stream` coded with it.
void DynamicHeader(Forge* f, uint32_t hlit, uint32_t hdist,
                   const std::vector<int>& cl_lengths,
                   const std::vector<ClSym>& cl_stream) {
  f->Bits(1, 1);  // BFINAL
  f->Bits(2, 2);  // dynamic Huffman
  f->Bits(hlit - 257, 5);
  f->Bits(hdist - 1, 5);
  f->Bits(19 - 4, 4);
  for (int i = 0; i < 19; ++i) f->Bits(cl_lengths[kClOrder[i]], 3);
  const std::vector<uint32_t> codes = BuildCanonicalCodes(cl_lengths);
  for (const ClSym& s : cl_stream) {
    f->Code(codes[s.symbol], cl_lengths[s.symbol]);
    f->Bits(s.extra, s.extra_bits);
  }
}

// Code-length code with symbols 0, 1 and 18 at length 2 (incomplete, which
// DEFLATE allows).
std::vector<int> SmallClCode() {
  std::vector<int> cl(19, 0);
  cl[0] = cl[1] = cl[18] = 2;
  return cl;
}

// Lengths for HLIT=257, HDIST=1: 'a' and end-of-block at length 1, one
// distance code at length 1.
std::vector<ClSym> TwoSymbolLengths() {
  return {{18, 97 - 11, 7}, {1}, {18, 138 - 11, 7}, {18, 20 - 11, 7},
          {1},              {1}};
}

// Expects `stream` to fail with Corruption whose message contains `why`.
void ExpectCorrupt(const Bytes& stream, const std::string& why) {
  const Status status = DeflateDecompress(stream, 1 << 20).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find(why), std::string::npos)
      << status.ToString() << " lacks '" << why << "'";
}

TEST(DeflateHostileTest, ForgedDynamicControlDecodes) {
  // Guards the forging helpers: the unmodified forged block is valid.
  Forge f;
  DynamicHeader(&f, 257, 1, SmallClCode(), TwoSymbolLengths());
  f.Code(0, 1);  // 'a'
  f.Code(0, 1);  // 'a'
  f.Code(1, 1);  // end of block
  auto out = DeflateDecompress(f.Finish());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, ToBytes("aa"));
}

TEST(DeflateHostileTest, AlphabetSizesPastTheLimitRejected) {
  for (uint32_t hlit : {287u, 288u}) {
    Forge f;
    DynamicHeader(&f, hlit, 1, SmallClCode(), {});
    SCOPED_TRACE(hlit);
    ExpectCorrupt(f.Finish(), "alphabet too large");
  }
  for (uint32_t hdist : {31u, 32u}) {
    Forge f;
    DynamicHeader(&f, 257, hdist, SmallClCode(), {});
    SCOPED_TRACE(hdist);
    ExpectCorrupt(f.Finish(), "alphabet too large");
  }
}

TEST(DeflateHostileTest, OversubscribedCodesRejected) {
  {  // code-length code: three codes of length 1
    std::vector<int> cl(19, 0);
    cl[0] = cl[1] = cl[18] = 1;
    Forge f;
    DynamicHeader(&f, 257, 1, cl, {});
    ExpectCorrupt(f.Finish(), "over-subscribed");
  }
  {  // literal/length code: 'a', 'b' and end-of-block all at length 1
    Forge f;
    DynamicHeader(&f, 257, 1, SmallClCode(),
                  {{18, 97 - 11, 7}, {1}, {1}, {18, 138 - 11, 7},
                   {18, 19 - 11, 7}, {1}, {1}});
    f.Code(0, 1);
    ExpectCorrupt(f.Finish(), "over-subscribed");
  }
  {  // distance code: three codes of length 1
    Forge f;
    auto lengths = TwoSymbolLengths();
    lengths.push_back({1});
    lengths.push_back({1});
    DynamicHeader(&f, 257, 3, SmallClCode(), lengths);
    f.Code(0, 1);
    ExpectCorrupt(f.Finish(), "over-subscribed");
  }
}

TEST(DeflateHostileTest, UnusedCodeOfIncompleteAlphabetRejected) {
  // 'a' -> 0, end-of-block -> 10; the code 11 is unused.
  std::vector<int> cl(19, 0);
  cl[0] = cl[1] = cl[2] = cl[18] = 2;
  Forge f;
  DynamicHeader(&f, 257, 1, cl,
                {{18, 97 - 11, 7}, {1}, {18, 138 - 11, 7}, {18, 20 - 11, 7},
                 {2}, {1}});
  f.Code(0, 1);  // 'a'
  f.Code(3, 2);  // unused
  ExpectCorrupt(f.Finish(), "invalid Huffman code");
}

TEST(DeflateHostileTest, RepeatCodeFirstRejected) {
  std::vector<int> cl = SmallClCode();
  cl[16] = 2;
  Forge f;
  DynamicHeader(&f, 257, 1, cl, {{16, 0, 2}});
  ExpectCorrupt(f.Finish(), "repeat code with no previous length");
}

TEST(DeflateHostileTest, CodeLengthRunPastHeaderCountsRejected) {
  Forge f;
  // 257 + 1 lengths expected; the second zero run overshoots by 100.
  DynamicHeader(&f, 257, 1, SmallClCode(),
                {{18, 138 - 11, 7}, {18, 138 - 11, 7}});
  ExpectCorrupt(f.Finish(), "overruns header counts");
}

TEST(DeflateHostileTest, FixedLengthSymbols286And287Rejected) {
  for (int symbol : {286, 287}) {
    Forge f;
    f.FixedHeader();
    f.FixedSymbol('a');
    f.FixedSymbol(symbol);
    f.FixedDistance(0);
    f.FixedSymbol(256);
    SCOPED_TRACE(symbol);
    ExpectCorrupt(f.Finish(), "invalid length code");
  }
}

TEST(DeflateHostileTest, FixedDistanceCodes30And31Rejected) {
  for (int code : {30, 31}) {
    Forge f;
    f.FixedHeader();
    for (char c : std::string("abc")) f.FixedSymbol(c);
    f.FixedSymbol(257);  // length 3
    f.FixedDistance(code);
    f.FixedSymbol(256);
    SCOPED_TRACE(code);
    ExpectCorrupt(f.Finish(), "invalid Huffman code");
  }
}

TEST(DeflateHostileTest, DistanceBeforeStartOfOutputRejected) {
  {  // a match with no output at all
    Forge f;
    f.FixedHeader();
    f.FixedSymbol(257);
    f.FixedDistance(0);  // distance 1
    f.FixedSymbol(256);
    ExpectCorrupt(f.Finish(), "distance exceeds output size");
  }
  {  // distance 3 after two bytes; distance 2 is the valid control
    for (int dcode : {1, 2}) {
      Forge f;
      f.FixedHeader();
      f.FixedSymbol('a');
      f.FixedSymbol('b');
      f.FixedSymbol(257);  // length 3
      f.FixedDistance(dcode);
      f.FixedSymbol(256);
      const Bytes stream = f.Finish();
      if (dcode == 1) {
        auto out = DeflateDecompress(stream);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        EXPECT_EQ(*out, ToBytes("ababa"));
      } else {
        ExpectCorrupt(stream, "distance exceeds output size");
      }
    }
  }
}

// Valid streams of every block type and level to mutate.
std::vector<Bytes> MutationCorpus() {
  Random rng(4242);
  std::vector<Bytes> corpus;
  corpus.push_back(DeflateCompress(ToBytes("hello hello hello world"),
                                   DeflateLevel::kFast));  // fixed block
  corpus.push_back(DeflateCompress(rng.CompressibleBytes(3000, 0.5)));
  corpus.push_back(
      DeflateCompress(rng.CompressibleBytes(2000, 0.9), DeflateLevel::kBest));
  corpus.push_back(DeflateCompress(rng.RandomBytes(700)));  // stored
  corpus.push_back(
      DeflateCompress(rng.RandomBytes(300), DeflateLevel::kStored));
  corpus.push_back(DeflateCompress(Bytes(5000, 'z')));  // long runs
  return corpus;
}

TEST(DeflateHostileTest, BitFlipsNeverCrash) {
  Random rng(99);
  int rejected = 0;
  for (const Bytes& stream : MutationCorpus()) {
    for (int trial = 0; trial < 300; ++trial) {
      Bytes mutated = stream;
      const int flips =
          trial % 2 == 0 ? 1 : 2 + static_cast<int>(rng.Uniform(7));
      for (int i = 0; i < flips; ++i) {
        const size_t bit = rng.Uniform(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      // Raw DEFLATE has no checksum, so a flip may still decode; it must
      // then stay within the output limit.
      auto out = DeflateDecompress(mutated, 1 << 20);
      if (out.ok()) {
        EXPECT_LE(out->size(), size_t{1} << 20);
      } else {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(DeflateHostileTest, TruncationAtEveryByteRejected) {
  for (const Bytes& stream : MutationCorpus()) {
    for (size_t len = 0; len < stream.size(); ++len) {
      const Bytes cut(stream.begin(), stream.begin() + len);
      EXPECT_FALSE(DeflateDecompress(cut).ok()) << "cut at " << len;
    }
  }
}

TEST(DeflateHostileTest, OutputLimitHoldsForRunsAndStoredBlocks) {
  const Bytes runs = DeflateCompress(Bytes(100000, 'r'));
  const Bytes stored = DeflateCompress(Random(5).RandomBytes(100000));
  for (const Bytes* stream : {&runs, &stored}) {
    for (size_t limit : {1, 257, 65535, 99999}) {
      EXPECT_TRUE(
          DeflateDecompress(*stream, limit).status().IsInvalidArgument())
          << limit;
    }
    EXPECT_TRUE(DeflateDecompress(*stream, 100000).ok());
  }
}

TEST(DeflateTest, LongOverlappingMatchesAtEveryShortDistance) {
  // Runs with period 1..20 exercise the byte, memset and chunked copies.
  for (int period = 1; period <= 20; ++period) {
    Bytes input;
    for (int i = 0; i < 3000; ++i) {
      input.push_back(static_cast<uint8_t>('A' + i % period));
    }
    ExpectRoundTrip(input, DeflateLevel::kDefault);
  }
}

}  // namespace
}  // namespace dstore
