#include "compress/huffman.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"

namespace dstore {
namespace {

double KraftSum(const std::vector<int>& lengths) {
  double sum = 0;
  for (int l : lengths) {
    if (l > 0) sum += std::pow(2.0, -l);
  }
  return sum;
}

// The original package-merge, which copies every leaf symbol into each
// package it joins. Kept as the oracle for the index-free version: both
// must return identical lengths, ties included, or the encoder's output
// bytes would change.
std::vector<int> ReferenceCodeLengths(const std::vector<uint64_t>& freqs,
                                      int max_bits) {
  struct Package {
    uint64_t weight;
    std::vector<int> symbols;
  };
  const auto weight_less = [](const Package& a, const Package& b) {
    return a.weight < b.weight;
  };
  std::vector<int> lengths(freqs.size(), 0);
  std::vector<Package> leaves;
  for (size_t i = 0; i < freqs.size(); ++i) {
    if (freqs[i] > 0) leaves.push_back({freqs[i], {static_cast<int>(i)}});
  }
  if (leaves.empty()) return lengths;
  if (leaves.size() == 1) {
    lengths[leaves[0].symbols[0]] = 1;
    return lengths;
  }
  std::sort(leaves.begin(), leaves.end(), weight_less);
  std::vector<Package> current = leaves;
  for (int level = 1; level < max_bits; ++level) {
    std::vector<Package> paired;
    for (size_t i = 0; i + 1 < current.size(); i += 2) {
      Package merged;
      merged.weight = current[i].weight + current[i + 1].weight;
      merged.symbols = current[i].symbols;
      merged.symbols.insert(merged.symbols.end(),
                            current[i + 1].symbols.begin(),
                            current[i + 1].symbols.end());
      paired.push_back(std::move(merged));
    }
    std::vector<Package> next;
    std::merge(paired.begin(), paired.end(), leaves.begin(), leaves.end(),
               std::back_inserter(next), weight_less);
    current = std::move(next);
  }
  const size_t take = 2 * (leaves.size() - 1);
  for (size_t i = 0; i < take && i < current.size(); ++i) {
    for (int sym : current[i].symbols) ++lengths[sym];
  }
  return lengths;
}

// One seeded frequency vector. Shapes: heavy ties, wide uniform counts,
// Fibonacci-like (forces the length limit), sparse, and one or two used
// symbols. At most 2^max_bits symbols are used.
std::vector<uint64_t> OracleFrequencies(Random* rng, size_t alphabet,
                                        int max_bits) {
  std::vector<uint64_t> freqs(alphabet, 0);
  const size_t max_used = std::min<size_t>(alphabet, size_t{1} << max_bits);
  switch (rng->Uniform(6)) {
    case 0:  // heavy ties
      for (auto& f : freqs) f = rng->Uniform(4);
      break;
    case 1:  // wide
      for (auto& f : freqs) f = rng->Bernoulli(0.3) ? 0 : rng->Uniform(5000);
      break;
    case 2: {  // Fibonacci-like with ties, deeper than max_bits
      uint64_t a = 1;
      uint64_t b = 1;
      for (auto& f : freqs) {
        f = rng->Bernoulli(0.5) ? a : b;
        const uint64_t c = a + b;
        a = b;
        b = c > (uint64_t{1} << 40) ? 1 : c;
      }
      break;
    }
    case 3:  // sparse
      for (auto& f : freqs) f = rng->Bernoulli(0.9) ? 0 : 1 + rng->Uniform(9);
      break;
    case 4:  // one used symbol
      freqs[rng->Uniform(alphabet)] = 1 + rng->Uniform(100);
      break;
    default:  // two used symbols, sometimes tied
      freqs[rng->Uniform(alphabet)] = 1 + rng->Uniform(3);
      freqs[rng->Uniform(alphabet)] = 1 + rng->Uniform(3);
      break;
  }
  // Drop used symbols beyond what max_bits can code.
  size_t used = 0;
  for (auto& f : freqs) {
    if (f > 0 && ++used > max_used) f = 0;
  }
  return freqs;
}

TEST(HuffmanLengthsTest, MatchesReferencePackageMerge) {
  Random rng(20170417);
  int checked = 0;
  for (size_t alphabet : {19, 30, 286}) {
    for (int max_bits : {7, 15}) {
      for (int trial = 0; trial < 400; ++trial) {
        const auto freqs = OracleFrequencies(&rng, alphabet, max_bits);
        ASSERT_EQ(BuildHuffmanCodeLengths(freqs, max_bits),
                  ReferenceCodeLengths(freqs, max_bits))
            << "alphabet " << alphabet << " max_bits " << max_bits
            << " trial " << trial;
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 2000);
}

TEST(HuffmanLengthsTest, AllZeroFrequencies) {
  auto lengths = BuildHuffmanCodeLengths({0, 0, 0}, 15);
  EXPECT_EQ(lengths, (std::vector<int>{0, 0, 0}));
}

TEST(HuffmanLengthsTest, SingleSymbolGetsLengthOne) {
  auto lengths = BuildHuffmanCodeLengths({0, 42, 0}, 15);
  EXPECT_EQ(lengths, (std::vector<int>{0, 1, 0}));
}

TEST(HuffmanLengthsTest, TwoEqualSymbols) {
  auto lengths = BuildHuffmanCodeLengths({5, 5}, 15);
  EXPECT_EQ(lengths, (std::vector<int>{1, 1}));
}

TEST(HuffmanLengthsTest, SkewedFrequenciesGiveShorterCodesToCommonSymbols) {
  auto lengths = BuildHuffmanCodeLengths({100, 10, 10, 1}, 15);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[3]);
}

TEST(HuffmanLengthsTest, RespectsMaxBits) {
  // Fibonacci-like frequencies force deep trees without a limit.
  std::vector<uint64_t> freqs = {1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144};
  for (int max_bits : {4, 5, 7, 15}) {
    auto lengths = BuildHuffmanCodeLengths(freqs, max_bits);
    for (int l : lengths) EXPECT_LE(l, max_bits);
    EXPECT_LE(KraftSum(lengths), 1.0 + 1e-9);
  }
}

TEST(HuffmanLengthsTest, KraftEqualityForCompleteCodes) {
  // With >= 2 symbols, package-merge produces a complete code.
  auto lengths = BuildHuffmanCodeLengths({3, 9, 27, 81, 243}, 15);
  EXPECT_NEAR(KraftSum(lengths), 1.0, 1e-12);
}

TEST(HuffmanLengthsTest, RandomizedKraftAndOptimalityProperty) {
  Random rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 2 + rng.Uniform(60);
    std::vector<uint64_t> freqs(n);
    for (auto& f : freqs) f = rng.Uniform(1000);
    // Ensure at least two nonzero so a real code exists.
    freqs[0] = 1 + freqs[0];
    freqs[1] = 1 + freqs[1];
    auto lengths = BuildHuffmanCodeLengths(freqs, 15);
    EXPECT_LE(KraftSum(lengths), 1.0 + 1e-9);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(lengths[i] == 0, freqs[i] == 0);
    }
  }
}

TEST(CanonicalCodesTest, MatchesRfc1951Example) {
  // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) -> codes
  // (010,011,100,101,110,00,1110,1111).
  std::vector<int> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  auto codes = BuildCanonicalCodes(lengths);
  EXPECT_EQ(codes[5], 0b00u);
  EXPECT_EQ(codes[0], 0b010u);
  EXPECT_EQ(codes[1], 0b011u);
  EXPECT_EQ(codes[2], 0b100u);
  EXPECT_EQ(codes[3], 0b101u);
  EXPECT_EQ(codes[4], 0b110u);
  EXPECT_EQ(codes[6], 0b1110u);
  EXPECT_EQ(codes[7], 0b1111u);
}

TEST(CanonicalCodesTest, CodesArePrefixFree) {
  std::vector<int> lengths = {2, 3, 3, 3, 4, 4, 4, 4, 2};
  auto codes = BuildCanonicalCodes(lengths);
  for (size_t i = 0; i < lengths.size(); ++i) {
    for (size_t j = 0; j < lengths.size(); ++j) {
      if (i == j || lengths[i] == 0 || lengths[j] == 0) continue;
      if (lengths[i] <= lengths[j]) {
        const uint32_t prefix = codes[j] >> (lengths[j] - lengths[i]);
        EXPECT_FALSE(prefix == codes[i] && i != j)
            << "code " << i << " is a prefix of code " << j;
      }
    }
  }
}

TEST(HuffmanDecoderTest, RejectsEmptyAlphabet) {
  EXPECT_FALSE(HuffmanDecoder::Build({0, 0, 0}).ok());
}

TEST(HuffmanDecoderTest, RejectsOversubscribedCode) {
  // Three codes of length 1 cannot exist.
  EXPECT_TRUE(
      HuffmanDecoder::Build({1, 1, 1}).status().IsCorruption());
}

TEST(HuffmanDecoderTest, RejectsOutOfRangeLength) {
  EXPECT_TRUE(HuffmanDecoder::Build({16}).status().IsCorruption());
}

TEST(HuffmanDecoderTest, EncodeDecodeRoundTrip) {
  Random rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t alphabet = 2 + rng.Uniform(100);
    std::vector<uint64_t> freqs(alphabet);
    for (auto& f : freqs) f = 1 + rng.Uniform(500);
    auto lengths = BuildHuffmanCodeLengths(freqs, 15);
    auto codes = BuildCanonicalCodes(lengths);
    auto decoder = HuffmanDecoder::Build(lengths);
    ASSERT_TRUE(decoder.ok());

    // Encode a random symbol stream and decode it back.
    std::vector<int> symbols(200);
    for (auto& s : symbols) s = static_cast<int>(rng.Uniform(alphabet));
    Bytes buf;
    BitWriter writer(&buf);
    for (int s : symbols) {
      writer.WriteBits(ReverseBits(codes[s], lengths[s]), lengths[s]);
    }
    writer.Finish();

    BitReader reader(buf);
    for (int expected : symbols) {
      EXPECT_EQ(decoder->Decode(&reader), expected);
    }
  }
}

TEST(HuffmanDecoderTest, LongCodesTakeTheSlowPath) {
  // Fibonacci weights give codes up to the 15-bit limit, past the
  // decoder's single-lookup width.
  std::vector<uint64_t> freqs = {1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
                                 233, 377, 610, 987, 1597, 2584, 4181};
  auto lengths = BuildHuffmanCodeLengths(freqs, 15);
  ASSERT_EQ(*std::max_element(lengths.begin(), lengths.end()), 15);
  auto codes = BuildCanonicalCodes(lengths);
  auto decoder = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(decoder.ok());
  Bytes buf;
  BitWriter writer(&buf);
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t s = 0; s < freqs.size(); ++s) {
      writer.WriteBits(ReverseBits(codes[s], lengths[s]), lengths[s]);
    }
  }
  writer.Finish();
  BitReader reader(buf);
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t s = 0; s < freqs.size(); ++s) {
      EXPECT_EQ(decoder->Decode(&reader), static_cast<int>(s));
    }
  }
}

TEST(HuffmanDecoderTest, UnusedCodeIsInvalid) {
  // Incomplete code: 0 -> symbol 0, 10 -> symbol 1; 11 is unused.
  auto decoder = HuffmanDecoder::Build({1, 2});
  ASSERT_TRUE(decoder.ok());
  Bytes buf = {0xff, 0xff};
  BitReader reader(buf);
  EXPECT_EQ(decoder->Decode(&reader), HuffmanDecoder::kInvalidCode);
}

TEST(HuffmanDecoderTest, TruncatedCodeIsEndOfInput) {
  // All lengths 12: every code needs 12 bits, the input has 8.
  auto decoder = HuffmanDecoder::Build(std::vector<int>(4096, 12));
  ASSERT_TRUE(decoder.ok());
  Bytes buf = {0x00};
  BitReader reader(buf);
  EXPECT_EQ(decoder->Decode(&reader), HuffmanDecoder::kEndOfInput);
}

TEST(HuffmanCodesTest, ReverseBits) {
  EXPECT_EQ(ReverseBits(0b110, 3), 0b011u);
  EXPECT_EQ(ReverseBits(0b1, 1), 0b1u);
  EXPECT_EQ(ReverseBits(0b100000000000000, 15), 0b000000000000001u);
  // A reversed code goes out MSB first through the LSB-first writer.
  Bytes buf;
  BitWriter writer(&buf);
  writer.WriteBits(ReverseBits(0b110, 3), 3);
  writer.Finish();
  BitReader reader(buf);
  EXPECT_EQ(*reader.ReadBits(1), 1u);
  EXPECT_EQ(*reader.ReadBits(1), 1u);
  EXPECT_EQ(*reader.ReadBits(1), 0u);
}

TEST(HuffmanDecoderTest, AllOnesInputRunsOutCleanly) {
  // A code with max length 2 cannot decode the all-ones stream forever.
  auto decoder = HuffmanDecoder::Build({1, 2, 0, 2});
  ASSERT_TRUE(decoder.ok());
  Bytes buf = {0xff};
  BitReader reader(buf);
  // Symbols decode until bits run out.
  int last = 0;
  for (int i = 0; i < 20 && last >= 0; ++i) last = decoder->Decode(&reader);
  EXPECT_EQ(last, HuffmanDecoder::kEndOfInput);
}

}  // namespace
}  // namespace dstore
