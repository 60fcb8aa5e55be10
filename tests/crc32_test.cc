#include "compress/crc32.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/random.h"

namespace dstore {
namespace {

// Bit-at-a-time CRC-32 straight from the definition (reflected polynomial
// 0xEDB88320, pre- and post-inverted), with no tables: the oracle the
// table-driven kernel must match bit for bit.
uint32_t ReferenceCrc32(const uint8_t* p, size_t len, uint32_t seed = 0) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1)));
  }
  return ~c;
}

Bytes SeededBytes(size_t n, uint64_t seed) {
  Random rng(seed);
  Bytes out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Uniform(256));
  return out;
}

TEST(Crc32Test, StandardCheckValue) {
  // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
  const std::string msg = "123456789";
  EXPECT_EQ(Crc32(msg.data(), msg.size()), 0xcbf43926u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(Crc32(nullptr, 0), 0u); }

TEST(Crc32Test, KnownVectors) {
  const std::string a = "a";
  EXPECT_EQ(Crc32(a.data(), a.size()), 0xe8b7be43u);
  const std::string abc = "abc";
  EXPECT_EQ(Crc32(abc.data(), abc.size()), 0x352441c2u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const Bytes data = ToBytes("incremental checksum computation works");
  const uint32_t whole = Crc32(data);
  for (size_t split = 0; split <= data.size(); split += 7) {
    uint32_t part = Crc32(data.data(), split);
    part = Crc32(data.data() + split, data.size() - split, part);
    EXPECT_EQ(part, whole) << split;
  }
}

// Every length 0-1024 at 16 start offsets: covers each tail length after
// the wide loop and every alignment of the first word load.
TEST(Crc32Test, MatchesReferenceAtEveryLengthAndOffset) {
  const Bytes data = SeededBytes(1024 + 16, 0xc3c3);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint8_t* p = data.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOn64KiB) {
  const Bytes data = SeededBytes(64 << 10, 20170417);
  EXPECT_EQ(Crc32(data), ReferenceCrc32(data.data(), data.size()));
  const Bytes zeros(64 << 10, 0);
  EXPECT_EQ(Crc32(zeros), ReferenceCrc32(zeros.data(), zeros.size()));
  const Bytes ones(64 << 10, 0xff);
  EXPECT_EQ(Crc32(ones), ReferenceCrc32(ones.data(), ones.size()));
}

// Chaining through `seed` at every split 0-40 of a 100-byte buffer, so that
// both halves start and end on and off the 8- and 16-byte word boundaries.
TEST(Crc32Test, SeedChainingMatchesReferenceAtEverySplit) {
  const Bytes data = SeededBytes(100, 77);
  const uint32_t whole = ReferenceCrc32(data.data(), data.size());
  for (size_t split = 0; split <= 40; ++split) {
    const uint32_t head = Crc32(data.data(), split);
    EXPECT_EQ(head, ReferenceCrc32(data.data(), split)) << split;
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, head), whole)
        << split;
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, 0x12345678u),
              ReferenceCrc32(data.data() + split, data.size() - split,
                             0x12345678u))
        << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  Bytes data = ToBytes("payload under test");
  const uint32_t original = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32(data), original) << i;
    data[i] ^= 0x01;
  }
}

TEST(Crc32Test, DetectsTransposition) {
  Bytes data = ToBytes("ab");
  Bytes swapped = ToBytes("ba");
  EXPECT_NE(Crc32(data), Crc32(swapped));
}

}  // namespace
}  // namespace dstore
