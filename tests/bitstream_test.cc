#include "compress/bitstream.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace dstore {
namespace {

TEST(BitstreamTest, SingleByteRoundTrip) {
  Bytes buf;
  BitWriter writer(&buf);
  writer.WriteBits(0b101, 3);
  writer.WriteBits(0b11011, 5);
  writer.Finish();
  ASSERT_EQ(buf.size(), 1u);

  BitReader reader(buf);
  EXPECT_EQ(*reader.ReadBits(3), 0b101u);
  EXPECT_EQ(*reader.ReadBits(5), 0b11011u);
}

TEST(BitstreamTest, LsbFirstPacking) {
  Bytes buf;
  BitWriter writer(&buf);
  writer.WriteBits(1, 1);  // bit 0 of first byte
  writer.WriteBits(0, 1);
  writer.WriteBits(1, 1);  // bit 2
  writer.Finish();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0b00000101);
}

TEST(BitstreamTest, MultiByteValues) {
  Bytes buf;
  BitWriter writer(&buf);
  writer.WriteBits(0x12345, 20);
  writer.WriteBits(0xabc, 12);
  writer.Finish();
  BitReader reader(buf);
  EXPECT_EQ(*reader.ReadBits(20), 0x12345u);
  EXPECT_EQ(*reader.ReadBits(12), 0xabcu);
}

TEST(BitstreamTest, ZeroBitReadAndWrite) {
  Bytes buf;
  BitWriter writer(&buf);
  writer.WriteBits(0, 0);
  writer.WriteBits(0x7, 3);
  writer.Finish();
  BitReader reader(buf);
  EXPECT_EQ(*reader.ReadBits(0), 0u);
  EXPECT_EQ(*reader.ReadBits(3), 0x7u);
}

TEST(BitstreamTest, AlignThenBytes) {
  Bytes buf;
  BitWriter writer(&buf);
  writer.WriteBits(0b1, 1);
  writer.AlignToByte();
  const uint8_t raw[3] = {0xde, 0xad, 0xbe};
  writer.WriteBytes(raw, 3);
  writer.Finish();
  ASSERT_EQ(buf.size(), 4u);

  BitReader reader(buf);
  EXPECT_EQ(*reader.ReadBits(1), 1u);
  reader.AlignToByte();
  uint8_t out[3];
  ASSERT_TRUE(reader.ReadBytes(out, 3).ok());
  EXPECT_EQ(out[0], 0xde);
  EXPECT_EQ(out[1], 0xad);
  EXPECT_EQ(out[2], 0xbe);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BitstreamTest, AlignedBytesSpanLookaheadAndInput) {
  // 20 bytes: the first refill buffers 7 whole bytes past the 3 bits read,
  // so ReadBytes must drain the buffer before copying from the input.
  Bytes buf;
  for (int i = 0; i < 20; ++i) buf.push_back(static_cast<uint8_t>(i * 17));
  BitReader reader(buf);
  EXPECT_EQ(*reader.ReadBits(3), buf[0] & 7u);
  reader.AlignToByte();
  uint8_t out[12];
  ASSERT_TRUE(reader.ReadBytes(out, 12).ok());
  for (int i = 0; i < 12; ++i) EXPECT_EQ(out[i], buf[1 + i]) << i;
  // Bits after the copied bytes come from the right place.
  EXPECT_EQ(*reader.ReadBits(8), buf[13]);
  EXPECT_EQ(*reader.ReadBits(16), buf[14] | (buf[15] << 8));
  uint8_t rest[4];
  ASSERT_TRUE(reader.ReadBytes(rest, 4).ok());
  EXPECT_EQ(rest[3], buf[19]);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BitstreamTest, PeekPastEndReadsZero) {
  Bytes buf = {0xff, 0x01};
  BitReader reader(buf);
  reader.Refill();
  EXPECT_EQ(reader.BitsAvailable(), 16);
  EXPECT_EQ(reader.PeekBits(), 0x01ffu);
  reader.Consume(12);
  EXPECT_EQ(reader.BitsAvailable(), 4);
  EXPECT_EQ(reader.PeekBits(), 0x0u);
}

TEST(BitstreamTest, ReadPastEndFails) {
  Bytes buf = {0xff};
  BitReader reader(buf);
  EXPECT_TRUE(reader.ReadBits(8).ok());
  EXPECT_TRUE(reader.ReadBits(1).status().IsCorruption());
}

TEST(BitstreamTest, ReadBytesPastEndFails) {
  Bytes buf = {0x01, 0x02};
  BitReader reader(buf);
  uint8_t out[3];
  EXPECT_TRUE(reader.ReadBytes(out, 3).IsCorruption());
}

TEST(BitstreamTest, RandomRoundTripProperty) {
  Random rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<uint32_t, int>> writes;
    Bytes buf;
    BitWriter writer(&buf);
    const int n = 1 + static_cast<int>(rng.Uniform(200));
    for (int i = 0; i < n; ++i) {
      const int count = 1 + static_cast<int>(rng.Uniform(24));
      const uint32_t value =
          static_cast<uint32_t>(rng.NextUint64()) & ((1u << count) - 1);
      writes.emplace_back(value, count);
      writer.WriteBits(value, count);
    }
    writer.Finish();

    BitReader reader(buf);
    for (const auto& [value, count] : writes) {
      auto read = reader.ReadBits(count);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(*read, value);
    }
  }
}

}  // namespace
}  // namespace dstore
