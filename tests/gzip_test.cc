#include "compress/gzip.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress/codec.h"

namespace dstore {
namespace {

TEST(GzipTest, RoundTripsText) {
  const Bytes input = ToBytes("gzip container round trip with some text "
                              "that repeats repeats repeats repeats");
  auto out = GzipDecompress(GzipCompress(input));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(GzipTest, RoundTripsEmpty) {
  auto out = GzipDecompress(GzipCompress({}));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(GzipTest, HeaderIsWellFormed) {
  const Bytes out = GzipCompress(ToBytes("x"));
  ASSERT_GE(out.size(), 18u);
  EXPECT_EQ(out[0], 0x1f);
  EXPECT_EQ(out[1], 0x8b);
  EXPECT_EQ(out[2], 8);  // deflate
  EXPECT_EQ(out[3], 0);  // no flags
}

TEST(GzipTest, TrailerEncodesSizeAndCrc) {
  const Bytes input = ToBytes("check the trailer fields");
  const Bytes out = GzipCompress(input);
  const uint8_t* trailer = out.data() + out.size() - 8;
  EXPECT_EQ(DecodeFixed32(trailer + 4), input.size());
}

TEST(GzipTest, CorruptBodyDetectedByCrc) {
  Random rng(5);
  const Bytes input = rng.CompressibleBytes(5000, 0.5);
  Bytes out = GzipCompress(input);
  // Flip a bit in the deflate body (not the header, not the trailer). Either
  // inflate fails structurally or the CRC catches it.
  out[12] ^= 0x10;
  EXPECT_FALSE(GzipDecompress(out).ok());
}

TEST(GzipTest, CorruptTrailerDetected) {
  Bytes out = GzipCompress(ToBytes("data"));
  out[out.size() - 1] ^= 0xff;  // ISIZE
  EXPECT_TRUE(GzipDecompress(out).status().IsCorruption());
  out[out.size() - 1] ^= 0xff;
  out[out.size() - 5] ^= 0xff;  // CRC
  EXPECT_TRUE(GzipDecompress(out).status().IsCorruption());
}

TEST(GzipTest, RejectsBadMagic) {
  Bytes out = GzipCompress(ToBytes("data"));
  out[0] = 0x00;
  EXPECT_TRUE(GzipDecompress(out).status().IsCorruption());
}

TEST(GzipTest, RejectsUnknownMethod) {
  Bytes out = GzipCompress(ToBytes("data"));
  out[2] = 7;
  EXPECT_TRUE(GzipDecompress(out).status().IsNotSupported());
}

TEST(GzipTest, RejectsTooShortInput) {
  EXPECT_TRUE(GzipDecompress(Bytes(10, 0)).status().IsCorruption());
}

TEST(GzipTest, SkipsOptionalFnameField) {
  // Build a stream with FNAME set by splicing a name into our own output.
  const Bytes input = ToBytes("payload with fname header");
  Bytes out = GzipCompress(input);
  Bytes with_name(out.begin(), out.begin() + 10);
  with_name[3] = 0x08;  // FNAME
  const std::string name = "file.txt";
  with_name.insert(with_name.end(), name.begin(), name.end());
  with_name.push_back(0);
  with_name.insert(with_name.end(), out.begin() + 10, out.end());
  auto decoded = GzipDecompress(with_name);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, input);
}

TEST(GzipTest, RandomizedRoundTrip) {
  Random rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes input =
        rng.CompressibleBytes(rng.Uniform(30000), rng.NextDouble());
    auto out = GzipDecompress(GzipCompress(input));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, input);
  }
}

TEST(GzipCodecTest, ImplementsCodecInterface) {
  GzipCodec codec;
  EXPECT_EQ(codec.name(), "gzip");
  const Bytes input = ToBytes("codec interface data data data data");
  auto compressed = codec.Compress(input);
  ASSERT_TRUE(compressed.ok());
  auto decompressed = codec.Decompress(*compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, input);
}

TEST(DeflateCodecTest, RoundTrips) {
  DeflateCodec codec;
  const Bytes input = ToBytes("deflate codec path path path path");
  auto out = codec.Decompress(*codec.Compress(input));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(IdentityCodecTest, PassesThrough) {
  IdentityCodec codec;
  const Bytes input = ToBytes("untouched");
  EXPECT_EQ(*codec.Compress(input), input);
  EXPECT_EQ(*codec.Decompress(input), input);
}

TEST(GzipCodecTest, CompressionRatioTracksRedundancy) {
  Random rng(71);
  GzipCodec codec;
  const Bytes redundant = rng.CompressibleBytes(20000, 0.95);
  const Bytes random_data = rng.CompressibleBytes(20000, 0.0);
  const size_t small = codec.Compress(redundant)->size();
  const size_t large = codec.Compress(random_data)->size();
  EXPECT_LT(small, large / 2);
}

// A corrupted object must not inflate far past what its trailer promises:
// with a small body ISIZE is exact, so decoding stops as soon as the output
// passes it instead of running to the end and failing the ISIZE check.
TEST(GzipTest, InflatingPastIsizeStopsWithCorruption) {
  Bytes out = GzipCompress(Bytes(1 << 20, 'a'));
  ASSERT_LT(out.size(), 4096u);
  const size_t isize_at = out.size() - 4;
  out[isize_at] = 100;
  out[isize_at + 1] = out[isize_at + 2] = out[isize_at + 3] = 0;
  const Status status = GzipDecompress(out).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("past ISIZE"), std::string::npos)
      << status.ToString();
  // A caller limit below ISIZE still reports the caller's limit.
  EXPECT_TRUE(GzipDecompress(out, 50).status().IsInvalidArgument());
}

TEST(GzipTest, IsizeLargerThanOutputRejected) {
  const Bytes input = ToBytes("short payload short payload");
  Bytes out = GzipCompress(input);
  out[out.size() - 4] = static_cast<uint8_t>(input.size() + 1);
  EXPECT_TRUE(GzipDecompress(out).status().IsCorruption());
}

std::vector<std::pair<Bytes, Bytes>> GzipCorpus() {
  Random rng(1952);
  std::vector<std::pair<Bytes, Bytes>> corpus;
  for (const Bytes& input :
       {ToBytes("tiny tiny tiny"), rng.CompressibleBytes(2500, 0.5),
        rng.CompressibleBytes(4000, 0.95), rng.RandomBytes(1500)}) {
    corpus.emplace_back(input, GzipCompress(input));
  }
  return corpus;
}

// The CRC-32 and ISIZE make gzip self-checking: a damaged stream either
// fails or (if only ignored header bits changed) yields the original bytes.
TEST(GzipHostileTest, BitFlipsFailOrReturnTheOriginal) {
  Random rng(7);
  for (const auto& [input, stream] : GzipCorpus()) {
    for (int trial = 0; trial < 300; ++trial) {
      Bytes mutated = stream;
      const int flips =
          trial % 2 == 0 ? 1 : 2 + static_cast<int>(rng.Uniform(7));
      for (int i = 0; i < flips; ++i) {
        const size_t bit = rng.Uniform(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      auto out = GzipDecompress(mutated);
      if (out.ok()) {
        EXPECT_EQ(*out, input) << "trial " << trial;
      }
    }
  }
}

TEST(GzipHostileTest, TruncationAtEveryByteRejected) {
  for (const auto& [input, stream] : GzipCorpus()) {
    for (size_t len = 0; len < stream.size(); ++len) {
      const Bytes cut(stream.begin(), stream.begin() + len);
      EXPECT_FALSE(GzipDecompress(cut).ok()) << "cut at " << len;
    }
  }
}

TEST(GzipHostileTest, ForgedHeaderFieldsStayInBounds) {
  const Bytes stream = GzipCompress(ToBytes("header fields"));
  Random rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = stream;
    mutated[3] = static_cast<uint8_t>(rng.Uniform(256));  // FLG
    mutated[10] = static_cast<uint8_t>(rng.Uniform(256));  // XLEN / name
    mutated[11] = static_cast<uint8_t>(rng.Uniform(256));
    (void)GzipDecompress(mutated);
  }
}

}  // namespace
}  // namespace dstore
