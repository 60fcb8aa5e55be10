#include "compress/gzip.h"

#include <algorithm>
#include <limits>

#include "compress/crc32.h"

namespace dstore {

namespace {
constexpr uint8_t kGzipMagic1 = 0x1f;
constexpr uint8_t kGzipMagic2 = 0x8b;
constexpr uint8_t kMethodDeflate = 8;

// DEFLATE expands at most 1032:1 (a 258-byte match coded in two bits).
constexpr size_t kMaxInflateRatio = 1032;
// ISIZE is the output size mod 2^32. A body shorter than this cannot
// inflate to 4 GiB, so its ISIZE is the exact output size.
constexpr size_t kExactIsizeBody = (uint64_t{1} << 32) / kMaxInflateRatio;
// Cap on the output reserved up front, before the CRC vouches for ISIZE.
constexpr size_t kMaxUpfrontReserve = size_t{64} << 20;
}  // namespace

Bytes GzipCompress(const Bytes& input, DeflateLevel level) {
  Bytes out;
  out.reserve(input.size() / 2 + 32);
  // Header: magic, method, flags=0, mtime=0, xfl=0, os=255 (unknown).
  const uint8_t header[10] = {kGzipMagic1, kGzipMagic2, kMethodDeflate,
                              0,           0,           0,
                              0,           0,           0,
                              255};
  out.insert(out.end(), header, header + sizeof(header));

  Bytes body = DeflateCompress(input, level);
  out.insert(out.end(), body.begin(), body.end());

  PutFixed32(&out, Crc32(input));
  PutFixed32(&out, static_cast<uint32_t>(input.size()));
  return out;
}

StatusOr<Bytes> GzipDecompress(const Bytes& input, size_t max_output) {
  if (input.size() < 18) {
    return Status::Corruption("gzip stream too short");
  }
  if (input[0] != kGzipMagic1 || input[1] != kGzipMagic2) {
    return Status::Corruption("bad gzip magic");
  }
  if (input[2] != kMethodDeflate) {
    return Status::NotSupported("unsupported gzip compression method");
  }
  const uint8_t flags = input[3];
  size_t pos = 10;

  // Skip optional header fields (FEXTRA, FNAME, FCOMMENT, FHCRC).
  if (flags & 0x04) {  // FEXTRA
    if (pos + 2 > input.size()) return Status::Corruption("truncated FEXTRA");
    const size_t xlen = input[pos] | (input[pos + 1] << 8);
    pos += 2 + xlen;
  }
  for (const uint8_t name_flag : {uint8_t{0x08}, uint8_t{0x10}}) {
    if (flags & name_flag) {  // FNAME / FCOMMENT: zero-terminated
      while (pos < input.size() && input[pos] != 0) ++pos;
      if (pos >= input.size()) return Status::Corruption("truncated string");
      ++pos;
    }
  }
  if (flags & 0x02) pos += 2;  // FHCRC
  if (pos + 8 > input.size()) {
    return Status::Corruption("gzip stream too short after header");
  }

  const uint8_t* trailer = input.data() + input.size() - 8;
  const uint32_t expected_crc = DecodeFixed32(trailer);
  const uint32_t expected_size = DecodeFixed32(trailer + 4);

  // Inflate the body where it lies. When ISIZE is exact it also bounds the
  // output, so a corrupted body stops as soon as it inflates past it rather
  // than running on until the trailer check.
  const size_t body_size = input.size() - 8 - pos;
  size_t limit =
      max_output == 0 ? std::numeric_limits<size_t>::max() : max_output;
  const bool isize_exact = body_size < kExactIsizeBody;
  const bool isize_bounds = isize_exact && expected_size < limit;
  Bytes out;
  if (isize_exact) {
    limit = std::min<size_t>(limit, expected_size);
    out.reserve(std::min({size_t{expected_size}, body_size * kMaxInflateRatio,
                          kMaxUpfrontReserve}));
  }
  const Status inflated =
      DeflateDecompressInto(input.data() + pos, body_size, limit, &out);
  if (isize_bounds && inflated.IsInvalidArgument()) {
    return Status::Corruption("gzip body inflates past ISIZE");
  }
  DSTORE_RETURN_IF_ERROR(inflated);

  if (expected_size != static_cast<uint32_t>(out.size())) {
    return Status::Corruption("gzip ISIZE mismatch");
  }
  if (expected_crc != Crc32(out)) {
    return Status::Corruption("gzip CRC mismatch");
  }
  return out;
}

}  // namespace dstore
