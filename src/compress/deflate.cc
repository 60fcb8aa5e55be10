#include "compress/deflate.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "compress/bitstream.h"
#include "compress/huffman.h"

namespace dstore {

namespace {

constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr int kWindowSize = 32768;
constexpr int kEndOfBlock = 256;
constexpr int kNumLitLenSymbols = 286;
constexpr int kNumDistSymbols = 30;

// Length code table (RFC 1951 §3.2.5): codes 257..285.
constexpr int kLengthBase[29] = {3,  4,  5,  6,  7,  8,  9,  10, 11,  13,
                                 15, 17, 19, 23, 27, 31, 35, 43, 51,  59,
                                 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr int kLengthExtraBits[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                      1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                      4, 4, 4, 4, 5, 5, 5, 5, 0};

// Distance code table: codes 0..29.
constexpr int kDistBase[30] = {1,    2,    3,    4,    5,    7,     9,    13,
                               17,   25,   33,   49,   65,   97,    129,  193,
                               257,  385,  513,  769,  1025, 1537,  2049, 3073,
                               4097, 6145, 8193, 12289, 16385, 24577};
constexpr int kDistExtraBits[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                    4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                    9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Order in which code-length code lengths appear in a dynamic header.
constexpr int kCodeLengthOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                      11, 4,  12, 3, 13, 2, 14, 1, 15};

// Match length -> length code and distance -> distance code, as lookups.
// Each distance code past 256 covers whole blocks of 128 values of
// dist - 1, so (dist - 1) >> 7 indexes the upper half of the table.
struct SymbolCodes {
  uint8_t length[kMaxMatch + 1];
  uint8_t dist[512];

  SymbolCodes() {
    for (int code = 0; code < 29; ++code) {
      const int end = std::min(
          kMaxMatch, kLengthBase[code] + (1 << kLengthExtraBits[code]) - 1);
      for (int len = kLengthBase[code]; len <= end; ++len) {
        length[len] = static_cast<uint8_t>(code);
      }
    }
    for (int code = 0; code < 30; ++code) {
      const int first = kDistBase[code] - 1;
      const int last = first + (1 << kDistExtraBits[code]) - 1;
      for (int d = first; d <= last; ++d) {
        dist[d < 256 ? d : 256 + (d >> 7)] = static_cast<uint8_t>(code);
      }
    }
  }
};

const SymbolCodes& Codes() {
  static const SymbolCodes codes;
  return codes;
}

int LengthToCode(int length) { return Codes().length[length]; }

int DistToCode(int dist) {
  const int d = dist - 1;
  return Codes().dist[d < 256 ? d : 256 + (d >> 7)];
}

struct Token {
  uint16_t length;  // 0 means literal
  uint16_t dist;
  uint8_t literal;
};

struct Lz77Params {
  int max_chain;
  bool lazy;
};

Lz77Params ParamsForLevel(DeflateLevel level) {
  switch (level) {
    case DeflateLevel::kFast:
      return {8, false};
    case DeflateLevel::kBest:
      return {1024, true};
    case DeflateLevel::kDefault:
    default:
      return {128, true};
  }
}

constexpr int kHashBits = 15;
constexpr uint32_t kHashSize = 1u << kHashBits;
constexpr size_t kWindowMask = kWindowSize - 1;

uint32_t Hash3(const uint8_t* p) {
  const uint32_t v = static_cast<uint32_t>(p[0]) |
                     (static_cast<uint32_t>(p[1]) << 8) |
                     (static_cast<uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

int MatchLength(const uint8_t* a, const uint8_t* b, int max_len) {
  int len = 0;
  while (len + 8 <= max_len) {
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const uint64_t diff = x ^ y; diff != 0) {
      const int same_bits = std::endian::native == std::endian::little
                                ? std::countr_zero(diff)
                                : std::countl_zero(diff);
      return len + same_bits / 8;
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

// Hash-chain tables, kept per thread so a call pays no setup. Positions are
// stored as base + position: each call takes a fresh base above every value
// an earlier call stored, so entries left over from earlier calls read as
// empty and the tables never need clearing (until the 32-bit space wraps).
struct MatchTables {
  // head[h]: base + the latest position whose first three bytes hash to h.
  uint32_t head[kHashSize];
  // prev[pos % kWindowSize]: distance back to the previous position with
  // the same hash, or 0 if there is none within the window. Entries are
  // read only for positions inside the window, which nothing overwrote.
  uint16_t prev[kWindowSize];
  uint32_t base = 1;  // above the zeroed head entries
};

// Allocated on a thread's first compression (192 KiB), so threads that never
// compress pay nothing.
MatchTables& ThreadMatchTables() {
  thread_local std::unique_ptr<MatchTables> tables;
  if (!tables) tables = std::make_unique<MatchTables>();  // zero-filled
  return *tables;
}

// Hash-chain LZ77 parser with optional one-step lazy matching.
std::vector<Token> Lz77Parse(const Bytes& input, const Lz77Params& params) {
  std::vector<Token> tokens;
  const size_t n = input.size();
  tokens.reserve(n / 2 + 16);
  if (n == 0) return tokens;

  MatchTables& tables = ThreadMatchTables();
  constexpr uint32_t kMaxStamp = std::numeric_limits<uint32_t>::max();
  if (n > kMaxStamp - tables.base) {
    std::fill(std::begin(tables.head), std::end(tables.head), 0);
    tables.base = 1;
  }
  const uint32_t base = tables.base;
  tables.base = n > kMaxStamp - base ? kMaxStamp
                                     : base + static_cast<uint32_t>(n);
  uint32_t* const head = tables.head;
  uint16_t* const prev = tables.prev;
  const uint8_t* const data = input.data();

  // The latest inserted position with the same hash as `pos`, or `pos`
  // itself when there is none (stale stamps wrap to values >= pos).
  auto latest = [&](size_t pos, uint32_t h) -> size_t {
    const size_t last = static_cast<uint32_t>(head[h] - base);
    return last < pos ? last : pos;
  };

  auto find_match = [&](size_t pos, int* best_dist) -> int {
    if (pos + kMinMatch > n) return 0;
    const int max_len = static_cast<int>(std::min<size_t>(kMaxMatch, n - pos));
    const uint8_t* const here = data + pos;
    int best_len = 0;
    int chain = params.max_chain;
    size_t candidate = latest(pos, Hash3(here));
    if (candidate == pos) return 0;
    while (chain-- > 0) {
      const size_t dist = pos - candidate;
      if (dist > kWindowSize) break;
      const uint8_t* const there = data + candidate;
      // Only a match longer than best_len can win, and it must agree at
      // byte best_len; skip the full compare when it does not.
      if (there[best_len] == here[best_len]) {
        const int len = MatchLength(there, here, max_len);
        if (len > best_len) {
          best_len = len;
          *best_dist = static_cast<int>(dist);
          if (len >= max_len) break;
        }
      }
      const uint16_t back = prev[candidate & kWindowMask];
      if (back == 0) break;
      candidate -= back;
    }
    return best_len >= kMinMatch ? best_len : 0;
  };

  auto insert = [&](size_t pos) {
    if (pos + kMinMatch <= n) {
      const uint32_t h = Hash3(data + pos);
      const size_t last = latest(pos, h);
      prev[pos & kWindowMask] =
          last != pos && pos - last <= kWindowSize
              ? static_cast<uint16_t>(pos - last)
              : 0;
      head[h] = base + static_cast<uint32_t>(pos);
    }
  };

  size_t pos = 0;
  while (pos < n) {
    int dist = 0;
    int len = find_match(pos, &dist);
    if (len > 0 && params.lazy && pos + 1 < n) {
      // Lazy evaluation: if the next position has a strictly longer match,
      // emit a literal here and take the longer match next iteration.
      insert(pos);
      int next_dist = 0;
      const int next_len = find_match(pos + 1, &next_dist);
      if (next_len > len) {
        tokens.push_back(Token{0, 0, input[pos]});
        ++pos;
        continue;
      }
      // Keep the current match; `pos` was already inserted.
      tokens.push_back(
          Token{static_cast<uint16_t>(len), static_cast<uint16_t>(dist), 0});
      for (size_t i = pos + 1; i < pos + static_cast<size_t>(len); ++i) {
        insert(i);
      }
      pos += static_cast<size_t>(len);
      continue;
    }
    if (len > 0) {
      tokens.push_back(
          Token{static_cast<uint16_t>(len), static_cast<uint16_t>(dist), 0});
      for (size_t i = pos; i < pos + static_cast<size_t>(len); ++i) insert(i);
      pos += static_cast<size_t>(len);
    } else {
      tokens.push_back(Token{0, 0, input[pos]});
      insert(pos);
      ++pos;
    }
  }
  return tokens;
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

// Code lengths plus the matching canonical codes, stored bit-reversed so
// they go straight into the LSB-first BitWriter.
struct CodeTable {
  std::vector<int> lengths;
  std::vector<uint32_t> codes;
};

CodeTable MakeCodeTable(std::vector<int> lengths) {
  std::vector<uint32_t> codes = BuildCanonicalCodes(lengths);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = ReverseBits(codes[i], lengths[i]);
  }
  return {std::move(lengths), std::move(codes)};
}

std::vector<int> FixedLitLenLengths() {
  std::vector<int> lengths(288);
  for (int i = 0; i <= 143; ++i) lengths[i] = 8;
  for (int i = 144; i <= 255; ++i) lengths[i] = 9;
  for (int i = 256; i <= 279; ++i) lengths[i] = 7;
  for (int i = 280; i <= 287; ++i) lengths[i] = 8;
  return lengths;
}

const CodeTable& FixedLitLenTable() {
  static const CodeTable table = MakeCodeTable(FixedLitLenLengths());
  return table;
}

const CodeTable& FixedDistTable() {
  static const CodeTable table = MakeCodeTable(std::vector<int>(30, 5));
  return table;
}

// Fills the symbol frequencies and returns the tokens' extra-bit total.
uint64_t CountTokens(const std::vector<Token>& tokens,
                     std::vector<uint64_t>* litlen_freq,
                     std::vector<uint64_t>* dist_freq) {
  litlen_freq->assign(kNumLitLenSymbols, 0);
  dist_freq->assign(kNumDistSymbols, 0);
  uint64_t extra_bits = 0;
  for (const Token& t : tokens) {
    if (t.length == 0) {
      ++(*litlen_freq)[t.literal];
    } else {
      const int lcode = LengthToCode(t.length);
      const int dcode = DistToCode(t.dist);
      ++(*litlen_freq)[257 + lcode];
      ++(*dist_freq)[dcode];
      extra_bits += static_cast<uint64_t>(kLengthExtraBits[lcode] +
                                          kDistExtraBits[dcode]);
    }
  }
  ++(*litlen_freq)[kEndOfBlock];
  return extra_bits;
}

void WriteTokens(BitWriter* writer, const std::vector<Token>& tokens,
                 const CodeTable& litlen, const CodeTable& dist) {
  const int* const litlen_lengths = litlen.lengths.data();
  const uint32_t* const litlen_codes = litlen.codes.data();
  for (const Token& t : tokens) {
    if (t.length == 0) {
      writer->WriteBits(litlen_codes[t.literal], litlen_lengths[t.literal]);
    } else {
      const int lcode = LengthToCode(t.length);
      writer->WriteBits(litlen_codes[257 + lcode],
                        litlen_lengths[257 + lcode]);
      writer->WriteBits(static_cast<uint32_t>(t.length - kLengthBase[lcode]),
                        kLengthExtraBits[lcode]);
      const int dcode = DistToCode(t.dist);
      writer->WriteBits(dist.codes[dcode], dist.lengths[dcode]);
      writer->WriteBits(static_cast<uint32_t>(t.dist - kDistBase[dcode]),
                        kDistExtraBits[dcode]);
    }
  }
  writer->WriteBits(litlen_codes[kEndOfBlock], litlen_lengths[kEndOfBlock]);
}

// Run-length encodes the combined litlen+dist code-length array using the
// code-length alphabet (symbols 0-15 literal, 16 repeat-prev, 17/18 zeros).
struct ClSymbol {
  int symbol;
  int extra_value;
  int extra_bits;
};

std::vector<ClSymbol> RunLengthEncodeCodeLengths(
    const std::vector<int>& lengths) {
  std::vector<ClSymbol> out;
  size_t i = 0;
  while (i < lengths.size()) {
    const int value = lengths[i];
    size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == value) ++run;

    if (value == 0) {
      size_t remaining = run;
      while (remaining >= 11) {
        const int reps = static_cast<int>(std::min<size_t>(remaining, 138));
        out.push_back({18, reps - 11, 7});
        remaining -= static_cast<size_t>(reps);
      }
      if (remaining >= 3) {
        out.push_back({17, static_cast<int>(remaining) - 3, 3});
        remaining = 0;
      }
      while (remaining-- > 0) out.push_back({0, 0, 0});
    } else {
      out.push_back({value, 0, 0});
      size_t remaining = run - 1;
      while (remaining >= 3) {
        const int reps = static_cast<int>(std::min<size_t>(remaining, 6));
        out.push_back({16, reps - 3, 2});
        remaining -= static_cast<size_t>(reps);
      }
      while (remaining-- > 0) out.push_back({value, 0, 0});
    }
    i += run;
  }
  return out;
}

// Serialized size in bits of a dynamic-Huffman block (header + body).
struct DynamicPlan {
  CodeTable litlen;
  CodeTable dist;
  std::vector<ClSymbol> cl_stream;
  CodeTable cl_table;
  int hlit;
  int hdist;
  int hclen;
  uint64_t header_bits;
};

DynamicPlan PlanDynamicBlock(const std::vector<uint64_t>& litlen_freq,
                             const std::vector<uint64_t>& dist_freq) {
  DynamicPlan plan;
  plan.litlen = MakeCodeTable(BuildHuffmanCodeLengths(litlen_freq, 15));
  plan.dist = MakeCodeTable(BuildHuffmanCodeLengths(dist_freq, 15));

  // HLIT/HDIST: number of coded lengths (at least 257 / 1).
  int hlit = kNumLitLenSymbols;
  while (hlit > 257 && plan.litlen.lengths[hlit - 1] == 0) --hlit;
  int hdist = kNumDistSymbols;
  while (hdist > 1 && plan.dist.lengths[hdist - 1] == 0) --hdist;
  plan.hlit = hlit;
  plan.hdist = hdist;

  std::vector<int> all_lengths;
  all_lengths.reserve(static_cast<size_t>(hlit + hdist));
  all_lengths.insert(all_lengths.end(), plan.litlen.lengths.begin(),
                     plan.litlen.lengths.begin() + hlit);
  all_lengths.insert(all_lengths.end(), plan.dist.lengths.begin(),
                     plan.dist.lengths.begin() + hdist);
  plan.cl_stream = RunLengthEncodeCodeLengths(all_lengths);

  std::vector<uint64_t> cl_freq(19, 0);
  for (const ClSymbol& s : plan.cl_stream) ++cl_freq[s.symbol];
  plan.cl_table = MakeCodeTable(BuildHuffmanCodeLengths(cl_freq, 7));

  int hclen = 19;
  while (hclen > 4 &&
         plan.cl_table.lengths[kCodeLengthOrder[hclen - 1]] == 0) {
    --hclen;
  }
  plan.hclen = hclen;

  uint64_t bits = 5 + 5 + 4 + 3ull * static_cast<uint64_t>(hclen);
  for (const ClSymbol& s : plan.cl_stream) {
    bits += static_cast<uint64_t>(plan.cl_table.lengths[s.symbol]) +
            static_cast<uint64_t>(s.extra_bits);
  }
  plan.header_bits = bits;
  return plan;
}

uint64_t BodyBits(const std::vector<uint64_t>& litlen_freq,
                  const std::vector<uint64_t>& dist_freq,
                  const std::vector<int>& litlen_lengths,
                  const std::vector<int>& dist_lengths) {
  uint64_t bits = 0;
  for (size_t i = 0; i < litlen_freq.size() && i < litlen_lengths.size(); ++i) {
    bits += litlen_freq[i] * static_cast<uint64_t>(litlen_lengths[i]);
  }
  for (size_t i = 0; i < dist_freq.size() && i < dist_lengths.size(); ++i) {
    bits += dist_freq[i] * static_cast<uint64_t>(dist_lengths[i]);
  }
  return bits;
}

void WriteStoredBlocks(BitWriter* writer, const Bytes& input) {
  size_t off = 0;
  do {
    const size_t chunk = std::min<size_t>(input.size() - off, 65535);
    const bool final_block = off + chunk == input.size();
    writer->WriteBits(final_block ? 1 : 0, 1);
    writer->WriteBits(0, 2);  // BTYPE=00 stored
    writer->AlignToByte();
    const uint16_t len = static_cast<uint16_t>(chunk);
    const uint16_t nlen = static_cast<uint16_t>(~len);
    uint8_t header[4] = {static_cast<uint8_t>(len),
                         static_cast<uint8_t>(len >> 8),
                         static_cast<uint8_t>(nlen),
                         static_cast<uint8_t>(nlen >> 8)};
    writer->WriteBytes(header, 4);
    writer->WriteBytes(input.data() + off, chunk);
    off += chunk;
  } while (off < input.size());
}

}  // namespace

Bytes DeflateCompress(const Bytes& input, DeflateLevel level) {
  Bytes out;
  BitWriter writer(&out);
  const uint64_t stored_bits =
      (input.size() + 5 * (input.size() / 65535 + 1)) * 8 + 3;

  if (level == DeflateLevel::kStored || input.empty()) {
    if (input.empty()) {
      // An empty final stored block.
      writer.WriteBits(1, 1);
      writer.WriteBits(0, 2);
      writer.AlignToByte();
      const uint8_t header[4] = {0, 0, 0xff, 0xff};
      writer.WriteBytes(header, 4);
      return out;
    }
    out.reserve(stored_bits / 8 + 1);
    WriteStoredBlocks(&writer, input);
    return out;
  }

  const std::vector<Token> tokens = Lz77Parse(input, ParamsForLevel(level));

  std::vector<uint64_t> litlen_freq, dist_freq;
  const uint64_t token_extra = CountTokens(tokens, &litlen_freq, &dist_freq);

  const CodeTable& fixed_litlen = FixedLitLenTable();
  const CodeTable& fixed_dist = FixedDistTable();

  DynamicPlan plan = PlanDynamicBlock(litlen_freq, dist_freq);
  const uint64_t dynamic_bits =
      3 + plan.header_bits +
      BodyBits(litlen_freq, dist_freq, plan.litlen.lengths,
               plan.dist.lengths) +
      token_extra;
  const uint64_t fixed_bits =
      3 +
      BodyBits(litlen_freq, dist_freq, fixed_litlen.lengths,
               fixed_dist.lengths) +
      token_extra;

  if (stored_bits < dynamic_bits && stored_bits < fixed_bits) {
    out.reserve(stored_bits / 8 + 1);
    WriteStoredBlocks(&writer, input);
    return out;
  }

  out.reserve((std::min(fixed_bits, dynamic_bits) + 7) / 8);
  writer.WriteBits(1, 1);  // BFINAL
  if (fixed_bits <= dynamic_bits) {
    writer.WriteBits(1, 2);  // BTYPE=01 fixed
    WriteTokens(&writer, tokens, fixed_litlen, fixed_dist);
  } else {
    writer.WriteBits(2, 2);  // BTYPE=10 dynamic
    writer.WriteBits(static_cast<uint32_t>(plan.hlit - 257), 5);
    writer.WriteBits(static_cast<uint32_t>(plan.hdist - 1), 5);
    writer.WriteBits(static_cast<uint32_t>(plan.hclen - 4), 4);
    for (int i = 0; i < plan.hclen; ++i) {
      writer.WriteBits(
          static_cast<uint32_t>(plan.cl_table.lengths[kCodeLengthOrder[i]]),
          3);
    }
    for (const ClSymbol& s : plan.cl_stream) {
      writer.WriteBits(plan.cl_table.codes[s.symbol],
                       plan.cl_table.lengths[s.symbol]);
      writer.WriteBits(static_cast<uint32_t>(s.extra_value), s.extra_bits);
    }
    WriteTokens(&writer, tokens, plan.litlen, plan.dist);
  }
  writer.Finish();
  return out;
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

namespace {

struct FixedDecoders {
  HuffmanDecoder litlen;
  HuffmanDecoder dist;
};

const FixedDecoders& Fixed() {
  static const FixedDecoders decoders = {
      *HuffmanDecoder::Build(FixedLitLenLengths()),
      *HuffmanDecoder::Build(std::vector<int>(30, 5))};
  return decoders;
}

Status BadCode(int result) {
  return result == HuffmanDecoder::kEndOfInput
             ? Status::Corruption("bitstream ended unexpectedly")
             : Status::Corruption("invalid Huffman code in stream");
}

Status TooLarge() {
  return Status::InvalidArgument("decompressed data exceeds max_output");
}

// Inflates one DEFLATE stream into *out_. out_->size() is the allocated
// room; its first size_ bytes are the output so far.
class Inflater {
 public:
  Inflater(const uint8_t* data, size_t size, size_t limit, Bytes* out)
      : in_(data, size), limit_(limit), out_(out) {
    out_->clear();
  }

  Status Run() {
    for (;;) {
      DSTORE_ASSIGN_OR_RETURN(uint32_t bfinal, in_.ReadBits(1));
      DSTORE_ASSIGN_OR_RETURN(uint32_t btype, in_.ReadBits(2));
      if (btype == 0) {
        DSTORE_RETURN_IF_ERROR(StoredBlock());
      } else if (btype == 1) {
        DSTORE_RETURN_IF_ERROR(HuffmanBlock(Fixed().litlen, Fixed().dist));
      } else if (btype == 2) {
        DSTORE_RETURN_IF_ERROR(DynamicBlock());
      } else {
        return Status::Corruption("reserved DEFLATE block type");
      }
      if (bfinal) break;
    }
    out_->resize(size_);
    return Status::OK();
  }

 private:
  // Room for `extra` more output bytes; the caller has checked the limit.
  uint8_t* Room(size_t extra) {
    if (out_->size() - size_ < extra) {
      const size_t grown =
          std::min(std::max<size_t>(2 * out_->size(), 256), limit_);
      out_->resize(std::max(size_ + extra, grown));
    }
    return out_->data() + size_;
  }

  // Reads `count` <= 13 extra bits; false if the input ended.
  bool ExtraBits(int count, uint32_t* value) {
    in_.Refill();
    if (count > in_.BitsAvailable()) return false;
    *value = static_cast<uint32_t>(in_.PeekBits() & ((1u << count) - 1));
    in_.Consume(count);
    return true;
  }

  Status StoredBlock() {
    in_.AlignToByte();
    uint8_t header[4] = {};
    DSTORE_RETURN_IF_ERROR(in_.ReadBytes(header, 4));
    const uint16_t len = static_cast<uint16_t>(header[0] | (header[1] << 8));
    const uint16_t nlen = static_cast<uint16_t>(header[2] | (header[3] << 8));
    if (static_cast<uint16_t>(~len) != nlen) {
      return Status::Corruption("stored block LEN/NLEN mismatch");
    }
    if (len > limit_ - size_) return TooLarge();
    DSTORE_RETURN_IF_ERROR(in_.ReadBytes(Room(len), len));
    size_ += len;
    return Status::OK();
  }

  Status HuffmanBlock(const HuffmanDecoder& litlen,
                      const HuffmanDecoder& dist) {
    for (;;) {
      const int symbol = litlen.Decode(&in_);
      if (symbol < 256) {
        if (symbol < 0) return BadCode(symbol);
        if (size_ == limit_) return TooLarge();
        *Room(1) = static_cast<uint8_t>(symbol);
        ++size_;
        continue;
      }
      if (symbol == kEndOfBlock) return Status::OK();
      const int lcode = symbol - 257;
      if (lcode >= 29) return Status::Corruption("invalid length code");
      uint32_t lextra = 0;
      if (!ExtraBits(kLengthExtraBits[lcode], &lextra)) {
        return BadCode(HuffmanDecoder::kEndOfInput);
      }
      const size_t length = static_cast<size_t>(kLengthBase[lcode]) + lextra;

      const int dcode = dist.Decode(&in_);
      if (dcode < 0) return BadCode(dcode);
      if (dcode >= 30) return Status::Corruption("invalid distance code");
      uint32_t dextra = 0;
      if (!ExtraBits(kDistExtraBits[dcode], &dextra)) {
        return BadCode(HuffmanDecoder::kEndOfInput);
      }
      const size_t distance = static_cast<size_t>(kDistBase[dcode]) + dextra;
      if (distance > size_) {
        return Status::Corruption("distance exceeds output size");
      }
      if (length > limit_ - size_) return TooLarge();
      CopyMatch(distance, length);
    }
  }

  // Appends `length` bytes starting `distance` back. When distance < length
  // the source overlaps the bytes being written (a run), so copies move in
  // chunks no longer than the distance.
  void CopyMatch(size_t distance, size_t length) {
    uint8_t* const dst = Room(length);
    const uint8_t* const src = dst - distance;
    if (distance >= length) {
      std::memcpy(dst, src, length);
    } else if (distance == 1) {
      std::memset(dst, *src, length);
    } else {
      size_t i = 0;
      if (distance >= 8) {
        for (; i + 8 <= length; i += 8) std::memcpy(dst + i, src + i, 8);
      }
      for (; i < length; ++i) dst[i] = src[i];
    }
    size_ += length;
  }

  Status DynamicBlock() {
    DSTORE_ASSIGN_OR_RETURN(uint32_t hlit_bits, in_.ReadBits(5));
    DSTORE_ASSIGN_OR_RETURN(uint32_t hdist_bits, in_.ReadBits(5));
    DSTORE_ASSIGN_OR_RETURN(uint32_t hclen_bits, in_.ReadBits(4));
    const size_t hlit = hlit_bits + 257;
    const size_t hdist = hdist_bits + 1;
    const int hclen = static_cast<int>(hclen_bits) + 4;
    if (hlit > 286 || hdist > 30) {
      return Status::Corruption("dynamic header alphabet too large");
    }

    std::vector<int> cl_lengths(19, 0);
    for (int i = 0; i < hclen; ++i) {
      DSTORE_ASSIGN_OR_RETURN(uint32_t l, in_.ReadBits(3));
      cl_lengths[kCodeLengthOrder[i]] = static_cast<int>(l);
    }
    DSTORE_ASSIGN_OR_RETURN(HuffmanDecoder cl_decoder,
                            HuffmanDecoder::Build(cl_lengths));

    std::vector<int> lengths;
    lengths.reserve(hlit + hdist);
    while (lengths.size() < hlit + hdist) {
      const int symbol = cl_decoder.Decode(&in_);
      if (symbol < 0) return BadCode(symbol);
      if (symbol < 16) {
        lengths.push_back(symbol);
        continue;
      }
      int value = 0;
      uint32_t repeat = 0;
      if (symbol == 16) {
        if (lengths.empty()) {
          return Status::Corruption("repeat code with no previous length");
        }
        value = lengths.back();
        DSTORE_ASSIGN_OR_RETURN(repeat, in_.ReadBits(2));
        repeat += 3;
      } else if (symbol == 17) {
        DSTORE_ASSIGN_OR_RETURN(repeat, in_.ReadBits(3));
        repeat += 3;
      } else {  // 18
        DSTORE_ASSIGN_OR_RETURN(repeat, in_.ReadBits(7));
        repeat += 11;
      }
      if (lengths.size() + repeat > hlit + hdist) {
        return Status::Corruption("code length stream overruns header counts");
      }
      lengths.insert(lengths.end(), repeat, value);
    }

    std::vector<int> dist_lengths(lengths.begin() + hlit, lengths.end());
    lengths.resize(hlit);
    DSTORE_ASSIGN_OR_RETURN(HuffmanDecoder litlen,
                            HuffmanDecoder::Build(lengths));
    // A block with no matches may encode a degenerate distance alphabet (a
    // single zero-length entry). Build() rejects all-zero alphabets, so fall
    // back to the fixed table — a well-formed block never consults it.
    if (std::all_of(dist_lengths.begin(), dist_lengths.end(),
                    [](int l) { return l == 0; })) {
      return HuffmanBlock(litlen, Fixed().dist);
    }
    DSTORE_ASSIGN_OR_RETURN(HuffmanDecoder dist,
                            HuffmanDecoder::Build(dist_lengths));
    return HuffmanBlock(litlen, dist);
  }

  BitReader in_;
  const size_t limit_;
  Bytes* const out_;
  size_t size_ = 0;
};

}  // namespace

Status DeflateDecompressInto(const uint8_t* data, size_t size, size_t limit,
                             Bytes* out) {
  return Inflater(data, size, limit, out).Run();
}

StatusOr<Bytes> DeflateDecompress(const Bytes& input, size_t max_output) {
  Bytes out;
  DSTORE_RETURN_IF_ERROR(DeflateDecompressInto(
      input.data(), input.size(),
      max_output == 0 ? std::numeric_limits<size_t>::max() : max_output,
      &out));
  return out;
}

}  // namespace dstore
