#ifndef DSTORE_COMPRESS_HUFFMAN_H_
#define DSTORE_COMPRESS_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "compress/bitstream.h"

namespace dstore {

// Computes length-limited Huffman code lengths for the given symbol
// frequencies using the package-merge algorithm (optimal for a given limit).
// Symbols with zero frequency get length 0. If only one symbol is used it is
// assigned length 1, as DEFLATE decoders require. At most 2^max_bits symbols
// may be used. Runs in O(n log n + n * max_bits) time.
std::vector<int> BuildHuffmanCodeLengths(const std::vector<uint64_t>& freqs,
                                         int max_bits);

// Assigns canonical codes from code lengths (RFC 1951 §3.2.2). codes[i] is
// meaningful only when lengths[i] > 0.
std::vector<uint32_t> BuildCanonicalCodes(const std::vector<int>& lengths);

// Reverses the low `length` bits of `code`. DEFLATE packs Huffman codes
// starting from their most significant bit into an LSB-first stream, so
// both the encoder and the table decoder work with reversed codes.
uint32_t ReverseBits(uint32_t code, int length);

// Table-driven canonical Huffman decoder. Built from the same code-length
// array the encoder used; codes of up to kTableBits bits resolve with one
// lookup, longer ones walk the canonical code ranges.
class HuffmanDecoder {
 public:
  // Decode() results below zero.
  static constexpr int kInvalidCode = -1;  // bits match no code
  static constexpr int kEndOfInput = -2;   // input ended inside a code

  // Fails if the lengths describe an invalid (over-subscribed) code.
  static StatusOr<HuffmanDecoder> Build(const std::vector<int>& lengths);

  // Reads one symbol from `reader`, or returns kInvalidCode / kEndOfInput
  // without consuming anything.
  int Decode(BitReader* reader) const {
    reader->Refill();
    const uint16_t entry = table_[reader->PeekBits() & table_mask_];
    const int length = entry & 0xf;
    if (length != 0 && length <= reader->BitsAvailable()) {
      reader->Consume(length);
      return entry >> 4;
    }
    return DecodeSlow(reader);
  }

 private:
  HuffmanDecoder() = default;

  int DecodeSlow(BitReader* reader) const;

  static constexpr int kMaxBits = 15;
  static constexpr int kTableBits = 10;
  // table_[bits]: (symbol << 4) | length for the code that the low
  // `table_bits_` peeked bits start with, or 0 when that code is longer
  // than table_bits_ or does not exist.
  std::vector<uint16_t> table_;
  uint64_t table_mask_ = 0;
  int table_bits_ = 0;
  // first_code_[l]: canonical code value of the first code of length l.
  // first_index_[l]: index into sorted_symbols_ of that code.
  // count_[l]: number of codes of length l.
  uint32_t first_code_[kMaxBits + 1] = {};
  int first_index_[kMaxBits + 1] = {};
  uint32_t count_[kMaxBits + 1] = {};
  std::vector<uint16_t> sorted_symbols_;
  int max_length_ = 0;
};

}  // namespace dstore

#endif  // DSTORE_COMPRESS_HUFFMAN_H_
