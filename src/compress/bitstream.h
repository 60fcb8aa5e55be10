#ifndef DSTORE_COMPRESS_BITSTREAM_H_
#define DSTORE_COMPRESS_BITSTREAM_H_

#include <bit>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"
#include "common/status.h"

namespace dstore {

// LSB-first bit writer, matching DEFLATE's bit packing: bits are written into
// each byte starting at the least significant position (RFC 1951 §3.1.1).
// Huffman codes go out through WriteBits already bit-reversed (ReverseBits
// in compress/huffman.h), so the encoder reverses each code once per table.
class BitWriter {
 public:
  explicit BitWriter(Bytes* out) : out_(out) {}

  // Writes the low `count` bits of `bits`, LSB first. count <= 32.
  void WriteBits(uint32_t bits, int count) {
    bit_buffer_ |= static_cast<uint64_t>(bits & ((1ull << count) - 1))
                   << bit_count_;
    bit_count_ += count;
    if (bit_count_ >= 32) {
      const size_t n = out_->size();
      out_->resize(n + 4);
      uint8_t* p = out_->data() + n;
      for (int i = 0; i < 4; ++i) {
        p[i] = static_cast<uint8_t>(bit_buffer_ >> (8 * i));
      }
      bit_buffer_ >>= 32;
      bit_count_ -= 32;
    }
  }

  // Pads the current byte with zero bits so the stream is byte-aligned.
  void AlignToByte();

  // Appends raw bytes; the stream must be byte-aligned.
  void WriteBytes(const uint8_t* data, size_t len);

  // Flushes any buffered partial byte. Call once at the end.
  void Finish() { AlignToByte(); }

 private:
  Bytes* out_;
  uint64_t bit_buffer_ = 0;  // bit_count_ < 32 between calls
  int bit_count_ = 0;
};

// LSB-first bit reader over a byte span. It keeps up to 63 bits of
// lookahead in a 64-bit buffer so table decoders can peek a whole code;
// bits past the end of the input read as zero and are never counted as
// available.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BitReader(const Bytes& data) : BitReader(data.data(), data.size()) {}

  // Tops the buffer up to at least 56 available bits, or to the end of the
  // input, whichever comes first.
  void Refill() {
    if (bit_count_ >= 56) return;
    if (size_ - pos_ >= 8) {
      uint64_t word = 0;
      std::memcpy(&word, data_ + pos_, 8);
      bit_buffer_ |= FromLittleEndian(word) << bit_count_;
      pos_ += static_cast<size_t>((63 - bit_count_) >> 3);
      bit_count_ |= 56;
    } else {
      RefillTail();
    }
  }

  // The buffered bits, next bit first. Only the low BitsAvailable() bits
  // are guaranteed; call Refill() first.
  uint64_t PeekBits() const { return bit_buffer_; }
  int BitsAvailable() const { return bit_count_; }

  // Drops `count` <= BitsAvailable() bits.
  void Consume(int count) {
    bit_buffer_ >>= count;
    bit_count_ -= count;
  }

  // Reads `count` <= 32 bits (LSB first). Fails past end of input.
  StatusOr<uint32_t> ReadBits(int count);

  // Discards bits up to the next byte boundary.
  void AlignToByte() { Consume(bit_count_ & 7); }

  // Copies `len` aligned bytes into `out`.
  Status ReadBytes(uint8_t* out, size_t len);

  bool AtEnd() const { return pos_ >= size_ && bit_count_ == 0; }

 private:
  static uint64_t FromLittleEndian(uint64_t word) {
    if constexpr (std::endian::native == std::endian::little) {
      return word;
    } else {
      return __builtin_bswap64(word);
    }
  }

  void RefillTail();

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;  // next byte not yet counted in bit_count_
  // Bits at and above bit_count_ are either zero or the stream's own next
  // bits, so OR-ing the next bytes in again is harmless.
  uint64_t bit_buffer_ = 0;
  int bit_count_ = 0;
};

}  // namespace dstore

#endif  // DSTORE_COMPRESS_BITSTREAM_H_
