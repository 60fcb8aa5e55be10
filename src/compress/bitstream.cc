#include "compress/bitstream.h"

#include <cassert>

namespace dstore {

void BitWriter::AlignToByte() {
  while (bit_count_ > 0) {
    out_->push_back(static_cast<uint8_t>(bit_buffer_));
    bit_buffer_ >>= 8;
    bit_count_ = bit_count_ > 8 ? bit_count_ - 8 : 0;
  }
  bit_buffer_ = 0;
}

void BitWriter::WriteBytes(const uint8_t* data, size_t len) {
  assert(bit_count_ % 8 == 0 && "WriteBytes requires byte alignment");
  AlignToByte();
  out_->insert(out_->end(), data, data + len);
}

void BitReader::RefillTail() {
  while (bit_count_ <= 56 && pos_ < size_) {
    bit_buffer_ |= static_cast<uint64_t>(data_[pos_++]) << bit_count_;
    bit_count_ += 8;
  }
}

StatusOr<uint32_t> BitReader::ReadBits(int count) {
  Refill();
  if (count > bit_count_) {
    return Status::Corruption("bitstream ended unexpectedly");
  }
  const uint32_t value =
      static_cast<uint32_t>(bit_buffer_ & ((1ull << count) - 1));
  Consume(count);
  return value;
}

Status BitReader::ReadBytes(uint8_t* out, size_t len) {
  if (bit_count_ % 8 != 0) {
    return Status::Internal("ReadBytes requires byte alignment");
  }
  const size_t buffered = static_cast<size_t>(bit_count_ / 8);
  if (len > buffered + (size_ - pos_)) {
    return Status::Corruption("bitstream ended unexpectedly");
  }
  // Whole bytes still in the lookahead buffer come first.
  while (len > 0 && bit_count_ > 0) {
    *out++ = static_cast<uint8_t>(bit_buffer_);
    Consume(8);
    --len;
  }
  if (len > 0) {
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    bit_buffer_ = 0;  // its uncounted bits belonged to the skipped bytes
  }
  return Status::OK();
}

}  // namespace dstore
