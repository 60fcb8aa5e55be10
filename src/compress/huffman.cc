#include "compress/huffman.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace dstore {

std::vector<int> BuildHuffmanCodeLengths(const std::vector<uint64_t>& freqs,
                                         int max_bits) {
  const size_t n = freqs.size();
  std::vector<int> lengths(n, 0);

  // Leaves are used symbols sorted by weight. std::sort's order among equal
  // weights is part of the output format (it decides which tied symbol gets
  // the longer code), so the sort and the merge below must stay as they are.
  std::vector<int> leaves;
  for (size_t i = 0; i < n; ++i) {
    if (freqs[i] > 0) leaves.push_back(static_cast<int>(i));
  }
  if (leaves.empty()) return lengths;
  if (leaves.size() == 1) {
    lengths[leaves[0]] = 1;
    return lengths;
  }
  std::sort(leaves.begin(), leaves.end(),
            [&](int a, int b) { return freqs[a] < freqs[b]; });
  const size_t num_leaves = leaves.size();

  // Package-merge: run max_bits - 1 rounds; each round pairs up the current
  // list into packages and merges them with the original leaves (a package
  // goes first on a tie). The first 2*(num_leaves - 1) items of the last list
  // are selected, and a symbol's code length is the number of selected
  // items, expanded through their packages, that contain it.
  //
  // Items are never materialised: each round keeps only the weights and
  // records, per position, whether the item is a leaf. A selected prefix of
  // a list holds the lightest k leaves plus m packages, and those m packages
  // expand to the first 2m items of the list before it. So the lengths
  // follow from one backward walk over the per-round leaf flags: each round
  // adds 1 to the k lightest leaves of its selected prefix.
  std::vector<uint64_t> leaf_weight(num_leaves);
  for (size_t i = 0; i < num_leaves; ++i) leaf_weight[i] = freqs[leaves[i]];
  // A round's list holds fewer than 2 * num_leaves items.
  const size_t stride = 2 * num_leaves;
  std::vector<uint64_t> current(stride);
  std::vector<uint64_t> next(stride);
  std::copy(leaf_weight.begin(), leaf_weight.end(), current.begin());
  // is_leaf[r * stride + j]: item j of round r's list is a leaf.
  std::vector<uint8_t> is_leaf(stride * static_cast<size_t>(max_bits), 1);
  size_t current_size = num_leaves;
  for (int round = 1; round < max_bits; ++round) {
    const size_t packages = current_size / 2;
    uint8_t* flags = &is_leaf[static_cast<size_t>(round) * stride];
    size_t p = 0;
    size_t l = 0;
    size_t k = 0;
    // std::merge(packages, leaves): take the leaf only if strictly lighter.
    // Written branch-free; which side wins is data-dependent.
    while (p < packages && l < num_leaves) {
      const uint64_t package = current[2 * p] + current[2 * p + 1];
      const uint64_t leaf = leaf_weight[l];
      const bool take_leaf = leaf < package;
      flags[k] = take_leaf;
      next[k++] = take_leaf ? leaf : package;
      l += take_leaf;
      p += !take_leaf;
    }
    for (; p < packages; ++p) {
      flags[k] = 0;
      next[k++] = current[2 * p] + current[2 * p + 1];
    }
    for (; l < num_leaves; ++l) {
      flags[k] = 1;
      next[k++] = leaf_weight[l];
    }
    current_size = k;
    current.swap(next);
  }

  size_t take = std::min(2 * (num_leaves - 1), current_size);
  for (int round = max_bits - 1; round >= 0 && take > 0; --round) {
    const uint8_t* flags = &is_leaf[static_cast<size_t>(round) * stride];
    const size_t leaf_count =
        std::accumulate(flags, flags + take, size_t{0});
    for (size_t i = 0; i < leaf_count; ++i) ++lengths[leaves[i]];
    take = 2 * (take - leaf_count);
  }
  return lengths;
}

std::vector<uint32_t> BuildCanonicalCodes(const std::vector<int>& lengths) {
  int max_len = 0;
  for (int l : lengths) max_len = std::max(max_len, l);

  std::vector<int> length_count(max_len + 1, 0);
  for (int l : lengths) {
    if (l > 0) ++length_count[l];
  }

  std::vector<uint32_t> next_code(max_len + 2, 0);
  uint32_t code = 0;
  for (int bits = 1; bits <= max_len; ++bits) {
    code = (code + static_cast<uint32_t>(length_count[bits - 1])) << 1;
    next_code[bits] = code;
  }

  std::vector<uint32_t> codes(lengths.size(), 0);
  for (size_t i = 0; i < lengths.size(); ++i) {
    if (lengths[i] > 0) codes[i] = next_code[lengths[i]]++;
  }
  return codes;
}

uint32_t ReverseBits(uint32_t code, int length) {
  uint32_t reversed = 0;
  for (int i = 0; i < length; ++i) {
    reversed = (reversed << 1) | ((code >> i) & 1);
  }
  return reversed;
}

StatusOr<HuffmanDecoder> HuffmanDecoder::Build(const std::vector<int>& lengths) {
  if (lengths.size() > (1u << 12)) {
    return Status::InvalidArgument("Huffman alphabet too large");
  }
  HuffmanDecoder decoder;
  int total = 0;
  for (const int l : lengths) {
    if (l < 0 || l > kMaxBits) {
      return Status::Corruption("Huffman code length out of range");
    }
    if (l > 0) {
      ++decoder.count_[l];
      ++total;
      decoder.max_length_ = std::max(decoder.max_length_, l);
    }
  }
  if (total == 0) {
    return Status::Corruption("Huffman code has no symbols");
  }

  // Kraft inequality check: reject over-subscribed codes. (Incomplete codes
  // appear in legal DEFLATE streams for the distance alphabet, so undershoot
  // is allowed.)
  uint64_t kraft = 0;
  for (int l = 1; l <= kMaxBits; ++l) {
    kraft += static_cast<uint64_t>(decoder.count_[l]) << (kMaxBits - l);
  }
  if (kraft > (1ull << kMaxBits)) {
    return Status::Corruption("Huffman code is over-subscribed");
  }

  uint32_t code = 0;
  int index = 0;
  uint32_t next_code[kMaxBits + 1] = {};
  for (int l = 1; l <= kMaxBits; ++l) {
    code = (code + decoder.count_[l - 1]) << 1;
    decoder.first_code_[l] = code;
    next_code[l] = code;
    decoder.first_index_[l] = index;
    index += static_cast<int>(decoder.count_[l]);
  }

  // One table slot per value of the next table_bits_ stream bits. A code of
  // length l <= table_bits_ owns every slot whose low l bits are its
  // reversed code; slots no short code owns stay 0 and take the slow path.
  decoder.table_bits_ = std::min(decoder.max_length_, kTableBits);
  decoder.table_mask_ = (1ull << decoder.table_bits_) - 1;
  decoder.table_.assign(size_t{1} << decoder.table_bits_, 0);
  // sorted_symbols_: symbols ordered by (length, symbol) — canonical order.
  decoder.sorted_symbols_.resize(static_cast<size_t>(total));
  int fill[kMaxBits + 1] = {};
  std::copy(decoder.first_index_, decoder.first_index_ + kMaxBits + 1, fill);
  for (size_t symbol = 0; symbol < lengths.size(); ++symbol) {
    const int l = lengths[symbol];
    if (l == 0) continue;
    decoder.sorted_symbols_[fill[l]++] = static_cast<uint16_t>(symbol);
    if (l > decoder.table_bits_) continue;
    const uint16_t entry = static_cast<uint16_t>((symbol << 4) | l);
    for (size_t slot = ReverseBits(next_code[l]++, l);
         slot < decoder.table_.size(); slot += size_t{1} << l) {
      decoder.table_[slot] = entry;
    }
  }
  return decoder;
}

int HuffmanDecoder::DecodeSlow(BitReader* reader) const {
  // Codes of up to table_bits_ bits are all in the table, so only longer
  // lengths are left to try, one bit at a time in canonical order.
  const uint64_t bits = reader->PeekBits();
  uint32_t code = 0;
  for (int length = 1; length <= max_length_; ++length) {
    code = (code << 1) | static_cast<uint32_t>((bits >> (length - 1)) & 1);
    if (length <= table_bits_) continue;
    if (length > reader->BitsAvailable()) return kEndOfInput;
    const uint32_t offset = code - first_code_[length];
    if (offset < count_[length]) {
      reader->Consume(length);
      return sorted_symbols_[static_cast<size_t>(first_index_[length]) +
                             offset];
    }
  }
  // No code matches. If the lookup ran into bits past the end of the input
  // the stream was cut short rather than corrupt.
  const uint16_t entry = table_[bits & table_mask_];
  if ((entry & 0xf) > reader->BitsAvailable() ||
      table_bits_ > reader->BitsAvailable()) {
    return kEndOfInput;
  }
  return kInvalidCode;
}

}  // namespace dstore
