#include "compress/crc32.h"

#include <array>

namespace dstore {

namespace {

// Slicing-by-16: kTables[k][b] is the CRC register after byte b is followed
// by k zero bytes, so a 16-byte word folds into the register with sixteen
// independent lookups instead of a sixteen-step dependent chain. kTables[0]
// is the classic byte table, which also finishes the tail. The result is
// bit-identical to the byte-at-a-time loop for every input and seed.
constexpr int kSlices = 16;
using Tables = std::array<std::array<uint32_t, 256>, kSlices>;

constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (int k = 1; k < kSlices; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

// Built at compile time: no first-call initialisation or guard per call.
constexpr Tables kTables = BuildTables();

// Explicit little-endian load: no alignment or host byte-order dependence
// (compilers fold it to one load on little-endian targets).
inline uint32_t Load32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

// Folds the four bytes of `w` through tables k, k-1, k-2, k-3.
inline uint32_t Fold(uint32_t w, int k) {
  return kTables[k][w & 0xff] ^ kTables[k - 1][(w >> 8) & 0xff] ^
         kTables[k - 2][(w >> 16) & 0xff] ^ kTables[k - 3][w >> 24];
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (; len >= kSlices; len -= kSlices, p += kSlices) {
    c = Fold(Load32(p) ^ c, 15) ^ Fold(Load32(p + 4), 11) ^
        Fold(Load32(p + 8), 7) ^ Fold(Load32(p + 12), 3);
  }
  for (; len > 0; --len, ++p) {
    c = kTables[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace dstore
