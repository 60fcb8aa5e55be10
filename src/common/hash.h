#ifndef DSTORE_COMMON_HASH_H_
#define DSTORE_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dstore {

// FNV-1a 64-bit hash. Used for cache sharding and hash-table buckets; not
// for integrity (see compress/crc32.h) or security (see crypto/sha256.h).
uint64_t Fnv1a64(const void* data, size_t len);

inline uint64_t Fnv1a64(std::string_view s) {
  return Fnv1a64(s.data(), s.size());
}

// The splitmix64 increment, 2^64 divided by the golden ratio.
inline constexpr uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

// splitmix64 finalizer: a full-avalanche bijective mix over 64 bits. FNV-1a
// multiplies by a prime, so its low bits depend only on low input bits —
// fine for power-of-two bucket masks over text keys, but visible as
// clumping when hashes are treated as points on a 2^64 ring. Consistent-
// hash placement (shard/ring.h) therefore runs FNV output through this mix;
// see hash_test.cc for the chi-squared bound that pins the distribution.
// Mix64(s) followed by s += kGoldenGamma is one step of the splitmix64
// generator (common/random.cc seeds xoshiro that way).
inline uint64_t Mix64(uint64_t x) {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace dstore

#endif  // DSTORE_COMMON_HASH_H_
