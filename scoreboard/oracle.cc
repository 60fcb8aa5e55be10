#include "oracle.h"

#include <cstdio>
#include <cstring>

#include "common/hash.h"
#include "common/random.h"
#include "compress/crc32.h"

namespace scoreboard {
namespace {

constexpr uint8_t kMagic[4] = {'S', 'B', 'v', '1'};
constexpr size_t kHeaderBytes = 16;  // magic, key, version, length

void PutU32(uint8_t* out, uint32_t v) { std::memcpy(out, &v, 4); }
uint32_t GetU32(const uint8_t* in) {
  uint32_t v = 0;
  std::memcpy(&v, in, 4);
  return v;
}

}  // namespace

std::string KeyName(uint32_t key) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "user%08u", key);
  return buf;
}

dstore::Bytes EncodeValue(uint32_t key, uint32_t version, size_t size,
                          double redundancy) {
  if (size < kMinValueBytes) size = kMinValueBytes;
  dstore::Random rng(
      dstore::Mix64((static_cast<uint64_t>(key) << 32) | version));
  dstore::Bytes payload = rng.CompressibleBytes(size - kMinValueBytes,
                                                redundancy);
  dstore::Bytes value(size);
  std::memcpy(value.data(), kMagic, 4);
  PutU32(value.data() + 4, key);
  PutU32(value.data() + 8, version);
  PutU32(value.data() + 12, static_cast<uint32_t>(size));
  std::memcpy(value.data() + kHeaderBytes, payload.data(), payload.size());
  PutU32(value.data() + size - 4,
         dstore::Crc32(value.data(), size - 4));
  return value;
}

DecodedValue DecodeValue(const dstore::Bytes& value) {
  DecodedValue out;
  if (value.size() < kMinValueBytes) return out;
  if (std::memcmp(value.data(), kMagic, 4) != 0) return out;
  if (GetU32(value.data() + 12) != value.size()) return out;
  if (GetU32(value.data() + value.size() - 4) !=
      dstore::Crc32(value.data(), value.size() - 4)) {
    return out;
  }
  out.ok = true;
  out.key = GetU32(value.data() + 4);
  out.version = GetU32(value.data() + 8);
  return out;
}

Oracle::Oracle(uint32_t keys)
    : keys_(keys),
      acked_(new std::atomic<uint32_t>[keys]),
      issued_(new std::atomic<uint32_t>[keys]),
      acked_bytes_(new std::atomic<uint32_t>[keys]) {
  for (uint32_t k = 0; k < keys; ++k) {
    acked_[k].store(0);
    issued_[k].store(0);
    acked_bytes_[k].store(0);
  }
}

std::string Oracle::CheckRead(
    uint32_t key, uint32_t floor,
    const dstore::StatusOr<dstore::ValuePtr>& result) const {
  const std::string name = KeyName(key);
  if (!result.ok()) {
    if (floor == 0) return "";
    return name + ": NotFound after version " + std::to_string(floor) +
           " was acknowledged";
  }
  const DecodedValue decoded = DecodeValue(**result);
  if (!decoded.ok) return name + ": corrupt value";
  if (decoded.key != key) {
    return name + ": value belongs to " + KeyName(decoded.key);
  }
  const uint32_t ceiling = issued_[key].load(std::memory_order_acquire);
  if (decoded.version < floor) {
    return name + ": stale version " + std::to_string(decoded.version) +
           " after " + std::to_string(floor) + " was acknowledged";
  }
  if (decoded.version > ceiling) {
    return name + ": version " + std::to_string(decoded.version) +
           " was never written";
  }
  return "";
}

uint64_t Oracle::LiveBytes() const {
  uint64_t sum = 0;
  for (uint32_t k = 0; k < keys_; ++k) {
    if (acked_[k].load() != 0) sum += acked_bytes_[k].load();
  }
  return sum;
}

}  // namespace scoreboard
