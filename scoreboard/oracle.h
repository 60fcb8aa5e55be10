#ifndef SCOREBOARD_ORACLE_H_
#define SCOREBOARD_ORACLE_H_

// Correctness oracle. Every value the scoreboard writes carries its key,
// a per-key version and a CRC-32, so any read can be checked on its own:
// the bytes must be intact, name the key that was read, and hold a version
// no older than the last write acknowledged before the read began and no
// newer than the last write issued by the time it returned.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace scoreboard {

// "user" followed by the zero-padded key index.
std::string KeyName(uint32_t key);

// Builds a `size`-byte value (at least kMinValueBytes) whose payload has the
// given redundancy (see dstore::Random::CompressibleBytes).
constexpr size_t kMinValueBytes = 20;
dstore::Bytes EncodeValue(uint32_t key, uint32_t version, size_t size,
                          double redundancy);

struct DecodedValue {
  bool ok = false;  // magic, length and checksum all match
  uint32_t key = 0;
  uint32_t version = 0;
};
DecodedValue DecodeValue(const dstore::Bytes& value);

class Oracle {
 public:
  explicit Oracle(uint32_t keys);

  uint32_t keys() const { return keys_; }

  // Writes to one key come from one thread in version order.
  void BeginPut(uint32_t key, uint32_t version) {
    issued_[key].store(version, std::memory_order_release);
  }
  void AckPut(uint32_t key, uint32_t version, uint32_t bytes) {
    acked_bytes_[key].store(bytes, std::memory_order_relaxed);
    acked_[key].store(version, std::memory_order_release);
  }
  uint32_t Acked(uint32_t key) const {
    return acked_[key].load(std::memory_order_acquire);
  }

  // Checks a successful read, or a NotFound, of `key`; `floor` is Acked()
  // sampled before the read was issued. Returns "" when the result is
  // allowed, otherwise what is wrong. Other errors are failures, not
  // oracle violations, and must not be passed here.
  std::string CheckRead(uint32_t key, uint32_t floor,
                        const dstore::StatusOr<dstore::ValuePtr>& result) const;

  // Sum of the sizes of every key's last acknowledged value.
  uint64_t LiveBytes() const;

 private:
  const uint32_t keys_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_bytes_;
};

}  // namespace scoreboard

#endif  // SCOREBOARD_ORACLE_H_
