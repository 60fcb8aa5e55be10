#ifndef DSTORE_STORE_LSM_WAL_H_
#define DSTORE_STORE_LSM_WAL_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "store/lsm/format.h"

namespace dstore {
namespace lsm {

// The LSM write-ahead log. Every write batch is appended as one CRC-framed
// record before it touches the memtable; a batch is acknowledged only after
// its bytes are fsynced (when sync is on). One segment exists per memtable;
// the segment is deleted once its memtable has been flushed into an L0 SST
// and the manifest records that fact.
//
// Record payload (one per write batch):
//   varint first_seq, varint count,
//   then per entry: u8 type, length-prefixed key,
//   length-prefixed value (empty for tombstones)
//
// Segments are written by WalWriter (store/fs_util.h) with crash-point
// site "lsm.wal"; this header holds only the batch codec.

// One mutation inside a WAL batch.
struct BatchEntry {
  EntryType type = EntryType::kPut;
  std::string key;
  ValuePtr value;  // null for tombstones
};

// Serializes a batch whose first entry has sequence `first_seq`; the i-th
// entry implicitly has sequence first_seq + i.
Bytes EncodeWalBatch(uint64_t first_seq, const std::vector<BatchEntry>& batch);

struct DecodedBatch {
  uint64_t first_seq = 0;
  std::vector<BatchEntry> entries;
};
StatusOr<DecodedBatch> DecodeWalBatch(const Bytes& payload);

}  // namespace lsm
}  // namespace dstore

#endif  // DSTORE_STORE_LSM_WAL_H_
