#ifndef DSTORE_STORE_LSM_FORMAT_H_
#define DSTORE_STORE_LSM_FORMAT_H_

#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace dstore {
namespace lsm {

// Shared on-disk vocabulary of the LSM engine (store/lsm/): internal keys
// and file naming. The write-ahead log and the manifest frame their records
// with AppendFramedRecord/ReadFramedRecord (store/fs_util.h).
//
// Every stored mutation is an *entry*: (user key, sequence number, type,
// value). Sequence numbers are assigned by LsmStore in write order and are
// what make snapshots work — a reader at snapshot S sees, for each user
// key, the entry with the largest sequence <= S. Entries are ordered by
// (user key ascending, sequence DESCENDING), so the first entry at or below
// a snapshot is the visible one.

// Entry type. Deletions are real entries (tombstones) so they can shadow
// older puts in lower levels until compaction reaches the bottom.
enum class EntryType : uint8_t {
  kPut = 0,
  kDelete = 1,
};

// A sequence number that compares above every assignable one.
inline constexpr uint64_t kMaxSequence = ~0ull;

// Orders (a_key, a_seq) before (b_key, b_seq) in internal-key order:
// user key ascending, sequence descending.
inline bool InternalKeyBefore(const std::string& a_key, uint64_t a_seq,
                              const std::string& b_key, uint64_t b_seq) {
  if (a_key != b_key) return a_key < b_key;
  return a_seq > b_seq;
}

// --- File naming ------------------------------------------------------------
//
// Every file in an LSM directory carries a monotonically increasing file
// number drawn from the manifest's next_file_number:
//   <number>.wal   write-ahead log segment
//   <number>.sst   immutable sorted table
//   MANIFEST       current version (atomically rewritten)
//   *.tmp          in-flight writes, removed at open

std::string WalFileName(uint64_t number);
std::string SstFileName(uint64_t number);
std::string TempFileName(uint64_t number);
inline constexpr char kManifestName[] = "MANIFEST";

// Parses "<number>.wal" / "<number>.sst". Returns false for foreign files.
bool ParseWalFileName(const std::string& name, uint64_t* number);
bool ParseSstFileName(const std::string& name, uint64_t* number);
bool IsTempFileName(const std::string& name);

}  // namespace lsm
}  // namespace dstore

#endif  // DSTORE_STORE_LSM_FORMAT_H_
