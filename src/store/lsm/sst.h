#ifndef DSTORE_STORE_LSM_SST_H_
#define DSTORE_STORE_LSM_SST_H_

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "common/bytes.h"
#include "common/status.h"
#include "store/fs_util.h"
#include "store/lsm/format.h"

namespace dstore {
namespace lsm {

// Immutable sorted table ("SST") files. Each file holds entries in
// internal-key order, split into ~block_bytes data blocks, followed by an
// index block (one entry per data block), a Bloom filter over user keys,
// and a fixed-size footer. Every region carries its own CRC32 so a flipped
// bit is detected at read time rather than silently served.
//
// File layout:
//   data block 0 .. data block N-1
//   index block:  lp smallest_key, then per block
//                 [lp last_key][fixed64 offset][fixed32 len][fixed32 crc]
//   filter block: BloomFilter bytes (see bloom.h)
//   footer:       fixed64 index_off,  fixed32 index_len,  fixed32 index_crc,
//                 fixed64 filter_off, fixed32 filter_len, fixed32 filter_crc,
//                 fixed64 entries, fixed64 max_seq,
//                 fixed64 magic, fixed32 footer_crc
//
// Data block entry: [lp user_key][varint (seq << 1 | type)][lp value]
// (value empty for tombstones). A user key never straddles a block
// boundary, so a point lookup touches exactly one data block.
//
// Files are written to <number>.tmp, fsynced, renamed to <number>.sst, and
// the directory is fsynced — only then may the manifest reference them.
// Data blocks stream to the temp file as they are cut (FilePublisher), so
// a build holds one block and one write stage in memory, not the file.
// Crash points: lsm.sst.torn_write, lsm.sst.before_rename.

inline constexpr uint64_t kSstMagic = 0x4c534d5f53535400ull;  // "LSM_SST\0"
inline constexpr size_t kSstFooterSize = 60;

// One decoded entry, as seen by iterators.
struct SstEntry {
  std::string key;
  uint64_t seq = 0;
  EntryType type = EntryType::kPut;
  ValuePtr value;  // null for tombstones
};

// What Finish() reports about the file it produced; feeds FileMeta.
struct SstProperties {
  uint64_t number = 0;
  uint64_t file_size = 0;
  uint64_t entries = 0;
  uint64_t max_seq = 0;
  std::string smallest;
  std::string largest;
};

struct SstOptions {
  size_t block_bytes = 4096;
  int bloom_bits_per_key = 10;
};

// Builds one SST. Add() must be called in strict internal-key order (the
// flush and compaction paths both naturally produce it).
class SstWriter {
 public:
  SstWriter(std::filesystem::path dir, uint64_t number, SstOptions options);

  void Add(const std::string& key, uint64_t seq, EntryType type,
           const ValuePtr& value);

  size_t entries() const { return num_entries_; }

  // Bytes added so far; drives compaction's output-file rolling.
  size_t ApproximateBytes() const { return file_.size() + block_.size(); }

  // Assembles index/filter/footer and atomically publishes the file
  // (temp write -> fsync -> rename -> directory fsync).
  StatusOr<SstProperties> Finish();

 private:
  void FinishBlock();

  const uint64_t number_;
  const SstOptions options_;

  struct PendingIndex {
    std::string last_key;
    uint64_t offset = 0;
    uint32_t length = 0;
    uint32_t crc = 0;
  };

  FilePublisher file_;  // completed blocks stream to the temp file
  Bytes block_;         // block under construction
  std::string block_last_key_;
  std::vector<PendingIndex> index_;
  std::vector<uint64_t> key_hashes_;
  uint64_t num_entries_ = 0;
  uint64_t max_seq_ = 0;
  std::string smallest_;
  std::string largest_;
};

// Read handle for one SST: loads footer, index, and filter eagerly, then
// serves Get() via positioned reads (pread) — stateless per call, so a
// single reader is shared by any number of threads without locking.
//
// With a block cache, blocks are keyed "<file>:<block>" and the kind of
// read sets the fill rule: a point Get() inserts the block it had to pread
// (after its CRC passes once), while an SstIterator scan (compaction,
// ListKeys, Count) uses a cached block but never inserts one. So the cache
// holds only blocks a point read can still return. The destructor erases
// every "<file>:*" key: the last reference to a retired SST is dropped only
// once no reader holds it, so the erase cannot race a Get, and it costs
// O(blocks) once per file. File numbers are never reused across a store's
// lifetime, so a stale entry could never alias a new file either way.
class SstReader {
 public:
  struct LookupResult {
    enum class Kind {
      kBloomNegative,  // filter proved the key absent; no blocks read
      kNotFound,       // blocks consulted, no visible entry
      kFound,          // entry (put or tombstone) located
    };
    Kind kind = Kind::kNotFound;
    EntryType type = EntryType::kPut;
    uint64_t seq = 0;
    ValuePtr value;
  };

  static StatusOr<std::shared_ptr<SstReader>> Open(
      const std::filesystem::path& dir, uint64_t number,
      std::shared_ptr<Cache> block_cache = nullptr);

  ~SstReader();
  SstReader(const SstReader&) = delete;
  SstReader& operator=(const SstReader&) = delete;

  // Newest entry for `key` with seq <= snapshot. Callers are expected to
  // range-check against [smallest, largest] first (FileMeta carries both).
  StatusOr<LookupResult> Get(const std::string& key, uint64_t snapshot) const;

  uint64_t number() const { return number_; }
  uint64_t file_size() const { return file_size_; }
  uint64_t entries() const { return entries_; }
  uint64_t max_seq() const { return max_seq_; }
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  size_t num_blocks() const { return index_.size(); }

 private:
  friend class SstIterator;

  struct BlockHandle {
    std::string last_key;
    uint64_t offset = 0;
    uint32_t length = 0;
    uint32_t crc = 0;
  };

  SstReader(int fd, uint64_t number, std::shared_ptr<Cache> block_cache)
      : fd_(fd), number_(number), block_cache_(std::move(block_cache)) {}

  // Reads and CRC-checks one region of the file.
  StatusOr<Bytes> ReadRegion(uint64_t offset, uint32_t length,
                             uint32_t expected_crc) const;
  std::string BlockCacheKey(size_t index) const;
  // Raw bytes of data block `index`: the cached copy when there is one,
  // else a verified pread that is inserted only if `fill_cache`.
  StatusOr<ValuePtr> ReadRawBlock(size_t index, bool fill_cache) const;
  // Decoded entries of block `index` for scans; never fills the cache.
  StatusOr<std::vector<SstEntry>> ReadBlock(size_t index) const;

  const int fd_;
  const uint64_t number_;
  const std::shared_ptr<Cache> block_cache_;
  uint64_t file_size_ = 0;
  uint64_t entries_ = 0;
  uint64_t max_seq_ = 0;
  std::string smallest_;
  std::string largest_;
  std::vector<BlockHandle> index_;
  Bytes filter_;
};

// Forward scan over every entry of one SST, in internal-key order. Used by
// compaction and merged listings; decodes one block at a time and leaves
// the block cache as it found it. The reader must outlive the iterator
// (callers pin it via FileMeta's shared_ptr).
class SstIterator {
 public:
  explicit SstIterator(const SstReader* reader);

  bool Valid() const { return pos_ < entries_.size(); }
  const SstEntry& entry() const { return entries_[pos_]; }
  void Next();

  // Non-OK if a block failed to load; the iterator goes invalid then.
  const Status& status() const { return status_; }

 private:
  void LoadBlock(size_t block);

  const SstReader* reader_;
  size_t block_ = 0;
  std::vector<SstEntry> entries_;
  size_t pos_ = 0;
  Status status_;
};

// Decodes the entries of one data block (exposed for tests).
StatusOr<std::vector<SstEntry>> ParseDataBlock(const Bytes& block);

}  // namespace lsm
}  // namespace dstore

#endif  // DSTORE_STORE_LSM_SST_H_
