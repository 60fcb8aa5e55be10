#include "store/lsm/sst.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "compress/crc32.h"
#include "store/fs_util.h"
#include "store/lsm/bloom.h"

namespace dstore {
namespace lsm {

// --- SstWriter --------------------------------------------------------------

SstWriter::SstWriter(std::filesystem::path dir, uint64_t number,
                     SstOptions options)
    : number_(number),
      options_(options),
      file_(dir / TempFileName(number), dir / SstFileName(number), "lsm.sst") {}

void SstWriter::Add(const std::string& key, uint64_t seq, EntryType type,
                    const ValuePtr& value) {
  // Cut the current block once it is full, but never between two entries of
  // the same user key — a point lookup reads exactly one block.
  if (!block_.empty() && block_.size() >= options_.block_bytes &&
      key != block_last_key_) {
    FinishBlock();
  }
  if (num_entries_ == 0) smallest_ = key;
  largest_ = key;
  if (block_.empty() || key != block_last_key_) {
    key_hashes_.push_back(BloomFilter::HashKey(key));
  }
  PutLengthPrefixed(&block_, key);
  PutVarint64(&block_, (seq << 1) | static_cast<uint64_t>(type));
  if (value != nullptr) {
    PutLengthPrefixed(&block_, *value);
  } else {
    PutLengthPrefixed(&block_, Bytes{});
  }
  block_last_key_ = key;
  ++num_entries_;
  max_seq_ = std::max(max_seq_, seq);
}

void SstWriter::FinishBlock() {
  if (block_.empty()) return;
  PendingIndex entry;
  entry.last_key = block_last_key_;
  entry.offset = file_.size();
  entry.length = static_cast<uint32_t>(block_.size());
  entry.crc = Crc32(block_);
  index_.push_back(std::move(entry));
  file_.Stage(block_);
  block_.clear();
}

StatusOr<SstProperties> SstWriter::Finish() {
  FinishBlock();

  Bytes index_block;
  PutLengthPrefixed(&index_block, smallest_);
  for (const auto& entry : index_) {
    PutLengthPrefixed(&index_block, entry.last_key);
    PutFixed64(&index_block, entry.offset);
    PutFixed32(&index_block, entry.length);
    PutFixed32(&index_block, entry.crc);
  }
  const Bytes filter =
      BloomFilter::Build(key_hashes_, options_.bloom_bits_per_key);

  const uint64_t index_off = file_.size();
  file_.Stage(index_block);
  const uint64_t filter_off = file_.size();
  file_.Stage(filter);

  Bytes footer;
  PutFixed64(&footer, index_off);
  PutFixed32(&footer, static_cast<uint32_t>(index_block.size()));
  PutFixed32(&footer, Crc32(index_block));
  PutFixed64(&footer, filter_off);
  PutFixed32(&footer, static_cast<uint32_t>(filter.size()));
  PutFixed32(&footer, Crc32(filter));
  PutFixed64(&footer, num_entries_);
  PutFixed64(&footer, max_seq_);
  PutFixed64(&footer, kSstMagic);
  PutFixed32(&footer, Crc32(footer));
  file_.Stage(footer);
  DSTORE_RETURN_IF_ERROR(file_.Commit());

  SstProperties props;
  props.number = number_;
  props.file_size = file_.size();
  props.entries = num_entries_;
  props.max_seq = max_seq_;
  props.smallest = smallest_;
  props.largest = largest_;
  return props;
}

// --- Block decoding ---------------------------------------------------------

StatusOr<std::vector<SstEntry>> ParseDataBlock(const Bytes& block) {
  std::vector<SstEntry> entries;
  size_t pos = 0;
  while (pos < block.size()) {
    SstEntry entry;
    DSTORE_ASSIGN_OR_RETURN(Bytes key, GetLengthPrefixed(block, &pos));
    entry.key.assign(key.begin(), key.end());
    DSTORE_ASSIGN_OR_RETURN(const uint64_t packed, GetVarint64(block, &pos));
    entry.seq = packed >> 1;
    entry.type = (packed & 1) ? EntryType::kDelete : EntryType::kPut;
    DSTORE_ASSIGN_OR_RETURN(Bytes value, GetLengthPrefixed(block, &pos));
    if (entry.type == EntryType::kPut) {
      entry.value = MakeValue(std::move(value));
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

// --- SstReader --------------------------------------------------------------

StatusOr<std::shared_ptr<SstReader>> SstReader::Open(
    const std::filesystem::path& dir, uint64_t number,
    std::shared_ptr<Cache> block_cache) {
  const std::filesystem::path path = dir / SstFileName(number);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("open sst " + path.string());
  std::shared_ptr<SstReader> reader(
      new SstReader(fd, number, std::move(block_cache)));

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IOError("stat sst " + path.string());
  }
  reader->file_size_ = static_cast<uint64_t>(st.st_size);
  if (reader->file_size_ < kSstFooterSize) {
    return Status::Corruption("sst too small: " + path.string());
  }

  Bytes footer(kSstFooterSize);
  const ssize_t n =
      ::pread(fd, footer.data(), kSstFooterSize,
              static_cast<off_t>(reader->file_size_ - kSstFooterSize));
  if (n != static_cast<ssize_t>(kSstFooterSize)) {
    return Status::IOError("read sst footer " + path.string());
  }
  const uint32_t footer_crc = DecodeFixed32(footer.data() + 56);
  Bytes footer_body(footer.begin(), footer.begin() + 56);
  if (Crc32(footer_body) != footer_crc) {
    return Status::Corruption("sst footer CRC mismatch: " + path.string());
  }
  if (DecodeFixed64(footer.data() + 48) != kSstMagic) {
    return Status::Corruption("sst bad magic: " + path.string());
  }
  const uint64_t index_off = DecodeFixed64(footer.data());
  const uint32_t index_len = DecodeFixed32(footer.data() + 8);
  const uint32_t index_crc = DecodeFixed32(footer.data() + 12);
  const uint64_t filter_off = DecodeFixed64(footer.data() + 16);
  const uint32_t filter_len = DecodeFixed32(footer.data() + 24);
  const uint32_t filter_crc = DecodeFixed32(footer.data() + 28);
  reader->entries_ = DecodeFixed64(footer.data() + 32);
  reader->max_seq_ = DecodeFixed64(footer.data() + 40);

  DSTORE_ASSIGN_OR_RETURN(Bytes index_block,
                          reader->ReadRegion(index_off, index_len, index_crc));
  size_t pos = 0;
  DSTORE_ASSIGN_OR_RETURN(Bytes smallest, GetLengthPrefixed(index_block, &pos));
  reader->smallest_.assign(smallest.begin(), smallest.end());
  while (pos < index_block.size()) {
    BlockHandle handle;
    DSTORE_ASSIGN_OR_RETURN(Bytes last_key,
                            GetLengthPrefixed(index_block, &pos));
    handle.last_key.assign(last_key.begin(), last_key.end());
    if (pos + 16 > index_block.size()) {
      return Status::Corruption("sst index truncated: " + path.string());
    }
    handle.offset = DecodeFixed64(index_block.data() + pos);
    handle.length = DecodeFixed32(index_block.data() + pos + 8);
    handle.crc = DecodeFixed32(index_block.data() + pos + 12);
    pos += 16;
    reader->index_.push_back(std::move(handle));
  }
  if (!reader->index_.empty()) {
    reader->largest_ = reader->index_.back().last_key;
  }

  DSTORE_ASSIGN_OR_RETURN(
      reader->filter_, reader->ReadRegion(filter_off, filter_len, filter_crc));
  return reader;
}

SstReader::~SstReader() {
  ::close(fd_);
  if (block_cache_ == nullptr) return;
  for (size_t i = 0; i < index_.size(); ++i) {
    (void)block_cache_->Delete(BlockCacheKey(i));
  }
}

std::string SstReader::BlockCacheKey(size_t index) const {
  return std::to_string(number_) + ":" + std::to_string(index);
}

StatusOr<Bytes> SstReader::ReadRegion(uint64_t offset, uint32_t length,
                                      uint32_t expected_crc) const {
  if (offset + length > file_size_) {
    return Status::Corruption("sst region out of bounds");
  }
  Bytes region(length);
  size_t done = 0;
  while (done < length) {
    const ssize_t n = ::pread(fd_, region.data() + done, length - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread sst");
    }
    if (n == 0) return Status::Corruption("sst short read");
    done += static_cast<size_t>(n);
  }
  if (Crc32(region) != expected_crc) {
    return Status::Corruption("sst block CRC mismatch");
  }
  return region;
}

StatusOr<ValuePtr> SstReader::ReadRawBlock(size_t index,
                                           bool fill_cache) const {
  const BlockHandle& handle = index_[index];
  std::string cache_key;
  if (block_cache_ != nullptr) {
    cache_key = BlockCacheKey(index);
    StatusOr<ValuePtr> hit = block_cache_->Get(cache_key);
    if (hit.ok()) return std::move(hit).value();
  }
  DSTORE_ASSIGN_OR_RETURN(
      Bytes block, ReadRegion(handle.offset, handle.length, handle.crc));
  ValuePtr raw = MakeValue(std::move(block));
  if (fill_cache && block_cache_ != nullptr) {
    (void)block_cache_->Put(cache_key, raw);
  }
  return raw;
}

StatusOr<std::vector<SstEntry>> SstReader::ReadBlock(size_t index) const {
  DSTORE_ASSIGN_OR_RETURN(const ValuePtr block,
                          ReadRawBlock(index, /*fill_cache=*/false));
  return ParseDataBlock(*block);
}

StatusOr<SstReader::LookupResult> SstReader::Get(const std::string& key,
                                                 uint64_t snapshot) const {
  LookupResult result;
  if (!BloomFilter::MayContain(filter_, BloomFilter::HashKey(key))) {
    result.kind = LookupResult::Kind::kBloomNegative;
    return result;
  }
  // First block whose last key is >= key is the only one that can hold it.
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const BlockHandle& h, const std::string& k) { return h.last_key < k; });
  if (it == index_.end()) return result;  // kNotFound
  DSTORE_ASSIGN_OR_RETURN(
      const ValuePtr raw,
      ReadRawBlock(static_cast<size_t>(it - index_.begin()),
                   /*fill_cache=*/true));
  // Scan the block in place — entries are in internal-key order (seq
  // descending within a key), so the first entry matching `key` at or below
  // the snapshot is the visible version. Nothing is materialized until a
  // match: non-matching keys and values are skipped as raw slices.
  const Bytes& block = *raw;
  const std::string_view target(key);
  size_t pos = 0;
  while (pos < block.size()) {
    DSTORE_ASSIGN_OR_RETURN(const uint64_t key_len, GetVarint64(block, &pos));
    if (pos + key_len > block.size()) {
      return Status::Corruption("sst entry key truncated");
    }
    const std::string_view entry_key(
        reinterpret_cast<const char*>(block.data() + pos),
        static_cast<size_t>(key_len));
    pos += key_len;
    DSTORE_ASSIGN_OR_RETURN(const uint64_t packed, GetVarint64(block, &pos));
    DSTORE_ASSIGN_OR_RETURN(const uint64_t value_len, GetVarint64(block, &pos));
    if (pos + value_len > block.size()) {
      return Status::Corruption("sst entry value truncated");
    }
    const size_t value_pos = pos;
    pos += value_len;
    if (entry_key < target) continue;
    if (entry_key > target) break;
    if ((packed >> 1) > snapshot) continue;
    result.kind = LookupResult::Kind::kFound;
    result.type = (packed & 1) ? EntryType::kDelete : EntryType::kPut;
    result.seq = packed >> 1;
    if (result.type == EntryType::kPut) {
      result.value = MakeValue(
          Bytes(block.begin() + static_cast<ptrdiff_t>(value_pos),
                block.begin() + static_cast<ptrdiff_t>(value_pos + value_len)));
    }
    return result;
  }
  return result;  // kNotFound
}

// --- SstIterator ------------------------------------------------------------

SstIterator::SstIterator(const SstReader* reader) : reader_(reader) {
  LoadBlock(0);
}

void SstIterator::LoadBlock(size_t block) {
  entries_.clear();
  pos_ = 0;
  block_ = block;
  while (block_ < reader_->index_.size()) {
    StatusOr<std::vector<SstEntry>> loaded = reader_->ReadBlock(block_);
    if (!loaded.ok()) {
      status_ = loaded.status();
      return;
    }
    if (!loaded.value().empty()) {
      entries_ = std::move(loaded).value();
      return;
    }
    ++block_;  // defensive: skip empty blocks
  }
}

void SstIterator::Next() {
  if (++pos_ < entries_.size()) return;
  LoadBlock(block_ + 1);
}

}  // namespace lsm
}  // namespace dstore
