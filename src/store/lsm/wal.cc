#include "store/lsm/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include "fault/fault.h"
#include "store/fs_util.h"

namespace dstore {
namespace lsm {

Bytes EncodeWalBatch(uint64_t first_seq,
                     const std::vector<BatchEntry>& batch) {
  Bytes out;
  PutVarint64(&out, first_seq);
  PutVarint64(&out, batch.size());
  for (const auto& entry : batch) {
    out.push_back(static_cast<uint8_t>(entry.type));
    PutLengthPrefixed(&out, entry.key);
    if (entry.value != nullptr) {
      PutLengthPrefixed(&out, *entry.value);
    } else {
      PutLengthPrefixed(&out, Bytes{});
    }
  }
  return out;
}

StatusOr<DecodedBatch> DecodeWalBatch(const Bytes& payload) {
  DecodedBatch batch;
  size_t pos = 0;
  DSTORE_ASSIGN_OR_RETURN(batch.first_seq, GetVarint64(payload, &pos));
  DSTORE_ASSIGN_OR_RETURN(const uint64_t count, GetVarint64(payload, &pos));
  batch.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (pos >= payload.size()) {
      return Status::Corruption("wal batch truncated");
    }
    BatchEntry entry;
    const uint8_t type = payload[pos++];
    if (type > static_cast<uint8_t>(EntryType::kDelete)) {
      return Status::Corruption("wal batch: bad entry type");
    }
    entry.type = static_cast<EntryType>(type);
    DSTORE_ASSIGN_OR_RETURN(Bytes key, GetLengthPrefixed(payload, &pos));
    entry.key.assign(key.begin(), key.end());
    DSTORE_ASSIGN_OR_RETURN(Bytes value, GetLengthPrefixed(payload, &pos));
    if (entry.type == EntryType::kPut) {
      entry.value = MakeValue(std::move(value));
    }
    batch.entries.push_back(std::move(entry));
  }
  return batch;
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Create(
    const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("create wal segment " + path.string());
  }
  // The directory entry must survive a crash too, or a synced segment could
  // simply not exist after power loss.
  const Status dir_status = SyncDir(path.parent_path());
  if (!dir_status.ok()) {
    ::close(fd);
    return dir_status;
  }
  return std::unique_ptr<WalWriter>(new WalWriter(path.string(), fd));
}

WalWriter::~WalWriter() { ::close(fd_); }

StatusOr<uint64_t> WalWriter::Append(const Bytes& payload) {
  MutexLock lock(mu_);
  if (fault::CrashPointFires("lsm.wal.before_append")) {
    return fault::CrashedStatus("lsm.wal.before_append");
  }
  Bytes record;
  AppendFramedRecord(&record, payload);
  const bool torn = fault::CrashPointFires("lsm.wal.torn_append");
  const size_t to_write = torn ? record.size() / 2 : record.size();
  size_t written = 0;
  Status status;
  while (written < to_write) {
    const ssize_t n =
        ::write(fd_, record.data() + written, to_write - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      status = Status::IOError("append to wal segment " + path_);
      break;
    }
    written += static_cast<size_t>(n);
  }
  // Whatever hit the fd is on disk even if we error out: keep bytes_ honest
  // so later appends land at the real tail.
  bytes_ += written;
  DSTORE_RETURN_IF_ERROR(status);
  if (torn) return fault::CrashedStatus("lsm.wal.torn_append");
  return bytes_;
}

Status WalWriter::Sync(uint64_t offset) {
  sync_internal::CheckBlocking("WalWriter::Sync");
  mu_.Lock();
  for (;;) {
    if (synced_ >= offset) {
      mu_.Unlock();
      return Status::OK();
    }
    if (!syncing_) break;  // become the group-commit leader
    cv_.Wait(mu_);
  }
  syncing_ = true;
  const uint64_t target = bytes_;
  if (fault::CrashPointFires("lsm.wal.before_fsync")) {
    // A crash before fsync loses whatever only the page cache held. Model
    // that by cutting the file back to the durable watermark.
    ::ftruncate(fd_, static_cast<off_t>(synced_));
    ::lseek(fd_, static_cast<off_t>(synced_), SEEK_SET);
    bytes_ = synced_;
    syncing_ = false;
    cv_.NotifyAll();
    mu_.Unlock();
    return fault::CrashedStatus("lsm.wal.before_fsync");
  }
  mu_.Unlock();
  const bool fsync_ok = ::fsync(fd_) == 0;
  mu_.Lock();
  syncing_ = false;
  if (fsync_ok && target > synced_) synced_ = target;
  const bool covered = synced_ >= offset;
  cv_.NotifyAll();
  mu_.Unlock();
  if (!fsync_ok) return Status::IOError("fsync wal segment " + path_);
  if (fault::CrashPointFires("lsm.wal.after_fsync")) {
    return fault::CrashedStatus("lsm.wal.after_fsync");
  }
  // The fsync covered everything appended when we took leadership, which
  // includes our own record; re-enter only in the (unexpected) case it
  // somehow did not.
  return covered ? Status::OK() : Sync(offset);
}

uint64_t WalWriter::bytes() {
  MutexLock lock(mu_);
  return bytes_;
}

StatusOr<std::vector<Bytes>> ReadWalRecords(const std::filesystem::path& path,
                                            bool truncate_torn_tail) {
  DSTORE_ASSIGN_OR_RETURN(const Bytes contents, ReadWholeFile(path));

  std::vector<Bytes> records;
  size_t pos = 0;
  while (pos < contents.size()) {
    StatusOr<Bytes> record = ReadFramedRecord(contents, &pos);
    // A torn or corrupt record ends the valid prefix; everything before it
    // was individually CRC-checked and is kept.
    if (!record.ok()) break;
    records.push_back(std::move(record).value());
  }
  if (truncate_torn_tail && pos < contents.size()) {
    if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
      return Status::IOError("truncate torn wal tail " + path.string());
    }
  }
  return records;
}

}  // namespace lsm
}  // namespace dstore
