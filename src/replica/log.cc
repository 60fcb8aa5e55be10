#include "replica/log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "fault/fault.h"
#include "store/fs_util.h"

namespace dstore {
namespace replica {

namespace {

// File layout: a header record followed by one record per entry, each
// framed by AppendFramedRecord (store/fs_util.h). The header payload is
// the magic "RL01" plus a varint base_seq, rewritten whenever trim or
// truncation rewrites the file.
constexpr char kMagic[] = "RL01";

Bytes EncodeHeader(uint64_t base_seq) {
  Bytes payload;
  payload.insert(payload.end(), kMagic, kMagic + 4);
  PutVarint64(&payload, base_seq);
  return payload;
}

StatusOr<uint64_t> DecodeHeader(const Bytes& payload) {
  if (payload.size() < 4 || !std::equal(kMagic, kMagic + 4, payload.begin())) {
    return Status::Corruption("bad replication log magic");
  }
  size_t pos = 4;
  return GetVarint64(payload, &pos);
}

Status WriteAll(int fd, const uint8_t* data, size_t len,
                const std::string& what) {
  size_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd, data + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("append to " + what);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

std::string_view OpName(OpType op) {
  switch (op) {
    case OpType::kPut:
      return "put";
    case OpType::kDelete:
      return "delete";
    case OpType::kClear:
      return "clear";
  }
  return "unknown";
}

Bytes EncodeLogEntry(const LogEntry& entry) {
  Bytes out;
  PutVarint64(&out, entry.seq);
  PutVarint64(&out, entry.epoch);
  out.push_back(static_cast<uint8_t>(entry.op));
  out.push_back(entry.value != nullptr ? 1 : 0);
  PutLengthPrefixed(&out, entry.key);
  if (entry.value != nullptr) PutLengthPrefixed(&out, *entry.value);
  return out;
}

StatusOr<LogEntry> DecodeLogEntry(const Bytes& payload) {
  LogEntry entry;
  size_t pos = 0;
  DSTORE_ASSIGN_OR_RETURN(entry.seq, GetVarint64(payload, &pos));
  DSTORE_ASSIGN_OR_RETURN(entry.epoch, GetVarint64(payload, &pos));
  if (pos + 2 > payload.size()) {
    return Status::Corruption("log entry truncated");
  }
  const uint8_t op = payload[pos++];
  if (op < static_cast<uint8_t>(OpType::kPut) ||
      op > static_cast<uint8_t>(OpType::kClear)) {
    return Status::Corruption("log entry: bad op");
  }
  entry.op = static_cast<OpType>(op);
  const bool has_value = payload[pos++] != 0;
  DSTORE_ASSIGN_OR_RETURN(Bytes key, GetLengthPrefixed(payload, &pos));
  entry.key.assign(key.begin(), key.end());
  if (has_value) {
    DSTORE_ASSIGN_OR_RETURN(Bytes value, GetLengthPrefixed(payload, &pos));
    entry.value = MakeValue(std::move(value));
  }
  return entry;
}

GroupLog::GroupLog(std::string name) : name_(std::move(name)) {}

StatusOr<std::unique_ptr<GroupLog>> GroupLog::Open(
    std::string name, const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("create log dir " + dir.string());
  std::filesystem::path path = dir / (name + ".rlog");
  auto log = std::unique_ptr<GroupLog>(new GroupLog(std::move(name), path));
  MutexLock lock(log->mu_);

  StatusOr<Bytes> read = ReadWholeFile(path);
  if (!read.ok() && !read.status().IsNotFound()) return read.status();
  if (read.ok()) {
    // Recover: replay intact records; a torn or corrupt tail — the residue
    // of a crash mid-append — is cut off so later appends cannot land
    // behind garbage.
    const Bytes& contents = *read;
    size_t pos = 0;
    bool saw_header = false;
    while (pos < contents.size()) {
      const size_t record_start = pos;
      StatusOr<Bytes> payload = ReadFramedRecord(contents, &pos);
      if (!payload.ok()) {
        pos = record_start;
        break;
      }
      if (!saw_header) {
        DSTORE_ASSIGN_OR_RETURN(log->base_seq_, DecodeHeader(*payload));
        saw_header = true;
        continue;
      }
      StatusOr<LogEntry> entry = DecodeLogEntry(*payload);
      if (!entry.ok()) {
        pos = record_start;
        break;
      }
      log->entries_.push_back(std::move(entry).value());
    }
    if (pos < contents.size()) {
      if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
        return Status::IOError("truncate torn log tail " + path.string());
      }
    }
    if (!saw_header) {
      // Empty or header-torn file: start fresh below.
      log->entries_.clear();
      log->base_seq_ = 0;
      return log->RewriteLocked().ok()
                 ? StatusOr<std::unique_ptr<GroupLog>>(std::move(log))
                 : Status::IOError("reinitialize log " + path.string());
    }
    log->fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (log->fd_ < 0) {
      return Status::IOError("reopen replication log " + path.string());
    }
    log->synced_bytes_ = pos;
    return log;
  }

  DSTORE_RETURN_IF_ERROR(log->RewriteLocked());
  return log;
}

GroupLog::~GroupLog() {
  MutexLock lock(mu_);
  if (fd_ >= 0) ::close(fd_);
}

Status GroupLog::Append(const LogEntry& entry) {
  MutexLock lock(mu_);
  const uint64_t expect =
      entries_.empty() ? base_seq_ + 1 : entries_.back().seq + 1;
  if (entry.seq != expect) {
    return Status::Internal("log " + name_ + ": non-contiguous append");
  }
  if (durable_) DSTORE_RETURN_IF_ERROR(AppendDurableLocked(entry));
  entries_.push_back(entry);
  return Status::OK();
}

Status GroupLog::AppendDurableLocked(const LogEntry& entry) {
  if (fd_ < 0) {
    return Status::IOError("replication log " + path_.string() +
                           " lost its append descriptor");
  }
  Bytes record;
  AppendFramedRecord(&record, EncodeLogEntry(entry));
  // A failed append must leave the file exactly at the durable watermark:
  // torn or duplicate bytes past it would make a retried append land behind
  // garbage, and recovery would then truncate away later fully-synced
  // records. (Crash points are exempt: they model process death, and the
  // torn artifact is what reopen-recovery is supposed to find.)
  auto restore = [this]() REQUIRES(mu_) {
    if (::ftruncate(fd_, static_cast<off_t>(synced_bytes_)) == 0 &&
        ::lseek(fd_, static_cast<off_t>(synced_bytes_), SEEK_SET) >= 0) {
      return;
    }
    // Unrestorable: drop the descriptor so later appends fail loudly
    // instead of corrupting the record stream.
    ::close(fd_);
    fd_ = -1;
  };
  const bool torn = fault::CrashPointFires("replica.log.torn_append");
  const size_t to_write = torn ? record.size() / 2 : record.size();
  const Status written = WriteAll(fd_, record.data(), to_write, path_.string());
  if (!written.ok()) {
    restore();
    return written;
  }
  if (torn) return fault::CrashedStatus("replica.log.torn_append");
  if (fault::CrashPointFires("replica.log.before_sync")) {
    // A crash before fsync loses whatever only the page cache held; model
    // it by cutting the file back to the durable watermark.
    (void)::ftruncate(fd_, static_cast<off_t>(synced_bytes_));
    (void)::lseek(fd_, static_cast<off_t>(synced_bytes_), SEEK_SET);
    return fault::CrashedStatus("replica.log.before_sync");
  }
  if (::fsync(fd_) != 0) {
    restore();
    return Status::IOError("fsync replication log " + path_.string());
  }
  synced_bytes_ += record.size();
  if (fault::CrashPointFires("replica.log.after_sync")) {
    // Durable, but the caller sees an error — the acked-or-not ambiguity
    // recovery has to tolerate.
    entries_.push_back(entry);
    return fault::CrashedStatus("replica.log.after_sync");
  }
  return Status::OK();
}

Status GroupLog::RewriteLocked() {
  if (!durable_) return Status::OK();
  Bytes contents;
  AppendFramedRecord(&contents, EncodeHeader(base_seq_));
  for (const auto& entry : entries_) {
    AppendFramedRecord(&contents, EncodeLogEntry(entry));
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const std::filesystem::path tmp = path_.string() + ".tmp";
  DSTORE_RETURN_IF_ERROR(WriteFileDurably(tmp, contents, contents.size()));
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  if (ec) return Status::IOError("publish replication log " + path_.string());
  DSTORE_RETURN_IF_ERROR(SyncDir(path_.parent_path()));
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    return Status::IOError("reopen replication log " + path_.string());
  }
  synced_bytes_ = contents.size();
  return Status::OK();
}

uint64_t GroupLog::last_seq() const {
  MutexLock lock(mu_);
  return entries_.empty() ? base_seq_ : entries_.back().seq;
}

uint64_t GroupLog::base_seq() const {
  MutexLock lock(mu_);
  return base_seq_;
}

size_t GroupLog::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

std::optional<LogEntry> GroupLog::EntryAt(uint64_t seq) const {
  MutexLock lock(mu_);
  if (seq <= base_seq_ || entries_.empty()) return std::nullopt;
  const uint64_t first = entries_.front().seq;
  if (seq < first || seq > entries_.back().seq) return std::nullopt;
  return entries_[seq - first];
}

std::vector<LogEntry> GroupLog::EntriesAfter(uint64_t seq,
                                             size_t limit) const {
  MutexLock lock(mu_);
  std::vector<LogEntry> out;
  for (const auto& entry : entries_) {
    if (out.size() >= limit) break;
    if (entry.seq > seq) out.push_back(entry);
  }
  return out;
}

Status GroupLog::TruncateTo(uint64_t seq) {
  MutexLock lock(mu_);
  while (!entries_.empty() && entries_.back().seq > seq) entries_.pop_back();
  if (base_seq_ > seq) base_seq_ = seq;
  return RewriteLocked();
}

Status GroupLog::TrimThrough(uint64_t seq) {
  MutexLock lock(mu_);
  bool changed = false;
  while (!entries_.empty() && entries_.front().seq <= seq) {
    entries_.pop_front();
    changed = true;
  }
  if (seq > base_seq_) {
    base_seq_ = seq;
    changed = true;
  }
  return changed ? RewriteLocked() : Status::OK();
}

}  // namespace replica
}  // namespace dstore
