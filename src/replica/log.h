#ifndef DSTORE_REPLICA_LOG_H_
#define DSTORE_REPLICA_LOG_H_

#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/sync.h"
#include "store/fs_util.h"

namespace dstore {
namespace replica {

// One replicated mutation. Sequence numbers are dense per group and assigned
// by the primary; `epoch` stamps which leadership term produced the entry so
// a deposed primary's tail can be fenced after failover.
enum class OpType : uint8_t {
  kPut = 1,
  kDelete = 2,
  kClear = 3,
};

std::string_view OpName(OpType op);

struct LogEntry {
  uint64_t seq = 0;
  uint64_t epoch = 0;
  OpType op = OpType::kPut;
  std::string key;
  ValuePtr value;  // null for kDelete / kClear
};

Bytes EncodeLogEntry(const LogEntry& entry);
StatusOr<LogEntry> DecodeLogEntry(const Bytes& payload);

// The per-group replication log: the ordered record of mutations the primary
// streams to backups. Retains the suffix of entries not yet applied by every
// replica (a down replica therefore pins its hinted-handoff suffix in the
// log until it rejoins and replays it).
//
// Two modes: in-memory (default — replication state only has to outlive the
// process for crash tests, not for correctness, since backends hold the
// data), or durable, where every append goes through a WalWriter
// (store/fs_util.h) into <dir>/<name>.rlog and is fsynced before it is
// acknowledged, and truncation/trim republish the whole file through
// PublishFile. Recovery cuts a torn tail, CrashMonkey-style.
//
// Crash points (see fault.h): the append log's site is "replica.log"
// (replica.log.{before_append,torn_append,before_fsync,after_fsync}), the
// rewrite's is "replica.log.rewrite" (replica.log.rewrite.{before_write,
// torn_write,before_rename,before_dirsync,after_rename}).
//
// Thread-safe.
class GroupLog {
 public:
  // In-memory log.
  explicit GroupLog(std::string name);

  // Durable log backed by <dir>/<name>.rlog; recovers any existing entries,
  // truncating a torn or corrupt tail.
  static StatusOr<std::unique_ptr<GroupLog>> Open(
      std::string name, const std::filesystem::path& dir);

  GroupLog(const GroupLog&) = delete;
  GroupLog& operator=(const GroupLog&) = delete;

  // Appends one entry; `entry.seq` must be last_seq() + 1. Durable mode
  // fsyncs before returning OK.
  Status Append(const LogEntry& entry) EXCLUDES(mu_) DSTORE_BLOCKING;

  // Highest appended sequence (0 when nothing was ever appended).
  uint64_t last_seq() const EXCLUDES(mu_);
  // Highest trimmed-away sequence; retained entries are (base_seq, last_seq].
  uint64_t base_seq() const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);

  // The entry with exactly `seq`, or nullopt when trimmed or not appended.
  std::optional<LogEntry> EntryAt(uint64_t seq) const EXCLUDES(mu_);
  std::vector<LogEntry> EntriesAfter(uint64_t seq, size_t limit) const
      EXCLUDES(mu_);

  // Failover: drops every entry with seq > `seq` — the unacked tail of a
  // deposed primary that the new primary's history does not contain.
  Status TruncateTo(uint64_t seq) EXCLUDES(mu_) DSTORE_BLOCKING;

  // Retention: drops every entry with seq <= `seq`. Callers only trim
  // through the minimum applied sequence across all replicas (down ones
  // included), so a rejoining replica always finds its replay suffix.
  Status TrimThrough(uint64_t seq) EXCLUDES(mu_) DSTORE_BLOCKING;

  const std::string& name() const { return name_; }
  bool durable() const { return durable_; }

 private:
  GroupLog(std::string name, std::filesystem::path path)
      : name_(std::move(name)), path_(std::move(path)), durable_(true) {}

  // Republishes the whole retained log through PublishFile (truncate/trim
  // paths), then reopens the append writer on it.
  Status RewriteLocked() REQUIRES(mu_) DSTORE_BLOCKING;

  const std::string name_;
  const std::filesystem::path path_;  // empty in memory mode
  const bool durable_ = false;

  mutable Mutex mu_;
  // Null in memory mode, and after a failed rewrite.
  std::unique_ptr<WalWriter> writer_ GUARDED_BY(mu_);
  std::deque<LogEntry> entries_ GUARDED_BY(mu_);
  uint64_t base_seq_ GUARDED_BY(mu_) = 0;
};

}  // namespace replica
}  // namespace dstore

#endif  // DSTORE_REPLICA_LOG_H_
