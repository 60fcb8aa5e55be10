#include "replica/log.h"

#include <utility>

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

  StatusOr<std::vector<LogRecord>> records = ReadLogRecords(path);
  if (!records.ok() && !records.status().IsNotFound()) return records.status();
  if (!records.ok() || records->empty()) {
    // No log yet, or not even an intact header: start fresh.
    DSTORE_RETURN_IF_ERROR(log->RewriteLocked());
    return log;
  }
  // Recover the header and every entry up to the first torn, corrupt or
  // undecodable record — the residue of a crash mid-append — and cut the
  // file there, so later appends cannot land behind garbage.
  DSTORE_ASSIGN_OR_RETURN(log->base_seq_,
                          DecodeHeader(records->front().payload));
  uint64_t keep = records->front().end;
  for (size_t i = 1; i < records->size(); ++i) {
    StatusOr<LogEntry> entry = DecodeLogEntry((*records)[i].payload);
    if (!entry.ok()) break;
    log->entries_.push_back(std::move(entry).value());
    keep = (*records)[i].end;
  }
  DSTORE_ASSIGN_OR_RETURN(log->writer_,
                          WalWriter::Open(path, "replica.log", keep));
  return log;
}

Status GroupLog::Append(const LogEntry& entry) {
  MutexLock lock(mu_);
  const uint64_t expect =
      entries_.empty() ? base_seq_ + 1 : entries_.back().seq + 1;
  if (entry.seq != expect) {
    return Status::Internal("log " + name_ + ": non-contiguous append");
  }
  if (durable_) {
    if (writer_ == nullptr) {
      return Status::IOError("replication log " + path_.string() +
                             " is closed after a failed rewrite");
    }
    DSTORE_ASSIGN_OR_RETURN(const uint64_t end,
                            writer_->Append(EncodeLogEntry(entry)));
    DSTORE_RETURN_IF_ERROR(writer_->Sync(end));
  }
  entries_.push_back(entry);
  return Status::OK();
}

Status GroupLog::RewriteLocked() {
  if (!durable_) return Status::OK();
  Bytes contents;
  AppendFramedRecord(&contents, EncodeHeader(base_seq_));
  for (const auto& entry : entries_) {
    AppendFramedRecord(&contents, EncodeLogEntry(entry));
  }
  writer_.reset();
  DSTORE_RETURN_IF_ERROR(PublishFile(path_.string() + ".tmp", path_, contents,
                                     "replica.log.rewrite"));
  DSTORE_ASSIGN_OR_RETURN(
      writer_, WalWriter::Open(path_, "replica.log", contents.size()));
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
