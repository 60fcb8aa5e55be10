#ifndef DSTORE_STORE_FS_UTIL_H_
#define DSTORE_STORE_FS_UTIL_H_

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/sync.h"

namespace dstore {

// The one durable-file module. Every on-disk store (FileStore, the SQL
// database, the LSM engine, the replication log) writes through the two
// protocols below, so each has one implementation, one failure rule and one
// set of crash points:
//
//  - PublishFile: temp write -> fsync -> rename -> directory fsync, for
//    files replaced whole (FileStore values, the MANIFEST, the SQL
//    snapshot, the replication log's rewrite). FilePublisher is the same
//    protocol for a file built piece by piece (SSTs).
//  - WalWriter: an append-only log of CRC-framed records with group commit,
//    for the LSM WAL segments, the SQL WAL and the replication log.
//
// POSIX rename() makes a file *visible* atomically, but the new directory
// entry itself lives in the page cache until the directory is fsynced: a
// power cut right after rename can bring the machine back with the old
// directory contents. So a publish ends with a directory fsync, and a log
// file this module creates has its directory fsynced once at creation.
//
// Everything that fsyncs blocks for a device round trip: it is
// DSTORE_BLOCKING and must run on worker threads, never on a reactor loop.

// fsyncs issued by this module since process start, files and directories
// alike (failed attempts included). Tests pin each path's barriers with it.
uint64_t FsyncCount();

// Reads all of `path`: NotFound if it does not exist, IOError on any other
// failure.
StatusOr<Bytes> ReadWholeFile(const std::filesystem::path& path);

// Publishes `data` as `path`: writes it to `temp`, fsyncs it, renames it
// over `path` and fsyncs the parent directory. A reader sees the old file or
// the new one, never a mix; once this returns OK the new one survives a
// crash. `sync` false skips both fsyncs: the swap stays atomic but is not
// durable. An I/O error before the rename removes the temp file and leaves
// `path` untouched.
//
// Crash points, each named `<site>.<step>` (see fault.h):
//   before_write    nothing is written
//   torn_write      half of `data` reaches the temp file, left as litter
//   before_rename   the temp file is complete but never published
//   before_dirsync  renamed, but the directory entry is not yet durable
//   after_rename    durable, but the caller sees an error
Status PublishFile(const std::filesystem::path& temp,
                   const std::filesystem::path& path, const Bytes& data,
                   std::string_view site, bool sync = true) DSTORE_BLOCKING;

// PublishFile for a file built piece by piece (SSTs); torn_write tears the
// first write. Pieces reach `temp` through a 64 KiB stage, so a build never
// holds the whole file. The first error is kept for Commit. An uncommitted
// publisher removes its temp file, except the litter a crash point leaves.
class FilePublisher {
 public:
  FilePublisher(std::filesystem::path temp, std::filesystem::path path,
                std::string_view site, bool sync = true);
  ~FilePublisher();
  FilePublisher(const FilePublisher&) = delete;
  FilePublisher& operator=(const FilePublisher&) = delete;

  void Stage(const Bytes& data);
  uint64_t size() const { return size_; }  // bytes staged so far
  Status Commit() DSTORE_BLOCKING;         // once, after the last Stage

 private:
  void WriteThrough(const Bytes& data);  // creates the temp file at first
  bool Fires(std::string_view step);      // a fired crash point is the error

  const std::filesystem::path temp_, path_;
  const std::string site_;
  const bool sync_;
  int fd_ = -1;
  Status status_;
  Bytes stage_;
  uint64_t size_ = 0;
};

// --- Record framing ---------------------------------------------------------
//
// Logs and the MANIFEST are sequences of CRC-framed records:
//   [fixed32 payload_len][fixed32 crc32(payload)][payload]
// A torn tail (short header, short payload, or CRC mismatch) marks the end
// of the valid prefix.

// Appends one framed record to `dst`.
void AppendFramedRecord(Bytes* dst, const Bytes& payload);

// Reads the framed record starting at *pos; advances *pos past it. Returns
// Corruption on a torn or corrupt record (with *pos unchanged).
StatusOr<Bytes> ReadFramedRecord(const Bytes& src, size_t* pos);

// --- Append-only logs -------------------------------------------------------

// One intact record of a log and the file offset just past it.
struct LogRecord {
  Bytes payload;
  uint64_t end = 0;
};

// Reads the intact framed records of the log at `path` in file order
// (NotFound if it does not exist). A torn or corrupt record ends the scan.
// Recovery decides how many of them to keep and passes the last kept
// record's `end` to WalWriter::Open, which cuts the rest away.
StatusOr<std::vector<LogRecord>> ReadLogRecords(
    const std::filesystem::path& path);

// Appends framed records to one log file, with leader-based group commit:
// concurrent committers all call Sync(their offset); one becomes the leader
// and fsyncs once at the current tail, and every waiter that fsync covered
// returns without issuing its own.
//
// Failure rule:
//  - a failed write cuts the file back to the end of the last whole record,
//    so a later record never lands behind torn bytes;
//  - a failed fsync, or a failed cut, makes the writer refuse every later
//    Append, Sync and Reset with that first error: the page cache can no
//    longer be trusted to match the file.
//
// Crash points, each named `<site>.<step>` (see fault.h):
//   before_append   the record does not reach the file
//   torn_append     half the record reaches the file
//   before_fsync    unsynced bytes are lost (the file is cut back to the
//                   durable watermark)
//   after_fsync     durable, but the caller sees an error
// A fired crash point models process death: the writer then refuses every
// later call, and the bytes it left are what recovery must cope with.
//
// Thread-safe.
class WalWriter {
 public:
  // Opens `path` for appending after its first `keep_bytes` bytes, cutting
  // away anything past them (the torn tail recovery rejected). A missing
  // file is created, and then its directory is fsynced so the new entry
  // cannot vanish out from under its synced records.
  static StatusOr<std::unique_ptr<WalWriter>> Open(
      const std::filesystem::path& path, std::string site,
      uint64_t keep_bytes = 0) DSTORE_BLOCKING;

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Appends one framed record per payload in one write; returns the log
  // length after them (the offset to pass to Sync). On a failed write none
  // of them stays in the file.
  StatusOr<uint64_t> Append(std::span<const Bytes> payloads) EXCLUDES(mu_);
  StatusOr<uint64_t> Append(const Bytes& payload) EXCLUDES(mu_) {
    return Append(std::span<const Bytes>(&payload, 1));
  }

  // Blocks until every byte up to `offset` is durable. If another committer
  // is mid-fsync, waits for that round and re-checks.
  Status Sync(uint64_t offset) EXCLUDES(mu_) DSTORE_BLOCKING;

  // Empties the log and fsyncs the cut. Not to be called while another
  // thread is in Sync.
  Status Reset() EXCLUDES(mu_) DSTORE_BLOCKING;

  const std::string& path() const { return path_; }
  // Log length: the end of the last whole record.
  uint64_t bytes() EXCLUDES(mu_);

 private:
  WalWriter(std::string path, const std::string& site, int fd,
            uint64_t keep_bytes);

  // Records `status` as the sticky error (the first one wins); returns it.
  Status Fail(Status status) REQUIRES(mu_);
  // Cuts the file back to `offset` after a failed write; a failed cut is
  // sticky.
  Status CutTo(uint64_t offset, Status cause) REQUIRES(mu_);

  const std::string path_;
  const int fd_;
  // `<site>.<step>` crash-point names, built once.
  const std::string before_append_, torn_append_, before_fsync_, after_fsync_;

  Mutex mu_;
  CondVar cv_;
  Status error_ GUARDED_BY(mu_);  // sticky; OK while the writer is usable
  uint64_t bytes_ GUARDED_BY(mu_) = 0;   // end of the last whole record
  uint64_t synced_ GUARDED_BY(mu_) = 0;  // durable watermark
  bool syncing_ GUARDED_BY(mu_) = false;
};

}  // namespace dstore

#endif  // DSTORE_STORE_FS_UTIL_H_
