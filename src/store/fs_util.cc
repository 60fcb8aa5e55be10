#include "store/fs_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "compress/crc32.h"
#include "fault/fault.h"

namespace dstore {

namespace {

std::atomic<uint64_t> g_fsyncs{0};

// FilePublisher writes its stage once it holds this much. Under malloc's
// default mmap threshold (128 KiB), so freeing it never raises that
// threshold and leaves large freed blocks resident.
constexpr size_t kStageBytes = 64 << 10;

Status ErrnoStatus(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status Fsync(int fd, const std::string& what) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return ::fsync(fd) == 0 ? Status::OK() : ErrnoStatus("fsync " + what);
}

Status WriteAll(int fd, const uint8_t* data, size_t len,
                const std::string& what) {
  size_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd, data + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write " + what);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

// fsyncs the directory itself (not its contents). An empty path syncs ".".
Status SyncDir(const std::filesystem::path& dir) {
  sync_internal::CheckBlocking("SyncDir");
  const std::string path = dir.empty() ? "." : dir.string();
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open dir " + path);
  const Status status = Fsync(fd, "dir " + path);
  ::close(fd);
  return status;
}

std::string CrashPoint(std::string_view site, std::string_view step) {
  std::string point(site);
  point += '.';
  point += step;
  return point;
}

}  // namespace

uint64_t FsyncCount() { return g_fsyncs.load(std::memory_order_relaxed); }

StatusOr<Bytes> ReadWholeFile(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    const std::string msg = "open " + path.string() + ": " + std::strerror(err);
    return err == ENOENT ? Status::NotFound(msg) : Status::IOError(msg);
  }
  Bytes contents;
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = ErrnoStatus("read " + path.string());
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    contents.insert(contents.end(), buf, buf + n);
  }
  ::close(fd);
  return contents;
}

Status PublishFile(const std::filesystem::path& temp,
                   const std::filesystem::path& path, const Bytes& data,
                   std::string_view site, bool sync) {
  FilePublisher file(temp, path, site, sync);
  file.Stage(data);
  return file.Commit();
}

FilePublisher::FilePublisher(std::filesystem::path temp,
                             std::filesystem::path path,
                             std::string_view site, bool sync)
    : temp_(std::move(temp)), path_(std::move(path)), site_(site),
      sync_(sync) {}

FilePublisher::~FilePublisher() {
  if (fd_ < 0) return;  // never created, closed by Commit, or torn
  ::close(fd_);
  ::unlink(temp_.c_str());
}

bool FilePublisher::Fires(std::string_view step) {
  const std::string point = CrashPoint(site_, step);
  if (!fault::CrashPointFires(point)) return false;
  status_ = fault::CrashedStatus(point);
  return true;
}

void FilePublisher::Stage(const Bytes& data) {
  size_ += data.size();
  if (stage_.size() + data.size() > kStageBytes) {
    WriteThrough(stage_);
    stage_.clear();
  }
  if (data.size() >= kStageBytes) {
    WriteThrough(data);
  } else {
    stage_.insert(stage_.end(), data.begin(), data.end());
  }
}

void FilePublisher::WriteThrough(const Bytes& data) {
  if (!status_.ok()) return;
  if (fd_ < 0) {
    if (Fires("before_write")) return;
    fd_ = ::open(temp_.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                 0644);
    if (fd_ < 0) {
      status_ = ErrnoStatus("create " + temp_.string());
      return;
    }
    if (Fires("torn_write")) {
      // Half the first write reaches the temp file, left as litter.
      (void)WriteAll(fd_, data.data(), data.size() / 2, temp_.string());
      ::close(fd_);
      fd_ = -1;
      return;
    }
  }
  status_ = WriteAll(fd_, data.data(), data.size(), temp_.string());
}

Status FilePublisher::Commit() {
  sync_internal::CheckBlocking("FilePublisher::Commit");
  WriteThrough(stage_);
  stage_ = Bytes();
  if (fd_ < 0) return status_;  // a write crashed, or the create failed
  if (status_.ok() && sync_) status_ = Fsync(fd_, temp_.string());
  if (::close(fd_) != 0 && status_.ok()) {
    status_ = ErrnoStatus("close " + temp_.string());
  }
  fd_ = -1;
  if (status_.ok() && !Fires("before_rename") &&
      ::rename(temp_.c_str(), path_.c_str()) != 0) {
    status_ = ErrnoStatus("rename " + temp_.string());
  }
  if (!status_.ok()) {
    if (!fault::IsCrashStatus(status_)) ::unlink(temp_.c_str());
    return status_;
  }
  if (Fires("before_dirsync")) return status_;
  if (sync_) DSTORE_RETURN_IF_ERROR(SyncDir(path_.parent_path()));
  (void)Fires("after_rename");
  return status_;
}

void AppendFramedRecord(Bytes* dst, const Bytes& payload) {
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  PutFixed32(dst, Crc32(payload));
  dst->insert(dst->end(), payload.begin(), payload.end());
}

StatusOr<Bytes> ReadFramedRecord(const Bytes& src, size_t* pos) {
  if (*pos + 8 > src.size()) return Status::Corruption("torn record header");
  const uint8_t* record = src.data() + *pos;
  const uint32_t len = DecodeFixed32(record);
  if (*pos + 8 + len > src.size()) {
    return Status::Corruption("torn record payload");
  }
  // Verify in place; copy the payload out only once it is known good.
  if (Crc32(record + 8, len) != DecodeFixed32(record + 4)) {
    return Status::Corruption("record CRC mismatch");
  }
  *pos += 8 + len;
  return Bytes(record + 8, record + 8 + len);
}

StatusOr<std::vector<LogRecord>> ReadLogRecords(
    const std::filesystem::path& path) {
  DSTORE_ASSIGN_OR_RETURN(const Bytes contents, ReadWholeFile(path));
  std::vector<LogRecord> records;
  size_t pos = 0;
  while (pos < contents.size()) {
    StatusOr<Bytes> payload = ReadFramedRecord(contents, &pos);
    if (!payload.ok()) break;
    records.push_back({std::move(payload).value(), pos});
  }
  return records;
}

// --- WalWriter --------------------------------------------------------------

WalWriter::WalWriter(std::string path, const std::string& site, int fd,
                     uint64_t keep_bytes)
    : path_(std::move(path)),
      fd_(fd),
      before_append_(CrashPoint(site, "before_append")),
      torn_append_(CrashPoint(site, "torn_append")),
      before_fsync_(CrashPoint(site, "before_fsync")),
      after_fsync_(CrashPoint(site, "after_fsync")),
      bytes_(keep_bytes),
      synced_(keep_bytes) {}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::filesystem::path& path, std::string site,
    uint64_t keep_bytes) {
  int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
  const bool created = fd >= 0;
  if (!created && errno == EEXIST) {
    fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  }
  if (fd < 0) return ErrnoStatus("open log " + path.string());
  std::unique_ptr<WalWriter> writer(
      new WalWriter(path.string(), site, fd, keep_bytes));
  const off_t keep = static_cast<off_t>(keep_bytes);
  if (!created && (::ftruncate(fd, keep) != 0 ||
                   ::lseek(fd, keep, SEEK_SET) != keep)) {
    return ErrnoStatus("cut log " + path.string());
  }
  if (created) DSTORE_RETURN_IF_ERROR(SyncDir(path.parent_path()));
  return writer;
}

WalWriter::~WalWriter() { ::close(fd_); }

Status WalWriter::Fail(Status status) {
  if (error_.ok()) error_ = std::move(status);
  return error_;
}

Status WalWriter::CutTo(uint64_t offset, Status cause) {
  const off_t target = static_cast<off_t>(offset);
  if (::ftruncate(fd_, target) != 0 || ::lseek(fd_, target, SEEK_SET) != target) {
    return Fail(ErrnoStatus("cut log " + path_));
  }
  return cause;
}

StatusOr<uint64_t> WalWriter::Append(std::span<const Bytes> payloads) {
  MutexLock lock(mu_);
  DSTORE_RETURN_IF_ERROR(error_);
  Bytes buf;
  const std::string* crashed = nullptr;
  for (const Bytes& payload : payloads) {
    if (fault::CrashPointFires(before_append_)) {
      crashed = &before_append_;
      break;
    }
    const size_t start = buf.size();
    AppendFramedRecord(&buf, payload);
    if (fault::CrashPointFires(torn_append_)) {
      buf.resize(start + (buf.size() - start) / 2);
      crashed = &torn_append_;
      break;
    }
  }
  const Status written = WriteAll(fd_, buf.data(), buf.size(), path_);
  // A simulated crash leaves whatever reached the file for recovery.
  if (crashed != nullptr) return Fail(fault::CrashedStatus(*crashed));
  if (!written.ok()) return CutTo(bytes_, written);
  bytes_ += buf.size();
  return bytes_;
}

Status WalWriter::Sync(uint64_t offset) {
  sync_internal::CheckBlocking("WalWriter::Sync");
  mu_.Lock();
  for (;;) {
    // Bytes an fsync already covered are durable whatever happened since.
    if (synced_ >= offset) {
      mu_.Unlock();
      return Status::OK();
    }
    if (!error_.ok()) break;
    if (syncing_) {
      cv_.Wait(mu_);
      continue;
    }
    // Become the group-commit leader.
    if (fault::CrashPointFires(before_fsync_)) {
      // A crash before fsync loses whatever only the page cache held.
      // Model that by cutting the file back to the durable watermark.
      bytes_ = synced_;
      (void)CutTo(synced_, Status::OK());
      (void)Fail(fault::CrashedStatus(before_fsync_));
      break;
    }
    syncing_ = true;
    const uint64_t target = bytes_;
    mu_.Unlock();
    const Status status = Fsync(fd_, path_);
    mu_.Lock();
    syncing_ = false;
    cv_.NotifyAll();
    if (!status.ok()) {
      (void)Fail(status);
      break;
    }
    if (target > synced_) synced_ = target;
    if (fault::CrashPointFires(after_fsync_)) {
      (void)Fail(fault::CrashedStatus(after_fsync_));
      break;
    }
  }
  const Status status = error_;
  mu_.Unlock();
  return status;
}

Status WalWriter::Reset() {
  MutexLock lock(mu_);
  DSTORE_RETURN_IF_ERROR(error_);
  bytes_ = synced_ = 0;
  DSTORE_RETURN_IF_ERROR(CutTo(0, Status::OK()));
  const Status status = Fsync(fd_, path_);
  return status.ok() ? status : Fail(status);
}

uint64_t WalWriter::bytes() {
  MutexLock lock(mu_);
  return bytes_;
}

}  // namespace dstore
