#include "store/fs_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "compress/crc32.h"

namespace dstore {

Status SyncDir(const std::filesystem::path& dir) {
  sync_internal::CheckBlocking("SyncDir");
  const std::string path = dir.empty() ? "." : dir.string();
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("open dir for fsync: " + path + ": " +
                           std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("fsync dir: " + path + ": " + err);
  }
  if (::close(fd) != 0) {
    return Status::IOError("close dir: " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status WriteFileDurably(const std::filesystem::path& path, const Bytes& data,
                        size_t limit) {
  sync_internal::CheckBlocking("WriteFileDurably");
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("create " + path.string() + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < limit) {
    const ssize_t n = ::write(fd, data.data() + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError("write " + path.string() + ": " + err);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("fsync " + path.string() + ": " + err);
  }
  if (::close(fd) != 0) {
    return Status::IOError("close " + path.string() + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

StatusOr<Bytes> ReadWholeFile(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
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
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError("read " + path.string() + ": " + err);
    }
    if (n == 0) break;
    contents.insert(contents.end(), buf, buf + n);
  }
  ::close(fd);
  return contents;
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

}  // namespace dstore
