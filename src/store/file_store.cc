#include "store/file_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "store/fs_util.h"

namespace dstore {

namespace {
constexpr char kEntryPrefix[] = "kv_";
constexpr char kEntrySuffix[] = ".val";

std::string Errno() { return std::strerror(errno); }
}  // namespace

StatusOr<std::unique_ptr<FileStore>> FileStore::Open(
    const std::filesystem::path& root, const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    return Status::IOError("create_directories: " + ec.message());
  }
  return std::unique_ptr<FileStore>(new FileStore(root, options));
}

std::filesystem::path FileStore::PathFor(const std::string& key) const {
  return root_ / (kEntryPrefix + HexEncode(ToBytes(key)) + kEntrySuffix);
}

Status FileStore::Put(const std::string& key, ValuePtr value) {
  if (value == nullptr) return Status::InvalidArgument("null value");
  std::filesystem::path temp_path;
  {
    MutexLock lock(temp_mu_);
    temp_path = root_ / ("tmp_" + std::to_string(temp_counter_++) + "_" +
                         std::to_string(::getpid()));
  }
  // Litter a crash leaves (a tmp_ file) is invisible to ListKeys; a reader
  // sees the old value or the new one, never a torn one.
  return PublishFile(temp_path, PathFor(key), *value, "file.put",
                     options_.sync_writes);
}

StatusOr<ValuePtr> FileStore::Get(const std::string& key) {
  const std::filesystem::path path = PathFor(key);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such key: " + key);
    return Status::IOError("open: " + Errno());
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IOError("lseek: " + Errno());
  }
  ::lseek(fd, 0, SEEK_SET);
  Bytes data(static_cast<size_t>(size));
  size_t read_so_far = 0;
  while (read_so_far < data.size()) {
    const ssize_t n =
        ::read(fd, data.data() + read_so_far, data.size() - read_so_far);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("read: " + Errno());
    }
    if (n == 0) break;  // truncated concurrently; return what we have
    read_so_far += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(read_so_far);
  return MakeValue(std::move(data));
}

Status FileStore::Delete(const std::string& key) {
  if (::unlink(PathFor(key).c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("unlink: " + Errno());
  }
  return Status::OK();
}

StatusOr<bool> FileStore::Contains(const std::string& key) {
  std::error_code ec;
  const bool exists = std::filesystem::exists(PathFor(key), ec);
  if (ec) return Status::IOError("exists: " + ec.message());
  return exists;
}

StatusOr<std::vector<std::string>> FileStore::ListKeys() {
  std::vector<std::string> keys;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kEntryPrefix, 0) != 0) continue;
    const size_t suffix_pos = name.rfind(kEntrySuffix);
    if (suffix_pos == std::string::npos) continue;
    const std::string hex =
        name.substr(sizeof(kEntryPrefix) - 1,
                    suffix_pos - (sizeof(kEntryPrefix) - 1));
    auto decoded = HexDecode(hex);
    if (!decoded.ok()) continue;  // foreign file; ignore
    keys.push_back(ToString(*decoded));
  }
  if (ec) return Status::IOError("directory_iterator: " + ec.message());
  return keys;
}

StatusOr<size_t> FileStore::Count() {
  DSTORE_ASSIGN_OR_RETURN(std::vector<std::string> keys, ListKeys());
  return keys.size();
}

Status FileStore::Clear() {
  DSTORE_ASSIGN_OR_RETURN(std::vector<std::string> keys, ListKeys());
  for (const std::string& key : keys) {
    DSTORE_RETURN_IF_ERROR(Delete(key));
  }
  return Status::OK();
}

}  // namespace dstore
