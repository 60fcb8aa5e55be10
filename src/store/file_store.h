#ifndef DSTORE_STORE_FILE_STORE_H_
#define DSTORE_STORE_FILE_STORE_H_

#include <filesystem>
#include <string>
#include <vector>

#include "common/sync.h"
#include "store/key_value.h"

namespace dstore {

// File-system KeyValueStore: one file per key under a root directory — the
// paper's "file system on the client node accessed via standard method
// calls" data store. Put publishes each value through PublishFile
// (store/fs_util.h, crash-point site "file.put"), so readers never observe
// partial values. Key bytes are hex-encoded in file names, so arbitrary keys
// (including '/' and NUL) are safe.
class FileStore : public KeyValueStore {
 public:
  struct Options {
    // fsync file contents before the rename and the directory after it.
    // Durable but slower; off by default to match the paper's file-system
    // baseline (ordinary buffered writes).
    bool sync_writes = false;
  };

  // Creates `root` (and parents) if needed.
  static StatusOr<std::unique_ptr<FileStore>> Open(
      const std::filesystem::path& root, const Options& options);
  static StatusOr<std::unique_ptr<FileStore>> Open(
      const std::filesystem::path& root) {
    return Open(root, Options());
  }

  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  StatusOr<bool> Contains(const std::string& key) override;
  StatusOr<std::vector<std::string>> ListKeys() override;
  StatusOr<size_t> Count() override;
  Status Clear() override;
  std::string Name() const override { return "file"; }

  const std::filesystem::path& root() const { return root_; }

 private:
  FileStore(std::filesystem::path root, const Options& options)
      : root_(std::move(root)), options_(options) {}

  std::filesystem::path PathFor(const std::string& key) const;

  std::filesystem::path root_;
  Options options_;
  Mutex temp_mu_;  // serializes temp-file name generation
  uint64_t temp_counter_ GUARDED_BY(temp_mu_) = 0;
};

}  // namespace dstore

#endif  // DSTORE_STORE_FILE_STORE_H_
