#include "store/lsm/version.h"

#include <algorithm>

#include "store/fs_util.h"
#include "store/lsm/format.h"

namespace dstore {
namespace lsm {

namespace {
constexpr uint64_t kManifestMagic = 0x4c534d5f4d414e00ull;  // "LSM_MAN\0"
}  // namespace

uint64_t Version::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const FileMeta& f : levels[static_cast<size_t>(level)]) {
    total += f.size;
  }
  return total;
}

size_t Version::TotalFiles() const {
  size_t total = 0;
  for (const auto& level : levels) total += level.size();
  return total;
}

std::vector<const FileMeta*> Version::Overlapping(int level,
                                                  const std::string& lo,
                                                  const std::string& hi) const {
  std::vector<const FileMeta*> out;
  for (const FileMeta& f : levels[static_cast<size_t>(level)]) {
    if (f.OverlapsRange(lo, hi)) out.push_back(&f);
  }
  return out;
}

const FileMeta* Version::FindFile(int level, const std::string& key) const {
  const auto& files = levels[static_cast<size_t>(level)];
  // First file whose largest key is >= key; disjoint ranges make it unique.
  const auto it = std::lower_bound(
      files.begin(), files.end(), key,
      [](const FileMeta& f, const std::string& k) { return f.largest < k; });
  if (it == files.end() || !it->ContainsKey(key)) return nullptr;
  return &*it;
}

bool Version::IsBaseLevelForKey(int level, const std::string& key) const {
  for (int l = std::max(level + 1, 1); l < kNumLevels; ++l) {
    if (FindFile(l, key) != nullptr) return false;
  }
  return true;
}

Status SaveManifest(const std::filesystem::path& dir,
                    const ManifestState& state) {
  Bytes payload;
  PutFixed64(&payload, kManifestMagic);
  PutVarint64(&payload, state.next_file_number);
  PutVarint64(&payload, state.last_sequence);
  PutVarint64(&payload, state.wal_floor);
  PutVarint64(&payload, state.levels.size());
  for (const auto& level : state.levels) {
    PutVarint64(&payload, level.size());
    for (const FileMeta& f : level) {
      PutVarint64(&payload, f.number);
      PutVarint64(&payload, f.size);
      PutVarint64(&payload, f.entries);
      PutVarint64(&payload, f.max_seq);
      PutLengthPrefixed(&payload, f.smallest);
      PutLengthPrefixed(&payload, f.largest);
    }
  }
  Bytes framed;
  AppendFramedRecord(&framed, payload);

  // A crash anywhere in the publish leaves the previous MANIFEST or the new
  // one, each self-consistent.
  return PublishFile(dir / (std::string(kManifestName) + ".tmp"),
                     dir / kManifestName, framed, "lsm.manifest");
}

StatusOr<ManifestState> LoadManifest(const std::filesystem::path& dir) {
  StatusOr<Bytes> contents = ReadWholeFile(dir / kManifestName);
  if (contents.status().IsNotFound()) return ManifestState{};  // fresh store
  DSTORE_RETURN_IF_ERROR(contents.status());
  size_t pos = 0;
  DSTORE_ASSIGN_OR_RETURN(const Bytes payload,
                          ReadFramedRecord(*contents, &pos));
  size_t p = 0;
  if (payload.size() < 8 || DecodeFixed64(payload.data()) != kManifestMagic) {
    return Status::Corruption("manifest bad magic");
  }
  p = 8;
  ManifestState state;
  DSTORE_ASSIGN_OR_RETURN(state.next_file_number, GetVarint64(payload, &p));
  DSTORE_ASSIGN_OR_RETURN(state.last_sequence, GetVarint64(payload, &p));
  DSTORE_ASSIGN_OR_RETURN(state.wal_floor, GetVarint64(payload, &p));
  DSTORE_ASSIGN_OR_RETURN(const uint64_t num_levels, GetVarint64(payload, &p));
  if (num_levels != kNumLevels) {
    return Status::Corruption("manifest level count mismatch");
  }
  for (uint64_t l = 0; l < num_levels; ++l) {
    DSTORE_ASSIGN_OR_RETURN(const uint64_t count, GetVarint64(payload, &p));
    auto& level = state.levels[static_cast<size_t>(l)];
    level.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      FileMeta f;
      DSTORE_ASSIGN_OR_RETURN(f.number, GetVarint64(payload, &p));
      DSTORE_ASSIGN_OR_RETURN(f.size, GetVarint64(payload, &p));
      DSTORE_ASSIGN_OR_RETURN(f.entries, GetVarint64(payload, &p));
      DSTORE_ASSIGN_OR_RETURN(f.max_seq, GetVarint64(payload, &p));
      DSTORE_ASSIGN_OR_RETURN(Bytes smallest, GetLengthPrefixed(payload, &p));
      f.smallest.assign(smallest.begin(), smallest.end());
      DSTORE_ASSIGN_OR_RETURN(Bytes largest, GetLengthPrefixed(payload, &p));
      f.largest.assign(largest.begin(), largest.end());
      level.push_back(std::move(f));
    }
  }
  return state;
}

}  // namespace lsm
}  // namespace dstore
