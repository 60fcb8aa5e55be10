#include "shard/ring.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"

namespace dstore {
namespace shard {

uint64_t HashRing::KeyPoint(std::string_view key) {
  return Mix64(Fnv1a64(key));
}

uint64_t HashRing::VnodePoint(const std::string& name, size_t index) const {
  // Seed, shard identity, and vnode index each pass through the mixer so a
  // one-bit change in any of them relocates the point arbitrarily.
  return Mix64(options_.seed ^ Mix64(Fnv1a64(name)) ^
               Mix64(static_cast<uint64_t>(index) * kGoldenGamma));
}

bool HashRing::AddShard(const std::string& name) {
  if (!shards_.insert(name).second) return false;
  points_.reserve(points_.size() + options_.vnodes_per_shard);
  for (size_t i = 0; i < options_.vnodes_per_shard; ++i) {
    points_.emplace_back(VnodePoint(name, i), name);
  }
  std::sort(points_.begin(), points_.end());
  return true;
}

bool HashRing::RemoveShard(const std::string& name) {
  if (shards_.erase(name) == 0) return false;
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [&](const auto& p) { return p.second == name; }),
                points_.end());
  return true;
}

const std::string* HashRing::OwnerOfPoint(uint64_t point) const {
  if (points_.empty()) return nullptr;
  // First vnode strictly clockwise of (or at) the key's point; wrap to the
  // lowest vnode past the top of the ring.
  auto it = std::lower_bound(
      points_.begin(), points_.end(), point,
      [](const auto& p, uint64_t value) { return p.first < value; });
  if (it == points_.end()) it = points_.begin();
  return &it->second;
}

std::vector<std::string> HashRing::OwnersForPoint(uint64_t point,
                                                  size_t n) const {
  std::vector<std::string> owners;
  if (points_.empty() || n == 0) return owners;
  const size_t want = std::min(n, shards_.size());
  owners.reserve(want);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), point,
      [](const auto& p, uint64_t value) { return p.first < value; });
  // Walk at most one full lap, collecting the first occurrence of each
  // shard; distinctness is what makes the list a valid replica set.
  for (size_t seen = 0; seen < points_.size() && owners.size() < want;
       ++seen, ++it) {
    if (it == points_.end()) it = points_.begin();
    if (std::find(owners.begin(), owners.end(), it->second) == owners.end()) {
      owners.push_back(it->second);
    }
  }
  return owners;
}

std::map<std::string, double> HashRing::OwnershipFractions() const {
  std::map<std::string, double> fractions;
  if (points_.empty()) return fractions;
  for (const auto& name : shards_) fractions[name] = 0;
  constexpr double kRing = 18446744073709551616.0;  // 2^64
  // Arc ending at points_[i] belongs to points_[i]'s shard; the arc from
  // the last point wraps around to the first.
  for (size_t i = 0; i < points_.size(); ++i) {
    const uint64_t end = points_[i].first;
    const uint64_t start = i == 0 ? points_.back().first : points_[i - 1].first;
    const uint64_t arc = end - start;  // wraps correctly for i == 0
    fractions[points_[i].second] += arc / kRing;
  }
  if (points_.size() == 1) fractions[points_[0].second] = 1.0;
  return fractions;
}

std::string HashRing::Describe() const {
  const auto fractions = OwnershipFractions();
  std::string out;
  char line[128];
  for (const auto& name : shards_) {
    const auto it = fractions.find(name);
    std::snprintf(line, sizeof(line), "shard %s vnodes=%zu own=%.4f\n",
                  name.c_str(), options_.vnodes_per_shard,
                  it == fractions.end() ? 0.0 : it->second);
    out += line;
  }
  return out;
}

}  // namespace shard
}  // namespace dstore
