#include "store/lsm/format.h"

#include <cinttypes>
#include <cstdio>

namespace dstore {
namespace lsm {

namespace {

std::string NumberedName(uint64_t number, const char* suffix) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06" PRIu64, number);
  return std::string(buf) + suffix;
}

bool ParseNumberedName(const std::string& name, const char* suffix,
                       uint64_t* number) {
  const size_t suffix_len = std::string(suffix).size();
  if (name.size() <= suffix_len) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = 0; i < name.size() - suffix_len; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *number = value;
  return true;
}

}  // namespace

std::string WalFileName(uint64_t number) { return NumberedName(number, ".wal"); }
std::string SstFileName(uint64_t number) { return NumberedName(number, ".sst"); }
std::string TempFileName(uint64_t number) { return NumberedName(number, ".tmp"); }

bool ParseWalFileName(const std::string& name, uint64_t* number) {
  return ParseNumberedName(name, ".wal", number);
}

bool ParseSstFileName(const std::string& name, uint64_t* number) {
  return ParseNumberedName(name, ".sst", number);
}

bool IsTempFileName(const std::string& name) {
  return name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
}

}  // namespace lsm
}  // namespace dstore
