#include "store/lsm/wal.h"

namespace dstore {
namespace lsm {

Bytes EncodeWalBatch(uint64_t first_seq,
                     const std::vector<BatchEntry>& batch) {
  Bytes out;
  PutVarint64(&out, first_seq);
  PutVarint64(&out, batch.size());
  for (const auto& entry : batch) {
    out.push_back(static_cast<uint8_t>(entry.type));
    PutLengthPrefixed(&out, entry.key);
    if (entry.value != nullptr) {
      PutLengthPrefixed(&out, *entry.value);
    } else {
      PutLengthPrefixed(&out, Bytes{});
    }
  }
  return out;
}

StatusOr<DecodedBatch> DecodeWalBatch(const Bytes& payload) {
  DecodedBatch batch;
  size_t pos = 0;
  DSTORE_ASSIGN_OR_RETURN(batch.first_seq, GetVarint64(payload, &pos));
  DSTORE_ASSIGN_OR_RETURN(const uint64_t count, GetVarint64(payload, &pos));
  batch.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (pos >= payload.size()) {
      return Status::Corruption("wal batch truncated");
    }
    BatchEntry entry;
    const uint8_t type = payload[pos++];
    if (type > static_cast<uint8_t>(EntryType::kDelete)) {
      return Status::Corruption("wal batch: bad entry type");
    }
    entry.type = static_cast<EntryType>(type);
    DSTORE_ASSIGN_OR_RETURN(Bytes key, GetLengthPrefixed(payload, &pos));
    entry.key.assign(key.begin(), key.end());
    DSTORE_ASSIGN_OR_RETURN(Bytes value, GetLengthPrefixed(payload, &pos));
    if (entry.type == EntryType::kPut) {
      entry.value = MakeValue(std::move(value));
    }
    batch.entries.push_back(std::move(entry));
  }
  return batch;
}

}  // namespace lsm
}  // namespace dstore
