#include "store/lsm/lsm_store.h"

#include <algorithm>
#include <map>
#include <utility>

#include "cache/lru_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/fs_util.h"
#include "store/lsm/sst.h"

namespace dstore {
namespace lsm {

namespace {

// Process-wide instruments, shared by every LsmStore in the process (the
// per-store numbers come from GetStats()). Created lazily on first open.
struct SharedMetrics {
  obs::Counter* writes;
  obs::Counter* reads;
  obs::Counter* flushes;
  obs::Counter* compactions;
  obs::Counter* tombstones_dropped;
  obs::Counter* bloom_checks;
  obs::Counter* bloom_negatives;
  obs::Counter* bloom_false_positives;
  obs::Counter* block_cache_hits;
  obs::Counter* block_cache_misses;
  // Summed over open stores (each publishes its own deltas).
  obs::Gauge* sst_files;
  obs::Gauge* sst_bytes;
  obs::Gauge* memtable_bytes;
  obs::Gauge* debt_bytes;
  obs::Gauge* block_cache_bytes;
};

SharedMetrics* Metrics() {
  static SharedMetrics* metrics = [] {
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
    auto* m = new SharedMetrics;  // NOLINT(dstore-naked-new): leaked singleton
    m->writes = registry->GetCounter("dstore_lsm_writes_total", {},
                                     "Entries written to LSM stores.");
    m->reads = registry->GetCounter("dstore_lsm_reads_total", {},
                                    "Point lookups served by LSM stores.");
    m->flushes = registry->GetCounter("dstore_lsm_flushes_total", {},
                                      "Memtable flushes to L0 SSTs.");
    m->compactions = registry->GetCounter("dstore_lsm_compactions_total", {},
                                          "Completed compactions.");
    m->tombstones_dropped =
        registry->GetCounter("dstore_lsm_tombstones_dropped_total", {},
                             "Tombstones garbage-collected at the base level.");
    m->bloom_checks =
        registry->GetCounter("dstore_lsm_bloom_checks_total", {},
                             "SST lookups that consulted a Bloom filter.");
    m->bloom_negatives =
        registry->GetCounter("dstore_lsm_bloom_negatives_total", {},
                             "SST lookups skipped by a Bloom filter.");
    m->bloom_false_positives = registry->GetCounter(
        "dstore_lsm_bloom_false_positives_total", {},
        "Bloom filter passes where the key was absent after all.");
    m->block_cache_hits =
        registry->GetCounter("dstore_lsm_block_cache_hits_total", {},
                             "SST data-block lookups served by a block cache.");
    m->block_cache_misses = registry->GetCounter(
        "dstore_lsm_block_cache_misses_total", {},
        "SST data-block lookups that had to pread the block.");
    m->sst_files = registry->GetGauge("dstore_lsm_sst_files", {},
                                      "Live SST files across all LSM stores.");
    m->sst_bytes =
        registry->GetGauge("dstore_lsm_sst_bytes", {},
                           "Bytes in live SSTs across all LSM stores.");
    m->memtable_bytes =
        registry->GetGauge("dstore_lsm_memtable_bytes", {},
                           "Bytes buffered in (im)mutable memtables.");
    m->debt_bytes = registry->GetGauge(
        "dstore_lsm_compaction_debt_bytes", {},
        "Bytes above per-level compaction targets (pending compaction work).");
    m->block_cache_bytes = registry->GetGauge(
        "dstore_lsm_block_cache_bytes", {},
        "Bytes charged to LSM block caches across all LSM stores.");
    return m;
  }();
  return metrics;
}

}  // namespace

LsmStore::LsmStore(std::filesystem::path dir, LsmOptions options)
    : dir_(std::move(dir)),
      options_(options),
      block_cache_(options.block_cache_bytes > 0
                       ? std::make_shared<LruCache>(options.block_cache_bytes)
                       : nullptr) {}

StatusOr<std::unique_ptr<LsmStore>> LsmStore::Open(
    const std::filesystem::path& dir, LsmOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec && !std::filesystem::is_directory(dir)) {
    return Status::IOError("create lsm dir " + dir.string() + ": " +
                           ec.message());
  }

  DSTORE_ASSIGN_OR_RETURN(ManifestState manifest, LoadManifest(dir));

  std::set<uint64_t> live_ssts;
  for (const auto& level : manifest.levels) {
    for (const FileMeta& f : level) live_ssts.insert(f.number);
  }

  // Open-time cleanup: temp files are in-flight writes that never got
  // published, orphan SSTs were flushed or compacted but never committed to
  // the manifest, WAL segments below the floor are fully covered by SSTs.
  std::vector<uint64_t> wal_files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    uint64_t number = 0;
    if (IsTempFileName(name)) {
      std::filesystem::remove(entry.path(), ec);
    } else if (ParseSstFileName(name, &number)) {
      if (live_ssts.count(number) == 0) {
        std::filesystem::remove(entry.path(), ec);
      }
    } else if (ParseWalFileName(name, &number)) {
      if (number < manifest.wal_floor) {
        std::filesystem::remove(entry.path(), ec);
      } else {
        wal_files.push_back(number);
      }
    }
  }
  std::sort(wal_files.begin(), wal_files.end());

  std::unique_ptr<LsmStore> store(new LsmStore(dir, options));
  MutexLock lock(store->mu_);
  store->next_file_number_ = std::max<uint64_t>(manifest.next_file_number, 1);
  store->last_sequence_ = manifest.last_sequence;

  auto version = std::make_shared<Version>();
  version->levels = std::move(manifest.levels);
  for (auto& level : version->levels) {
    for (FileMeta& f : level) {
      DSTORE_ASSIGN_OR_RETURN(
          f.reader, SstReader::Open(dir, f.number, store->block_cache_));
    }
  }
  std::sort(version->levels[0].begin(), version->levels[0].end(),
            [](const FileMeta& a, const FileMeta& b) {
              return a.number < b.number;
            });
  for (int l = 1; l < kNumLevels; ++l) {
    std::sort(version->levels[static_cast<size_t>(l)].begin(),
              version->levels[static_cast<size_t>(l)].end(),
              [](const FileMeta& a, const FileMeta& b) {
                return a.smallest < b.smallest;
              });
  }
  store->version_ = version;

  // Replay surviving WAL segments, oldest first. Records carry their own
  // sequence numbers, so replay reconstructs the exact multi-version state;
  // a torn tail (crash mid-append) ends a segment's replay. No append ever
  // follows it: replayed segments are deleted once flushed below.
  store->mem_ = std::make_shared<MemTable>();
  uint64_t max_seq = store->last_sequence_;
  for (const uint64_t n : wal_files) {
    DSTORE_ASSIGN_OR_RETURN(const std::vector<LogRecord> records,
                            ReadLogRecords(dir / WalFileName(n)));
    for (const LogRecord& record : records) {
      DSTORE_ASSIGN_OR_RETURN(DecodedBatch batch,
                              DecodeWalBatch(record.payload));
      uint64_t seq = batch.first_seq;
      for (BatchEntry& e : batch.entries) {
        store->mem_->Add(seq, e.type, e.key, std::move(e.value));
        max_seq = std::max(max_seq, seq);
        ++seq;
      }
    }
  }
  store->last_sequence_ = max_seq;

  // Recovery flush: persist the replayed memtable as an L0 SST right away
  // so the old segments can be dropped and steady state always has at most
  // two live WALs (active + immutable).
  if (store->mem_->entries() > 0) {
    const uint64_t file_number = store->next_file_number_++;
    DSTORE_ASSIGN_OR_RETURN(
        FileMeta meta, store->WriteMemTableToSst(*store->mem_, file_number));
    auto next = std::make_shared<Version>(*store->version_);
    next->levels[0].push_back(std::move(meta));
    store->version_ = std::move(next);
    store->mem_ = std::make_shared<MemTable>();
  }

  // Persist bumped counters + the new WAL floor before creating the fresh
  // segment: file numbers must never be reused across a crash.
  store->wal_number_ = store->next_file_number_++;
  ManifestState state;
  state.next_file_number = store->next_file_number_;
  state.last_sequence = store->last_sequence_;
  state.wal_floor = store->wal_number_;
  state.levels = store->version_->levels;
  DSTORE_RETURN_IF_ERROR(SaveManifest(dir, state));
  DSTORE_ASSIGN_OR_RETURN(
      std::shared_ptr<WalWriter> wal,
      WalWriter::Open(dir / WalFileName(store->wal_number_), "lsm.wal"));
  store->wal_ = std::move(wal);
  for (const uint64_t n : wal_files) {
    std::filesystem::remove(dir / WalFileName(n), ec);
  }

  store->RegisterMetrics();
  LsmStore* raw = store.get();
  store->bg_thread_ = std::thread([raw] { raw->BackgroundMain(); });
  return store;
}

LsmStore::~LsmStore() {
  UnregisterMetrics();
  {
    MutexLock lock(mu_);
    stopping_ = true;
    cv_.NotifyAll();
  }
  if (bg_thread_.joinable()) bg_thread_.join();
}

std::string LsmStore::Name() const { return "lsm:" + dir_.string(); }

// --- Write path -------------------------------------------------------------

Status LsmStore::Put(const std::string& key, ValuePtr value) {
  if (value == nullptr) return Status::InvalidArgument("null value");
  std::vector<BatchEntry> batch(1);
  batch[0].type = EntryType::kPut;
  batch[0].key = key;
  batch[0].value = std::move(value);
  return WriteBatch(std::move(batch));
}

Status LsmStore::Delete(const std::string& key) {
  std::vector<BatchEntry> batch(1);
  batch[0].type = EntryType::kDelete;
  batch[0].key = key;
  return WriteBatch(std::move(batch));
}

Status LsmStore::MultiPut(
    const std::vector<std::pair<std::string, ValuePtr>>& entries) {
  std::vector<BatchEntry> batch;
  batch.reserve(entries.size());
  for (const auto& [key, value] : entries) {
    if (value == nullptr) return Status::InvalidArgument("null value");
    BatchEntry e;
    e.type = EntryType::kPut;
    e.key = key;
    e.value = value;
    batch.push_back(std::move(e));
  }
  return WriteBatch(std::move(batch));
}

Status LsmStore::Clear() {
  DSTORE_ASSIGN_OR_RETURN(std::vector<std::string> keys, LiveKeys(kMaxSequence));
  if (keys.empty()) return Status::OK();
  std::vector<BatchEntry> batch;
  batch.reserve(keys.size());
  for (std::string& key : keys) {
    BatchEntry e;
    e.type = EntryType::kDelete;
    e.key = std::move(key);
    batch.push_back(std::move(e));
  }
  return WriteBatch(std::move(batch));
}

Status LsmStore::WriteBatch(std::vector<BatchEntry> batch) {
  if (batch.empty()) return Status::OK();
  obs::Span span("lsm.put", obs::Stage::kBackend);
  Metrics()->writes->Increment(batch.size());

  std::shared_ptr<WalWriter> wal;
  uint64_t offset = 0;
  {
    MutexLock lock(mu_);
    DSTORE_RETURN_IF_ERROR(MakeRoomForWrite());
    const uint64_t first_seq = last_sequence_ + 1;
    const Bytes payload = EncodeWalBatch(first_seq, batch);
    StatusOr<uint64_t> end = wal_->Append(payload);
    // On a failed append the memtable is untouched, and the writer has cut
    // the segment back to its last whole record (or refuses every later
    // append if it could not), so no acked record lands behind torn bytes.
    if (!end.ok()) return end.status();
    last_sequence_ += batch.size();
    uint64_t seq = first_seq;
    for (BatchEntry& e : batch) {
      mem_->Add(seq++, e.type, e.key, std::move(e.value));
    }
    wal = wal_;
    offset = end.value();
  }
  if (options_.sync_writes) {
    DSTORE_RETURN_IF_ERROR(wal->Sync(offset));
  }
  return Status::OK();
}

Status LsmStore::MakeRoomForWrite() {
  for (;;) {
    if (!bg_error_.ok()) return bg_error_;
    if (mem_->ApproximateBytes() < options_.memtable_bytes) {
      return Status::OK();
    }
    if (imm_ != nullptr) {
      // Flush backlog: one immutable memtable at a time bounds memory and
      // applies natural backpressure to writers.
      cv_.NotifyAll();
      cv_.Wait(mu_);
      continue;
    }
    DSTORE_RETURN_IF_ERROR(RotateMemTable());
  }
}

Status LsmStore::RotateMemTable() {
  const uint64_t new_wal_number = next_file_number_++;
  DSTORE_ASSIGN_OR_RETURN(
      std::shared_ptr<WalWriter> new_wal,
      WalWriter::Open(dir_ / WalFileName(new_wal_number), "lsm.wal"));
  imm_ = std::move(mem_);
  imm_wal_ = std::move(wal_);
  imm_wal_number_ = wal_number_;
  mem_ = std::make_shared<MemTable>();
  wal_ = std::move(new_wal);
  wal_number_ = new_wal_number;
  cv_.NotifyAll();  // wake the background thread for the flush
  return Status::OK();
}

// --- Read path --------------------------------------------------------------

StatusOr<ValuePtr> LsmStore::Get(const std::string& key) {
  return GetInternal(key, kMaxSequence);
}

StatusOr<bool> LsmStore::Contains(const std::string& key) {
  StatusOr<ValuePtr> value = GetInternal(key, kMaxSequence);
  if (value.ok()) return true;
  if (value.status().IsNotFound()) return false;
  return value.status();
}

StatusOr<std::vector<std::string>> LsmStore::ListKeys() {
  return LiveKeys(kMaxSequence);
}

StatusOr<size_t> LsmStore::Count() {
  DSTORE_ASSIGN_OR_RETURN(const std::vector<std::string> keys,
                          LiveKeys(kMaxSequence));
  return keys.size();
}

StatusOr<ValuePtr> LsmStore::GetInternal(const std::string& key,
                                         uint64_t snapshot) {
  obs::Span span("lsm.get", obs::Stage::kBackend);
  Metrics()->reads->Increment();

  std::shared_ptr<MemTable> mem;
  std::shared_ptr<MemTable> imm;
  std::shared_ptr<const Version> version;
  uint64_t seq = snapshot;
  {
    MutexLock lock(mu_);
    mem = mem_;
    imm = imm_;
    version = version_;
    if (seq == kMaxSequence) seq = last_sequence_;
  }

  const auto from_entry =
      [&key](const MemTable::Entry& entry) -> StatusOr<ValuePtr> {
    if (entry.type == EntryType::kDelete) {
      return Status::NotFound("no such key: " + key);
    }
    return entry.value;
  };

  MemTable::GetResult hit = mem->Get(key, seq);
  if (hit.found) return from_entry(hit.entry);
  if (imm != nullptr) {
    hit = imm->Get(key, seq);
    if (hit.found) return from_entry(hit.entry);
  }

  const auto check_file =
      [&](const FileMeta& f) -> StatusOr<SstReader::LookupResult> {
    bloom_checks_.fetch_add(1, std::memory_order_relaxed);
    Metrics()->bloom_checks->Increment();
    DSTORE_ASSIGN_OR_RETURN(SstReader::LookupResult result,
                            f.reader->Get(key, seq));
    if (result.kind == SstReader::LookupResult::Kind::kBloomNegative) {
      bloom_negatives_.fetch_add(1, std::memory_order_relaxed);
      Metrics()->bloom_negatives->Increment();
    } else if (result.kind == SstReader::LookupResult::Kind::kNotFound) {
      bloom_false_positives_.fetch_add(1, std::memory_order_relaxed);
      Metrics()->bloom_false_positives->Increment();
    }
    return result;
  };

  const auto resolve =
      [&key](const SstReader::LookupResult& r) -> StatusOr<ValuePtr> {
    if (r.type == EntryType::kDelete) {
      return Status::NotFound("no such key: " + key);
    }
    return r.value;
  };

  // L0 files may overlap; newer files (higher numbers) hold strictly newer
  // sequences, so scan newest-first and stop at the first visible entry.
  const auto& l0 = version->levels[0];
  for (auto it = l0.rbegin(); it != l0.rend(); ++it) {
    if (!it->ContainsKey(key)) continue;
    DSTORE_ASSIGN_OR_RETURN(const SstReader::LookupResult result,
                            check_file(*it));
    if (result.kind == SstReader::LookupResult::Kind::kFound) {
      return resolve(result);
    }
  }
  // Deeper levels are key-disjoint: at most one candidate file per level,
  // and level N is strictly newer than level N+1 for any given key.
  for (int level = 1; level < kNumLevels; ++level) {
    const FileMeta* f = version->FindFile(level, key);
    if (f == nullptr) continue;
    DSTORE_ASSIGN_OR_RETURN(const SstReader::LookupResult result,
                            check_file(*f));
    if (result.kind == SstReader::LookupResult::Kind::kFound) {
      return resolve(result);
    }
  }
  return Status::NotFound("no such key: " + key);
}

StatusOr<std::vector<std::string>> LsmStore::LiveKeys(uint64_t snapshot) {
  std::shared_ptr<MemTable> mem;
  std::shared_ptr<MemTable> imm;
  std::shared_ptr<const Version> version;
  uint64_t seq = snapshot;
  {
    MutexLock lock(mu_);
    mem = mem_;
    imm = imm_;
    version = version_;
    if (seq == kMaxSequence) seq = last_sequence_;
  }

  // Sources are visited newest-first; the first visible entry for a user
  // key decides whether it is alive. Within every source, entries arrive in
  // internal-key order (newest sequence first per key).
  std::map<std::string, bool> decided;
  const auto consider = [&](const std::string& key, uint64_t entry_seq,
                            EntryType type) {
    if (entry_seq > seq) return;
    decided.try_emplace(key, type == EntryType::kPut);
  };

  mem->ForEach([&](const std::string& key, uint64_t entry_seq,
                   const MemTable::Entry& entry) {
    consider(key, entry_seq, entry.type);
  });
  if (imm != nullptr) {
    imm->ForEach([&](const std::string& key, uint64_t entry_seq,
                     const MemTable::Entry& entry) {
      consider(key, entry_seq, entry.type);
    });
  }
  const auto scan_file = [&](const FileMeta& f) -> Status {
    SstIterator it(f.reader.get());
    for (; it.Valid(); it.Next()) {
      const SstEntry& entry = it.entry();
      consider(entry.key, entry.seq, entry.type);
    }
    return it.status();
  };
  const auto& l0 = version->levels[0];
  for (auto it = l0.rbegin(); it != l0.rend(); ++it) {
    DSTORE_RETURN_IF_ERROR(scan_file(*it));
  }
  for (int level = 1; level < kNumLevels; ++level) {
    for (const FileMeta& f : version->levels[static_cast<size_t>(level)]) {
      DSTORE_RETURN_IF_ERROR(scan_file(f));
    }
  }

  std::vector<std::string> keys;
  keys.reserve(decided.size());
  for (const auto& [key, alive] : decided) {
    if (alive) keys.push_back(key);
  }
  return keys;
}

// --- Snapshots --------------------------------------------------------------

std::unique_ptr<LsmStore::Snapshot> LsmStore::GetSnapshot() {
  MutexLock lock(mu_);
  snapshots_.insert(last_sequence_);
  return std::unique_ptr<Snapshot>(new Snapshot(this, last_sequence_));
}

LsmStore::Snapshot::~Snapshot() { store_->ReleaseSnapshot(sequence_); }

void LsmStore::ReleaseSnapshot(uint64_t sequence) {
  MutexLock lock(mu_);
  const auto it = snapshots_.find(sequence);
  if (it != snapshots_.end()) snapshots_.erase(it);
}

uint64_t LsmStore::OldestSnapshot() {
  if (snapshots_.empty()) return last_sequence_;
  return std::min(*snapshots_.begin(), last_sequence_);
}

StatusOr<ValuePtr> LsmStore::GetAt(const Snapshot& snapshot,
                                   const std::string& key) {
  return GetInternal(key, snapshot.sequence());
}

StatusOr<std::vector<std::string>> LsmStore::ListKeysAt(
    const Snapshot& snapshot) {
  return LiveKeys(snapshot.sequence());
}

// --- Background maintenance -------------------------------------------------

void LsmStore::BackgroundMain() {
  MutexLock lock(mu_);
  while (!stopping_) {
    if (bg_error_.ok() && !maintenance_active_) {
      if (imm_ != nullptr) {
        FlushImmLocked();
        continue;
      }
      CompactionJob job;
      if (PickCompaction(&job)) {
        RunCompactionLocked(job);
        continue;
      }
    }
    cv_.Wait(mu_);
  }
}

uint64_t LsmStore::AllocateFileNumber() {
  MutexLock lock(mu_);
  return next_file_number_++;
}

StatusOr<FileMeta> LsmStore::WriteMemTableToSst(const MemTable& mem,
                                                uint64_t file_number) {
  SstOptions sst_options;
  sst_options.block_bytes = options_.block_bytes;
  sst_options.bloom_bits_per_key = options_.bloom_bits_per_key;
  SstWriter writer(dir_, file_number, sst_options);
  // Keep every version and tombstone: L0 must preserve history for
  // snapshot readers; compaction drops what is no longer visible.
  mem.ForEach([&writer](const std::string& key, uint64_t seq,
                        const MemTable::Entry& entry) {
    writer.Add(key, seq, entry.type, entry.value);
  });
  DSTORE_ASSIGN_OR_RETURN(const SstProperties props, writer.Finish());
  FileMeta meta;
  meta.number = props.number;
  meta.size = props.file_size;
  meta.entries = props.entries;
  meta.max_seq = props.max_seq;
  meta.smallest = props.smallest;
  meta.largest = props.largest;
  DSTORE_ASSIGN_OR_RETURN(meta.reader,
                          SstReader::Open(dir_, file_number, block_cache_));
  return meta;
}

void LsmStore::FlushImmLocked() {
  maintenance_active_ = true;
  const std::shared_ptr<MemTable> imm = imm_;
  std::shared_ptr<const Version> base = version_;
  const uint64_t file_number = next_file_number_++;
  mu_.Unlock();

  obs::Span span("lsm.flush", obs::Stage::kBackend);
  StatusOr<FileMeta> meta = WriteMemTableToSst(*imm, file_number);

  mu_.Lock();
  Status status = meta.ok() ? Status::OK() : meta.status();
  if (status.ok()) {
    auto next = std::make_shared<Version>(*base);
    // Let go of the old version before Flush() returns: a compaction may
    // retire its files next, and their blocks leave the cache only with
    // the last reference (~SstReader).
    base.reset();
    next->levels[0].push_back(std::move(meta).value());
    status = PersistVersion(std::move(next), /*wal_floor=*/wal_number_);
  }
  if (status.ok()) {
    imm_ = nullptr;
    std::shared_ptr<WalWriter> old_wal = std::move(imm_wal_);
    const uint64_t old_wal_number = imm_wal_number_;
    flushes_.fetch_add(1, std::memory_order_relaxed);
    Metrics()->flushes->Increment();
    maintenance_active_ = false;
    cv_.NotifyAll();
    mu_.Unlock();
    old_wal.reset();  // close the fd before unlinking
    std::error_code ec;
    std::filesystem::remove(dir_ / WalFileName(old_wal_number), ec);
    mu_.Lock();
  } else {
    // Sticky: the store refuses further writes until reopened, which is
    // exactly the recovery path that makes the on-disk state consistent.
    bg_error_ = status;
    maintenance_active_ = false;
    cv_.NotifyAll();
  }
}

uint64_t LsmStore::LevelTargetBytes(int level) const {
  double target = static_cast<double>(options_.level_base_bytes);
  for (int l = 1; l < level; ++l) target *= options_.level_multiplier;
  return static_cast<uint64_t>(target);
}

bool LsmStore::PickCompaction(CompactionJob* job, bool force) {
  const Version& v = *version_;
  job->inputs.clear();
  job->overlaps.clear();

  const size_t l0_needed =
      force ? 1 : static_cast<size_t>(options_.l0_compaction_trigger);
  if (v.levels[0].size() >= l0_needed) {
    // All of L0 goes at once — the files overlap, so a subset would let an
    // older version slip below a newer one.
    job->level = 0;
    job->inputs = v.levels[0];
    std::string lo = job->inputs[0].smallest;
    std::string hi = job->inputs[0].largest;
    for (const FileMeta& f : job->inputs) {
      lo = std::min(lo, f.smallest);
      hi = std::max(hi, f.largest);
    }
    for (const FileMeta* f : v.Overlapping(1, lo, hi)) {
      job->overlaps.push_back(*f);
    }
    return true;
  }

  int best_level = -1;
  double best_score = 1.0;
  for (int level = 1; level < kNumLevels - 1; ++level) {
    const uint64_t bytes = v.LevelBytes(level);
    if (bytes == 0) continue;
    const double score = static_cast<double>(bytes) /
                         static_cast<double>(LevelTargetBytes(level));
    if (score > best_score) {
      best_score = score;
      best_level = level;
    }
  }
  if (best_level < 0) return false;

  // Round-robin over the level so repeated compactions sweep all of it
  // rather than hammering the same key range.
  const auto& files = v.levels[static_cast<size_t>(best_level)];
  const FileMeta* pick = nullptr;
  for (const FileMeta& f : files) {
    if (f.largest > compact_cursor_[static_cast<size_t>(best_level)]) {
      pick = &f;
      break;
    }
  }
  if (pick == nullptr) pick = &files[0];
  job->level = best_level;
  job->inputs.push_back(*pick);
  for (const FileMeta* f :
       v.Overlapping(best_level + 1, pick->smallest, pick->largest)) {
    job->overlaps.push_back(*f);
  }
  return true;
}

StatusOr<std::vector<FileMeta>> LsmStore::MergeCompact(
    const CompactionJob& job, const Version& base, uint64_t smallest_snapshot) {
  const int output_level = job.level + 1;

  std::vector<std::unique_ptr<SstIterator>> cursors;
  for (const FileMeta& f : job.inputs) {
    cursors.push_back(std::make_unique<SstIterator>(f.reader.get()));
  }
  for (const FileMeta& f : job.overlaps) {
    cursors.push_back(std::make_unique<SstIterator>(f.reader.get()));
  }

  SstOptions sst_options;
  sst_options.block_bytes = options_.block_bytes;
  sst_options.bloom_bits_per_key = options_.bloom_bits_per_key;

  std::vector<FileMeta> outputs;
  std::unique_ptr<SstWriter> out;
  uint64_t out_number = 0;
  std::string last_user_key;
  bool has_user_key = false;
  uint64_t last_seq_for_key = kMaxSequence;
  std::string last_emitted_key;

  const auto finish_output = [&]() -> Status {
    DSTORE_ASSIGN_OR_RETURN(const SstProperties props, out->Finish());
    FileMeta meta;
    meta.number = props.number;
    meta.size = props.file_size;
    meta.entries = props.entries;
    meta.max_seq = props.max_seq;
    meta.smallest = props.smallest;
    meta.largest = props.largest;
    DSTORE_ASSIGN_OR_RETURN(meta.reader,
                            SstReader::Open(dir_, out_number, block_cache_));
    outputs.push_back(std::move(meta));
    out.reset();
    return Status::OK();
  };

  for (;;) {
    // Linear-scan k-way merge: the fan-in is a handful of files, so a heap
    // would only add constant-factor bookkeeping.
    SstIterator* best = nullptr;
    for (const auto& cursor : cursors) {
      if (!cursor->Valid()) {
        DSTORE_RETURN_IF_ERROR(cursor->status());
        continue;
      }
      if (best == nullptr ||
          InternalKeyBefore(cursor->entry().key, cursor->entry().seq,
                            best->entry().key, best->entry().seq)) {
        best = cursor.get();
      }
    }
    if (best == nullptr) break;
    const SstEntry& entry = best->entry();

    if (!has_user_key || entry.key != last_user_key) {
      last_user_key = entry.key;
      has_user_key = true;
      last_seq_for_key = kMaxSequence;
    }
    bool drop = false;
    if (last_seq_for_key <= smallest_snapshot) {
      // A newer entry for this key is already at or below every snapshot:
      // this one can never be observed again.
      drop = true;
    } else if (entry.type == EntryType::kDelete &&
               entry.seq <= smallest_snapshot &&
               base.IsBaseLevelForKey(output_level, entry.key)) {
      // Bottom level for this key: nothing deeper to shadow, so the
      // tombstone itself can finally go.
      drop = true;
      tombstones_dropped_.fetch_add(1, std::memory_order_relaxed);
      Metrics()->tombstones_dropped->Increment();
    }
    last_seq_for_key = entry.seq;

    if (!drop) {
      if (out != nullptr &&
          out->ApproximateBytes() >= options_.max_output_file_bytes &&
          entry.key != last_emitted_key) {
        DSTORE_RETURN_IF_ERROR(finish_output());
      }
      if (out == nullptr) {
        out_number = AllocateFileNumber();
        out = std::make_unique<SstWriter>(dir_, out_number, sst_options);
      }
      out->Add(entry.key, entry.seq, entry.type, entry.value);
      last_emitted_key = entry.key;
    }
    best->Next();
  }
  if (out != nullptr) {
    DSTORE_RETURN_IF_ERROR(finish_output());
  }
  return outputs;
}

void LsmStore::RunCompactionLocked(const CompactionJob& job) {
  maintenance_active_ = true;
  const std::shared_ptr<const Version> base = version_;
  const uint64_t smallest_snapshot = OldestSnapshot();
  mu_.Unlock();

  obs::Span span("lsm.compact", obs::Stage::kBackend);
  StatusOr<std::vector<FileMeta>> outputs =
      MergeCompact(job, *base, smallest_snapshot);

  mu_.Lock();
  Status status = outputs.ok() ? Status::OK() : outputs.status();
  if (status.ok()) {
    std::set<uint64_t> consumed;
    for (const FileMeta& f : job.inputs) consumed.insert(f.number);
    for (const FileMeta& f : job.overlaps) consumed.insert(f.number);

    auto next = std::make_shared<Version>(*base);
    const int output_level = job.level + 1;
    for (const int level : {job.level, output_level}) {
      auto& files = next->levels[static_cast<size_t>(level)];
      files.erase(std::remove_if(files.begin(), files.end(),
                                 [&consumed](const FileMeta& f) {
                                   return consumed.count(f.number) > 0;
                                 }),
                  files.end());
    }
    auto& dest = next->levels[static_cast<size_t>(output_level)];
    for (FileMeta& f : outputs.value()) dest.push_back(std::move(f));
    std::sort(dest.begin(), dest.end(),
              [](const FileMeta& a, const FileMeta& b) {
                return a.smallest < b.smallest;
              });

    std::string cursor = job.inputs[0].largest;
    for (const FileMeta& f : job.inputs) cursor = std::max(cursor, f.largest);
    compact_cursor_[static_cast<size_t>(job.level)] = cursor;

    const uint64_t wal_floor = imm_ != nullptr ? imm_wal_number_ : wal_number_;
    status = PersistVersion(std::move(next), wal_floor);
  }
  if (status.ok()) {
    compactions_.fetch_add(1, std::memory_order_relaxed);
    Metrics()->compactions->Increment();
    maintenance_active_ = false;
    cv_.NotifyAll();
    mu_.Unlock();
    // Inputs are no longer referenced by the current version; readers that
    // pinned the old version keep the open fds alive, so unlinking now is
    // safe (POSIX keeps the data until the last fd closes).
    std::error_code ec;
    for (const FileMeta& f : job.inputs) {
      std::filesystem::remove(dir_ / SstFileName(f.number), ec);
    }
    for (const FileMeta& f : job.overlaps) {
      std::filesystem::remove(dir_ / SstFileName(f.number), ec);
    }
    mu_.Lock();
  } else {
    bg_error_ = status;
    maintenance_active_ = false;
    cv_.NotifyAll();
  }
}

Status LsmStore::PersistVersion(std::shared_ptr<const Version> next,
                                uint64_t wal_floor) {
  ManifestState state;
  state.next_file_number = next_file_number_;
  state.last_sequence = last_sequence_;
  state.wal_floor = wal_floor;
  state.levels = next->levels;
  mu_.Unlock();
  const Status status = SaveManifest(dir_, state);
  mu_.Lock();
  if (status.ok()) version_ = std::move(next);
  return status;
}

// --- Maintenance entry points ----------------------------------------------

Status LsmStore::Flush() {
  MutexLock lock(mu_);
  if (!bg_error_.ok()) return bg_error_;
  if (imm_ == nullptr && mem_->entries() == 0) return Status::OK();
  if (imm_ == nullptr) {
    DSTORE_RETURN_IF_ERROR(RotateMemTable());
  }
  while (imm_ != nullptr && bg_error_.ok()) {
    cv_.NotifyAll();
    cv_.Wait(mu_);
  }
  return bg_error_;
}

Status LsmStore::CompactOnce(bool* did_work) {
  *did_work = false;
  MutexLock lock(mu_);
  while (maintenance_active_ && bg_error_.ok()) {
    cv_.Wait(mu_);
  }
  if (!bg_error_.ok()) return bg_error_;
  if (imm_ != nullptr) {
    FlushImmLocked();
    *did_work = true;
    return bg_error_;
  }
  CompactionJob job;
  if (!PickCompaction(&job, /*force=*/true)) return Status::OK();
  RunCompactionLocked(job);
  *did_work = true;
  return bg_error_;
}

Status LsmStore::CompactAll() {
  DSTORE_RETURN_IF_ERROR(Flush());
  for (;;) {
    bool did_work = false;
    DSTORE_RETURN_IF_ERROR(CompactOnce(&did_work));
    if (!did_work) return Status::OK();
  }
}

// --- Introspection ----------------------------------------------------------

LsmStats LsmStore::GetStats() {
  LsmStats stats;
  std::shared_ptr<const Version> version;
  {
    MutexLock lock(mu_);
    version = version_;
    stats.memtable_bytes = mem_->ApproximateBytes() +
                           (imm_ != nullptr ? imm_->ApproximateBytes() : 0);
    stats.memtable_entries =
        mem_->entries() + (imm_ != nullptr ? imm_->entries() : 0);
    stats.has_immutable = imm_ != nullptr;
    stats.last_sequence = last_sequence_;
    stats.live_snapshots = snapshots_.size();
  }
  stats.levels.resize(kNumLevels);
  for (int level = 0; level < kNumLevels; ++level) {
    auto& out = stats.levels[static_cast<size_t>(level)];
    for (const FileMeta& f : version->levels[static_cast<size_t>(level)]) {
      out.files += 1;
      out.bytes += f.size;
      out.entries += f.entries;
    }
    if (level == 0) {
      if (out.files >= static_cast<size_t>(options_.l0_compaction_trigger)) {
        stats.compaction_debt_bytes += out.bytes;
      }
    } else if (level < kNumLevels - 1) {
      const uint64_t target = LevelTargetBytes(level);
      if (out.bytes > target) {
        stats.compaction_debt_bytes += out.bytes - target;
      }
    }
  }
  stats.flushes = flushes_.load(std::memory_order_relaxed);
  stats.compactions = compactions_.load(std::memory_order_relaxed);
  stats.tombstones_dropped =
      tombstones_dropped_.load(std::memory_order_relaxed);
  stats.bloom_checks = bloom_checks_.load(std::memory_order_relaxed);
  stats.bloom_negatives = bloom_negatives_.load(std::memory_order_relaxed);
  stats.bloom_false_positives =
      bloom_false_positives_.load(std::memory_order_relaxed);
  if (block_cache_ != nullptr) {
    const CacheStats cache = block_cache_->Stats();
    stats.block_cache_bytes = block_cache_->ChargeUsed();
    stats.block_cache_entries = block_cache_->EntryCount();
    stats.block_cache_hits = cache.hits;
    stats.block_cache_misses = cache.misses;
  }
  return stats;
}

std::vector<std::pair<std::string, std::string>> LsmStore::LevelRangesForTest(
    int level) {
  std::shared_ptr<const Version> version;
  {
    MutexLock lock(mu_);
    version = version_;
  }
  std::vector<std::pair<std::string, std::string>> ranges;
  for (const FileMeta& f : version->levels[static_cast<size_t>(level)]) {
    ranges.emplace_back(f.smallest, f.largest);
  }
  return ranges;
}

std::vector<std::string> LsmStore::BlockCacheKeysForTest() {
  if (block_cache_ == nullptr) return {};
  StatusOr<std::vector<std::string>> keys = block_cache_->Keys();
  return keys.ok() ? std::move(keys).value() : std::vector<std::string>{};
}

void LsmStore::RegisterMetrics() {
  collector_id_ = obs::MetricsRegistry::Default()->AddCollector(
      [this] { PublishMetrics(); });
}

void LsmStore::PublishMetrics() {
  // Held across GetStats so concurrent scrapes publish in order and the
  // counter deltas never go negative.
  MutexLock lock(publish_mu_);
  const LsmStats stats = GetStats();
  Published now;
  for (const auto& level : stats.levels) {
    now.sst_files += static_cast<double>(level.files);
    now.sst_bytes += static_cast<double>(level.bytes);
  }
  now.memtable_bytes = static_cast<double>(stats.memtable_bytes);
  now.debt_bytes = static_cast<double>(stats.compaction_debt_bytes);
  now.block_cache_bytes = static_cast<double>(stats.block_cache_bytes);
  now.block_cache_hits = stats.block_cache_hits;
  now.block_cache_misses = stats.block_cache_misses;

  SharedMetrics* m = Metrics();
  m->sst_files->Add(now.sst_files - published_.sst_files);
  m->sst_bytes->Add(now.sst_bytes - published_.sst_bytes);
  m->memtable_bytes->Add(now.memtable_bytes - published_.memtable_bytes);
  m->debt_bytes->Add(now.debt_bytes - published_.debt_bytes);
  m->block_cache_bytes->Add(now.block_cache_bytes -
                            published_.block_cache_bytes);
  m->block_cache_hits->Increment(now.block_cache_hits -
                                 published_.block_cache_hits);
  m->block_cache_misses->Increment(now.block_cache_misses -
                                   published_.block_cache_misses);
  published_ = now;
}

void LsmStore::UnregisterMetrics() {
  if (collector_id_ == 0) return;
  obs::MetricsRegistry::Default()->RemoveCollector(collector_id_);
  collector_id_ = 0;
  // Take this store's share out of the summed gauges; the counters keep
  // what it contributed.
  SharedMetrics* m = Metrics();
  MutexLock lock(publish_mu_);
  m->sst_files->Add(-published_.sst_files);
  m->sst_bytes->Add(-published_.sst_bytes);
  m->memtable_bytes->Add(-published_.memtable_bytes);
  m->debt_bytes->Add(-published_.debt_bytes);
  m->block_cache_bytes->Add(-published_.block_cache_bytes);
  published_ = Published{};
}

}  // namespace lsm
}  // namespace dstore
