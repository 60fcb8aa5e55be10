#include "udsm/monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/trace.h"

namespace dstore {

void PerformanceMonitor::Record(const std::string& store,
                                const std::string& op, double millis,
                                bool ok) {
  obs::Histogram* latency = nullptr;
  obs::Counter* op_errors = nullptr;
  {
    MutexLock lock(mu_);
    Track& track = tracks_[{store, op}];
    track.summary.Add(millis);
    if (!ok) ++track.summary.errors;

    track.recent.push_back(millis);
    while (track.recent.size() > recent_window_) track.recent.pop_front();

    if (registry_ != nullptr && track.latency == nullptr) {
      const obs::Labels labels = {{"op", op}, {"store", store}};
      track.latency = registry_->GetHistogram(
          "dstore_op_latency_ms", labels,
          "Latency of monitored store operations in milliseconds.");
      track.op_errors = registry_->GetCounter(
          "dstore_op_errors_total", labels,
          "Monitored store operations that returned an error.");
    }
    latency = track.latency;
    op_errors = track.op_errors;
  }
  // Registry instruments are internally synchronized; publish outside mu_.
  if (latency != nullptr) latency->Record(millis);
  if (!ok && op_errors != nullptr) op_errors->Increment();
}

OpSummary PerformanceMonitor::Summary(const std::string& store,
                                      const std::string& op) const {
  MutexLock lock(mu_);
  auto it = tracks_.find({store, op});
  return it == tracks_.end() ? OpSummary{} : it->second.summary;
}

std::vector<double> PerformanceMonitor::RecentSamples(
    const std::string& store, const std::string& op) const {
  MutexLock lock(mu_);
  auto it = tracks_.find({store, op});
  if (it == tracks_.end()) return {};
  return std::vector<double>(it->second.recent.begin(),
                             it->second.recent.end());
}

double PerformanceMonitor::RecentPercentileMs(const std::string& store,
                                              const std::string& op,
                                              double p) const {
  std::vector<double> samples = RecentSamples(store, op);
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1 - frac) + samples[hi] * frac;
}

std::vector<std::pair<std::string, std::string>> PerformanceMonitor::Tracked()
    const {
  MutexLock lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(tracks_.size());
  for (const auto& [key, track] : tracks_) out.push_back(key);
  return out;
}

std::string PerformanceMonitor::Report() const {
  // Percentiles come from the recent window; take them before locking (the
  // helper locks internally).
  std::map<TrackKey, std::pair<double, double>> percentiles;
  for (const auto& key : Tracked()) {
    percentiles[key] = {RecentPercentileMs(key.first, key.second, 50),
                        RecentPercentileMs(key.first, key.second, 95)};
  }
  MutexLock lock(mu_);
  std::string out =
      "store           op        count   errors  mean_ms    min_ms    max_ms"
      "    p50_ms    p95_ms\n";
  char line[256];
  for (const auto& [key, track] : tracks_) {
    const OpSummary& s = track.summary;
    const auto [p50, p95] = percentiles[key];
    std::snprintf(line, sizeof(line),
                  "%-15s %-9s %7llu %7llu %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                  key.first.c_str(), key.second.c_str(),
                  static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.errors), s.MeanMs(),
                  s.min_ms, s.max_ms, p50, p95);
    out += line;
  }
  return out;
}

void PerformanceMonitor::Reset() {
  MutexLock lock(mu_);
  tracks_.clear();
}

Status PerformanceMonitor::SaveTo(KeyValueStore* store,
                                  const std::string& key) const {
  Bytes out;
  {
    MutexLock lock(mu_);
    PutVarint64(&out, tracks_.size());
    for (const auto& [track_key, track] : tracks_) {
      PutLengthPrefixed(&out, track_key.first);
      PutLengthPrefixed(&out, track_key.second);
      const OpSummary& s = track.summary;
      PutVarint64(&out, s.count);
      PutVarint64(&out, s.errors);
      // The on-disk form predates the Welford representation: it stores the
      // raw sum of squares, which SumSqMs() derives back from (mean, m2).
      for (double d : {s.total_ms, s.min_ms, s.max_ms, s.SumSqMs()}) {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        PutFixed64(&out, bits);
      }
    }
  }
  return store->Put(key, MakeValue(std::move(out)));
}

Status PerformanceMonitor::LoadFrom(KeyValueStore* store,
                                    const std::string& key) {
  DSTORE_ASSIGN_OR_RETURN(ValuePtr data, store->Get(key));
  std::map<TrackKey, Track> tracks;
  size_t pos = 0;
  DSTORE_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(*data, &pos));
  for (uint64_t i = 0; i < count; ++i) {
    DSTORE_ASSIGN_OR_RETURN(Bytes store_name, GetLengthPrefixed(*data, &pos));
    DSTORE_ASSIGN_OR_RETURN(Bytes op_name, GetLengthPrefixed(*data, &pos));
    Track track;
    OpSummary& s = track.summary;
    DSTORE_ASSIGN_OR_RETURN(s.count, GetVarint64(*data, &pos));
    DSTORE_ASSIGN_OR_RETURN(s.errors, GetVarint64(*data, &pos));
    double sum_sq = 0;
    for (double* d : {&s.total_ms, &s.min_ms, &s.max_ms, &sum_sq}) {
      if (pos + 8 > data->size()) {
        return Status::Corruption("truncated monitor snapshot");
      }
      const uint64_t bits = DecodeFixed64(data->data() + pos);
      pos += 8;
      std::memcpy(d, &bits, sizeof(*d));
    }
    // Rebuild the Welford state from the serialized moments. m2 can come
    // out slightly negative from rounding; clamp to keep variance >= 0.
    if (s.count > 0) {
      s.mean_ms = s.total_ms / static_cast<double>(s.count);
      s.m2_ms = std::max(
          0.0, sum_sq - static_cast<double>(s.count) * s.mean_ms * s.mean_ms);
    }
    tracks.emplace(TrackKey{ToString(store_name), ToString(op_name)},
                   std::move(track));
  }
  MutexLock lock(mu_);
  tracks_ = std::move(tracks);
  return Status::OK();
}

Status MonitoredStore::Around(StoreOp op, const OpCall& call) {
  // Published metric labels: these two differ from StoreOpName and stay.
  const char* label = op == StoreOp::kListKeys       ? "list"
                      : op == StoreOp::kGetIfChanged ? "conditional_get"
                                                     : StoreOpName(op);
  const std::string store = Name();
  // A sampled request shows the monitored operation as one tree node.
  obs::Span span(store + "." + label);
  Stopwatch watch(clock_);
  Status status = call();
  monitor_->Record(store, label, watch.ElapsedMillis(), status.ok());
  return status;
}

}  // namespace dstore
