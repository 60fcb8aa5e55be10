#ifndef DSTORE_UDSM_MONITOR_H_
#define DSTORE_UDSM_MONITOR_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "store/forwarding_store.h"

namespace dstore {

// Summary statistics for one (store, operation) pair. Variance is tracked
// with Welford's online algorithm (running mean + sum of squared deviations)
// rather than a raw sum of squares: sum_sq/n - mean^2 cancels
// catastrophically when latencies are large relative to their spread.
struct OpSummary {
  uint64_t count = 0;
  uint64_t errors = 0;
  double total_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
  double mean_ms = 0;  // Welford running mean
  double m2_ms = 0;    // Welford sum of squared deviations from the mean

  // Folds one observation into the summary.
  void Add(double millis) {
    if (count == 0) {
      min_ms = millis;
      max_ms = millis;
    } else {
      if (millis < min_ms) min_ms = millis;
      if (millis > max_ms) max_ms = millis;
    }
    ++count;
    total_ms += millis;
    const double delta = millis - mean_ms;
    mean_ms += delta / static_cast<double>(count);
    m2_ms += delta * (millis - mean_ms);
  }

  double MeanMs() const { return count == 0 ? 0 : mean_ms; }
  // Population variance, matching the historical sum_sq/n - mean^2 value.
  double VarianceMs() const {
    return count < 2 ? 0 : m2_ms / static_cast<double>(count);
  }
  // The raw second moment, for the (unchanged) serialized form.
  double SumSqMs() const {
    return m2_ms + static_cast<double>(count) * mean_ms * mean_ms;
  }
};

// The UDSM's performance monitor (paper Section II.A): per store and per
// operation it keeps (a) running summary statistics over ALL requests and
// (b) a bounded window of detailed recent samples — "the capability to
// collect detailed data for recent requests while only retaining summary
// statistics for older data". Snapshots can be rendered as text or persisted
// into any registered data store.
class PerformanceMonitor {
 public:
  // Keep at most `recent_window` detailed samples per (store, op). Every
  // Record() is additionally published into `registry` as the
  // dstore_op_latency_ms{store=,op=} histogram and the
  // dstore_op_errors_total{store=,op=} counter, so one monitored UDSM
  // lights up the process-wide /metrics pipeline. Pass nullptr to keep the
  // monitor purely local (e.g. hermetic tests).
  explicit PerformanceMonitor(
      size_t recent_window = 1024,
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Default())
      : recent_window_(recent_window), registry_(registry) {}

  // Records one operation taking `millis`, successful or not.
  void Record(const std::string& store, const std::string& op, double millis,
              bool ok = true);

  OpSummary Summary(const std::string& store, const std::string& op) const;

  // Detailed latencies of the most recent requests (oldest first).
  std::vector<double> RecentSamples(const std::string& store,
                                    const std::string& op) const;

  // Percentile over the recent window (p in [0,100]); 0 if no samples.
  double RecentPercentileMs(const std::string& store, const std::string& op,
                            double p) const;

  // All (store, op) pairs seen so far.
  std::vector<std::pair<std::string, std::string>> Tracked() const;

  // Human-readable report of every tracked pair.
  std::string Report() const;

  void Reset();

  // Persists all summaries into `store` under `key` (paper: "performance
  // data can be stored persistently using any of the data stores supported
  // by the UDSM"), and restores them later.
  Status SaveTo(KeyValueStore* store, const std::string& key) const;
  Status LoadFrom(KeyValueStore* store, const std::string& key);

 private:
  struct Track {
    OpSummary summary;
    std::deque<double> recent;
    // Registry instruments for this (store, op), fetched once on first
    // Record and reused; null when the monitor has no registry.
    obs::Histogram* latency = nullptr;
    obs::Counter* op_errors = nullptr;
  };

  using TrackKey = std::pair<std::string, std::string>;

  size_t recent_window_;
  obs::MetricsRegistry* registry_;
  mutable Mutex mu_;
  std::map<TrackKey, Track> tracks_ GUARDED_BY(mu_);
};

// KeyValueStore decorator that times every operation into a
// PerformanceMonitor — how the UDSM monitors any store through the common
// interface without per-store code.
class MonitoredStore : public WrappingStore {
 public:
  MonitoredStore(std::shared_ptr<KeyValueStore> inner,
                 std::shared_ptr<PerformanceMonitor> monitor,
                 const Clock* clock = nullptr)
      : WrappingStore(std::move(inner)),
        monitor_(std::move(monitor)),
        clock_(clock != nullptr ? clock : RealClock::Default()) {}

 protected:
  // Times `call` and records it under (Name(), op label).
  Status Around(StoreOp op, const OpCall& call) override;

 private:
  std::shared_ptr<PerformanceMonitor> monitor_;
  const Clock* clock_;
};

}  // namespace dstore

#endif  // DSTORE_UDSM_MONITOR_H_
