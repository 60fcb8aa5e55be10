#ifndef SCOREBOARD_DRIVER_H_
#define SCOREBOARD_DRIVER_H_

// Open-loop load driver. One generator thread releases operations on a
// fixed-rate schedule and hands each to a worker; a worker runs one op at a
// time against its own KeyValueStore. Latency is timed from the op's
// scheduled send time, so a stall is charged to every op queued behind it.
// Every op on a key goes to the same worker, so writes to a key are
// serialized and the oracle knows each key's last acknowledged version.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "oracle.h"
#include "store/key_value.h"
#include "udsm/workload.h"

namespace scoreboard {

enum class OpType : uint8_t { kGet, kPut, kMultiGet };
constexpr int kOpTypes = 3;
const char* OpTypeName(OpType type);
constexpr int kMaxBatch = 8;

// What the op generator draws from.
struct LoadSpec {
  uint32_t keys = 1000;
  double zipf_s = 0.99;
  size_t value_min = 1024;
  size_t value_max = 1024;
  double redundancy = 0.5;
  double put_share = 0.05;
  double multiget_share = 0.0;  // rest are single Gets
  int batch = kMaxBatch;        // keys per MultiGet
};

struct Op {
  int64_t due_ns = 0;  // scheduled send time, relative to the phase start
  OpType type = OpType::kGet;
  uint8_t nkeys = 1;
  uint32_t version = 0;  // Put: the version being written
  std::array<uint32_t, kMaxBatch> keys{};
  dstore::ValuePtr value;  // Put only
};

// Deterministic op source: the same spec and seed give the same sequence,
// phase after phase. Versions continue across phases.
class OpGenerator {
 public:
  // `workers` partitions the keys as WorkerFor() does: the keys of one
  // MultiGet all belong to one worker, so every op on a key runs on the
  // key's worker and no read of a key overlaps a write to it.
  OpGenerator(const LoadSpec& spec, uint64_t seed, int workers);

  // The next `count` ops, due at i / rate seconds.
  std::vector<Op> Next(size_t count, double rate);

  // The value every key holds before the first phase (version 1).
  dstore::Bytes PreloadValue(uint32_t key) const;
  size_t PreloadSize(uint32_t key) const;

 private:
  size_t DrawSize(dstore::Random* rng) const;

  const LoadSpec spec_;
  const uint64_t seed_;
  const int workers_;
  dstore::ZipfianGenerator zipf_;
  dstore::Random rng_;
  std::vector<uint32_t> versions_;  // last version generated per key
};

// Order-sensitive digest of an op sequence (types, keys, versions, value
// bytes, due times): equal digests mean equal sequences.
uint64_t SequenceDigest(const std::vector<Op>& ops);

// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* values, double p);

struct PhaseOptions {
  // Stop releasing ops once more than this many are outstanding (the
  // backlog is growing without bound); 0 = never.
  size_t abort_backlog = 0;
  // Per-op ambient admit::ScopedDeadline budget; 0 = none.
  int64_t deadline_ns = 0;
  // Tag each op with an id (1-based, in schedule order) for the probes.
  bool trace = false;
  // Called from the generator thread about every 50 ms.
  std::function<void()> tick;
};

struct PhaseResult {
  std::vector<double> latency_us[kOpTypes];  // successful ops, by type
  uint64_t attempted = 0;                    // ops released
  uint64_t failed = 0;  // errors, refusals, timeouts (not NotFound)
  uint64_t scheduled = 0;
  bool aborted = false;
  std::vector<double> send_lag_us;   // release time - scheduled time
  std::vector<double> start_lag_us;  // store call start - scheduled time
  double achieved_ratio = 0;        // scheduled span / actual release span
  double drain_us = 0;  // last completion - last scheduled send time
  // Median latency of the first half and of the last 5% of the released
  // ops, in schedule order: a tail far above the head is a growing backlog.
  double head_p50_us = 0;
  double tail_p50_us = 0;
  // Latency of each released op in schedule order (infinity if it failed).
  std::vector<double> latency_by_op_us;
  double service_us_sum = 0;  // time inside the store calls, summed
  double spin_cpu_s = 0;      // CPU the workers spent waiting out kLeadNs
  uint64_t put_bytes_acked = 0;
  std::string violation;  // first oracle violation, "" if none

  uint64_t Completed() const {
    return latency_us[0].size() + latency_us[1].size() +
           latency_us[2].size();
  }
  double FailedRatio() const {
    return attempted == 0 ? 0 : static_cast<double>(failed) / attempted;
  }
  // p-th percentile over every released op, a failed op counting as
  // infinitely slow.
  double AllOpPercentile(double p) const;
  double MeanLatencyUs() const;
};

// The generator kept its schedule: no backlog abort, achieved ratio at
// least 0.9 and send-lag p99 at most 20 ms. A window that fails this
// measured the driver (or a stalled host), not the program.
bool GeneratorKeptUp(const PhaseResult& result);

// A window meets the SLO when the generator kept up, the all-op p99 is
// within `slo_p99_us`, the failed ratio within `failed_limit`, the backlog
// drained within four SLOs of the last scheduled send, and the backlog did
// not grow (tail median within a quarter SLO of the head median).
bool MeetsSlo(const PhaseResult& result, double slo_p99_us,
              double failed_limit);

// Ops are handed to their worker this long before they are due and the
// worker spins out the rest, so its wake-up latency is not charged to the
// op (an op that reaches its worker late starts at once).
constexpr int64_t kLeadNs = 60'000;

// Runs `ops` open-loop against `stores` (one per worker; the generator is
// the calling thread).
PhaseResult RunPhase(const std::vector<dstore::KeyValueStore*>& stores,
                     Oracle* oracle, const std::vector<Op>& ops,
                     const PhaseOptions& options);

// Worker that owns `key` when there are `workers` workers.
int WorkerFor(uint32_t key, int workers);

// Highest rate in [lo, hi] that `passes`, by geometric bisection, assuming
// lo passes; stops when hi/lo <= resolution. `steps` receives each probed
// (rate, passed) pair.
double SearchSloRate(const std::function<bool(double)>& passes, double lo,
                     double hi, double resolution,
                     std::vector<std::pair<double, bool>>* steps);

}  // namespace scoreboard

#endif  // SCOREBOARD_DRIVER_H_
