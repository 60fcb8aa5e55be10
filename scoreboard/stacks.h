#ifndef SCOREBOARD_STACKS_H_
#define SCOREBOARD_STACKS_H_

// The three workloads and the stacks they drive, built by hand from the
// layers' public constructors. A traced stack is the same composition with
// probe wrappers inserted between the layers.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver.h"
#include "oracle.h"
#include "store/key_value.h"

namespace scoreboard {

struct WorkloadSpec {
  std::string name;
  std::string stack;  // human-readable composition
  bool cloud = false;  // DSCL over the cloud store; else the composed stack
  LoadSpec load;
  double nominal_rate = 0;  // ops/s at which latency is reported
  double slo_p99_us = 0;    // all-op p99 limit for slo_ops_per_s
  double failed_limit = 0;  // failed_ratio limit for slo_ops_per_s
  int64_t deadline_ns = 0;  // ambient per-op deadline (composed stack)
  // Cloud: DSCL cache capacity. Composed: per-LSM memtable and block cache.
  size_t cache_bytes = 0;
  size_t memtable_bytes = 0;
  std::string flush_policy;
};

// Looks a workload up by name; null if unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// A built, preloaded, settled stack.
class Stack {
 public:
  virtual ~Stack() = default;

  // One store per driver worker.
  virtual std::vector<dstore::KeyValueStore*> Stores() = 0;

  // Final-state pass: reads every key along a path that bypasses client
  // caches and checks it against the oracle. Returns "" or the first
  // violation; counts keys read in *checked.
  virtual std::string VerifyAll(const Oracle& oracle, int threads,
                                uint64_t* checked) = 0;

  // Cumulative layer counters ("dscl.hits", "lsm.flushes", ...); the
  // scoreboard reports deltas across a window.
  virtual std::map<std::string, double> Counters() = 0;

  // Gauges sampled during a window; the scoreboard keeps each one's max.
  virtual std::map<std::string, double> Gauges() = 0;

  // Bytes of on-disk data (0 for an in-memory stack).
  virtual uint64_t DiskBytes() = 0;

  // Compression bytes in/out seen by the traced stack's probes.
  virtual std::pair<uint64_t, uint64_t> CompressBytes() { return {0, 0}; }
};

// Builds the workload's stack under `dir` (created; must not exist),
// preloads every key at version 1 (marked acknowledged in `oracle`) and
// settles compaction.
std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec,
                                  const OpGenerator& generator,
                                  const std::filesystem::path& dir,
                                  int workers, bool traced, Oracle* oracle,
                                  std::string* error);

}  // namespace scoreboard

#endif  // SCOREBOARD_STACKS_H_
