#ifndef SCOREBOARD_PROBE_H_
#define SCOREBOARD_PROBE_H_

// Probe wrappers: decorators the traced run inserts between the layers of a
// stack. Each call through a probe records one span (layer, call, start,
// end, parent span, op id) into a per-thread buffer kept in memory; the
// scoreboard reads the buffers after the stack has been torn down.
//
// The parent of a span is the innermost open span on the same thread, so a
// span's self time is its duration minus its same-thread children. Spans
// opened on a thread that is not executing a driver op (op id 0: the
// ShardedStore scatter pool, the replicator, LSM background threads) are
// busy time off the blocking path.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "dscl/transformer.h"
#include "store/key_value.h"

namespace scoreboard {

// Probed layers, named after the repository's modules.
enum class Layer : uint8_t {
  kDscl,       // above EnhancedStore
  kCache,      // the Cache under ExpiringCache
  kCompress,   // gzip ValueTransformer
  kCrypto,     // AES ValueTransformer
  kCloud,      // above CloudStoreClient
  kAdmit,      // above AdmittingStore (+ CircuitBreakerStore below it)
  kResilient,  // above RetryingStore
  kShard,      // above ShardedStore
  kReplica,    // above each ReplicatedStore
  kLsm,        // above each LsmStore
  kCount,
};
const char* LayerName(Layer layer);

enum class Call : uint8_t {
  kGet,
  kPut,
  kMultiGet,
  kMultiPut,
  kApply,    // ValueTransformer::Apply
  kReverse,  // ValueTransformer::Reverse
  kOther,
  kCount,
};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same thread's span vector
  uint32_t tag = 0;     // shard or replica index
  uint64_t op_id = 0;   // driver op being executed on this thread, 0 = none
  Layer layer = Layer::kDscl;
  Call call = Call::kOther;
};

// Process-wide span store. Recording is off until Enable(true); callers
// must stop every thread that may record (tear the stack down, join the
// workers) before Take().
class SpanRecorder {
 public:
  static SpanRecorder& Global();

  void Enable(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // The op the calling thread is executing (0 = none).
  static void SetCurrentOp(uint64_t op_id);

  // Opens a span on the calling thread; returns its index, or -1 when
  // recording is off. Close(index) must follow on the same thread.
  int32_t Open(Layer layer, Call call, uint32_t tag);
  void Close(int32_t index);

  // Moves every thread's spans out (one vector per thread).
  std::vector<std::vector<Span>> Take();

 private:
  struct ThreadBuffer;
  SpanRecorder() = default;
  ThreadBuffer* Local();

  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  // Buffers outlive their threads; a thread caches its own pointer.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, Call call, uint32_t tag)
      : index_(SpanRecorder::Global().Open(layer, call, tag)) {}
  ~ScopedSpan() {
    if (index_ >= 0) SpanRecorder::Global().Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

// KeyValueStore probe: forwards every call to `inner` inside a span.
class ProbeStore : public dstore::KeyValueStore {
 public:
  ProbeStore(Layer layer, uint32_t tag,
             std::shared_ptr<dstore::KeyValueStore> inner)
      : layer_(layer), tag_(tag), inner_(std::move(inner)) {}

  dstore::Status Put(const std::string& key, dstore::ValuePtr value) override;
  dstore::StatusOr<dstore::ValuePtr> Get(const std::string& key) override;
  dstore::Status Delete(const std::string& key) override;
  dstore::StatusOr<bool> Contains(const std::string& key) override;
  dstore::StatusOr<std::vector<std::string>> ListKeys() override;
  dstore::StatusOr<size_t> Count() override;
  dstore::Status Clear() override;
  dstore::StatusOr<dstore::ConditionalGetResult> GetIfChanged(
      const std::string& key, const std::string& etag) override;
  std::vector<dstore::StatusOr<dstore::ValuePtr>> MultiGet(
      const std::vector<std::string>& keys) override;
  dstore::Status MultiPut(
      const std::vector<std::pair<std::string, dstore::ValuePtr>>& entries)
      override;
  // Transparent: layers that label metrics by their inner store's name
  // publish the same labels traced and untraced.
  std::string Name() const override { return inner_->Name(); }

 private:
  const Layer layer_;
  const uint32_t tag_;
  const std::shared_ptr<dstore::KeyValueStore> inner_;
};

// Cache probe, inserted between ExpiringCache and its inner cache.
class ProbeCache : public dstore::Cache {
 public:
  explicit ProbeCache(std::unique_ptr<dstore::Cache> inner)
      : inner_(std::move(inner)) {}

  dstore::Status Put(const std::string& key, dstore::ValuePtr value) override;
  dstore::StatusOr<dstore::ValuePtr> Get(const std::string& key) override;
  dstore::Status Delete(const std::string& key) override;
  void Clear() override { inner_->Clear(); }
  bool Contains(const std::string& key) const override {
    return inner_->Contains(key);
  }
  size_t EntryCount() const override { return inner_->EntryCount(); }
  size_t ChargeUsed() const override { return inner_->ChargeUsed(); }
  dstore::CacheStats Stats() const override { return inner_->Stats(); }
  std::string Name() const override { return inner_->Name(); }
  dstore::StatusOr<std::vector<std::string>> Keys() const override {
    return inner_->Keys();
  }

 private:
  const std::unique_ptr<dstore::Cache> inner_;
};

// ValueTransformer probe; also counts bytes in and out of Apply so the
// compression ratio is measured where the work happens.
class ProbeTransformer : public dstore::ValueTransformer {
 public:
  ProbeTransformer(Layer layer,
                   std::unique_ptr<dstore::ValueTransformer> inner)
      : layer_(layer), inner_(std::move(inner)) {}

  dstore::StatusOr<dstore::Bytes> Apply(const dstore::Bytes& input) override;
  dstore::StatusOr<dstore::Bytes> Reverse(
      const dstore::Bytes& input) override;
  std::string name() const override { return inner_->name(); }

  uint64_t apply_bytes_in() const { return bytes_in_.load(); }
  uint64_t apply_bytes_out() const { return bytes_out_.load(); }

 private:
  const Layer layer_;
  const std::unique_ptr<dstore::ValueTransformer> inner_;
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
};

// --- Span analysis -------------------------------------------------------

// Self time of every span: its duration minus the durations of its
// same-thread children. Parallel to `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

struct LayerCallStats {
  uint64_t count = 0;
  double total_ns = 0;  // sum of span durations
  double self_ns = 0;   // sum of self times
};

// Rollup of a traced window, split by blocking path (op id != 0) and off
// path (op id 0: pool and background threads).
struct SpanRollup {
  LayerCallStats on_path[static_cast<int>(Layer::kCount)]
                        [static_cast<int>(Call::kCount)];
  LayerCallStats off_path[static_cast<int>(Layer::kCount)]
                         [static_cast<int>(Call::kCount)];
  // Sum of self time over on-path spans that have a parent: the blocking
  // time the probes below the outermost one attribute to a layer. Summed
  // over every on-path span it would telescope to the outermost span's
  // duration whatever the inner probes covered.
  double attributed_self_ns = 0;
  // Per-(layer, tag) on-path span counts (shard skew).
  std::vector<uint64_t> tag_counts[static_cast<int>(Layer::kCount)];
  // Per op id: total on-path time spent in spans of one layer, for
  // per-op-type attributions (shard time per MultiGet). Indexed by op id.
  std::vector<double> op_layer_ns[static_cast<int>(Layer::kCount)];

  const LayerCallStats& On(Layer layer, Call call) const {
    return on_path[static_cast<int>(layer)][static_cast<int>(call)];
  }
  const LayerCallStats& Off(Layer layer, Call call) const {
    return off_path[static_cast<int>(layer)][static_cast<int>(call)];
  }
  // Sums of one layer over every call kind.
  LayerCallStats OnAll(Layer layer) const;
};

// `max_op_id` sizes the per-op tables.
SpanRollup RollUp(const std::vector<std::vector<Span>>& threads,
                  uint64_t max_op_id);

// The probe coverage check of a traced window: every layer in `required`
// recorded spans on the blocking path, and `coverage` (attributed self
// time over `service_ns`, the driver-timed time inside the store calls) is
// in [min_coverage, 1]. Returns "" or what failed.
std::string CheckCoverage(const SpanRollup& rollup,
                          const std::vector<Layer>& required,
                          double service_ns, double min_coverage,
                          double* coverage);

}  // namespace scoreboard

#endif  // SCOREBOARD_PROBE_H_
