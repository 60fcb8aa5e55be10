#include "probe.h"

#include <chrono>

namespace scoreboard {
namespace {

using dstore::Bytes;
using dstore::Status;
using dstore::StatusOr;
using dstore::ValuePtr;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local uint64_t t_op_id = 0;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kDscl: return "dscl";
    case Layer::kCache: return "cache";
    case Layer::kCompress: return "compress";
    case Layer::kCrypto: return "crypto";
    case Layer::kCloud: return "cloud";
    case Layer::kAdmit: return "admit";
    case Layer::kResilient: return "resilient";
    case Layer::kShard: return "shard";
    case Layer::kReplica: return "replica";
    case Layer::kLsm: return "lsm";
    case Layer::kCount: break;
  }
  return "?";
}

struct SpanRecorder::ThreadBuffer {
  std::vector<Span> spans;
  std::vector<int32_t> open;  // stack of open span indices
};

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

void SpanRecorder::SetCurrentOp(uint64_t op_id) { t_op_id = op_id; }

SpanRecorder::ThreadBuffer* SpanRecorder::Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
  }
  return buffer;
}

int32_t SpanRecorder::Open(Layer layer, Call call, uint32_t tag) {
  if (!enabled()) return -1;
  ThreadBuffer* buffer = Local();
  Span span;
  span.parent = buffer->open.empty() ? -1 : buffer->open.back();
  span.tag = tag;
  span.op_id = t_op_id;
  span.layer = layer;
  span.call = call;
  const auto index = static_cast<int32_t>(buffer->spans.size());
  buffer->open.push_back(index);
  span.start_ns = NowNanos();
  buffer->spans.push_back(span);
  return index;
}

void SpanRecorder::Close(int32_t index) {
  const int64_t now = NowNanos();
  ThreadBuffer* buffer = Local();
  buffer->spans[index].end_ns = now;
  buffer->open.pop_back();
}

std::vector<std::vector<Span>> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<Span>> out;
  for (auto& buffer : buffers_) {
    if (!buffer->spans.empty()) out.push_back(std::move(buffer->spans));
    buffer->spans.clear();
    buffer->open.clear();
  }
  return out;
}

// --- ProbeStore -----------------------------------------------------------

Status ProbeStore::Put(const std::string& key, ValuePtr value) {
  ScopedSpan span(layer_, Call::kPut, tag_);
  return inner_->Put(key, std::move(value));
}

StatusOr<ValuePtr> ProbeStore::Get(const std::string& key) {
  ScopedSpan span(layer_, Call::kGet, tag_);
  return inner_->Get(key);
}

Status ProbeStore::Delete(const std::string& key) {
  ScopedSpan span(layer_, Call::kOther, tag_);
  return inner_->Delete(key);
}

StatusOr<bool> ProbeStore::Contains(const std::string& key) {
  ScopedSpan span(layer_, Call::kOther, tag_);
  return inner_->Contains(key);
}

StatusOr<std::vector<std::string>> ProbeStore::ListKeys() {
  ScopedSpan span(layer_, Call::kOther, tag_);
  return inner_->ListKeys();
}

StatusOr<size_t> ProbeStore::Count() {
  ScopedSpan span(layer_, Call::kOther, tag_);
  return inner_->Count();
}

Status ProbeStore::Clear() {
  ScopedSpan span(layer_, Call::kOther, tag_);
  return inner_->Clear();
}

StatusOr<dstore::ConditionalGetResult> ProbeStore::GetIfChanged(
    const std::string& key, const std::string& etag) {
  ScopedSpan span(layer_, Call::kGet, tag_);
  return inner_->GetIfChanged(key, etag);
}

std::vector<StatusOr<ValuePtr>> ProbeStore::MultiGet(
    const std::vector<std::string>& keys) {
  ScopedSpan span(layer_, Call::kMultiGet, tag_);
  return inner_->MultiGet(keys);
}

Status ProbeStore::MultiPut(
    const std::vector<std::pair<std::string, ValuePtr>>& entries) {
  ScopedSpan span(layer_, Call::kMultiPut, tag_);
  return inner_->MultiPut(entries);
}

// --- ProbeCache -----------------------------------------------------------

Status ProbeCache::Put(const std::string& key, ValuePtr value) {
  ScopedSpan span(Layer::kCache, Call::kPut, 0);
  return inner_->Put(key, std::move(value));
}

StatusOr<ValuePtr> ProbeCache::Get(const std::string& key) {
  ScopedSpan span(Layer::kCache, Call::kGet, 0);
  return inner_->Get(key);
}

Status ProbeCache::Delete(const std::string& key) {
  ScopedSpan span(Layer::kCache, Call::kOther, 0);
  return inner_->Delete(key);
}

// --- ProbeTransformer -----------------------------------------------------

StatusOr<Bytes> ProbeTransformer::Apply(const Bytes& input) {
  ScopedSpan span(layer_, Call::kApply, 0);
  StatusOr<Bytes> out = inner_->Apply(input);
  if (out.ok()) {
    bytes_in_.fetch_add(input.size(), std::memory_order_relaxed);
    bytes_out_.fetch_add(out->size(), std::memory_order_relaxed);
  }
  return out;
}

StatusOr<Bytes> ProbeTransformer::Reverse(const Bytes& input) {
  ScopedSpan span(layer_, Call::kReverse, 0);
  return inner_->Reverse(input);
}

// --- Analysis -------------------------------------------------------------

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
  }
  return self;
}

LayerCallStats SpanRollup::OnAll(Layer layer) const {
  LayerCallStats sum;
  for (const LayerCallStats& s : on_path[static_cast<int>(layer)]) {
    sum.count += s.count;
    sum.total_ns += s.total_ns;
    sum.self_ns += s.self_ns;
  }
  return sum;
}

SpanRollup RollUp(const std::vector<std::vector<Span>>& threads,
                  uint64_t max_op_id) {
  SpanRollup rollup;
  for (auto& table : rollup.op_layer_ns) table.assign(max_op_id + 1, 0.0);
  for (const std::vector<Span>& spans : threads) {
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const int layer = static_cast<int>(span.layer);
      const int call = static_cast<int>(span.call);
      const double duration = static_cast<double>(span.end_ns - span.start_ns);
      const bool on_path = span.op_id != 0;
      LayerCallStats& stats = on_path ? rollup.on_path[layer][call]
                                      : rollup.off_path[layer][call];
      ++stats.count;
      stats.total_ns += duration;
      stats.self_ns += static_cast<double>(self[i]);
      if (!on_path) continue;
      if (span.parent >= 0) {
        rollup.attributed_self_ns += static_cast<double>(self[i]);
      }
      auto& tags = rollup.tag_counts[layer];
      if (tags.size() <= span.tag) tags.resize(span.tag + 1, 0);
      ++tags[span.tag];
      if (span.op_id <= max_op_id) {
        rollup.op_layer_ns[layer][span.op_id] += duration;
      }
    }
  }
  return rollup;
}

std::string CheckCoverage(const SpanRollup& rollup,
                          const std::vector<Layer>& required,
                          double service_ns, double min_coverage,
                          double* coverage) {
  *coverage = service_ns > 0 ? rollup.attributed_self_ns / service_ns : 0;
  std::string missing;
  for (Layer layer : required) {
    if (rollup.OnAll(layer).count == 0) {
      missing += std::string(missing.empty() ? "" : ", ") + LayerName(layer);
    }
  }
  if (!missing.empty()) {
    return "no blocking-path spans from " + missing;
  }
  // Self times are taken inside the store calls the driver times, so more
  // than all of that time (beyond clock rounding) is a probe bug.
  if (*coverage < min_coverage || *coverage > 1.0001) {
    return "coverage " + std::to_string(*coverage) + " outside [" +
           std::to_string(min_coverage) + ", 1]";
  }
  return "";
}

}  // namespace scoreboard
