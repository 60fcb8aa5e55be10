// End-to-end distributed tracing acceptance suite: a real CloudStoreClient
// per shard, a ShardedStore scatter-gathering over three CloudStoreServers,
// and the socket fault injector active — proving that one trace id spans
// the client and every server-side sub-span, that per-stage latency
// attribution accounts for the request's wall time, that the slowest
// request of a run is captured in /debug/slow with its full cross-process
// tree, and that a dstore_op_latency_ms exemplar resolves to that trace.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "fault/fault.h"
#include "net/http.h"
#include "net/latency_model.h"
#include "net/socket.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/sharded_store.h"
#include "store/cloud_client.h"
#include "store/cloud_server.h"
#include "udsm/monitor.h"

namespace dstore {
namespace {

constexpr int kShards = 3;
constexpr int64_t kWanNanos = 5'000'000;  // 5 ms per simulated round trip

// True if `span_id` names a span anywhere in the tree under `node`.
bool TreeHasSpan(const obs::SpanNode& node, uint64_t span_id) {
  if (node.span_id == span_id) return true;
  for (const auto& child : node.children) {
    if (TreeHasSpan(*child, span_id)) return true;
  }
  return false;
}

size_t CountSpansNamed(const obs::SpanNode& node, const std::string& name) {
  size_t n = node.name == name ? 1 : 0;
  for (const auto& child : node.children) n += CountSpansNamed(*child, name);
  return n;
}

// Order-independent structural fingerprint of a span tree: names plus the
// identity-bearing attributes, children sorted. Two runs of the same
// workload must produce equal shapes even though scatter-gather interleaves
// differently and the fault plan injects latency.
std::string CanonicalShape(const obs::SpanNode& node) {
  std::string out = node.name;
  for (const auto& attr : node.attrs) {
    if (attr.first == "batch" || attr.first == "key" ||
        attr.first == "path") {
      out += '[' + attr.first + '=' + attr.second + ']';
    }
  }
  std::vector<std::string> kids;
  kids.reserve(node.children.size());
  for (const auto& child : node.children) {
    kids.push_back(CanonicalShape(*child));
  }
  std::sort(kids.begin(), kids.end());
  if (!kids.empty()) {
    out += '(';
    for (size_t i = 0; i < kids.size(); ++i) {
      if (i > 0) out += ',';
      out += kids[i];
    }
    out += ')';
  }
  return out;
}

class ObsE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer_ = obs::Tracer::Default();
    tracer_->SetSampleRate(0);
    tracer_->DisableSlowCapture();

    ShardedStore::ShardList shards;
    for (int i = 0; i < kShards; ++i) {
      auto server = CloudStoreServer::Start(
          std::make_unique<FixedLatency>(kWanNanos));
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      servers_.push_back(*std::move(server));
      auto client = CloudStoreClient::Connect(
          "127.0.0.1", servers_.back()->port(),
          "cloud" + std::to_string(i));
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      shards.emplace_back("s" + std::to_string(i),
                          std::shared_ptr<KeyValueStore>(*std::move(client)));
    }
    ShardedStore::Options options;
    options.name = "e2e";
    options.scatter_threads = kShards;
    sharded_ = std::make_shared<ShardedStore>(std::move(shards), options);
    monitor_ = std::make_shared<PerformanceMonitor>(
        1024, obs::MetricsRegistry::Default());
    store_ = std::make_unique<MonitoredStore>(sharded_, monitor_);

    // Seed the keyspace untraced.
    for (const std::string& key : Keys()) {
      ASSERT_TRUE(store_->PutString(key, "value-for-" + key).ok());
    }
  }

  void TearDown() override {
    tracer_->SetSampleRate(0);
    tracer_->DisableSlowCapture();
    store_.reset();
    sharded_.reset();
    for (auto& server : servers_) server->Stop();
  }

  static std::vector<std::string> Keys() {
    std::vector<std::string> keys;
    for (int i = 0; i < 12; ++i) keys.push_back("key" + std::to_string(i));
    return keys;
  }

  obs::Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<CloudStoreServer>> servers_;
  std::shared_ptr<ShardedStore> sharded_;
  std::shared_ptr<PerformanceMonitor> monitor_;
  std::unique_ptr<MonitoredStore> store_;
};

// One trace id spans the client root, the scatter-gather batches, and the
// server-side segments of every shard the fan-out touched.
TEST_F(ObsE2eTest, OneTraceIdSpansClientAndAllServers) {
  auto plan = fault::FaultPlan::FromSpec(
      7, "site=net.read kind=latency latency_ms=1 every=5");
  ASSERT_TRUE(plan.ok());
  fault::ScopedSocketFaultInjector injector(
      std::make_shared<fault::PlanSocketFaultInjector>(*plan));

  tracer_->SetSampleRate(1.0);
  {
    obs::Span root("e2e.multiget", tracer_);
    ASSERT_TRUE(root.recording());
    // Call the sharded store directly: it fans per-shard batches out on its
    // scatter pool. MonitoredStore runs a batch as per-key Gets until
    // batches are carried through the policy decorators (ROADMAP item 4).
    auto results = sharded_->MultiGet(Keys());
    for (const auto& result : results) ASSERT_TRUE(result.ok());
  }
  tracer_->SetSampleRate(0);

  auto trace = tracer_->LatestTrace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->root().name, "e2e.multiget");
  // Every shard contributed an adopted worker subtree with its round trips.
  EXPECT_EQ(CountSpansNamed(trace->root(), "shard.batch"),
            static_cast<size_t>(kShards));
  EXPECT_EQ(CountSpansNamed(trace->root(), "http.roundtrip"), Keys().size());

  auto family = tracer_->Family(trace->trace_hi(), trace->trace_lo());
  size_t segments = 0;
  for (const auto& member : family) {
    if (!member->IsSegment()) continue;
    ++segments;
    EXPECT_EQ(member->TraceId(), trace->TraceId());
    EXPECT_EQ(member->root().name, "server.request");
    // The segment hangs under a span that really exists client-side.
    EXPECT_TRUE(TreeHasSpan(trace->root(), member->parent_span_id()));
  }
  // 12 keys over 3 shards: every request produced a server segment.
  EXPECT_EQ(segments, Keys().size());
}

// For a sequential request the per-stage attribution accounts for the
// measured wall time to within 5%.
TEST_F(ObsE2eTest, StageAttributionSumsToWallTime) {
  tracer_->SetSampleRate(1.0);
  Stopwatch watch(RealClock::Default());
  {
    obs::Span root("e2e.get", tracer_);
    ASSERT_TRUE(root.recording());
    auto got = store_->GetString("key0");
    ASSERT_TRUE(got.ok());
  }
  const double wall_ms = watch.ElapsedMillis();
  tracer_->SetSampleRate(0);

  auto trace = tracer_->LatestTrace();
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->root().name, "e2e.get");

  double sum = 0;
  for (double stage_ms : trace->StageMillis()) sum += stage_ms;
  EXPECT_GE(wall_ms, 5.0);  // the simulated WAN delay dominates
  EXPECT_NEAR(sum, wall_ms, 0.05 * wall_ms)
      << "trace:\n" << trace->ToText();
  // The round trip is the dominant cost and is attributed to the network
  // stage, not to the untagged remainder.
  EXPECT_GT(trace->StageMillis()[static_cast<size_t>(obs::Stage::kNetwork)],
            0.8 * sum);
}

// The slowest request of a run — made slow by the socket fault injector —
// lands in /debug/slow with its cross-process tree, and the
// dstore_op_latency_ms exemplar in its bucket resolves to that trace.
TEST_F(ObsE2eTest, SlowestRequestIsCapturedAndExemplarResolves) {
  obs::Tracer::SlowCaptureOptions slow_options;
  slow_options.threshold_ms = 20;
  slow_options.keep = 4;
  tracer_->EnableSlowCapture(slow_options);
  tracer_->SetSampleRate(1.0);

  // A background of fast requests, all under the capture threshold.
  for (int i = 0; i < 6; ++i) {
    obs::Span root("e2e.fast-get", tracer_);
    ASSERT_TRUE(store_->GetString("key" + std::to_string(i)).ok());
  }

  // One request suffers injected socket latency: every socket write stalls
  // 40 ms while the injector is installed (the request going out and the
  // response coming back), so this round trip is the run's tail.
  std::string slow_trace_id;
  {
    auto plan = fault::FaultPlan::FromSpec(
        42, "site=net.write kind=latency latency_ms=40");
    ASSERT_TRUE(plan.ok());
    fault::ScopedSocketFaultInjector injector(
        std::make_shared<fault::PlanSocketFaultInjector>(*plan));
    obs::Span root("e2e.slow-get", tracer_);
    ASSERT_TRUE(root.recording());
    slow_trace_id = obs::CurrentTraceContext().TraceId();
    ASSERT_TRUE(store_->GetString("key7").ok());
  }
  tracer_->SetSampleRate(0);

  // The worst locally rooted trace in the slow ring is the injected one.
  auto slow = tracer_->SlowTraces();
  const obs::Trace* worst = nullptr;
  for (const auto& trace : slow) {
    if (!trace->IsSegment()) {
      worst = trace.get();
      break;
    }
  }
  ASSERT_NE(worst, nullptr);
  EXPECT_EQ(worst->TraceId(), slow_trace_id);
  EXPECT_GE(worst->DurationMillis(), 40.0);

  // Served by the real endpoint: GET /debug/slow on a cloud server shows
  // the trace with the server-side segment stitched in.
  auto socket = Socket::ConnectTcp("127.0.0.1", servers_[0]->port());
  ASSERT_TRUE(socket.ok());
  HttpConnection conn(*std::move(socket));
  HttpRequest request;
  request.method = "GET";
  request.path = "/debug/slow";
  ASSERT_TRUE(conn.WriteRequest(request).ok());
  auto response = conn.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  const std::string body = ToString(response->body);
  EXPECT_NE(body.find(slow_trace_id), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"server.request\""), std::string::npos);
  EXPECT_NE(body.find("\"remote\":true"), std::string::npos);

  // The monitored store recorded the slow Get into dstore_op_latency_ms
  // while the trace was live: its bucket's exemplar carries the trace id.
  bool resolved = false;
  for (const auto& family : obs::MetricsRegistry::Default()->Snapshot()) {
    if (family.name != "dstore_op_latency_ms") continue;
    for (const auto& instrument : family.instruments) {
      for (const auto& exemplar : instrument.exemplars) {
        if (exemplar.trace_id == slow_trace_id && exemplar.value >= 40.0) {
          resolved = true;
        }
      }
    }
  }
  EXPECT_TRUE(resolved)
      << "no dstore_op_latency_ms exemplar resolves to " << slow_trace_id;
}

// Same seed, same workload: the stitched fan-out trace has the same shape
// even though scheduling interleaves the batches differently.
TEST_F(ObsE2eTest, ShardFanOutStitchesDeterministically) {
  auto run_once = [&](uint64_t seed) {
    auto plan = fault::FaultPlan::FromSpec(
        seed, "site=net.read kind=latency latency_ms=2 every=3");
    EXPECT_TRUE(plan.ok());
    fault::ScopedSocketFaultInjector injector(
        std::make_shared<fault::PlanSocketFaultInjector>(*plan));
    tracer_->SetSampleRate(1.0);
    {
      obs::Span root("e2e.multiget", tracer_);
      auto results = sharded_->MultiGet(Keys());
      for (const auto& result : results) EXPECT_TRUE(result.ok());
    }
    tracer_->SetSampleRate(0);
    auto trace = tracer_->LatestTrace();
    EXPECT_NE(trace, nullptr);
    size_t segments = 0;
    for (const auto& member :
         tracer_->Family(trace->trace_hi(), trace->trace_lo())) {
      if (member->IsSegment()) ++segments;
    }
    return CanonicalShape(trace->root()) + "|segments=" +
           std::to_string(segments);
  };

  const std::string first = run_once(99);
  const std::string second = run_once(99);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("shard.batch"), std::string::npos);
  EXPECT_NE(first.find("segments=12"), std::string::npos);
}

// Propagation edge cases at the real server: hostile x-dstore-trace headers
// are ignored (the request still succeeds, no segment is recorded, the
// server does not crash), unsampled contexts stay cheap, and a valid
// sampled context produces exactly one segment.
TEST_F(ObsE2eTest, HostileTraceHeadersAreIgnoredByServer) {
  obs::Counter* segment_counter = obs::MetricsRegistry::Default()->GetCounter(
      "dstore_traces_finished_total", {{"kind", "segment"}});

  auto socket = Socket::ConnectTcp("127.0.0.1", servers_[0]->port());
  ASSERT_TRUE(socket.ok());
  HttpConnection conn(*std::move(socket));

  const std::vector<std::string> hostile = {
      "garbage",
      std::string(16 * 1024, 'a'),                        // oversized
      std::string(32, '0') + "-1122334455667788-01",      // zero trace id
      "0123456789abcdeffedcba9876543210+1122334455667788+01",  // separators
  };
  for (const std::string& header : hostile) {
    const uint64_t before = segment_counter->Value();
    HttpRequest request;
    request.method = "GET";
    request.path = "/count";
    request.headers[obs::kTraceHeaderName] = header;
    ASSERT_TRUE(conn.WriteRequest(request).ok());
    auto response = conn.ReadResponse();
    ASSERT_TRUE(response.ok()) << "server died on hostile header";
    EXPECT_EQ(response->status_code, 200);
    EXPECT_EQ(segment_counter->Value(), before)
        << "segment recorded for hostile header";
  }

  // A valid but unsampled context is also ignored (the caller opted out).
  // The id is unique per run: the default tracer's segment ring outlives
  // the fixture.
  static uint64_t unique_lo = 0x2222;
  obs::TraceContext ctx;
  ctx.trace_hi = 0x1111;
  ctx.trace_lo = ++unique_lo;
  ctx.span_id = 0x3333;
  ctx.sampled = false;
  {
    const uint64_t before = segment_counter->Value();
    HttpRequest request;
    request.method = "GET";
    request.path = "/count";
    request.headers[obs::kTraceHeaderName] = ctx.ToHeader();
    ASSERT_TRUE(conn.WriteRequest(request).ok());
    auto response = conn.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status_code, 200);
    EXPECT_EQ(segment_counter->Value(), before);
  }

  // A valid sampled context yields exactly one segment hung under the
  // caller's span id.
  ctx.sampled = true;
  {
    const uint64_t before = segment_counter->Value();
    HttpRequest request;
    request.method = "GET";
    request.path = "/count";
    request.headers[obs::kTraceHeaderName] = ctx.ToHeader();
    ASSERT_TRUE(conn.WriteRequest(request).ok());
    auto response = conn.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status_code, 200);
    EXPECT_EQ(segment_counter->Value(), before + 1);
  }
  auto family = tracer_->Family(0x1111, unique_lo);
  ASSERT_EQ(family.size(), 1u);
  EXPECT_TRUE(family[0]->IsSegment());
  EXPECT_EQ(family[0]->parent_span_id(), 0x3333u);
  EXPECT_EQ(family[0]->root().name, "server.request");
}

// N pipelined requests on one connection, each carrying its own sampled
// trace context. The async core parses them in one read and runs the
// handlers concurrently on worker threads, so this pins the isolation
// contract: every request yields exactly one segment under its own trace
// id and its own parent span — never a pipeline-sibling's — and per-stage
// attribution still accounts for each segment's wall time.
TEST_F(ObsE2eTest, PipelinedRequestsKeepTracesApart) {
  constexpr int kPipelined = 8;
  // Unique per run: the default tracer's segment ring outlives the fixture.
  static uint64_t unique_base = 0x5000;
  unique_base += 0x100;

  auto socket = Socket::ConnectTcp("127.0.0.1", servers_[0]->port());
  ASSERT_TRUE(socket.ok());
  Bytes wire;
  for (int i = 0; i < kPipelined; ++i) {
    obs::TraceContext ctx;
    ctx.trace_hi = 0xAAAA;
    ctx.trace_lo = unique_base + static_cast<uint64_t>(i);
    ctx.span_id = 0x7000 + static_cast<uint64_t>(i);
    ctx.sampled = true;
    HttpRequest request;
    request.method = "GET";
    request.path = "/count";
    request.headers[obs::kTraceHeaderName] = ctx.ToHeader();
    SerializeHttpRequest(request, &wire);
  }
  ASSERT_TRUE(socket->WriteFull(wire).ok());  // the whole burst in one write

  HttpConnection conn(*std::move(socket));
  for (int i = 0; i < kPipelined; ++i) {
    auto response = conn.ReadResponse();
    ASSERT_TRUE(response.ok()) << "response " << i << ": "
                               << response.status().ToString();
    EXPECT_EQ(response->status_code, 200);
  }

  for (int i = 0; i < kPipelined; ++i) {
    auto family =
        tracer_->Family(0xAAAA, unique_base + static_cast<uint64_t>(i));
    ASSERT_EQ(family.size(), 1u)
        << "request " << i << " recorded " << family.size() << " segments";
    const auto& segment = family[0];
    EXPECT_TRUE(segment->IsSegment());
    EXPECT_EQ(segment->parent_span_id(), 0x7000 + static_cast<uint64_t>(i))
        << "segment " << i << " stitched under a sibling's span";
    EXPECT_EQ(segment->root().name, "server.request");
    EXPECT_EQ(CountSpansNamed(segment->root(), "server.request"), 1u);

    // Stage attribution holds per segment even under pipelined concurrency:
    // each handler's span tree lives on its own worker thread.
    double sum = 0;
    for (double stage_ms : segment->StageMillis()) sum += stage_ms;
    EXPECT_GE(segment->DurationMillis(), 5.0);  // the simulated WAN delay
    EXPECT_NEAR(sum, segment->DurationMillis(),
                0.05 * segment->DurationMillis())
        << "segment " << i << ":\n" << segment->ToText();
  }
}

// An unsampled client adds no header and the servers record nothing: the
// whole request runs with tracing compiled in but off.
TEST_F(ObsE2eTest, UnsampledRequestsLeaveNoTraces) {
  obs::Counter* root_counter = obs::MetricsRegistry::Default()->GetCounter(
      "dstore_traces_finished_total", {{"kind", "root"}});
  obs::Counter* segment_counter = obs::MetricsRegistry::Default()->GetCounter(
      "dstore_traces_finished_total", {{"kind", "segment"}});
  const uint64_t roots_before = root_counter->Value();
  const uint64_t segments_before = segment_counter->Value();
  const uint64_t traces_before = tracer_->TraceCount();

  for (const std::string& key : Keys()) {
    obs::Span root("e2e.unsampled", tracer_);  // rate is 0
    EXPECT_FALSE(root.recording());
    ASSERT_TRUE(store_->GetString(key).ok());
  }

  EXPECT_EQ(tracer_->TraceCount(), traces_before);
  EXPECT_EQ(root_counter->Value(), roots_before);
  EXPECT_EQ(segment_counter->Value(), segments_before);
}

}  // namespace
}  // namespace dstore
