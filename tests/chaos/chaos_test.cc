// Chaos soak: a seeded random workload runs against the full decorator
// stack while faults are injected at the store, network, and WAL layers.
// The harness checks history invariants as it goes (no acknowledged-write
// loss, read-your-writes, values traceable to writes) and every assertion
// message carries the seed, so any failure replays exactly with
// DSTORE_CHAOS_SEEDS=<seed>.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/lru_cache.h"
#include "cache/expiring_cache.h"
#include "chaos_harness.h"
#include "common/sync.h"
#include "dscl/enhanced_store.h"
#include "fault/fault.h"
#include "fault/fault_store.h"
#include "net/http.h"
#include "net/latency_model.h"
#include "net/socket.h"
#include "obs/exposition.h"
#include "store/cloud_client.h"
#include "store/cloud_server.h"
#include "store/key_value.h"
#include "store/memory_store.h"
#include "store/resilient_store.h"
#include "store/sql/database.h"
#include "udsm/monitor.h"

namespace dstore {
namespace {

// Seeds come from DSTORE_CHAOS_SEEDS (comma-separated) so check.sh can run
// a matrix and a failing seed can be replayed in isolation.
std::vector<uint64_t> SeedMatrix() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("DSTORE_CHAOS_SEEDS")) {
    std::string token;
    for (const char* p = env;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!token.empty()) seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
        token.clear();
        if (*p == '\0') break;
      } else {
        token.push_back(*p);
      }
    }
  }
  if (seeds.empty()) seeds = {1, 7};
  return seeds;
}

RetryingStore::Options FastRetries(int attempts) {
  RetryingStore::Options options;
  options.max_attempts = attempts;
  options.initial_backoff_nanos = 1000;  // 1 us; chaos must not be slow
  options.backoff_multiplier = 1.5;
  return options;
}

// The store-layer fault mix: transient errors, acknowledged-lost writes,
// and small latency spikes. No payload corruption here — the invariant
// checker treats unexpected bytes as a bug, which is exactly what it
// should do for the non-corrupting chaos mix.
constexpr char kStoreFaultSpec[] =
    "site=store op=put,get,delete,contains p=0.15 error=unavailable\n"
    "site=store op=put,delete p=0.05 kind=error_after_apply error=timedout\n"
    "site=store op=get p=0.04 kind=latency latency_ns=2000";

constexpr char kNetFaultSpec[] =
    "site=net.connect p=0.05\n"
    "site=net.accept p=0.02\n"
    "site=net.write p=0.03\n"
    "site=net.read p=0.03\n"
    "site=net.write p=0.01 kind=corrupt";

struct SoakOutcome {
  uint64_t store_faults = 0;
  uint64_t net_faults = 0;
  uint64_t wal_crashes = 0;
};

// Phase 1: in-process stack Memory -> FaultInjecting -> Retrying ->
// Enhanced(cache) -> Monitored, driven by the seeded workload.
void RunStorePhase(uint64_t seed, SoakOutcome* outcome) {
  SCOPED_TRACE("store phase, seed=" + std::to_string(seed));
  auto base = std::make_shared<MemoryStore>();
  auto plan = *fault::FaultPlan::FromSpec(seed, kStoreFaultSpec);
  auto faulted = std::make_shared<FaultInjectingStore>(base, plan);
  auto retrying = std::make_shared<RetryingStore>(faulted, FastRetries(5));
  auto cache = std::make_shared<ExpiringCache>(
      std::make_unique<LruCache>(64u << 20), RealClock::Default());
  auto enhanced = std::make_shared<EnhancedStore>(
      retrying, cache, nullptr, EnhancedStore::Options{});
  auto monitor = std::make_shared<PerformanceMonitor>();
  MonitoredStore top(enhanced, monitor);

  chaos::ChaosConfig config;
  config.seed = seed;
  config.ops = 8000;
  chaos::ChaosWorkload workload(config);

  Status run = workload.Run(&top);
  ASSERT_TRUE(run.ok()) << run.ToString() << "\ntrace:\n" << plan->TraceString();
  // Acknowledged writes must be visible at the bottom of the stack.
  Status final = workload.VerifyFinalState(base.get());
  ASSERT_TRUE(final.ok()) << final.ToString() << "\ntrace:\n"
                          << plan->TraceString();

  // Monitor counters must account for exactly the issued operations, and
  // monitored error counts must match the errors the workload saw (the
  // monitor also counts NotFound reads as errors; the workload tracks those
  // separately).
  uint64_t monitored_ops = 0;
  uint64_t monitored_errors = 0;
  for (const auto& [store_name, op] : monitor->Tracked()) {
    const OpSummary summary = monitor->Summary(store_name, op);
    monitored_ops += summary.count;
    monitored_errors += summary.errors;
  }
  EXPECT_EQ(monitored_ops, workload.stats().ops_issued) << "seed=" << seed;
  EXPECT_EQ(monitored_errors,
            workload.stats().op_errors + workload.stats().gets_notfound)
      << "seed=" << seed;

  // The plan's trace and counter must agree.
  EXPECT_EQ(plan->Trace().size(), plan->injected_total()) << "seed=" << seed;
  EXPECT_GT(plan->injected_total(), 0u) << "seed=" << seed;
  outcome->store_faults += plan->injected_total();
}

// Phase 2: a real CloudStoreServer/Client pair over loopback TCP with the
// socket-level injector breaking connects, reads, writes, and accepts.
void RunNetworkPhase(uint64_t seed, SoakOutcome* outcome) {
  SCOPED_TRACE("network phase, seed=" + std::to_string(seed));
  auto server = CloudStoreServer::Start(std::make_unique<NoLatency>());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = CloudStoreClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto retrying = std::make_shared<RetryingStore>(
      std::shared_ptr<KeyValueStore>(std::move(*client)), FastRetries(8));

  auto plan = *fault::FaultPlan::FromSpec(seed, kNetFaultSpec);
  chaos::ChaosConfig config;
  config.seed = seed + 1;  // decouple workload choices from the plan
  config.ops = 600;
  config.key_space = 16;
  chaos::ChaosWorkload workload(config);
  {
    fault::ScopedSocketFaultInjector scoped(
        std::make_shared<fault::PlanSocketFaultInjector>(plan));
    Status run = workload.Run(retrying.get());
    ASSERT_TRUE(run.ok()) << run.ToString();
  }

  // With the injector gone, verify against the server through a clean
  // connection: acknowledged writes must have survived the chaos.
  auto verify_client =
      CloudStoreClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(verify_client.ok()) << verify_client.status().ToString();
  Status final = workload.VerifyFinalState(verify_client->get());
  ASSERT_TRUE(final.ok()) << final.ToString();

  EXPECT_GT(plan->injected_total(), 0u) << "seed=" << seed;
  outcome->net_faults += plan->injected_total();
  (*server)->Stop();
}

// Phase 2b: HTTP pipelining under the socket fault mix. One connection
// carries a burst of pipelined PUTs while reads, writes, and accepts break
// underneath it. The invariants the injector must not bend: the i-th
// response answers the i-th request (checked via etag — an out-of-order
// response would carry another body's hash), and every acknowledged write
// survives to a clean verification pass.
void RunPipelinedNetworkPhase(uint64_t seed, SoakOutcome* outcome) {
  SCOPED_TRACE("pipelined network phase, seed=" + std::to_string(seed));
  auto server = CloudStoreServer::Start(std::make_unique<NoLatency>());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto plan = *fault::FaultPlan::FromSpec(seed, kNetFaultSpec);
  std::vector<std::pair<std::string, Bytes>> acknowledged;  // path -> body
  {
    fault::ScopedSocketFaultInjector scoped(
        std::make_shared<fault::PlanSocketFaultInjector>(plan));
    Random rng(seed ^ 0x9199);
    int key_counter = 0;
    for (int burst = 0; burst < 20; ++burst) {
      auto conn = Socket::ConnectTcp("127.0.0.1", (*server)->port());
      if (!conn.ok()) continue;  // injected refusal: nothing acknowledged
      const int n = 8 + static_cast<int>(rng.Uniform(8));
      Bytes wire;
      std::vector<std::pair<std::string, Bytes>> burst_requests;
      for (int i = 0; i < n; ++i) {
        HttpRequest request;
        request.method = "PUT";
        request.path = "/objects/p" + std::to_string(seed) + "-" +
                       std::to_string(key_counter++);
        request.body = ToBytes("pv" + std::to_string(key_counter) + "-" +
                               std::to_string(rng.Uniform(1 << 20)));
        SerializeHttpRequest(request, &wire);
        burst_requests.emplace_back(request.path, request.body);
      }
      if (!conn->WriteFull(wire).ok()) continue;  // burst died in flight
      HttpConnection http(std::move(*conn));
      for (int i = 0; i < n; ++i) {
        auto response = http.ReadResponse();
        if (!response.ok()) break;  // connection killed mid-pipeline
        ASSERT_EQ(response->status_code, 200) << "seed=" << seed;
        ASSERT_EQ(response->headers.at("etag"),
                  ComputeEtag(burst_requests[i].second))
            << "response " << i << " answered a different request, seed="
            << seed;
        acknowledged.push_back(burst_requests[i]);
      }
    }
  }
  ASSERT_FALSE(acknowledged.empty()) << "seed=" << seed;

  // Injector gone: every acknowledged write must be readable, intact,
  // through a clean connection.
  auto verify = Socket::ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  HttpConnection http(std::move(*verify));
  for (const auto& [path, body] : acknowledged) {
    HttpRequest request;
    request.method = "GET";
    request.path = path;
    ASSERT_TRUE(http.WriteRequest(request).ok());
    auto response = http.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status_code, 200)
        << "acknowledged write lost: " << path << " seed=" << seed;
    ASSERT_EQ(response->body, body) << path << " seed=" << seed;
  }

  EXPECT_GT(plan->injected_total(), 0u) << "seed=" << seed;
  outcome->net_faults += plan->injected_total();
  (*server)->Stop();
}

// Phase 3: crash/recover cycles through the SQL WAL. Each cycle arms one
// crash point, takes the hit mid-write, reopens from disk, and verifies
// that acknowledged (durable) rows survived and the crashed row obeys the
// point's semantics.
void RunWalPhase(uint64_t seed, SoakOutcome* outcome) {
  SCOPED_TRACE("wal phase, seed=" + std::to_string(seed));
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dstore_chaos_wal_" + std::to_string(::getpid()) + "_" +
                    std::to_string(seed));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "db").string();
  const uint64_t crashes_before = fault::CrashesInjected();

  static constexpr const char* kPoints[] = {
      "sql.wal.before_append", "sql.wal.torn_append", "sql.wal.before_fsync",
      "sql.wal.after_fsync"};
  Random rng(seed ^ 0xC0FFEE);
  int next_id = 0;
  std::vector<int> durable_ids;

  {
    auto db = sql::Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(
        (*db)->Execute("CREATE TABLE chaos (id INTEGER PRIMARY KEY, v TEXT)")
            .ok());
  }

  for (int cycle = 0; cycle < 12; ++cycle) {
    auto db = sql::Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // A few acknowledged writes...
    const int acked = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < acked; ++i) {
      const int id = next_id++;
      auto result = (*db)->Execute("INSERT INTO chaos VALUES (" +
                                   std::to_string(id) + ", 'v')");
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      durable_ids.push_back(id);
    }
    // ...then one that dies at a random WAL crash point.
    const char* point = kPoints[rng.Uniform(4)];
    fault::ArmCrashPoint(point);
    const int crashed_id = next_id++;
    auto crashed = (*db)->Execute("INSERT INTO chaos VALUES (" +
                                  std::to_string(crashed_id) + ", 'v')");
    fault::DisarmCrashPoints();
    ASSERT_FALSE(crashed.ok()) << "point=" << point << " seed=" << seed;
    ASSERT_TRUE(fault::IsCrashStatus(crashed.status()))
        << crashed.status().ToString();
    if (std::string_view(point) == "sql.wal.after_fsync") {
      durable_ids.push_back(crashed_id);  // durable despite the error
    }
    db->reset();  // "process death": only disk state survives

    auto reopened = sql::Database::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto count = (*reopened)->Execute("SELECT COUNT(*) FROM chaos");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(count->rows[0][0].AsInteger(),
              static_cast<int64_t>(durable_ids.size()))
        << "point=" << point << " cycle=" << cycle << " seed=" << seed;
    for (int id : durable_ids) {
      auto row = (*reopened)->Execute("SELECT v FROM chaos WHERE id = " +
                                      std::to_string(id));
      ASSERT_TRUE(row.ok());
      ASSERT_EQ(row->rows.size(), 1u)
          << "durable row " << id << " lost at point " << point
          << " seed=" << seed;
    }
  }

  outcome->wal_crashes += fault::CrashesInjected() - crashes_before;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Armed for the whole soak: the network phases drive real reactor loops
// under injected socket faults — exactly where a blocking call on an I/O
// thread would hide. Counting (not aborting) lets a violation surface as a
// plain test failure with the seed attached.
class ChaosBlockingCheckEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    sync::SetBlockingChecking(true);
    sync::SetBlockingAborts(false);
    baseline_ = sync::BlockingViolations();
  }
  void TearDown() override {
    EXPECT_EQ(sync::BlockingViolations(), baseline_)
        << "a reactor loop thread made a blocking call during the chaos soak";
    sync::SetBlockingAborts(true);
    sync::SetBlockingChecking(false);
  }

 private:
  uint64_t baseline_ = 0;
};

const auto* const kChaosBlockingCheckEnv =
    ::testing::AddGlobalTestEnvironment(new ChaosBlockingCheckEnvironment);

TEST(ChaosSoakTest, SeedMatrixSurvivesInjectedFaults) {
  const uint64_t blocking_before = sync::BlockingViolations();
  for (uint64_t seed : SeedMatrix()) {
    SoakOutcome outcome;
    RunStorePhase(seed, &outcome);
    if (HasFatalFailure()) return;
    RunNetworkPhase(seed, &outcome);
    if (HasFatalFailure()) return;
    RunPipelinedNetworkPhase(seed, &outcome);
    if (HasFatalFailure()) return;
    RunWalPhase(seed, &outcome);
    if (HasFatalFailure()) return;

    const uint64_t total =
        outcome.store_faults + outcome.net_faults + outcome.wal_crashes;
    // The acceptance bar: a single seeded run injects >= 1000 faults
    // across layers and every invariant still holds.
    EXPECT_GE(total, 1000u)
        << "seed=" << seed << " store=" << outcome.store_faults
        << " net=" << outcome.net_faults << " wal=" << outcome.wal_crashes;
    EXPECT_GT(outcome.wal_crashes, 0u) << "seed=" << seed;

    // Injection counters surface through the obs pipeline.
    const std::string metrics = obs::RenderPrometheusText();
    EXPECT_NE(metrics.find("dstore_fault_injected_total"), std::string::npos);
    EXPECT_NE(metrics.find("dstore_fault_crashes_total"), std::string::npos);

    // Injected stalls wait on reactor timers, never on the loop itself: the
    // runtime blocking check stayed silent through every phase of this seed.
    EXPECT_EQ(sync::BlockingViolations(), blocking_before) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace dstore
