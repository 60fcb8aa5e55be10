// Overload chaos for the admission-control subsystem: the seeded workload
// runs against breaker( admitting( retrying( cloud ))) with a per-operation
// deadline, while (a) the server's admission queue sheds on a seeded fault
// schedule, (b) the breaker force-trips on its own seeded schedule, and
// (c) the socket fault injector stalls reads and writes so operations blow
// their budgets for real. The harness invariants must hold throughout:
// a shed or short-circuited operation surfaces a *distinct* overload error
// (Overloaded / TimedOut) — if the admission path ever fabricated NotFound
// for a present key, the checker reports it as acknowledged-write loss —
// and once the chaos stops, the breaker recovers and the final state
// verifies against the server's objects read through a clean connection.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "admit/admit_store.h"
#include "admit/breaker.h"
#include "admit/deadline.h"
#include "chaos_harness.h"
#include "common/clock.h"
#include "fault/fault.h"
#include "net/latency_model.h"
#include "store/cloud_client.h"
#include "store/cloud_server.h"
#include "store/forwarding_store.h"
#include "store/resilient_store.h"

namespace dstore {
namespace {

using admit::AdmittingStore;
using admit::CircuitBreaker;
using admit::CircuitBreakerStore;
using admit::Deadline;
using admit::ScopedDeadline;

std::vector<uint64_t> SeedMatrix() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("DSTORE_CHAOS_SEEDS")) {
    std::string token;
    for (const char* p = env;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!token.empty())
          seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
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

// Per-operation budget for every workload op — the deadline machinery runs
// for real: stalled sockets and shed queue waits blow it.
constexpr int64_t kOpBudgetNanos = 5'000'000;  // 5ms

// Read/write stalls long enough to blow the 5ms budget sometimes, short
// enough that the soak stays fast.
constexpr char kNetStallSpec[] =
    "site=net.read p=0.04 kind=latency latency_ms=3\n"
    "site=net.write p=0.02 kind=latency latency_ms=2";

// Server-side: the admission queue sheds on a seeded schedule, exercising
// the 503 path end to end. Bounded (limit=), so the post-chaos recovery
// phase and the final verification reads run against a clean queue.
constexpr char kQueueFaultSpec[] = "site=admit.queue op=enter p=0.1 limit=30";

// Client-side: the breaker force-trips on a schedule, exercising
// open -> half-open -> closed recovery mid-workload.
constexpr char kBreakerFaultSpec[] =
    "site=admit.breaker op=admit after=100 every=150 limit=3";

// Runs every operation under a fresh ScopedDeadline, the way a
// deadline-bounded caller would.
class DeadlinePerOpStore : public WrappingStore {
 public:
  using WrappingStore::WrappingStore;

  std::string Name() const override { return inner_->Name() + "+deadline"; }

 protected:
  Status Around(StoreOp, const OpCall& call) override {
    ScopedDeadline scope(Deadline::After(kOpBudgetNanos));
    return call();
  }
};

RetryingStore::Options FastRetries() {
  RetryingStore::Options options;
  options.max_attempts = 3;
  options.initial_backoff_nanos = 1000;  // 1 us; chaos must not be slow
  return options;
}

TEST(AdmitChaosTest, OverloadShedsNeverCorruptAndBreakerRecovers) {
  for (uint64_t seed : SeedMatrix()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));

    admit::ServerQueue::Options queue_options;
    queue_options.max_concurrency = 2;
    queue_options.max_queue_depth = 2;
    queue_options.queue_budget_nanos = 20'000'000;
    auto queue_plan = *fault::FaultPlan::FromSpec(seed + 11, kQueueFaultSpec);
    queue_options.fault_plan = queue_plan;
    auto server = CloudStoreServer::Start(std::make_unique<NoLatency>(),
                                          /*port=*/0, queue_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    auto client = CloudStoreClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    auto breaker_plan =
        *fault::FaultPlan::FromSpec(seed + 23, kBreakerFaultSpec);
    CircuitBreaker::Options breaker_options;
    breaker_options.failure_threshold = 4;
    // Very short open interval: short-circuited ops complete in about a
    // microsecond, so even a few milliseconds of open window would swallow
    // the whole remaining workload and the trip/probe/recover cycle would
    // never complete mid-run. 50us is a few dozen shed ops.
    breaker_options.open_nanos = 50'000;
    breaker_options.success_threshold = 1;
    breaker_options.fault_plan = breaker_plan;

    auto stack = std::make_shared<DeadlinePerOpStore>(
        std::make_shared<CircuitBreakerStore>(
            std::make_shared<AdmittingStore>(std::make_shared<RetryingStore>(
                std::shared_ptr<KeyValueStore>(std::move(*client)),
                FastRetries())),
            breaker_options));

    chaos::ChaosConfig config;
    config.seed = seed;
    config.ops = 500;
    chaos::ChaosWorkload workload(config);

    // Phase 1: sheds and breaker trips only (queue + breaker schedules).
    ASSERT_TRUE(workload.Run(stack.get()).ok());

    // Phase 2: socket stalls on top — deadlines blow for real now.
    auto net_plan = *fault::FaultPlan::FromSpec(seed + 31, kNetStallSpec);
    {
      fault::ScopedSocketFaultInjector scoped(
          std::make_shared<fault::PlanSocketFaultInjector>(net_plan));
      ASSERT_TRUE(workload.Run(stack.get()).ok());
    }

    // Phase 3: chaos over. Give the breaker its open interval, then the
    // workload must make real progress again (recovery, not just survival).
    RealClock::Default()->SleepFor(25'000'000);
    const uint64_t ok_before = workload.stats().gets_ok;
    ASSERT_TRUE(workload.Run(stack.get()).ok());
    EXPECT_GT(workload.stats().gets_ok, ok_before);

    // Chaos must actually have happened at every layer for the run to mean
    // anything, and it must all have been survivable (Run returning OK is
    // the no-acked-write-loss / no-fabricated-NotFound check itself).
    EXPECT_GT(queue_plan->injected_total(), 0u);
    EXPECT_GT(breaker_plan->injected_total(), 0u);
    EXPECT_GT(net_plan->injected_total(), 0u);
    EXPECT_GT(workload.stats().op_errors, 0u);

    // Final state verifies against the server's objects through a clean,
    // un-faulted connection — reads around every decorator.
    auto verify =
        CloudStoreClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(verify.ok()) << verify.status().ToString();
    const Status final = workload.VerifyFinalState(verify->get());
    ASSERT_TRUE(final.ok()) << final.ToString();

    (*server)->Stop();
  }
}

// The breaker's chaos schedule is a pure function of the seed: two breakers
// driven through the identical call sequence on simulated clocks trip at
// identical points and leave identical fault traces.
TEST(AdmitChaosTest, BreakerTripScheduleIsSeedDeterministic) {
  for (uint64_t seed : SeedMatrix()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto run = [seed] {
      SimulatedClock clock;
      auto plan = *fault::FaultPlan::FromSpec(
          seed, "site=admit.breaker op=admit p=0.02");
      CircuitBreaker::Options options;
      options.failure_threshold = 3;
      options.open_nanos = 1'000'000;
      options.success_threshold = 1;
      options.fault_plan = plan;
      options.clock = &clock;
      CircuitBreaker breaker(options);
      std::string transcript;
      for (int i = 0; i < 500; ++i) {
        const Status admit = breaker.Admit();
        if (admit.ok()) breaker.OnResult(Status::OK());
        transcript += admit.ok() ? 'A' : 's';
        transcript += static_cast<char>('0' + static_cast<int>(
                                                  breaker.state()));
        clock.Advance(100'000);
      }
      return transcript + "|" + plan->TraceString();
    };
    EXPECT_EQ(run(), run());
  }
}

}  // namespace
}  // namespace dstore
