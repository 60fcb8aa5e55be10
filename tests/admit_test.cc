// Unit tests for the admission-control subsystem (src/admit/): deadlines,
// token-bucket and AIMD limiters, the circuit breaker state machine, the
// server-side bounded queue, and the KeyValueStore decorators that compose
// them. Everything time-dependent runs on SimulatedClock except the queue's
// blocking paths, which use real threads with generous margins.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "admit/admit_store.h"
#include "admit/breaker.h"
#include "admit/deadline.h"
#include "admit/introspect.h"
#include "admit/limiter.h"
#include "admit/server_queue.h"
#include "admit/token_bucket.h"
#include "common/clock.h"
#include "fault/fault.h"
#include "store/forwarding_store.h"
#include "store/memory_store.h"

namespace dstore {
namespace {

using admit::AdaptiveLimiter;
using admit::AdmittingStore;
using admit::CircuitBreaker;
using admit::CircuitBreakerStore;
using admit::CurrentDeadline;
using admit::Deadline;
using admit::ScopedDeadline;
using admit::ServerQueue;
using admit::TokenBucket;

// A store that fails every operation with a fixed status — drives breakers
// and limiters without fault-plan machinery.
class AlwaysFailStore : public WrappingStore {
 public:
  explicit AlwaysFailStore(Status status)
      : WrappingStore(std::make_shared<MemoryStore>()),
        status_(std::move(status)) {}

  std::string Name() const override { return "alwaysfail"; }
  int calls() const { return calls_; }

 protected:
  Status Around(StoreOp, const OpCall&) override {
    ++calls_;
    return status_;
  }

 private:
  Status status_;
  int calls_ = 0;
};

// A store that advances a SimulatedClock during every operation — models a
// backend slower than the caller's budget.
class SlowStore : public WrappingStore {
 public:
  SlowStore(std::shared_ptr<KeyValueStore> inner, SimulatedClock* clock,
            int64_t op_nanos)
      : WrappingStore(std::move(inner)), clock_(clock), op_nanos_(op_nanos) {}

  std::string Name() const override { return inner_->Name() + "+slow"; }

 protected:
  Status Around(StoreOp, const OpCall& call) override {
    clock_->Advance(op_nanos_);
    return call();
  }

 private:
  SimulatedClock* clock_;
  int64_t op_nanos_;
};

// ---------------------------------------------------------------- Status

TEST(OverloadedStatusTest, DistinctFromOtherCodes) {
  const Status overloaded = Status::Overloaded("shed");
  EXPECT_TRUE(overloaded.IsOverloaded());
  EXPECT_FALSE(overloaded.ok());
  EXPECT_FALSE(overloaded.IsTimedOut());
  EXPECT_FALSE(overloaded.IsNotFound());
  EXPECT_FALSE(overloaded.IsUnavailable());
  EXPECT_NE(overloaded.ToString().find("Overloaded"), std::string::npos);
  EXPECT_FALSE(Status::TimedOut("x").IsOverloaded());
}

// -------------------------------------------------------------- Deadline

TEST(DeadlineTest, DefaultIsInfinite) {
  const Deadline deadline;
  EXPECT_FALSE(deadline.has_deadline());
  EXPECT_FALSE(deadline.expired());
  EXPECT_GT(deadline.remaining_nanos(), int64_t{1} << 60);
}

TEST(DeadlineTest, AfterExpiresOnClock) {
  SimulatedClock clock;
  const Deadline deadline = Deadline::After(1'000'000, &clock);
  EXPECT_TRUE(deadline.has_deadline());
  EXPECT_EQ(deadline.remaining_nanos(), 1'000'000);
  clock.Advance(600'000);
  EXPECT_EQ(deadline.remaining_nanos(), 400'000);
  EXPECT_FALSE(deadline.expired());
  clock.Advance(600'000);
  EXPECT_EQ(deadline.remaining_nanos(), 0);
  EXPECT_TRUE(deadline.expired());
}

TEST(DeadlineTest, EarlierOfPicksTighterBudget) {
  SimulatedClock clock;
  const Deadline shorter = Deadline::After(1'000, &clock);
  const Deadline longer = Deadline::After(5'000, &clock);
  EXPECT_EQ(shorter.EarlierOf(longer).remaining_nanos(), 1'000);
  EXPECT_EQ(longer.EarlierOf(shorter).remaining_nanos(), 1'000);
  EXPECT_EQ(Deadline::Infinite().EarlierOf(shorter).remaining_nanos(), 1'000);
  EXPECT_EQ(shorter.EarlierOf(Deadline::Infinite()).remaining_nanos(), 1'000);
}

TEST(DeadlineTest, ScopedDeadlineNestsAndRestores) {
  SimulatedClock clock;
  EXPECT_FALSE(CurrentDeadline().has_deadline());
  {
    ScopedDeadline outer(Deadline::After(10'000, &clock));
    EXPECT_EQ(CurrentDeadline().remaining_nanos(), 10'000);
    {
      // Inner scopes can only tighten the budget, never extend it.
      ScopedDeadline wider(Deadline::After(50'000, &clock));
      EXPECT_EQ(CurrentDeadline().remaining_nanos(), 10'000);
    }
    {
      ScopedDeadline tighter(Deadline::After(2'000, &clock));
      EXPECT_EQ(CurrentDeadline().remaining_nanos(), 2'000);
    }
    EXPECT_EQ(CurrentDeadline().remaining_nanos(), 10'000);
  }
  EXPECT_FALSE(CurrentDeadline().has_deadline());
}

// ----------------------------------------------------------- TokenBucket

TEST(TokenBucketTest, SpendsBurstThenSheds) {
  SimulatedClock clock;
  TokenBucket::Options options;
  options.rate_per_sec = 10.0;
  options.burst = 3.0;
  TokenBucket bucket(options, &clock);
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_FALSE(bucket.TryAcquire());
}

TEST(TokenBucketTest, RefillsAtRateUpToBurst) {
  SimulatedClock clock;
  TokenBucket::Options options;
  options.rate_per_sec = 10.0;  // one token per 100ms
  options.burst = 3.0;
  TokenBucket bucket(options, &clock);
  while (bucket.TryAcquire()) {
  }
  clock.Advance(100'000'000);  // 100ms -> exactly one token
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_FALSE(bucket.TryAcquire());
  clock.Advance(10'000'000'000);  // 10s -> refill clamps at burst
  EXPECT_NEAR(bucket.Available(), 3.0, 1e-9);
}

// ------------------------------------------------------- AdaptiveLimiter

TEST(AdaptiveLimiterTest, RejectsBeyondLimit) {
  AdaptiveLimiter::Options options;
  options.initial_limit = 2;
  options.min_limit = 2;
  options.max_limit = 2;
  AdaptiveLimiter limiter(options);
  EXPECT_TRUE(limiter.TryAcquire());
  EXPECT_TRUE(limiter.TryAcquire());
  EXPECT_FALSE(limiter.TryAcquire());
  EXPECT_EQ(limiter.rejected_total(), 1u);
  limiter.Release(Status::OK());
  EXPECT_TRUE(limiter.TryAcquire());
  EXPECT_EQ(limiter.in_flight(), 2);
}

TEST(AdaptiveLimiterTest, SuccessesGrowLimitAdditively) {
  AdaptiveLimiter::Options options;
  options.initial_limit = 4;
  options.max_limit = 8;
  AdaptiveLimiter limiter(options);
  // One "window" of limit successes grows the limit by ~1.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(limiter.TryAcquire());
    limiter.Release(Status::OK());
  }
  EXPECT_GT(limiter.limit(), 4.9);
  EXPECT_LT(limiter.limit(), 5.1);
  // Growth clamps at max_limit.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(limiter.TryAcquire());
    limiter.Release(Status::OK());
  }
  EXPECT_DOUBLE_EQ(limiter.limit(), 8.0);
}

TEST(AdaptiveLimiterTest, OverloadShrinksMultiplicatively) {
  AdaptiveLimiter::Options options;
  options.initial_limit = 16;
  options.increase_per_success = 0;  // isolate the decrease path
  AdaptiveLimiter limiter(options);
  ASSERT_TRUE(limiter.TryAcquire());
  limiter.Release(Status::TimedOut("backend stalled"));
  EXPECT_DOUBLE_EQ(limiter.limit(), 8.0);
}

TEST(AdaptiveLimiterTest, CooldownAbsorbsFailureBursts) {
  AdaptiveLimiter::Options options;
  options.initial_limit = 16;
  options.increase_per_success = 0;
  AdaptiveLimiter limiter(options);
  // A burst of correlated failures causes ONE backoff step, not a collapse:
  // after the first decrease, further failures are ignored until `limit`
  // more operations complete.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(limiter.TryAcquire());
    limiter.Release(Status::Unavailable("burst"));
  }
  EXPECT_DOUBLE_EQ(limiter.limit(), 8.0);
  // Once the cooldown window passes, a fresh overload signal bites again.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(limiter.TryAcquire());
    limiter.Release(Status::OK());
  }
  ASSERT_TRUE(limiter.TryAcquire());
  limiter.Release(Status::Overloaded("shed"));
  EXPECT_DOUBLE_EQ(limiter.limit(), 4.0);
}

TEST(AdaptiveLimiterTest, FloorsAtMinLimit) {
  AdaptiveLimiter::Options options;
  options.initial_limit = 2;
  options.min_limit = 1;
  options.increase_per_success = 0;
  AdaptiveLimiter limiter(options);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(limiter.TryAcquire());
    limiter.Release(Status::TimedOut("x"));
  }
  EXPECT_DOUBLE_EQ(limiter.limit(), 1.0);
}

TEST(AdaptiveLimiterTest, ClassifiesOverloadSignals) {
  EXPECT_TRUE(AdaptiveLimiter::IsOverloadSignal(Status::TimedOut("x")));
  EXPECT_TRUE(AdaptiveLimiter::IsOverloadSignal(Status::Unavailable("x")));
  EXPECT_TRUE(AdaptiveLimiter::IsOverloadSignal(Status::Overloaded("x")));
  EXPECT_FALSE(AdaptiveLimiter::IsOverloadSignal(Status::OK()));
  EXPECT_FALSE(AdaptiveLimiter::IsOverloadSignal(Status::NotFound("x")));
  EXPECT_FALSE(AdaptiveLimiter::IsOverloadSignal(Status::IOError("x")));
}

// -------------------------------------------------------- CircuitBreaker

CircuitBreaker::Options BreakerOptions(SimulatedClock* clock) {
  CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.open_nanos = 1'000'000;
  options.success_threshold = 2;
  options.clock = clock;
  return options;
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  SimulatedClock clock;
  CircuitBreaker breaker(BreakerOptions(&clock));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.OnResult(Status::Unavailable("down"));
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  const Status shed = breaker.Admit();
  EXPECT_TRUE(shed.IsOverloaded()) << shed.ToString();
  EXPECT_EQ(breaker.short_circuited_total(), 1u);
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  SimulatedClock clock;
  CircuitBreaker breaker(BreakerOptions(&clock));
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.OnResult(Status::TimedOut("slow"));
  }
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.OnResult(Status::OK());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.OnResult(Status::TimedOut("slow"));
  }
  // 2 + 2 failures straddling a success never reach the threshold of 3.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, NonOverloadErrorsDoNotTrip) {
  SimulatedClock clock;
  CircuitBreaker breaker(BreakerOptions(&clock));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.OnResult(Status::NotFound("no such key"));
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbesThenCloses) {
  SimulatedClock clock;
  CircuitBreaker breaker(BreakerOptions(&clock));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.OnResult(Status::Unavailable("down"));
  }
  clock.Advance(1'000'000);  // open interval elapses
  // First probe admitted; a second concurrent probe is shed.
  ASSERT_TRUE(breaker.Admit().ok());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Admit().IsOverloaded());
  breaker.OnResult(Status::OK());
  // success_threshold = 2: one more good probe closes the circuit.
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.OnResult(Status::OK());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureReopens) {
  SimulatedClock clock;
  CircuitBreaker breaker(BreakerOptions(&clock));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.OnResult(Status::Unavailable("down"));
  }
  clock.Advance(1'000'000);
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.OnResult(Status::TimedOut("still down"));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(breaker.Admit().IsOverloaded());
}

TEST(CircuitBreakerTest, ReportsTransitionsToCallback) {
  SimulatedClock clock;
  CircuitBreaker::Options options = BreakerOptions(&clock);
  std::vector<CircuitBreaker::State> transitions;
  options.on_state_change = [&](CircuitBreaker::State state) {
    transitions.push_back(state);
  };
  CircuitBreaker breaker(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Admit().ok());
    breaker.OnResult(Status::Unavailable("down"));
  }
  clock.Advance(1'000'000);
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.OnResult(Status::OK());
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.OnResult(Status::OK());
  EXPECT_EQ(transitions,
            (std::vector<CircuitBreaker::State>{
                CircuitBreaker::State::kOpen, CircuitBreaker::State::kHalfOpen,
                CircuitBreaker::State::kClosed}));
}

TEST(CircuitBreakerTest, FaultPlanForcesOpen) {
  SimulatedClock clock;
  CircuitBreaker::Options options = BreakerOptions(&clock);
  options.fault_plan =
      *fault::FaultPlan::FromSpec(7, "site=admit.breaker op=admit at=2");
  CircuitBreaker breaker(options);
  ASSERT_TRUE(breaker.Admit().ok());
  breaker.OnResult(Status::OK());
  // The scheduled fault trips the breaker on the 2nd admit with zero real
  // failures — deterministic chaos for the recovery path.
  EXPECT_FALSE(breaker.Admit().ok());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

// ----------------------------------------------------------- ServerQueue

ServerQueue::Options QueueOptions(int concurrency, int depth,
                                  int64_t budget_nanos) {
  ServerQueue::Options options;
  options.name = "test";
  options.max_concurrency = concurrency;
  options.max_queue_depth = depth;
  options.queue_budget_nanos = budget_nanos;
  return options;
}

TEST(ServerQueueTest, AdmitsUpToConcurrencyThenShedsWhenQueueFull) {
  ServerQueue queue(QueueOptions(2, 0, 100'000'000));
  ASSERT_TRUE(queue.Enter().ok());
  ASSERT_TRUE(queue.Enter().ok());
  EXPECT_EQ(queue.active(), 2);
  // Zero queue depth: the third arrival is shed immediately.
  const Status shed = queue.Enter();
  EXPECT_TRUE(shed.IsOverloaded()) << shed.ToString();
  EXPECT_EQ(queue.shed_total(), 1u);
  queue.Exit();
  queue.Exit();
  EXPECT_EQ(queue.active(), 0);
}

TEST(ServerQueueTest, PriorityLaneBypassesSaturation) {
  ServerQueue queue(QueueOptions(1, 0, 100'000'000));
  ASSERT_TRUE(queue.Enter().ok());  // saturate the only slot
  ASSERT_TRUE(queue.Enter(ServerQueue::Lane::kPriority).ok());
  ASSERT_TRUE(queue.Enter(ServerQueue::Lane::kPriority).ok());
  queue.Exit(ServerQueue::Lane::kPriority);
  queue.Exit(ServerQueue::Lane::kPriority);
  queue.Exit();
}

TEST(ServerQueueTest, ExitHandsSlotToWaiter) {
  ServerQueue queue(QueueOptions(1, 4, 10'000'000'000));
  ASSERT_TRUE(queue.Enter().ok());
  Status waiter_status = Status::Internal("never ran");
  std::thread waiter([&] { waiter_status = queue.Enter(); });
  // Wait until the waiter is actually queued, then release the slot.
  while (queue.queued() == 0) {
    std::this_thread::yield();
  }
  queue.Exit();
  waiter.join();
  EXPECT_TRUE(waiter_status.ok()) << waiter_status.ToString();
  EXPECT_EQ(queue.active(), 1);
  queue.Exit();
}

TEST(ServerQueueTest, QueueBudgetExceededSheds) {
  ServerQueue queue(QueueOptions(1, 4, 5'000'000));  // 5ms budget
  ASSERT_TRUE(queue.Enter().ok());
  std::thread waiter([&] {
    const Status status = queue.Enter();
    EXPECT_TRUE(status.IsOverloaded()) << status.ToString();
  });
  waiter.join();
  EXPECT_GE(queue.shed_total(), 1u);
  queue.Exit();
}

TEST(ServerQueueTest, DeadlineExpiryWhileQueuedIsTimedOut) {
  ServerQueue queue(QueueOptions(1, 4, 10'000'000'000));
  ASSERT_TRUE(queue.Enter().ok());
  std::thread waiter([&] {
    ScopedDeadline scope(Deadline::After(5'000'000));  // 5ms, real clock
    const Status status = queue.Enter();
    // The *caller's* budget ran out, not the queue's: TimedOut, so the
    // client can tell "my deadline" from "server shed me".
    EXPECT_TRUE(status.IsTimedOut()) << status.ToString();
  });
  waiter.join();
  queue.Exit();
}

TEST(ServerQueueTest, FaultPlanShedsDeterministically) {
  ServerQueue::Options options = QueueOptions(8, 8, 100'000'000);
  options.fault_plan =
      *fault::FaultPlan::FromSpec(7, "site=admit.queue op=enter at=1");
  ServerQueue queue(options);
  const Status shed = queue.Enter();
  EXPECT_TRUE(shed.IsOverloaded()) << shed.ToString();
  EXPECT_NE(shed.ToString().find("injected"), std::string::npos);
  ASSERT_TRUE(queue.Enter().ok());
  queue.Exit();
}

// -------------------------------------------------------- AdmittingStore

TEST(AdmittingStoreTest, PassThroughBehavesLikeInner) {
  AdmittingStore store(std::make_shared<MemoryStore>());
  ASSERT_TRUE(store.PutString("k", "v").ok());
  EXPECT_EQ(*store.GetString("k"), "v");
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
  EXPECT_EQ(store.Name(), "memory+admit");
}

TEST(AdmittingStoreTest, ExpiredDeadlineFailsWithoutTouchingBackend) {
  SimulatedClock clock;
  auto inner = std::make_shared<AlwaysFailStore>(Status::Internal("reached"));
  AdmittingStore::Options options;
  options.clock = &clock;
  AdmittingStore store(inner, options);
  ScopedDeadline scope(Deadline::After(1'000, &clock));
  clock.Advance(2'000);
  const Status status = store.PutString("k", "v");
  EXPECT_TRUE(status.IsTimedOut()) << status.ToString();
  EXPECT_EQ(inner->calls(), 0);
}

TEST(AdmittingStoreTest, LateSuccessConvertsToTimedOut) {
  SimulatedClock clock;
  auto memory = std::make_shared<MemoryStore>();
  AdmittingStore::Options options;
  options.clock = &clock;
  AdmittingStore store(
      std::make_shared<SlowStore>(memory, &clock, 10'000'000), options);
  ScopedDeadline scope(Deadline::After(5'000'000, &clock));
  // The write lands (10ms backend, 5ms budget) but the caller has moved on:
  // the ack is withheld as TimedOut — the acknowledged-uncertain case.
  const Status status = store.PutString("k", "v");
  EXPECT_TRUE(status.IsTimedOut()) << status.ToString();
  EXPECT_EQ(*memory->GetString("k"), "v");
}

TEST(AdmittingStoreTest, RateLimitShedsWithOverloaded) {
  SimulatedClock clock;
  TokenBucket::Options bucket_options;
  bucket_options.rate_per_sec = 1.0;
  bucket_options.burst = 1.0;
  AdmittingStore::Options options;
  options.rate_limiter =
      std::make_shared<TokenBucket>(bucket_options, &clock);
  options.clock = &clock;
  AdmittingStore store(std::make_shared<MemoryStore>(), options);
  EXPECT_TRUE(store.PutString("a", "1").ok());
  const Status shed = store.PutString("b", "2");
  EXPECT_TRUE(shed.IsOverloaded()) << shed.ToString();
  clock.Advance(1'000'000'000);  // 1s refills one token
  EXPECT_TRUE(store.PutString("b", "2").ok());
}

TEST(AdmittingStoreTest, ConcurrencyLimitShedsWithOverloaded) {
  AdaptiveLimiter::Options limiter_options;
  limiter_options.initial_limit = 1;
  limiter_options.min_limit = 1;
  limiter_options.max_limit = 1;
  AdmittingStore::Options options;
  options.limiter = std::make_shared<AdaptiveLimiter>(limiter_options);
  AdmittingStore store(std::make_shared<MemoryStore>(), options);
  // Occupy the only slot from outside, as a concurrent operation would.
  ASSERT_TRUE(options.limiter->TryAcquire());
  const Status shed = store.PutString("k", "v");
  EXPECT_TRUE(shed.IsOverloaded()) << shed.ToString();
  options.limiter->Release(Status::OK());
  EXPECT_TRUE(store.PutString("k", "v").ok());
}

TEST(AdmittingStoreTest, SlowBackendFeedsLimiterAsOverload) {
  SimulatedClock clock;
  AdaptiveLimiter::Options limiter_options;
  limiter_options.initial_limit = 16;
  limiter_options.increase_per_success = 0;
  AdmittingStore::Options options;
  options.limiter = std::make_shared<AdaptiveLimiter>(limiter_options);
  options.clock = &clock;
  AdmittingStore store(
      std::make_shared<SlowStore>(std::make_shared<MemoryStore>(), &clock,
                                  10'000'000),
      options);
  ScopedDeadline scope(Deadline::After(5'000'000, &clock));
  EXPECT_TRUE(store.PutString("k", "v").IsTimedOut());
  // The late completion counted as an overload signal: AIMD halved.
  EXPECT_DOUBLE_EQ(options.limiter->limit(), 8.0);
}

// --------------------------------------------------- CircuitBreakerStore

TEST(CircuitBreakerStoreTest, OpensAndShortCircuitsFailingBackend) {
  auto inner = std::make_shared<AlwaysFailStore>(Status::Unavailable("down"));
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  CircuitBreakerStore store(inner, options);
  EXPECT_TRUE(store.Get("k").status().IsUnavailable());
  EXPECT_TRUE(store.Get("k").status().IsUnavailable());
  EXPECT_EQ(store.breaker()->state(), CircuitBreaker::State::kOpen);
  // Open: the backend sees no further traffic.
  EXPECT_TRUE(store.Get("k").status().IsOverloaded());
  EXPECT_TRUE(store.PutString("k", "v").IsOverloaded());
  EXPECT_EQ(inner->calls(), 2);
  EXPECT_EQ(store.Name(), "alwaysfail+breaker");
}

TEST(CircuitBreakerStoreTest, ApplicationErrorsNeverTrip) {
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  CircuitBreakerStore store(std::make_shared<MemoryStore>(), options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(store.Get("missing").status().IsNotFound());
  }
  EXPECT_EQ(store.breaker()->state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerStoreTest, RecoversThroughProbes) {
  SimulatedClock clock;
  auto memory = std::make_shared<MemoryStore>();
  CircuitBreaker::Options options;
  options.failure_threshold = 1;
  options.success_threshold = 1;
  options.open_nanos = 1'000'000;
  options.clock = &clock;
  CircuitBreakerStore store(memory, options);
  // Trip the breaker directly (as a stalled backend would), then advance
  // past the open window against the healthy store.
  store.breaker()->OnResult(Status::TimedOut("simulated backend stall"));
  ASSERT_EQ(store.breaker()->state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(store.Get("k").status().IsOverloaded());
  clock.Advance(1'000'000);
  // Half-open probe hits the healthy store; NotFound is an application
  // answer, i.e. a *successful* probe, and the circuit closes.
  EXPECT_TRUE(store.Get("k").status().IsNotFound());
  EXPECT_EQ(store.breaker()->state(), CircuitBreaker::State::kClosed);
}

// --------------------------------------------------------- Introspection

TEST(IntrospectionTest, RegistersAndUnregistersInOrder) {
  {
    admit::ScopedIntrospection first([] { return std::string("alpha"); });
    admit::ScopedIntrospection second([] { return std::string("beta"); });
    const std::string state = admit::DescribeAdmissionState();
    const auto alpha = state.find("alpha");
    const auto beta = state.find("beta");
    ASSERT_NE(alpha, std::string::npos);
    ASSERT_NE(beta, std::string::npos);
    EXPECT_LT(alpha, beta);
  }
  EXPECT_EQ(admit::DescribeAdmissionState(),
            "no admission components registered\n");
}

TEST(IntrospectionTest, StoreWrappersSelfRegister) {
  AdmittingStore::Options options;
  options.limiter = std::make_shared<AdaptiveLimiter>(
      AdaptiveLimiter::Options());
  AdmittingStore store(std::make_shared<MemoryStore>(), options);
  CircuitBreakerStore wrapped(std::make_shared<MemoryStore>());
  const std::string state = admit::DescribeAdmissionState();
  EXPECT_NE(state.find("memory+admit"), std::string::npos) << state;
  EXPECT_NE(state.find("state=closed"), std::string::npos) << state;
  EXPECT_NE(state.find("limit="), std::string::npos) << state;
}

}  // namespace
}  // namespace dstore
