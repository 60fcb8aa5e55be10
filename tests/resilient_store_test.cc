#include "store/resilient_store.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "fault/fault_store.h"
#include "obs/metrics.h"
#include "store/forwarding_store.h"
#include "store/memory_store.h"

namespace dstore {
namespace {

// A store that fails a fixed number of operations, then succeeds.
class FailNTimesStore : public WrappingStore {
 public:
  explicit FailNTimesStore(int failures)
      : WrappingStore(std::make_shared<MemoryStore>()), remaining_(failures) {}

  int remaining_ = 0;

 protected:
  Status Around(StoreOp, const OpCall& call) override {
    if (remaining_ <= 0) return call();
    --remaining_;
    return Status::Unavailable("temporary outage");
  }
};

RetryingStore::Options FastRetries(int attempts) {
  RetryingStore::Options options;
  options.max_attempts = attempts;
  options.initial_backoff_nanos = 1;  // effectively no waiting in tests
  return options;
}

TEST(RetryingStoreTest, SucceedsAfterTransientFailures) {
  auto flaky = std::make_shared<FailNTimesStore>(0);
  flaky->PutString("k", "v").ok();  // seed before arming failures
  flaky->remaining_ = 2;
  RetryingStore store(flaky, FastRetries(3));
  auto got = store.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(**got), "v");
  EXPECT_EQ(store.GetRetryStats().retries, 2u);
  EXPECT_EQ(store.GetRetryStats().exhausted, 0u);
}

TEST(RetryingStoreTest, GivesUpAfterMaxAttempts) {
  auto flaky = std::make_shared<FailNTimesStore>(100);
  RetryingStore store(flaky, FastRetries(3));
  EXPECT_TRUE(store.Get("k").status().IsUnavailable());
  EXPECT_EQ(store.GetRetryStats().retries, 2u);  // attempts 2 and 3
  EXPECT_EQ(store.GetRetryStats().exhausted, 1u);
}

TEST(RetryingStoreTest, DoesNotRetryNotFound) {
  auto inner = std::make_shared<MemoryStore>();
  RetryingStore store(inner, FastRetries(5));
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
  EXPECT_EQ(store.GetRetryStats().retries, 0u);
}

TEST(RetryingStoreTest, PutRetriesToo) {
  auto flaky = std::make_shared<FailNTimesStore>(1);
  RetryingStore store(flaky, FastRetries(2));
  ASSERT_TRUE(store.PutString("k", "v").ok());
  EXPECT_EQ(*store.GetString("k"), "v");
}

TEST(RetryingStoreTest, BackoffUsesClock) {
  auto flaky = std::make_shared<FailNTimesStore>(0);
  flaky->PutString("k", "v").ok();
  flaky->remaining_ = 2;
  SimulatedClock clock;
  RetryingStore::Options options;
  options.max_attempts = 3;
  options.initial_backoff_nanos = 1000;
  options.backoff_multiplier = 2.0;
  options.full_jitter = false;  // assert exact backoff values
  RetryingStore store(flaky, options, &clock);
  ASSERT_TRUE(store.Get("k").ok());
  // Slept 1000 then 2000 virtual nanos, and accounted for both.
  EXPECT_EQ(clock.NowNanos(), 3000);
  EXPECT_EQ(store.GetRetryStats().backoff_nanos, 3000u);
}

TEST(RetryingStoreTest, PublishesObsCounters) {
  // The obs counters are process-wide (labelled by inner store name), so
  // measure deltas against whatever earlier tests contributed.
  auto* registry = obs::MetricsRegistry::Default();
  const obs::Labels labels = {{"store", "memory"}};
  obs::Counter* retries =
      registry->GetCounter("dstore_retry_attempts_total", labels);
  obs::Counter* exhausted =
      registry->GetCounter("dstore_retry_exhausted_total", labels);
  obs::Counter* backoff =
      registry->GetCounter("dstore_retry_backoff_sleep_nanos_total", labels);
  const uint64_t retries0 = retries->Value();
  const uint64_t exhausted0 = exhausted->Value();
  const uint64_t backoff0 = backoff->Value();

  auto flaky = std::make_shared<FailNTimesStore>(100);
  SimulatedClock clock;
  RetryingStore::Options options;
  options.max_attempts = 3;
  options.initial_backoff_nanos = 500;
  options.backoff_multiplier = 2.0;
  options.full_jitter = false;  // assert exact backoff values
  RetryingStore store(flaky, options, &clock);
  EXPECT_TRUE(store.Get("k").status().IsUnavailable());

  EXPECT_EQ(retries->Value() - retries0, 2u);
  EXPECT_EQ(exhausted->Value() - exhausted0, 1u);
  EXPECT_EQ(backoff->Value() - backoff0, 1500u);  // 500 + 1000
  // The per-instance view agrees with the registry deltas.
  const RetryingStore::RetryStats stats = store.GetRetryStats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.exhausted, 1u);
  EXPECT_EQ(stats.backoff_nanos, 1500u);
}

TEST(RetryingStoreTest, NameShowsDecoration) {
  RetryingStore store(std::make_shared<MemoryStore>());
  EXPECT_EQ(store.Name(), "memory+retry");
}

// A FaultInjectingStore whose every operation fails with probability `p`.
std::shared_ptr<FaultInjectingStore> FailingStore(
    std::shared_ptr<KeyValueStore> inner, double p,
    fault::FaultKind kind = fault::FaultKind::kError) {
  auto plan = std::make_shared<fault::FaultPlan>(42);
  fault::FaultRule rule;
  rule.probability = p;
  rule.kind = kind;
  plan->AddRule(rule);
  return std::make_shared<FaultInjectingStore>(std::move(inner), plan);
}

TEST(FaultInjectingStoreTest, InjectsFailuresAtConfiguredRate) {
  auto inner = std::make_shared<MemoryStore>();
  inner->PutString("k", "v").ok();  // seed directly, bypassing fault injection
  auto store = FailingStore(inner, 0.5);
  int failures = 0;
  const int trials = 1000;
  for (int i = 0; i < trials; ++i) {
    if (!store->Get("k").ok()) ++failures;
  }
  EXPECT_NEAR(static_cast<double>(failures) / trials, 0.5, 0.08);
  EXPECT_GT(store->injected_failures(), 0u);
}

TEST(FaultInjectingStoreTest, ZeroProbabilityNeverFails) {
  auto store = FailingStore(std::make_shared<MemoryStore>(), 0.0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store->PutString("k", "v").ok());
    ASSERT_TRUE(store->Get("k").ok());
  }
  EXPECT_EQ(store->injected_failures(), 0u);
}

TEST(FaultInjectingStoreTest, FailAfterApplyStillWrites) {
  auto inner = std::make_shared<MemoryStore>();
  auto store = FailingStore(inner, 1.0, fault::FaultKind::kErrorAfterApply);
  // Client sees an error...
  EXPECT_TRUE(store->PutString("k", "v").IsUnavailable());
  // ...but the write landed (acknowledged-lost).
  EXPECT_EQ(*inner->GetString("k"), "v");
}

TEST(RetryingStoreTest, ConvergesOverInjectedFaults) {
  // The intended composition: a retrying client over an unreliable store.
  auto faulty = FailingStore(std::make_shared<MemoryStore>(), 0.3);
  RetryingStore store(faulty, FastRetries(10));
  int successes = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (store.PutString(key, "v").ok() && store.Get(key).ok()) ++successes;
  }
  // P(10 consecutive failures) = 0.3^10 ~ 6e-6 per op: all should succeed.
  EXPECT_EQ(successes, 200);
  EXPECT_GT(faulty->injected_failures(), 0u);
}

}  // namespace
}  // namespace dstore
