// Chaos soak for the replication subsystem: the seeded workload runs
// against a 3-replica primary-backup group (one replica is a real cloud
// server reached through the socket fault injector) while the primary is
// repeatedly killed and restarted mid-workload. The harness invariants —
// no acknowledged-write loss, read-your-writes — must hold through every
// failover, the final state must verify on every replica's backend after an
// anti-entropy pass, and same-seed runs must produce identical promotion
// traces. A third row races MultiGet against Put on a few hot keys while
// the primary fails over, under the harness's concurrent history checker.

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos_harness.h"
#include "common/clock.h"
#include "common/sync.h"
#include "fault/fault.h"
#include "net/latency_model.h"
#include "replica/group.h"
#include "replica/replicated_store.h"
#include "replica/session.h"
#include "replica/transport.h"
#include "store/cloud_client.h"
#include "store/cloud_server.h"
#include "store/forwarding_store.h"
#include "store/memory_store.h"
#include "store/resilient_store.h"

namespace dstore {
namespace {

using replica::ReplicaGroup;
using replica::ReplicatedStore;

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
  if (seeds.empty()) seeds = {1, 7, 23};
  return seeds;
}

constexpr char kNetFaultSpec[] =
    "site=net.connect p=0.04\n"
    "site=net.write p=0.02\n"
    "site=net.read p=0.02";

RetryingStore::Options FastRetries() {
  RetryingStore::Options options;
  options.max_attempts = 8;
  options.initial_backoff_nanos = 1000;  // 1 us; chaos must not be slow
  options.backoff_multiplier = 1.5;
  return options;
}

ReplicaGroup::Options GroupOptions() {
  ReplicaGroup::Options options;
  options.name = "chaos_replica";
  options.rejoin_probe_nanos = 1'000'000;   // 1 ms: rejoins mid-workload
  options.replicator_idle_nanos = 500'000;  // keep catch-up tight
  options.write_wait_nanos = 30'000'000'000;
  return options;
}

// The soak: two memory replicas plus one cloud replica behind socket
// faults. Between workload chunks the current primary is killed (MarkDown —
// exactly what the failure detector would conclude) and later restarted
// (Rejoin -> hinted-handoff replay); every chunk runs under a Session, so
// the harness's read-your-writes checks span each failover. Retries around
// the store absorb the transient unavailability of promotion windows — an
// acked write after retries is still a binding ack.
TEST(ReplicaChaosTest, PrimaryKillsLoseNoAckedWrite) {
  for (uint64_t seed : SeedMatrix()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto m0 = std::make_shared<MemoryStore>();
    auto m1 = std::make_shared<MemoryStore>();
    auto server = CloudStoreServer::Start(std::make_unique<NoLatency>());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CloudStoreClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    std::vector<ReplicaGroup::ReplicaSpec> specs;
    specs.push_back({"m0", std::make_shared<replica::LocalReplica>(m0)});
    specs.push_back({"m1", std::make_shared<replica::LocalReplica>(m1)});
    specs.push_back({"cloud", std::make_shared<replica::CloudReplica>(
                                  *std::move(client))});
    auto group = ReplicaGroup::Create(std::move(specs), GroupOptions());
    ASSERT_TRUE(group.ok()) << group.status().ToString();
    auto replicated = std::make_shared<ReplicatedStore>(
        std::shared_ptr<ReplicaGroup>(std::move(*group)));
    RetryingStore store(replicated, FastRetries());

    chaos::ChaosConfig config;
    config.seed = seed;
    config.ops = 500;
    chaos::ChaosWorkload workload(config);
    replica::Session session;
    replica::ScopedSession scoped_session(&session);

    auto net_plan = *fault::FaultPlan::FromSpec(seed + 100, kNetFaultSpec);
    uint64_t net_faults = 0;
    {
      fault::ScopedSocketFaultInjector scoped(
          std::make_shared<fault::PlanSocketFaultInjector>(net_plan));

      // Four kill/restart rounds: each kills the CURRENT primary (wherever
      // the last promotion put it), runs a chunk through the failover, then
      // restarts the dead node so handoff replays into it mid-workload.
      for (int round = 0; round < 4; ++round) {
        ASSERT_TRUE(workload.Run(&store).ok());
        const std::string victim = replicated->group()->primary_name();
        ASSERT_TRUE(replicated->group()->MarkDown(victim).ok());
        // Fire the failure detector's conclusion promptly; if no backup
        // currently holds every acked write this fails and the write path
        // promotes once a holder rejoins — never losing the write.
        (void)replicated->group()->Promote();
        ASSERT_TRUE(workload.Run(&store).ok());
        ASSERT_TRUE(replicated->group()->Rejoin(victim).ok());
      }
      ASSERT_TRUE(workload.Run(&store).ok());
      net_faults = net_plan->injected_total();
    }

    // Faults are gone; bring back anything still marked down (the socket
    // chaos may have downed the cloud replica moments ago) and drain until
    // every replica is up with zero lag, so final-state verification reads
    // fully-converged backends.
    bool drained = false;
    for (int attempt = 0; attempt < 500 && !drained; ++attempt) {
      for (const char* name : {"m0", "m1", "cloud"}) {
        (void)replicated->group()->Rejoin(name);
      }
      ASSERT_TRUE(
          replicated->group()->WaitForReplication(60'000'000'000).ok());
      drained = true;
      for (const auto& info : replicated->group()->GetStatus().replicas) {
        if (!info.up || info.lag != 0) drained = false;
      }
      if (!drained) RealClock::Default()->SleepFor(2'000'000);
    }
    ASSERT_TRUE(drained);

    // The group must actually have failed over, and the faulted transport
    // must actually have been exercised.
    EXPECT_GE(replicated->group()->epoch(), 2u)
        << replicated->group()->PromotionTrace();
    EXPECT_GT(net_faults, 0u);

    // An anti-entropy pass converges any fenced surplus on ex-primaries,
    // after which EVERY replica's backend must hold a final state the
    // acknowledged history allows — acked writes survived each failover.
    auto repair = replicated->group()->RepairPass();
    ASSERT_TRUE(repair.ok()) << repair.status().ToString();
    Status final = workload.VerifyFinalState(m0.get());
    ASSERT_TRUE(final.ok()) << final.ToString();
    final = workload.VerifyFinalState(m1.get());
    ASSERT_TRUE(final.ok()) << final.ToString();
    auto verify_client =
        CloudStoreClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(verify_client.ok());
    final = workload.VerifyFinalState(verify_client->get());
    ASSERT_TRUE(final.ok()) << final.ToString();
    (*server)->Stop();
  }
}

// Concurrent MultiGet and Put on four hot keys against a three-replica
// group (W=2, read repair on) while another thread keeps killing the
// primary, promoting the most caught-up backup and rejoining the victim.
// Every MultiGet result is held to the hot-key checks: no read from the
// future, no stale read past an acknowledged overwrite, no lost write.
TEST(ReplicaChaosTest, HotKeyMultiGetAndPutSurviveFailovers) {
  for (uint64_t seed : SeedMatrix()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<ReplicaGroup::ReplicaSpec> specs;
    for (int i = 0; i < 3; ++i) {
      specs.push_back({"r" + std::to_string(i),
                       std::make_shared<replica::LocalReplica>(
                           std::make_shared<MemoryStore>())});
    }
    auto group = ReplicaGroup::Create(std::move(specs), GroupOptions());
    ASSERT_TRUE(group.ok()) << group.status().ToString();
    auto replicated = std::make_shared<ReplicatedStore>(
        std::shared_ptr<ReplicaGroup>(std::move(*group)));
    RetryingStore store(replicated, FastRetries());

    std::atomic<bool> done{false};
    std::thread failovers([&] {
      while (!done.load()) {
        RealClock::Default()->SleepFor(2'000'000);
        const std::string victim = replicated->group()->primary_name();
        if (!replicated->group()->MarkDown(victim).ok()) continue;
        (void)replicated->group()->Promote();
        RealClock::Default()->SleepFor(2'000'000);
        (void)replicated->group()->Rejoin(victim);
      }
    });

    chaos::HotKeyConfig config;
    config.seed = seed;
    config.ops_per_client = 1500;
    chaos::HotKeyStats stats;
    const Status mix = chaos::RunHotKeyMix(&store, config, &stats);
    done.store(true);
    failovers.join();

    ASSERT_TRUE(mix.ok()) << mix.ToString() << "\n"
                          << replicated->group()->PromotionTrace();
    EXPECT_GT(stats.puts_acked, 0u);
    EXPECT_GT(stats.reads_checked, 0u);
    EXPECT_GE(replicated->group()->epoch(), 2u)
        << replicated->group()->PromotionTrace();
  }
}

// The hot-key checker itself: a store that keeps serving the first value
// ever written to each key must be caught once a later put is acknowledged.
class FirstWriteStore : public PerKeyStore {
 public:
  using PerKeyStore::PerKeyStore;
  Status Put(const std::string& key, ValuePtr value) override {
    MutexLock lock(mu_);
    first_.emplace(key, value);
    return inner()->Put(key, std::move(value));
  }
  StatusOr<ValuePtr> Get(const std::string& key) override {
    MutexLock lock(mu_);
    auto it = first_.find(key);
    if (it != first_.end()) return it->second;
    return inner()->Get(key);
  }

 private:
  Mutex mu_;
  std::map<std::string, ValuePtr> first_ GUARDED_BY(mu_);
};

TEST(ReplicaChaosTest, HotKeyCheckerCatchesStaleReads) {
  FirstWriteStore store(std::make_shared<MemoryStore>());
  chaos::HotKeyConfig config;
  config.ops_per_client = 1000;
  const Status mix = chaos::RunHotKeyMix(&store, config);
  ASSERT_FALSE(mix.ok());
  EXPECT_NE(mix.ToString().find("stale read"), std::string::npos)
      << mix.ToString();
}

// Quiescent determinism: with kills and restarts separated from workload
// chunks by WaitForReplication, two same-seed runs must produce identical
// workload histories and promotion traces.
struct DeterministicRun {
  uint64_t history_digest = 0;
  std::string promotion_trace;
};

DeterministicRun RunDeterministic(uint64_t seed) {
  std::vector<ReplicaGroup::ReplicaSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back({"r" + std::to_string(i),
                     std::make_shared<replica::LocalReplica>(
                         std::make_shared<MemoryStore>())});
  }
  auto group = ReplicaGroup::Create(std::move(specs), GroupOptions());
  EXPECT_TRUE(group.ok());
  ReplicatedStore store(std::shared_ptr<ReplicaGroup>(std::move(*group)));

  chaos::ChaosConfig config;
  config.seed = seed;
  config.ops = 400;
  chaos::ChaosWorkload workload(config);

  EXPECT_TRUE(workload.Run(&store).ok());
  EXPECT_TRUE(store.group()->WaitForReplication().ok());
  std::string victim = store.group()->primary_name();
  EXPECT_TRUE(store.group()->MarkDown(victim).ok());
  EXPECT_TRUE(store.group()->Promote().ok());
  EXPECT_TRUE(workload.Run(&store).ok());
  EXPECT_TRUE(store.group()->Rejoin(victim).ok());
  EXPECT_TRUE(store.group()->WaitForReplication().ok());
  EXPECT_TRUE(workload.Run(&store).ok());

  DeterministicRun run;
  run.history_digest = workload.HistoryDigest();
  run.promotion_trace = store.group()->PromotionTrace();
  return run;
}

TEST(ReplicaChaosTest, QuiescentFailoversAreSeedDeterministic) {
  for (uint64_t seed : SeedMatrix()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const DeterministicRun a = RunDeterministic(seed);
    const DeterministicRun b = RunDeterministic(seed);
    EXPECT_EQ(a.history_digest, b.history_digest);
    EXPECT_EQ(a.promotion_trace, b.promotion_trace)
        << "promotion traces diverged";
    EXPECT_FALSE(a.promotion_trace.empty());
  }
}

}  // namespace
}  // namespace dstore
