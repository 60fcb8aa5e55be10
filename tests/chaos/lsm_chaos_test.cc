// LSM chaos soak: the seeded workload runs against a deliberately
// undersized LsmStore so flushes and compactions race every operation,
// then crash/recover cycles hammer the WAL, SST, and manifest crash
// points. The invariants are the usual ones — no acknowledged-write loss,
// read-your-writes, values traceable to writes — plus LSM-specific checks
// that recovery leaves no temp litter and durable state survives every
// reopen. Failures replay with DSTORE_CHAOS_SEEDS=<seed>.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos_harness.h"
#include "common/random.h"
#include "fault/fault.h"
#include "fault/fault_store.h"
#include "store/lsm/format.h"
#include "store/lsm/lsm_store.h"

namespace dstore {
namespace {

std::vector<uint64_t> SeedMatrix() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("DSTORE_CHAOS_SEEDS")) {
    std::string token;
    for (const char* p = env;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!token.empty()) {
          seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
        }
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

// Tiny memtable + aggressive compaction: the 24-key workload forces
// hundreds of rotations, flushes, and L0->L1 compactions underneath the
// reads, instead of staying comfortably in memory.
lsm::LsmOptions ChurnOptions() {
  lsm::LsmOptions options;
  options.memtable_bytes = 2048;
  options.l0_compaction_trigger = 2;
  options.level_base_bytes = 16384;
  options.max_output_file_bytes = 8192;
  return options;
}

std::filesystem::path SoakDir(uint64_t seed, const char* phase) {
  return std::filesystem::temp_directory_path() /
         ("dstore_lsm_chaos_" + std::to_string(::getpid()) + "_" + phase +
          "_" + std::to_string(seed));
}

// Phase 1: the workload drives the bare store while the background thread
// churns; acknowledged state must survive quiescing AND a full reopen.
void RunChurnPhase(uint64_t seed) {
  SCOPED_TRACE("churn phase, seed=" + std::to_string(seed));
  const auto dir = SoakDir(seed, "churn");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  auto store = lsm::LsmStore::Open(dir, ChurnOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  chaos::ChaosConfig config;
  config.seed = seed;
  config.ops = 4000;
  chaos::ChaosWorkload workload(config);
  Status run = workload.Run(store->get());
  ASSERT_TRUE(run.ok()) << run.ToString();

  lsm::LsmStats stats = (*store)->GetStats();
  EXPECT_GT(stats.flushes, 2u) << "seed=" << seed;
  EXPECT_GT(stats.compactions, 0u) << "seed=" << seed;

  Status live = workload.VerifyFinalState(store->get());
  ASSERT_TRUE(live.ok()) << live.ToString();

  // Durability: only disk state survives the "process death".
  store->reset();
  auto reopened = lsm::LsmStore::Open(dir, ChurnOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Status durable = workload.VerifyFinalState(reopened->get());
  ASSERT_TRUE(durable.ok()) << durable.ToString();

  reopened->reset();
  std::filesystem::remove_all(dir, ec);
}

// Phase 2: the same workload through a FaultInjectingStore mixing
// transient errors and acknowledged-lost writes — the checker must keep
// its model consistent with a store whose writes sometimes half-land.
void RunFaultPhase(uint64_t seed) {
  SCOPED_TRACE("fault phase, seed=" + std::to_string(seed));
  const auto dir = SoakDir(seed, "fault");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  auto base = lsm::LsmStore::Open(dir, ChurnOptions());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto shared = std::shared_ptr<KeyValueStore>(std::move(*base));
  auto plan = *fault::FaultPlan::FromSpec(
      seed,
      "site=store op=put,get,delete,contains p=0.1 error=unavailable\n"
      "site=store op=put,delete p=0.05 kind=error_after_apply "
      "error=timedout");
  FaultInjectingStore faulted(shared, plan);

  chaos::ChaosConfig config;
  config.seed = seed + 1;
  config.ops = 3000;
  chaos::ChaosWorkload workload(config);
  Status run = workload.Run(&faulted);
  ASSERT_TRUE(run.ok()) << run.ToString() << "\ntrace:\n"
                        << plan->TraceString();
  EXPECT_GT(plan->injected_total(), 0u) << "seed=" << seed;

  // Acknowledged-lost writes are visible at the bottom of the stack.
  Status final = workload.VerifyFinalState(shared.get());
  ASSERT_TRUE(final.ok()) << final.ToString() << "\ntrace:\n"
                          << plan->TraceString();

  shared.reset();
  std::filesystem::remove_all(dir, ec);
}

// Phase 3: crash/recover cycles. Each cycle acknowledges a few writes,
// dies at a random LSM crash point (WAL, SST flush, or manifest publish),
// reopens from disk, and verifies every acknowledged write — across all
// cycles so far — is still exactly readable.
void RunCrashPhase(uint64_t seed) {
  SCOPED_TRACE("crash phase, seed=" + std::to_string(seed));
  const auto dir = SoakDir(seed, "crash");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const uint64_t crashes_before = fault::CrashesInjected();

  // WAL points crash a Put; the others crash the flush a Put forced.
  static constexpr const char* kWalPoints[] = {
      "lsm.wal.before_append", "lsm.wal.torn_append", "lsm.wal.before_fsync",
      "lsm.wal.after_fsync"};
  static constexpr const char* kMaintenancePoints[] = {
      "lsm.sst.torn_write",        "lsm.sst.before_rename",
      "lsm.manifest.torn_write",   "lsm.manifest.before_rename",
      "lsm.manifest.after_rename"};

  Random rng(seed ^ 0x15D5EED);
  int next_id = 0;
  std::vector<int> durable_ids;
  const auto value_for = [](int id) { return "value#" + std::to_string(id); };

  for (int cycle = 0; cycle < 16; ++cycle) {
    auto store = lsm::LsmStore::Open(dir, ChurnOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString()
                            << " cycle=" << cycle << " seed=" << seed;

    // A few acknowledged writes...
    const int acked = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < acked; ++i) {
      const int id = next_id++;
      ASSERT_TRUE(
          (*store)->PutString("crash-k" + std::to_string(id), value_for(id))
              .ok());
      durable_ids.push_back(id);
    }

    // ...then death at a random point on a durability path.
    if (rng.Uniform(2) == 0) {
      const char* point = kWalPoints[rng.Uniform(4)];
      SCOPED_TRACE(point);
      fault::ArmCrashPoint(point);
      const int crashed_id = next_id++;
      const Status crashed =
          (*store)->PutString("crash-k" + std::to_string(crashed_id),
                              value_for(crashed_id));
      fault::DisarmCrashPoints();
      ASSERT_FALSE(crashed.ok()) << point << " seed=" << seed;
      ASSERT_TRUE(fault::IsCrashStatus(crashed)) << crashed.ToString();
      if (std::string_view(point) == "lsm.wal.after_fsync") {
        durable_ids.push_back(crashed_id);  // durable despite the error
      }
    } else {
      const char* point = kMaintenancePoints[rng.Uniform(5)];
      SCOPED_TRACE(point);
      fault::ArmCrashPoint(point);
      const Status crashed = (*store)->Flush();
      fault::DisarmCrashPoints();
      // The acked writes are safe in the WAL whether or not the flush
      // completed before dying.
      ASSERT_FALSE(crashed.ok()) << point << " seed=" << seed;
      ASSERT_TRUE(fault::IsCrashStatus(crashed)) << crashed.ToString();
    }
    store->reset();  // process death: only disk state survives

    auto reopened = lsm::LsmStore::Open(dir, ChurnOptions());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString()
                               << " cycle=" << cycle << " seed=" << seed;
    for (int id : durable_ids) {
      auto got = (*reopened)->GetString("crash-k" + std::to_string(id));
      ASSERT_TRUE(got.ok()) << "durable write " << id << " lost, cycle="
                            << cycle << " seed=" << seed;
      ASSERT_EQ(*got, value_for(id)) << "cycle=" << cycle << " seed=" << seed;
    }
    // Recovery must clean all temp litter. Checked after reset() has joined
    // the background thread: the recovery flush can start a compaction whose
    // own NNNNNN.tmp is legitimately in flight until it publishes. A temp
    // left by Open, or by a shutdown that abandons its work, still fails.
    reopened->reset();
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      EXPECT_FALSE(lsm::IsTempFileName(entry.path().filename().string()))
          << "leftover temp after recovery: " << entry.path();
    }
  }

  EXPECT_GT(fault::CrashesInjected(), crashes_before) << "seed=" << seed;
  std::filesystem::remove_all(dir, ec);
}

TEST(LsmChaosTest, SeedMatrixSurvivesChurnFaultsAndCrashes) {
  for (uint64_t seed : SeedMatrix()) {
    fault::DisarmCrashPoints();
    RunChurnPhase(seed);
    if (::testing::Test::HasFatalFailure()) return;
    RunFaultPhase(seed);
    if (::testing::Test::HasFatalFailure()) return;
    RunCrashPhase(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace dstore
