// Unit tests for the replication subsystem (src/replica/): the group log
// (framing, durability, crash points), quorum writes, hinted handoff,
// promotion + epoch fencing (including split-brain across independent group
// handles over shared cloud replicas), read repair, anti-entropy, replica
// replacement, and read-your-writes sessions.

#include <sys/resource.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/hash.h"

#include "fault/fault.h"
#include "fault/fault_store.h"
#include "net/latency_model.h"
#include "obs/metrics.h"
#include "replica/group.h"
#include "replica/log.h"
#include "replica/placement.h"
#include "replica/replicated_store.h"
#include "replica/session.h"
#include "replica/transport.h"
#include "store/cloud_client.h"
#include "store/cloud_server.h"
#include "store/forwarding_store.h"
#include "store/memory_store.h"

namespace dstore {
namespace {

using replica::GroupLog;
using replica::LogEntry;
using replica::OpType;
using replica::ReplicaGroup;
using replica::ReplicatedStore;

std::filesystem::path FreshDir(const std::string& tag) {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dstore_replica_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter++));
  std::filesystem::create_directories(dir);
  return dir;
}

LogEntry MakePut(uint64_t seq, const std::string& key,
                 const std::string& value) {
  LogEntry entry;
  entry.seq = seq;
  entry.epoch = 1;
  entry.op = OpType::kPut;
  entry.key = key;
  entry.value = MakeValue(std::string_view(value));
  return entry;
}

// Fast-converging options for tests. The rejoin probe is pushed out past
// any test's lifetime so MarkDown sticks until an explicit Rejoin (which
// forces an immediate probe) — assertions about down replicas must not race
// the auto-rejoin path.
ReplicaGroup::Options FastOptions(const std::string& name) {
  ReplicaGroup::Options options;
  options.name = name;
  options.rejoin_probe_nanos = 600'000'000'000;  // 10 min: down stays down
  options.replicator_idle_nanos = 500'000;       // 0.5 ms
  options.write_wait_nanos = 5'000'000'000;      // 5 s bound
  return options;
}

struct TestGroup {
  std::vector<std::shared_ptr<MemoryStore>> backends;
  std::unique_ptr<ReplicaGroup> group;
};

TestGroup MakeGroup(int replicas, ReplicaGroup::Options options) {
  TestGroup tg;
  std::vector<ReplicaGroup::ReplicaSpec> specs;
  for (int i = 0; i < replicas; ++i) {
    auto backend = std::make_shared<MemoryStore>();
    tg.backends.push_back(backend);
    specs.push_back({"r" + std::to_string(i),
                     std::make_shared<replica::LocalReplica>(backend)});
  }
  auto group = ReplicaGroup::Create(std::move(specs), std::move(options));
  EXPECT_TRUE(group.ok()) << group.status().ToString();
  tg.group = *std::move(group);
  return tg;
}

// Rejoin only *requests* a probe; WaitForReplication drains live members.
// Tests that assert on a rejoining replica's backend must poll until the
// whole group is up with zero lag.
bool DrainConverged(ReplicaGroup* group) {
  for (int i = 0; i < 5000; ++i) {
    if (!group->WaitForReplication().ok()) return false;
    bool done = true;
    for (const auto& info : group->GetStatus().replicas) {
      if (!info.up || info.lag != 0) done = false;
    }
    if (done) return true;
    RealClock::Default()->SleepFor(1'000'000);
  }
  return false;
}

// A rule failing `limit` puts (0 = every put) with a transient error —
// models a backend that hiccups mid-apply.
fault::FaultRule FailPuts(uint64_t limit) {
  fault::FaultRule rule;
  rule.op = "put";
  rule.limit = limit;
  return rule;
}

uint64_t CounterValue(const std::string& name, const std::string& group) {
  return obs::MetricsRegistry::Default()
      ->GetCounter(name, {{"group", group}})
      ->Value();
}

// --- Log entry codec -------------------------------------------------------

TEST(ReplicaLogTest, EntryRoundTrips) {
  LogEntry put = MakePut(7, std::string("key\0with", 8) + "\xff" + "bytes",
                         "value");
  put.epoch = 3;
  auto decoded = replica::DecodeLogEntry(replica::EncodeLogEntry(put));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, 7u);
  EXPECT_EQ(decoded->epoch, 3u);
  EXPECT_EQ(decoded->op, OpType::kPut);
  EXPECT_EQ(decoded->key, put.key);
  EXPECT_EQ(ToString(*decoded->value), "value");

  LogEntry del;
  del.seq = 8;
  del.epoch = 3;
  del.op = OpType::kDelete;
  del.key = "gone";
  auto decoded_del = replica::DecodeLogEntry(replica::EncodeLogEntry(del));
  ASSERT_TRUE(decoded_del.ok());
  EXPECT_EQ(decoded_del->op, OpType::kDelete);
  EXPECT_EQ(decoded_del->value, nullptr);
}

// --- GroupLog (memory mode) ------------------------------------------------

TEST(ReplicaLogTest, AppendTruncateTrim) {
  GroupLog log("mem");
  EXPECT_EQ(log.last_seq(), 0u);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(log.Append(MakePut(seq, "k" + std::to_string(seq), "v")).ok());
  }
  // Sequence gaps are a caller bug and refused.
  EXPECT_FALSE(log.Append(MakePut(9, "gap", "v")).ok());
  EXPECT_EQ(log.last_seq(), 5u);
  EXPECT_EQ(log.size(), 5u);
  ASSERT_TRUE(log.EntryAt(3).has_value());
  EXPECT_EQ(log.EntryAt(3)->key, "k3");
  EXPECT_EQ(log.EntriesAfter(2, 10).size(), 3u);
  EXPECT_EQ(log.EntriesAfter(2, 2).size(), 2u);

  // Failover truncation drops the tail.
  ASSERT_TRUE(log.TruncateTo(3).ok());
  EXPECT_EQ(log.last_seq(), 3u);
  EXPECT_FALSE(log.EntryAt(4).has_value());

  // Retention trim drops the applied prefix.
  ASSERT_TRUE(log.TrimThrough(2).ok());
  EXPECT_EQ(log.base_seq(), 2u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_FALSE(log.EntryAt(2).has_value());
  EXPECT_TRUE(log.EntryAt(3).has_value());
}

// --- GroupLog (durable mode) -----------------------------------------------

TEST(ReplicaLogTest, DurableLogRecoversAndTruncatesTornTail) {
  const auto dir = FreshDir("log");
  {
    auto log = GroupLog::Open("g", dir);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(
          (*log)->Append(MakePut(seq, "k" + std::to_string(seq), "v")).ok());
    }
    ASSERT_TRUE((*log)->TrimThrough(1).ok());
  }
  // A torn tail (half a record) must be discarded on recovery, keeping the
  // complete prefix.
  {
    std::ofstream out(dir / "g.rlog", std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\xde\xad", 6);
  }
  {
    auto log = GroupLog::Open("g", dir);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*log)->base_seq(), 1u);
    EXPECT_EQ((*log)->last_seq(), 3u);
    EXPECT_EQ((*log)->EntryAt(2)->key, "k2");
    EXPECT_EQ((*log)->EntryAt(3)->key, "k3");
    // And the log keeps appending past the recovered tail.
    ASSERT_TRUE((*log)->Append(MakePut(4, "k4", "v")).ok());
  }
  auto log = GroupLog::Open("g", dir);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->last_seq(), 4u);
  std::filesystem::remove_all(dir);
}

TEST(ReplicaLogTest, CrashPointsModelDurabilityBoundaries) {
  struct Case {
    const char* point;
    bool survives;  // is the appended entry on disk after "reboot"?
  } cases[] = {
      {"replica.log.torn_append", false},
      {"replica.log.before_fsync", false},
      {"replica.log.after_fsync", true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.point);
    const auto dir = FreshDir("crash");
    {
      auto log = GroupLog::Open("g", dir);
      ASSERT_TRUE(log.ok());
      ASSERT_TRUE((*log)->Append(MakePut(1, "settled", "v")).ok());
      fault::ArmCrashPoint(c.point);
      const Status crashed = (*log)->Append(MakePut(2, "in-flight", "v"));
      fault::DisarmCrashPoints();
      EXPECT_TRUE(fault::IsCrashStatus(crashed)) << crashed.ToString();
      // The crashed instance is dead — recovery happens on reopen.
    }
    auto log = GroupLog::Open("g", dir);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*log)->EntryAt(1)->key, "settled");
    EXPECT_EQ((*log)->last_seq(), c.survives ? 2u : 1u);
    std::filesystem::remove_all(dir);
  }
}

TEST(ReplicaLogTest, FailedAppendRestoresDurableWatermark) {
  const auto dir = FreshDir("ioerr");
  auto log = GroupLog::Open("g", dir);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE((*log)->Append(MakePut(1, "k1", "v1")).ok());

  // Cap the file size a few bytes past the durable watermark so the next
  // append tears mid-record with a real write error (EFBIG) — the process
  // survives, unlike the crash points. SIGXFSZ must be ignored for write()
  // to report the error instead of killing the test.
  signal(SIGXFSZ, SIG_IGN);
  struct rlimit saved;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct rlimit capped = saved;
  capped.rlim_cur = std::filesystem::file_size(dir / "g.rlog") + 8;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  const Status failed =
      (*log)->Append(MakePut(2, "k2", std::string(4096, 'x')));
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  EXPECT_EQ((*log)->last_seq(), 1u);

  // The torn bytes were rolled back to the durable watermark: the retried
  // append lands cleanly, and recovery finds both records — no garbage in
  // between to truncate them away.
  ASSERT_TRUE((*log)->Append(MakePut(2, "k2", "v2")).ok());
  EXPECT_EQ((*log)->last_seq(), 2u);
  (*log).reset();
  auto reopened = GroupLog::Open("g", dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->last_seq(), 2u);
  EXPECT_EQ(ToString(*(*reopened)->EntryAt(2)->value), "v2");
  std::filesystem::remove_all(dir);
}

// Recorded at the byte-at-a-time CRC-32, before the slicing kernel.
constexpr size_t kGoldenLogBytes = 8248;
constexpr uint64_t kGoldenLogDigest = 13264549909951200514ull;

// The durable log's framing is its on-disk format: fixed appends (puts and a
// delete) and a trim, which rewrites the file, must leave the same bytes.
TEST(ReplicaLogTest, DurableLogBytesGolden) {
  const auto dir = FreshDir("golden");
  {
    auto log = GroupLog::Open("g", dir);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (uint64_t seq = 1; seq <= 40; ++seq) {
      LogEntry entry =
          MakePut(seq, "key-" + std::to_string(seq),
                  std::string(seq * 13, static_cast<char>('a' + seq % 26)));
      entry.epoch = 1 + seq / 16;
      if (seq % 9 == 0) {
        entry.op = OpType::kDelete;
        entry.value = nullptr;
      }
      ASSERT_TRUE((*log)->Append(entry).ok());
    }
    ASSERT_TRUE((*log)->TrimThrough(17).ok());
    for (uint64_t seq = 41; seq <= 45; ++seq) {
      ASSERT_TRUE((*log)->Append(MakePut(seq, "tail", "after-trim")).ok());
    }
  }
  std::ifstream in(dir / "g.rlog", std::ios::binary);
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(contents.size(), kGoldenLogBytes);
  EXPECT_EQ(Mix64(Fnv1a64(contents)), kGoldenLogDigest);
  std::filesystem::remove_all(dir);
}

// --- Quorum writes ---------------------------------------------------------

TEST(ReplicaGroupTest, WriteAcksAtQuorumAndConvergesEverywhere) {
  TestGroup tg = MakeGroup(3, FastOptions("t_quorum"));
  auto store = std::make_shared<ReplicatedStore>(
      std::shared_ptr<ReplicaGroup>(std::move(tg.group)));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        store->PutString("k" + std::to_string(i), "v" + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE(store->Delete("k0").ok());
  EXPECT_EQ(*store->GetString("k1"), "v1");
  EXPECT_EQ(*store->Count(), 9u);
  ASSERT_TRUE(store->group()->WaitForReplication().ok());
  for (const auto& backend : tg.backends) {
    EXPECT_EQ(*backend->Count(), 9u);
    EXPECT_EQ(*backend->GetString("k5"), "v5");
    EXPECT_TRUE(backend->Get("k0").status().IsNotFound());
  }
  EXPECT_EQ(store->Name(), "replicated(t_quorum,r0,r1,r2)");
}

TEST(ReplicaGroupTest, WriteFailsFastWhenQuorumInfeasible) {
  TestGroup tg = MakeGroup(3, FastOptions("t_noquorum"));
  ASSERT_TRUE(tg.group->MarkDown("r1").ok());
  ASSERT_TRUE(tg.group->MarkDown("r2").ok());
  const auto result =
      tg.group->Write(OpType::kPut, "k", MakeValue(std::string_view("v")));
  ASSERT_FALSE(result.ok());
  // Feasibility is checked before the log append: no timeout, no entry.
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  EXPECT_EQ(tg.group->log()->last_seq(), 0u);
}

// The paper's write concerns over a group whose third replica fails every
// put: "one" (W=1) and "quorum" (W=2) ack, "all" (W=3) does not.
TEST(ReplicaGroupTest, WriteConcernsMapToWriteQuorum) {
  for (int quorum = 1; quorum <= 3; ++quorum) {
    auto plan = std::make_shared<fault::FaultPlan>(42);
    plan->AddRule(FailPuts(0));
    ReplicaGroup::Options options =
        FastOptions("t_concern" + std::to_string(quorum));
    options.write_quorum = quorum;
    options.write_wait_nanos = 200'000'000;
    auto store = ReplicatedStore::Create(
        {{"r0", std::make_shared<MemoryStore>()},
         {"r1", std::make_shared<MemoryStore>()},
         {"r2", std::make_shared<FaultInjectingStore>(
                    std::make_shared<MemoryStore>(), plan)}},
        options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->PutString("k", "v").ok(), quorum < 3)
        << "W=" << quorum;
  }
}

TEST(ReplicaGroupTest, NullPutValueRejected) {
  TestGroup tg = MakeGroup(3, FastOptions("t_null"));
  EXPECT_TRUE(
      tg.group->Write(OpType::kPut, "k", nullptr).status().IsInvalidArgument());
}

// --- Hinted handoff --------------------------------------------------------

TEST(ReplicaGroupTest, HintedHandoffReplaysToRejoiningReplica) {
  TestGroup tg = MakeGroup(3, FastOptions("t_handoff"));
  const uint64_t replayed_before =
      CounterValue("dstore_replica_handoff_replayed_total", "t_handoff");
  ASSERT_TRUE(tg.group->MarkDown("r2").ok());
  auto store = std::make_shared<ReplicatedStore>(
      std::shared_ptr<ReplicaGroup>(std::move(tg.group)));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store->PutString("k" + std::to_string(i), "v").ok());
  }
  // The down replica pins its replay suffix as hints.
  auto status = store->group()->GetStatus();
  uint64_t hints = 0;
  for (const auto& info : status.replicas) {
    if (info.name == "r2") {
      EXPECT_FALSE(info.up);
      hints = info.hints;
    }
  }
  EXPECT_EQ(hints, 8u);
  EXPECT_EQ(*tg.backends[2]->Count(), 0u);

  ASSERT_TRUE(store->group()->Rejoin("r2").ok());
  ASSERT_TRUE(DrainConverged(store->group()));
  EXPECT_EQ(*tg.backends[2]->Count(), 8u);
  EXPECT_EQ(
      CounterValue("dstore_replica_handoff_replayed_total", "t_handoff") -
          replayed_before,
      8u);
  status = store->group()->GetStatus();
  for (const auto& info : status.replicas) {
    EXPECT_TRUE(info.up) << info.name;
    EXPECT_EQ(info.lag, 0u) << info.name;
  }
}

// --- Promotion and fencing -------------------------------------------------

TEST(ReplicaGroupTest, PromotionFencesTheDeposedPrimary) {
  std::vector<std::shared_ptr<replica::LocalReplica>> transports;
  std::vector<ReplicaGroup::ReplicaSpec> specs;
  for (int i = 0; i < 3; ++i) {
    auto transport =
        std::make_shared<replica::LocalReplica>(std::make_shared<MemoryStore>());
    transports.push_back(transport);
    specs.push_back({"r" + std::to_string(i), transport});
  }
  auto group = ReplicaGroup::Create(specs, FastOptions("t_fence"));
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(
      (*group)->Write(OpType::kPut, "a", MakeValue(std::string_view("1"))).ok());
  ASSERT_TRUE((*group)->WaitForReplication().ok());
  EXPECT_EQ((*group)->epoch(), 1u);

  ASSERT_TRUE((*group)->Promote("r1").ok());
  EXPECT_EQ((*group)->epoch(), 2u);
  EXPECT_EQ((*group)->primary_name(), "r1");
  EXPECT_EQ((*group)->PromotionTrace(),
            "promote to=r1 epoch=2 applied=1 reason=manual\n");

  // A late write from the deposed primary's term carries the old epoch and
  // every fenced replica refuses it — with a non-transient status, so no
  // retry loop or second failover fires on its behalf.
  const Status late = transports[2]->Apply(MakePut(2, "late", "x"), 1);
  EXPECT_TRUE(IsFenced(late)) << late.ToString();
  EXPECT_FALSE(late.ok());

  // The group itself keeps writing under the new epoch.
  ASSERT_TRUE(
      (*group)->Write(OpType::kPut, "b", MakeValue(std::string_view("2"))).ok());
}

// A store whose first Put parks until released: it holds an apply in flight.
class ParkingStore : public ForwardingStore {
 public:
  ParkingStore() : ForwardingStore(std::make_shared<MemoryStore>()) {}
  Status Put(const std::string& key, ValuePtr value) override {
    if (!parked_.exchange(true)) {
      entered_.store(true);
      while (!release_.load()) std::this_thread::yield();
    }
    return inner()->Put(key, std::move(value));
  }
  std::atomic<bool> entered_{false};
  std::atomic<bool> release_{false};

 private:
  std::atomic<bool> parked_{false};
};

// Across a promotion one replica can see two applies at once: the
// replicator's apply of a deposed epoch's entry is still in flight when the
// replica, now primary, is fenced and takes the new epoch's write to the
// same key. The late apply must not land on top of the newer write.
TEST(ReplicaTransportTest, FenceOrdersAnInFlightApply) {
  auto store = std::make_shared<ParkingStore>();
  replica::LocalReplica replica(store);
  std::thread old_apply([&] {
    (void)replica.Apply(MakePut(1, "k", "old"), /*epoch=*/1);
  });
  while (!store->entered_.load()) std::this_thread::yield();
  std::thread new_term([&] {
    ASSERT_TRUE(replica.Fence(/*epoch=*/2, /*max_applied=*/0).ok());
    ASSERT_TRUE(replica.Apply(MakePut(1, "k", "new"), /*epoch=*/2).ok());
  });
  // Give the new term every chance to run ahead of the parked apply.
  RealClock::Default()->SleepFor(20'000'000);
  store->release_.store(true);
  old_apply.join();
  new_term.join();
  EXPECT_EQ(*store->GetString("k"), "new");
}

// A failed inline primary apply must leave a hole the replicator backfills
// in order — never a watermark that jumps the gap and claims history the
// primary's backend does not hold.
TEST(ReplicaGroupTest, FailedPrimaryApplyIsBackfilledNotSkipped) {
  auto flaky_backend = std::make_shared<MemoryStore>();
  auto plan = std::make_shared<fault::FaultPlan>(42);
  std::vector<ReplicaGroup::ReplicaSpec> specs;
  specs.push_back({"r0", std::make_shared<replica::LocalReplica>(
                             std::make_shared<FaultInjectingStore>(
                                 flaky_backend, plan))});
  std::vector<std::shared_ptr<MemoryStore>> backends = {flaky_backend};
  for (int i = 1; i < 3; ++i) {
    auto backend = std::make_shared<MemoryStore>();
    backends.push_back(backend);
    specs.push_back({"r" + std::to_string(i),
                     std::make_shared<replica::LocalReplica>(backend)});
  }
  auto group = ReplicaGroup::Create(specs, FastOptions("t_backfill"));
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(
      (*group)->Write(OpType::kPut, "k1", MakeValue(std::string_view("v1")))
          .ok());

  // One transient backend hiccup: the write surfaces an error (uncertain —
  // the entry is logged and the backups hold it) and the primary is left
  // with a hole at seq 2.
  plan->AddRule(FailPuts(1));
  const auto failed =
      (*group)->Write(OpType::kPut, "k2", MakeValue(std::string_view("v2")));
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ((*group)->log()->last_seq(), 2u);

  ASSERT_TRUE(
      (*group)->Write(OpType::kPut, "k3", MakeValue(std::string_view("v3")))
          .ok());
  ASSERT_TRUE(DrainConverged(group->get()));
  // The replicator filled the hole in order: the primary's backend really
  // holds k2, and anti-entropy finds nothing to mop up (with a jumped
  // watermark it would instead "repair" k2 *away* from the backups).
  EXPECT_EQ(*flaky_backend->GetString("k2"), "v2");
  EXPECT_EQ(*flaky_backend->GetString("k3"), "v3");
  auto stats = (*group)->RepairPass();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->keys_repaired, 0u);
  // A single hiccup is below failover_after: no promotion fired.
  EXPECT_EQ((*group)->primary_name(), "r0");
  EXPECT_EQ((*group)->epoch(), 1u);
}

// A deposed primary that was down during the promotion (so it missed the
// fence) rejoins with a self-reported watermark that counts its truncated
// old-epoch tail. The group must not trust it: clamp to its own last-known
// mark, fence, and re-replay the new history over the divergence.
TEST(ReplicaGroupTest, StaleEpochRejoinerIsFencedAndClamped) {
  std::vector<std::shared_ptr<MemoryStore>> backends;
  std::vector<std::shared_ptr<replica::LocalReplica>> transports;
  std::vector<ReplicaGroup::ReplicaSpec> specs;
  for (int i = 0; i < 3; ++i) {
    auto backend = std::make_shared<MemoryStore>();
    auto transport = std::make_shared<replica::LocalReplica>(backend);
    backends.push_back(backend);
    transports.push_back(transport);
    specs.push_back({"r" + std::to_string(i), transport});
  }
  auto group = ReplicaGroup::Create(specs, FastOptions("t_stale"));
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(
      (*group)->Write(OpType::kPut, "a", MakeValue(std::string_view("acked")))
          .ok());
  ASSERT_TRUE((*group)->WaitForReplication().ok());

  // The primary dies unfenced and, in its dying moments, applies an
  // old-epoch seq-2 entry the new history will never contain.
  ASSERT_TRUE((*group)->MarkDown("r0").ok());
  ASSERT_TRUE((*group)->Promote("r1").ok());
  ASSERT_TRUE(transports[0]->Apply(MakePut(2, "a", "divergent"), 1).ok());

  // The new primary writes its own seq 2 under epoch 2.
  ASSERT_TRUE(
      (*group)
          ->Write(OpType::kPut, "a", MakeValue(std::string_view("current")))
          .ok());

  // Rejoin: the probe answers applied=2 at the stale epoch. Trusting it
  // would skip replay entirely and leave the divergent value serving reads.
  ASSERT_TRUE((*group)->Rejoin("r0").ok());
  ASSERT_TRUE(DrainConverged(group->get()));
  EXPECT_EQ(*backends[0]->GetString("a"), "current");
  // And the rejoiner is fenced now: stale-epoch traffic is refused.
  const Status late = transports[0]->Apply(MakePut(3, "late", "x"), 1);
  EXPECT_TRUE(IsFenced(late)) << late.ToString();
}

// The quorum-wait deadline must live on the injected clock: a write stuck
// behind backups that never ack times out when *simulated* time passes —
// ten simulated minutes in one Advance, a fraction of a real second. A
// real-clock deadline would block here for ten real minutes.
TEST(ReplicaGroupTest, WriteDeadlinesUseInjectedClock) {
  SimulatedClock clock;
  ReplicaGroup::Options options = FastOptions("t_simclock");
  options.clock = &clock;
  options.down_after = 1'000'000;              // failing backups stay up
  options.write_wait_nanos = 600'000'000'000;  // 10 simulated minutes

  std::vector<ReplicaGroup::ReplicaSpec> specs;
  specs.push_back({"r0", std::make_shared<replica::LocalReplica>(
                             std::make_shared<MemoryStore>())});
  for (int i = 1; i < 3; ++i) {
    auto plan = std::make_shared<fault::FaultPlan>(42);
    plan->AddRule(FailPuts(0));
    specs.push_back({"r" + std::to_string(i),
                     std::make_shared<replica::LocalReplica>(
                         std::make_shared<FaultInjectingStore>(
                             std::make_shared<MemoryStore>(), plan))});
  }
  auto group = ReplicaGroup::Create(specs, options);
  ASSERT_TRUE(group.ok());

  std::thread advancer([&] {
    RealClock::Default()->SleepFor(100'000'000);  // let the write block
    clock.Advance(601'000'000'000);
  });
  const auto result =
      (*group)->Write(OpType::kPut, "k", MakeValue(std::string_view("v")));
  advancer.join();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimedOut()) << result.status().ToString();
}

TEST(ReplicaGroupTest, AutoPromoteOnDeadPrimaryKeepsAckedWrites) {
  TestGroup tg = MakeGroup(3, FastOptions("t_failover"));
  auto store = std::make_shared<ReplicatedStore>(
      std::shared_ptr<ReplicaGroup>(std::move(tg.group)));
  ASSERT_TRUE(store->PutString("before", "v").ok());
  ASSERT_TRUE(store->group()->MarkDown("r0").ok());

  // The next write promotes a backup and lands under the new epoch; the
  // acked write survives because W=2 put it on at least one backup.
  ASSERT_TRUE(store->PutString("after", "v").ok());
  EXPECT_EQ(store->group()->epoch(), 2u);
  EXPECT_NE(store->group()->primary_name(), "r0");
  EXPECT_EQ(*store->GetString("before"), "v");
  EXPECT_EQ(*store->GetString("after"), "v");
}

// Two independent group handles over the same cloud-hosted replicas: the
// second handle's promotion must fence the first handle's writes even
// though they share no in-process state (epoch/applied live server-side).
TEST(ReplicaGroupTest, SplitBrainWritesAreFencedAcrossHandles) {
  std::vector<std::unique_ptr<CloudStoreServer>> servers;
  for (int i = 0; i < 3; ++i) {
    auto server = CloudStoreServer::Start(std::make_unique<NoLatency>());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    servers.push_back(*std::move(server));
  }
  auto make_specs = [&]() {
    std::vector<ReplicaGroup::ReplicaSpec> specs;
    for (int i = 0; i < 3; ++i) {
      auto client = CloudStoreClient::Connect("127.0.0.1", servers[i]->port());
      EXPECT_TRUE(client.ok());
      specs.push_back(
          {"c" + std::to_string(i),
           std::make_shared<replica::CloudReplica>(*std::move(client))});
    }
    return specs;
  };
  auto old_handle = ReplicaGroup::Create(make_specs(), FastOptions("t_split"));
  ASSERT_TRUE(old_handle.ok());
  ASSERT_TRUE((*old_handle)
                  ->Write(OpType::kPut, "k", MakeValue(std::string_view("1")))
                  .ok());
  ASSERT_TRUE((*old_handle)->WaitForReplication().ok());

  // A second handle (a partitioned operator's view) promotes c1.
  auto new_handle = ReplicaGroup::Create(make_specs(), FastOptions("t_split2"));
  ASSERT_TRUE(new_handle.ok());
  ASSERT_TRUE((*new_handle)->Promote("c1").ok());

  // The old handle still believes epoch 1; its next write reaches a fenced
  // replica and is refused rather than silently diverging the group.
  const auto result = (*old_handle)
                          ->Write(OpType::kPut, "late",
                                  MakeValue(std::string_view("2")));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsFenced(result.status())) << result.status().ToString();
  for (auto& server : servers) server->Stop();
}

// One scripted apply/fence sequence, rendered one line per step: the
// result (ok / fenced) and the replica state and contents after it.
std::vector<std::string> RunFenceScript(replica::ReplicaTransport* t) {
  std::vector<std::string> lines;
  auto record = [&](const std::string& step, const Status& status) {
    auto state = t->Probe();
    if (!state.ok()) {
      lines.push_back(step + " -> probe failed");
      return;
    }
    auto k1 = t->store()->GetString("k1");
    auto k2 = t->store()->GetString("k2");
    lines.push_back(
        step + " -> " +
        (status.ok() ? "ok" : IsFenced(status) ? "fenced" : "error") +
        " state=" + std::to_string(state->epoch) + "/" +
        std::to_string(state->applied) + " k1=" + (k1.ok() ? *k1 : "-") +
        " k2=" + (k2.ok() ? *k2 : "-"));
  };
  auto apply = [&](uint64_t seq, const std::string& key,
                   const std::string& value, uint64_t epoch) {
    record("apply " + std::to_string(seq) + "@" + std::to_string(epoch),
           t->Apply(MakePut(seq, key, value), epoch));
  };
  apply(1, "k1", "a", 1);
  apply(2, "k2", "b", 1);
  apply(1, "k1", "replayed", 1);  // at the watermark: a no-op
  record("fence 2 cap 1", t->Fence(2, 1));
  apply(3, "k1", "stale", 1);               // deposed epoch: refused
  record("fence 1 cap 0", t->Fence(1, 0));  // stale: state unchanged
  apply(2, "k2", "c", 2);                   // above the cap: applied again
  LogEntry del = MakePut(3, "k1", "");
  del.op = OpType::kDelete;
  record("delete 3@3", t->Apply(del, 3));
  return lines;
}

// LocalReplica and CloudReplica enforce one fence/apply rule: the same
// script gives the same results and the same state over both transports.
TEST(ReplicaTransportTest, LocalAndCloudFenceIdentically) {
  replica::LocalReplica local(std::make_shared<MemoryStore>());
  auto server = CloudStoreServer::Start(std::make_unique<NoLatency>());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = CloudStoreClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  replica::CloudReplica cloud(*std::move(client));

  const std::vector<std::string> expected = {
      "apply 1@1 -> ok state=1/1 k1=a k2=-",
      "apply 2@1 -> ok state=1/2 k1=a k2=b",
      "apply 1@1 -> ok state=1/2 k1=a k2=b",
      "fence 2 cap 1 -> ok state=2/1 k1=a k2=b",
      "apply 3@1 -> fenced state=2/1 k1=a k2=b",
      "fence 1 cap 0 -> fenced state=2/1 k1=a k2=b",
      "apply 2@2 -> ok state=2/2 k1=a k2=c",
      "delete 3@3 -> ok state=3/3 k1=- k2=c",
  };
  EXPECT_EQ(RunFenceScript(&local), expected);
  EXPECT_EQ(RunFenceScript(&cloud), expected);
  (*server)->Stop();
}

// --- Read repair and anti-entropy ------------------------------------------

TEST(ReplicaGroupTest, ReadCountsDivergenceRepairPassConverges) {
  ReplicaGroup::Options options = FastOptions("t_readrepair");
  const uint64_t repaired_before =
      CounterValue("dstore_replica_read_repair_total", "t_readrepair");
  TestGroup tg = MakeGroup(3, options);
  auto store = std::make_shared<ReplicatedStore>(
      std::shared_ptr<ReplicaGroup>(std::move(tg.group)));
  ASSERT_TRUE(store->PutString("k", "good").ok());
  ASSERT_TRUE(store->group()->WaitForReplication().ok());

  // Silently corrupt the first backup behind the group's back. The read
  // compare counts it but does not write; RepairPass is the one fixer.
  ASSERT_TRUE(tg.backends[1]->PutString("k", "corrupt").ok());
  EXPECT_EQ(*store->GetString("k"), "good");
  EXPECT_GT(CounterValue("dstore_replica_read_repair_total", "t_readrepair"),
            repaired_before);
  EXPECT_EQ(*tg.backends[1]->GetString("k"), "corrupt");
  ASSERT_TRUE(store->group()->RepairPass().ok());
  EXPECT_EQ(*tg.backends[1]->GetString("k"), "good");
}

// Holds one armed Get, after it has read its value, until released.
class HeldGetStore : public WrappingStore {
 public:
  using WrappingStore::WrappingStore;
  std::atomic<bool> armed{false}, holding{false}, released{false};

 protected:
  Status Around(StoreOp op, const OpCall& call) override {
    Status status = call();
    if (op == StoreOp::kGet && armed.exchange(false)) {
      for (holding = true; !released;) RealClock::Default()->SleepFor(100'000);
    }
    return status;
  }
};

// A read must never write. The primary (the read's authority) reads "old";
// then "new" lands on every replica before the peer is read. Rewriting the
// "divergent" peer would put "old" back under a watermark that already
// covers "new", and promoting it would lose an acknowledged write.
TEST(ReplicaGroupTest, ReadNeverUndoesANewerWrite) {
  auto primary =
      std::make_shared<HeldGetStore>(std::make_shared<MemoryStore>());
  auto peer = std::make_shared<MemoryStore>();
  std::vector<ReplicaGroup::ReplicaSpec> specs = {
      {"r0", std::make_shared<replica::LocalReplica>(primary)},
      {"r1", std::make_shared<replica::LocalReplica>(peer)},
      {"r2", std::make_shared<replica::LocalReplica>(
                 std::make_shared<MemoryStore>())}};
  auto group = ReplicaGroup::Create(specs, FastOptions("t_readrace"));
  ASSERT_TRUE(group.ok());
  auto write = [&](const char* value) {
    ASSERT_TRUE((*group)->Write(OpType::kPut, "k", MakeValue(value)).ok());
    ASSERT_TRUE((*group)->WaitForReplication().ok());
  };
  write("old");
  primary->armed = true;
  std::thread reader([&] { EXPECT_TRUE((*group)->Read("k", 0).ok()); });
  while (!primary->holding) RealClock::Default()->SleepFor(100'000);
  write("new");
  primary->released = true;
  reader.join();

  EXPECT_EQ(*peer->GetString("k"), "new");
  ASSERT_TRUE((*group)->Promote("r1").ok());
  auto read = (*group)->Read("k", 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(**read), "new");
}

TEST(ReplicaGroupTest, AntiEntropyConvergesSilentDivergence) {
  const uint64_t repaired_before =
      CounterValue("dstore_replica_repair_total", "t_antientropy");
  TestGroup tg = MakeGroup(3, FastOptions("t_antientropy"));
  auto store = std::make_shared<ReplicatedStore>(
      std::shared_ptr<ReplicaGroup>(std::move(tg.group)));
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(store->PutString("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(store->group()->WaitForReplication().ok());

  // Diverge a backup directly: one overwritten value, one surplus key.
  ASSERT_TRUE(tg.backends[2]->PutString("k3", "divergent").ok());
  ASSERT_TRUE(tg.backends[2]->PutString("ghost", "surplus").ok());

  auto stats = store->group()->RepairPass();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->replicas_checked, 2u);
  EXPECT_GE(stats->buckets_diverged, 1u);
  EXPECT_EQ(stats->keys_repaired, 2u);
  EXPECT_EQ(
      CounterValue("dstore_replica_repair_total", "t_antientropy") -
          repaired_before,
      2u);
  EXPECT_EQ(*tg.backends[2]->GetString("k3"), "v");
  EXPECT_TRUE(tg.backends[2]->Get("ghost").status().IsNotFound());

  // A converged group has nothing to repair.
  auto again = store->group()->RepairPass();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->keys_repaired, 0u);
}

// --- Replica replacement ---------------------------------------------------

TEST(ReplicaGroupTest, ReplaceReplicaBootstrapsPastTrimmedLog) {
  ReplicaGroup::Options options = FastOptions("t_replace");
  options.trim_batch = 1;  // trim aggressively so the replay suffix is gone
  TestGroup tg = MakeGroup(3, options);
  auto store = std::make_shared<ReplicatedStore>(
      std::shared_ptr<ReplicaGroup>(std::move(tg.group)));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store->PutString("k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(store->group()->WaitForReplication().ok());
  ASSERT_GT(store->group()->log()->base_seq(), 0u);

  // r1's node is replaced by an empty one: its applied watermark (0) is
  // below the log's base, so replay alone cannot catch it up — the group
  // must bootstrap-copy the primary's state first.
  auto fresh = std::make_shared<MemoryStore>();
  ASSERT_TRUE(store->group()
                  ->ReplaceReplica(
                      "r1", std::make_shared<replica::LocalReplica>(fresh))
                  .ok());
  ASSERT_TRUE(store->group()->WaitForReplication().ok());
  EXPECT_EQ(*fresh->Count(), 6u);
  EXPECT_EQ(*fresh->GetString("k5"), "v");

  EXPECT_TRUE(store->group()
                  ->ReplaceReplica("nosuch",
                                   std::make_shared<replica::LocalReplica>(
                                       std::make_shared<MemoryStore>()))
                  .IsNotFound());
}

// --- Sessions (read-your-writes) -------------------------------------------

TEST(ReplicaSessionTest, ScopedSessionNestsAndRestores) {
  EXPECT_EQ(replica::CurrentSession(), nullptr);
  replica::Session outer, inner;
  {
    replica::ScopedSession a(&outer);
    EXPECT_EQ(replica::CurrentSession(), &outer);
    {
      replica::ScopedSession b(&inner);
      EXPECT_EQ(replica::CurrentSession(), &inner);
    }
    EXPECT_EQ(replica::CurrentSession(), &outer);
  }
  EXPECT_EQ(replica::CurrentSession(), nullptr);

  outer.NoteWrite("g", 5);
  outer.NoteWrite("g", 3);  // marks are monotonic
  outer.NoteWrite("h", 1);
  EXPECT_EQ(outer.HighWaterFor("g"), 5u);
  EXPECT_EQ(outer.HighWaterFor("unknown"), 0u);
  EXPECT_EQ(outer.Describe(), "g=5 h=1");
}

TEST(ReplicaSessionTest, ReadYourWritesSurvivesFailover) {
  TestGroup tg = MakeGroup(3, FastOptions("t_ryw"));
  auto store = std::make_shared<ReplicatedStore>(
      std::shared_ptr<ReplicaGroup>(std::move(tg.group)));
  replica::Session session;
  replica::ScopedSession scope(&session);
  ASSERT_TRUE(store->PutString("mine", "v1").ok());
  EXPECT_GT(session.HighWaterFor("t_ryw"), 0u);

  // Kill the primary. The session's high-water mark gates reads to replicas
  // that hold the acked write — which exist because W=2.
  ASSERT_TRUE(store->group()->MarkDown("r0").ok());
  EXPECT_EQ(*store->GetString("mine"), "v1");

  // And across an actual promotion (triggered by the next write).
  ASSERT_TRUE(store->PutString("mine", "v2").ok());
  EXPECT_GE(store->group()->epoch(), 2u);
  EXPECT_EQ(*store->GetString("mine"), "v2");
}

TEST(ReplicaSessionTest, UnsatisfiableMarkIsRetryableNotWrongData) {
  TestGroup tg = MakeGroup(3, FastOptions("t_gate"));
  ASSERT_TRUE(
      tg.group->Write(OpType::kPut, "k", MakeValue(std::string_view("v")))
          .ok());
  // A mark beyond every replica's applied watermark must answer a retryable
  // Unavailable — never a stale value and never NotFound.
  const auto result = tg.group->Read("k", /*min_seq=*/100);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
}

// --- Placement -------------------------------------------------------------

TEST(ReplicatedRingTest, PlacesGroupsOnDistinctNodes) {
  std::map<std::string, std::set<std::string>> nodes_by_group;
  replica::ReplicatedRingOptions options;
  options.nodes = {"n0", "n1", "n2", "n3", "n4"};
  options.groups = 4;
  options.replication_factor = 3;
  options.group = FastOptions("t_ring");
  options.backend_factory = [&](const std::string& node,
                                const std::string& group) {
    nodes_by_group[group].insert(node);
    return std::make_shared<MemoryStore>();
  };
  auto store = replica::BuildReplicatedRing(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(nodes_by_group.size(), 4u);
  for (const auto& [group, nodes] : nodes_by_group) {
    EXPECT_EQ(nodes.size(), 3u) << group;  // distinct nodes per group
  }
  // And it behaves like a store.
  ASSERT_TRUE((*store)->PutString("k", "v").ok());
  EXPECT_EQ(*(*store)->GetString("k"), "v");

  replica::ReplicatedRingOptions bad = options;
  bad.nodes = {"only"};
  EXPECT_FALSE(replica::BuildReplicatedRing(bad).ok());
}

}  // namespace
}  // namespace dstore
