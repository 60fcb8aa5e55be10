#include "udsm/mirrored_store.h"

#include <gtest/gtest.h>

#include "fault/fault_store.h"
#include "store/memory_store.h"

namespace dstore {
namespace {

class MirroredStoreTest : public ::testing::Test {
 protected:
  MirroredStoreTest()
      : a_(std::make_shared<MemoryStore>()),
        b_(std::make_shared<MemoryStore>()),
        c_(std::make_shared<MemoryStore>()) {}

  std::vector<std::shared_ptr<KeyValueStore>> All() { return {a_, b_, c_}; }

  // A replica whose every operation fails.
  static std::shared_ptr<KeyValueStore> Broken() {
    auto plan = std::make_shared<fault::FaultPlan>(42);
    plan->AddRule({});
    return std::make_shared<FaultInjectingStore>(
        std::make_shared<MemoryStore>(), plan);
  }

  std::shared_ptr<MemoryStore> a_, b_, c_;
};

TEST_F(MirroredStoreTest, WritesFanOutToAllReplicas) {
  MirroredStore store(All());
  ASSERT_TRUE(store.PutString("k", "v").ok());
  EXPECT_EQ(*a_->GetString("k"), "v");
  EXPECT_EQ(*b_->GetString("k"), "v");
  EXPECT_EQ(*c_->GetString("k"), "v");
}

TEST_F(MirroredStoreTest, WriteConcernAllFailsOnAnyReplicaFailure) {
  auto bad = Broken();
  MirroredStore store({a_, bad});
  EXPECT_FALSE(store.PutString("k", "v").ok());
}

TEST_F(MirroredStoreTest, WriteConcernQuorumToleratesMinorityFailure) {
  auto bad = Broken();
  MirroredStore::Options options;
  options.write_concern = MirroredStore::WriteConcern::kQuorum;
  MirroredStore store({a_, b_, bad}, options);
  ASSERT_TRUE(store.PutString("k", "v").ok());  // 2/3 acks
  EXPECT_EQ(*a_->GetString("k"), "v");
}

TEST_F(MirroredStoreTest, WriteConcernOne) {
  auto bad1 = Broken();
  auto bad2 = Broken();
  MirroredStore::Options options;
  options.write_concern = MirroredStore::WriteConcern::kOne;
  MirroredStore store({bad1, a_, bad2}, options);
  ASSERT_TRUE(store.PutString("k", "v").ok());
}

TEST_F(MirroredStoreTest, ReadFallsBackAcrossReplicas) {
  MirroredStore store(All());
  // Value only on the last replica (e.g. written before mirroring began).
  (void)c_->PutString("orphan", "rescued");
  auto got = store.GetString("orphan");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "rescued");
}

TEST_F(MirroredStoreTest, ReadRepairPopulatesMissingReplicas) {
  MirroredStore store(All());
  (void)c_->PutString("orphan", "rescued");
  ASSERT_TRUE(store.Get("orphan").ok());
  // Read repair copied the value into the replicas that missed.
  EXPECT_EQ(*a_->GetString("orphan"), "rescued");
  EXPECT_EQ(*b_->GetString("orphan"), "rescued");
}

TEST_F(MirroredStoreTest, ReadRepairCanBeDisabled) {
  MirroredStore::Options options;
  options.read_repair = false;
  MirroredStore store(All(), options);
  (void)c_->PutString("orphan", "rescued");
  ASSERT_TRUE(store.Get("orphan").ok());
  EXPECT_FALSE(*a_->Contains("orphan"));
}

TEST_F(MirroredStoreTest, ListKeysIsUnion) {
  MirroredStore store(All());
  (void)a_->PutString("only-a", "1");
  (void)c_->PutString("only-c", "2");
  auto keys = store.ListKeys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 2u);
  EXPECT_EQ(*store.Count(), 2u);
}

TEST_F(MirroredStoreTest, ConsistencyCheckDetectsDivergence) {
  MirroredStore store(All());
  (void)store.PutString("same", "everywhere");
  // Introduce divergence behind the mirror's back.
  (void)b_->PutString("same", "DIFFERENT");
  (void)a_->PutString("missing-elsewhere", "x");

  auto report = store.CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->consistent());
  EXPECT_EQ(report->keys_checked, 2u);
  EXPECT_EQ(report->divergent.size(), 2u);
}

TEST_F(MirroredStoreTest, ConsistencyCheckPassesWhenAligned) {
  MirroredStore store(All());
  (void)store.PutString("k1", "v1");
  (void)store.PutString("k2", "v2");
  auto report = store.CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->consistent());
}

TEST_F(MirroredStoreTest, RepairConvergesReplicasToSource) {
  MirroredStore store(All());
  (void)store.PutString("shared", "good");
  (void)b_->PutString("shared", "corrupt");
  (void)b_->PutString("extraneous", "junk");
  c_->Delete("shared").ok();

  ASSERT_TRUE(store.Repair(/*source_index=*/0).ok());
  EXPECT_EQ(*b_->GetString("shared"), "good");
  EXPECT_EQ(*c_->GetString("shared"), "good");
  EXPECT_FALSE(*b_->Contains("extraneous"));

  auto report = store.CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->consistent());
}

TEST_F(MirroredStoreTest, RepairRejectsBadSourceIndex) {
  MirroredStore store(All());
  EXPECT_TRUE(store.Repair(9).IsInvalidArgument());
}

TEST_F(MirroredStoreTest, DeleteRemovesEverywhere) {
  MirroredStore store(All());
  (void)store.PutString("k", "v");
  ASSERT_TRUE(store.Delete("k").ok());
  EXPECT_FALSE(*a_->Contains("k"));
  EXPECT_FALSE(*b_->Contains("k"));
  EXPECT_FALSE(*c_->Contains("k"));
}

TEST_F(MirroredStoreTest, NameListsReplicas) {
  MirroredStore store(All());
  EXPECT_EQ(store.Name(), "mirror(memory,memory,memory)");
}

}  // namespace
}  // namespace dstore
