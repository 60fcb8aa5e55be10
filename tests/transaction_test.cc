#include "udsm/transaction.h"

#include <gtest/gtest.h>

#include "fault/fault_store.h"
#include "store/memory_store.h"

namespace dstore {
namespace {

class TransactionTest : public ::testing::Test {
 protected:
  TransactionTest()
      : coordinator_(std::make_shared<MemoryStore>()),
        store_a_(std::make_shared<MemoryStore>()),
        store_b_(std::make_shared<MemoryStore>()) {}

  std::map<std::string, std::shared_ptr<KeyValueStore>> StoreMap() {
    return {{"a", store_a_}, {"b", store_b_}};
  }

  std::shared_ptr<MemoryStore> coordinator_;
  std::shared_ptr<MemoryStore> store_a_;
  std::shared_ptr<MemoryStore> store_b_;
};

TEST_F(TransactionTest, CommitWritesAcrossStores) {
  MultiStoreTransaction txn(coordinator_, MakeTransactionId());
  txn.Put(store_a_, "a", "account/alice", MakeValue(std::string_view("90")));
  txn.Put(store_b_, "b", "account/bob", MakeValue(std::string_view("110")));
  ASSERT_TRUE(txn.Commit().ok());

  EXPECT_EQ(*store_a_->GetString("account/alice"), "90");
  EXPECT_EQ(*store_b_->GetString("account/bob"), "110");
  // No journal or staging residue.
  EXPECT_EQ(*coordinator_->Count(), 0u);
  EXPECT_EQ(*store_a_->Count(), 1u);
  EXPECT_EQ(*store_b_->Count(), 1u);
}

TEST_F(TransactionTest, CommitAppliesDeletes) {
  (void)store_a_->PutString("old", "data");
  MultiStoreTransaction txn(coordinator_, MakeTransactionId());
  txn.Delete(store_a_, "a", "old");
  txn.Put(store_b_, "b", "new", MakeValue(std::string_view("data")));
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(*store_a_->Contains("old"));
  EXPECT_EQ(*store_b_->GetString("new"), "data");
}

TEST_F(TransactionTest, AbortLeavesNothingBehind) {
  MultiStoreTransaction txn(coordinator_, MakeTransactionId());
  txn.Put(store_a_, "a", "k", MakeValue(std::string_view("v")));
  ASSERT_TRUE(txn.Abort().ok());
  EXPECT_EQ(*store_a_->Count(), 0u);
  EXPECT_EQ(*coordinator_->Count(), 0u);
}

TEST_F(TransactionTest, DestructorAbortsUncommitted) {
  {
    MultiStoreTransaction txn(coordinator_, MakeTransactionId());
    txn.Put(store_a_, "a", "k", MakeValue(std::string_view("v")));
    // no Commit
  }
  EXPECT_EQ(*store_a_->Count(), 0u);
  EXPECT_EQ(*coordinator_->Count(), 0u);
}

TEST_F(TransactionTest, DoubleCommitRejected) {
  MultiStoreTransaction txn(coordinator_, MakeTransactionId());
  txn.Put(store_a_, "a", "k", MakeValue(std::string_view("v")));
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(txn.Commit().IsInvalidArgument());
  EXPECT_TRUE(txn.Abort().IsInvalidArgument());
}

TEST_F(TransactionTest, PrepareFailureRollsBackCleanly) {
  // Store B rejects every write: the transaction must fail before any
  // final key is touched anywhere.
  auto always_fail = std::make_shared<fault::FaultPlan>(42);
  always_fail->AddRule({});
  auto broken = std::make_shared<FaultInjectingStore>(store_b_, always_fail);

  MultiStoreTransaction txn(coordinator_, MakeTransactionId());
  txn.Put(store_a_, "a", "k1", MakeValue(std::string_view("v")));
  txn.Put(broken, "b", "k2", MakeValue(std::string_view("v")));
  EXPECT_FALSE(txn.Commit().ok());

  EXPECT_EQ(*store_a_->Count(), 0u) << "no staging residue in store a";
  EXPECT_EQ(*store_b_->Count(), 0u);
  EXPECT_EQ(*coordinator_->Count(), 0u) << "journal cleaned up";
}

// Builds the journal record Commit() writes, for crash-state simulation.
Bytes BuildJournal(uint8_t phase,
                   const std::vector<std::tuple<std::string, std::string,
                                                bool, std::string>>& ops) {
  Bytes journal;
  journal.push_back(phase);
  PutVarint64(&journal, ops.size());
  for (const auto& [store_name, key, is_delete, staged_key] : ops) {
    PutLengthPrefixed(&journal, store_name);
    PutLengthPrefixed(&journal, key);
    journal.push_back(is_delete ? 1 : 0);
    PutLengthPrefixed(&journal, staged_key);
  }
  return journal;
}

TEST_F(TransactionTest, RecoveryRollsForwardCommittedTransaction) {
  // Simulate a crash after the commit point: staged values + journal with
  // phase=committing present, final keys not yet written.
  const std::string crash_id = "deadbeef";
  const std::string staged = "~txnstage!" + crash_id + "!0";
  (void)store_b_->PutString("y", "stale");  // will be deleted by the txn
  ASSERT_TRUE(
      store_a_->Put(staged, MakeValue(std::string_view("10"))).ok());
  ASSERT_TRUE(coordinator_
                  ->Put("~txnlog!" + crash_id,
                        MakeValue(BuildJournal(
                            2, {{"a", "p", false, staged},
                                {"b", "y", true,
                                 "~txnstage!" + crash_id + "!1"}})))
                  .ok());

  ASSERT_TRUE(
      MultiStoreTransaction::Recover(coordinator_.get(), StoreMap()).ok());
  EXPECT_EQ(*store_a_->GetString("p"), "10");  // rolled forward
  EXPECT_FALSE(*store_b_->Contains("y"));      // delete applied
  EXPECT_EQ(*coordinator_->Count(), 0u);       // journal gone
  EXPECT_FALSE(*store_a_->Contains(staged));   // staging removed
}

TEST_F(TransactionTest, RecoveryIdempotentAfterPartialApply) {
  // Crash mid-APPLY: the final key was already promoted and its staging
  // key removed, but the journal survived. Recovery must not disturb the
  // applied value and must clean up.
  const std::string crash_id = "cafebabe";
  (void)store_a_->PutString("p", "10");  // already promoted
  ASSERT_TRUE(coordinator_
                  ->Put("~txnlog!" + crash_id,
                        MakeValue(BuildJournal(
                            2, {{"a", "p", false,
                                 "~txnstage!" + crash_id + "!0"}})))
                  .ok());
  ASSERT_TRUE(
      MultiStoreTransaction::Recover(coordinator_.get(), StoreMap()).ok());
  EXPECT_EQ(*store_a_->GetString("p"), "10");
  EXPECT_EQ(*coordinator_->Count(), 0u);
}

TEST_F(TransactionTest, RecoveryRollsBackPreparedTransaction) {
  const std::string crash_id = MakeTransactionId();
  // Crash state: staged value + phase=prepared journal (decision not made).
  ASSERT_TRUE(store_a_->Put("~txnstage!" + crash_id + "!0",
                            MakeValue(std::string_view("v")))
                  .ok());
  Bytes journal;
  journal.push_back(1);  // phase = prepared
  PutVarint64(&journal, 1);
  PutLengthPrefixed(&journal, std::string("a"));
  PutLengthPrefixed(&journal, std::string("k"));
  journal.push_back(0);
  PutLengthPrefixed(&journal, "~txnstage!" + crash_id + "!0");
  ASSERT_TRUE(coordinator_
                  ->Put("~txnlog!" + crash_id, MakeValue(std::move(journal)))
                  .ok());

  ASSERT_TRUE(MultiStoreTransaction::Recover(coordinator_.get(), StoreMap()).ok());
  EXPECT_FALSE(*store_a_->Contains("k")) << "rolled back, never applied";
  EXPECT_EQ(*store_a_->Count(), 0u) << "staging removed";
  EXPECT_EQ(*coordinator_->Count(), 0u);
}

TEST_F(TransactionTest, RecoveryFailsOnUnknownStore) {
  const std::string crash_id = MakeTransactionId();
  Bytes journal;
  journal.push_back(1);
  PutVarint64(&journal, 1);
  PutLengthPrefixed(&journal, std::string("ghost-store"));
  PutLengthPrefixed(&journal, std::string("k"));
  journal.push_back(0);
  PutLengthPrefixed(&journal, std::string("~txnstage!x!0"));
  (void)coordinator_->Put("~txnlog!" + crash_id, MakeValue(std::move(journal)));
  EXPECT_TRUE(
      MultiStoreTransaction::Recover(coordinator_.get(), StoreMap()).IsNotFound());
}

TEST_F(TransactionTest, RecoverWithEmptyJournalIsNoop) {
  EXPECT_TRUE(
      MultiStoreTransaction::Recover(coordinator_.get(), StoreMap()).ok());
}

TEST_F(TransactionTest, InternalKeyDetection) {
  EXPECT_TRUE(MultiStoreTransaction::IsInternalKey("~txnlog!abc"));
  EXPECT_TRUE(MultiStoreTransaction::IsInternalKey("~txnstage!abc!0"));
  EXPECT_FALSE(MultiStoreTransaction::IsInternalKey("user/42"));
}

TEST_F(TransactionTest, UniqueTransactionIds) {
  EXPECT_NE(MakeTransactionId(), MakeTransactionId());
}

}  // namespace
}  // namespace dstore
