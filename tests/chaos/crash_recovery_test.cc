// Crash-recovery regressions: each test arms one crash point on a
// durability path, takes the simulated crash mid-write, reopens from disk,
// and verifies the recovery contract — committed data survives, the
// in-flight write obeys the point's semantics, and torn tails never mask
// later appends.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/lru_cache.h"
#include "dscl/cache_persistence.h"
#include "fault/fault.h"
#include "store/file_store.h"
#include "store/lsm/format.h"
#include "store/lsm/lsm_store.h"
#include "store/memory_store.h"
#include "store/sql/database.h"

namespace dstore {
namespace {

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmCrashPoints();
    dir_ = std::filesystem::temp_directory_path() /
           ("dstore_crash_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmCrashPoints();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string DbPath() const { return (dir_ / "db").string(); }

  std::filesystem::path dir_;
};

// --- SQL WAL ----------------------------------------------------------------

using SqlCrashTest = CrashRecoveryTest;

StatusOr<std::unique_ptr<sql::Database>> OpenWithTable(
    const std::string& path) {
  auto db = sql::Database::Open(path);
  if (!db.ok()) return db;
  auto created =
      (*db)->Execute("CREATE TABLE IF NOT EXISTS t (id INTEGER PRIMARY KEY)");
  if (!created.ok()) return created.status();
  return db;
}

std::vector<int64_t> Ids(sql::Database* db) {
  auto result = db->Execute("SELECT id FROM t ORDER BY id");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<int64_t> ids;
  if (result.ok()) {
    for (const auto& row : result->rows) ids.push_back(row[0].AsInteger());
  }
  return ids;
}

TEST_F(SqlCrashTest, CommittedRowsSurviveBeforeFsyncCrash) {
  {
    auto db = OpenWithTable(DbPath());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (2)").ok());

    // The crash hits before fsync: appended-but-unsynced WAL bytes are
    // discarded, exactly what a power cut does to the page cache.
    fault::ArmCrashPoint("sql.wal.before_fsync");
    auto crashed = (*db)->Execute("INSERT INTO t VALUES (3)");
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fault::IsCrashStatus(crashed.status()))
        << crashed.status().ToString();
  }
  auto db = sql::Database::Open(DbPath());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Ids(db->get()), (std::vector<int64_t>{1, 2}));
}

TEST_F(SqlCrashTest, TornAppendLosesOnlyTail) {
  {
    auto db = OpenWithTable(DbPath());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
    fault::ArmCrashPoint("sql.wal.torn_append");
    auto crashed = (*db)->Execute("INSERT INTO t VALUES (2)");
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fault::IsCrashStatus(crashed.status()));
  }
  // Recovery drops the half-written record but keeps everything before it.
  {
    auto db = sql::Database::Open(DbPath());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(Ids(db->get()), (std::vector<int64_t>{1}));
    // Replay must also have trimmed the torn tail from the WAL file;
    // otherwise this append lands after garbage and the next replay stops
    // at the tear, silently losing it.
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (5)").ok());
  }
  auto db = sql::Database::Open(DbPath());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Ids(db->get()), (std::vector<int64_t>{1, 5}));
}

TEST_F(SqlCrashTest, TornCommitIsAtomic) {
  {
    auto db = OpenWithTable(DbPath());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE((*db)->Execute("BEGIN").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (2)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (3)").ok());
    // Commit writes BEGIN, the two statements, then COMMIT to the WAL.
    // Tear the second statement (3rd append): the group has no COMMIT
    // marker, so recovery must roll the whole transaction back.
    fault::ArmCrashPoint("sql.wal.torn_append", 3);
    auto crashed = (*db)->Execute("COMMIT");
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fault::IsCrashStatus(crashed.status()));
  }
  {
    auto db = sql::Database::Open(DbPath());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(Ids(db->get()), (std::vector<int64_t>{1}))
        << "torn commit must be all-or-nothing";
    // The dangling BEGIN group must have been trimmed, or this autocommit
    // append would be swallowed into the unfinished transaction and rolled
    // back on the NEXT replay.
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (7)").ok());
  }
  auto db = sql::Database::Open(DbPath());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Ids(db->get()), (std::vector<int64_t>{1, 7}));
}

TEST_F(SqlCrashTest, AfterFsyncCrashIsDurable) {
  {
    auto db = OpenWithTable(DbPath());
    ASSERT_TRUE(db.ok());
    fault::ArmCrashPoint("sql.wal.after_fsync");
    auto crashed = (*db)->Execute("INSERT INTO t VALUES (1)");
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fault::IsCrashStatus(crashed.status()));
  }
  // The record reached disk before the crash: the client saw an error, but
  // the write is durable (the acknowledged-lost mirror image).
  auto db = sql::Database::Open(DbPath());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Ids(db->get()), (std::vector<int64_t>{1}));
}

TEST_F(SqlCrashTest, BeforeAppendLosesStatement) {
  {
    auto db = OpenWithTable(DbPath());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
    fault::ArmCrashPoint("sql.wal.before_append");
    auto crashed = (*db)->Execute("INSERT INTO t VALUES (2)");
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fault::IsCrashStatus(crashed.status()));
  }
  auto db = sql::Database::Open(DbPath());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Ids(db->get()), (std::vector<int64_t>{1}));
}

TEST_F(SqlCrashTest, UncommittedTransactionVanishes) {
  {
    auto db = OpenWithTable(DbPath());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE((*db)->Execute("BEGIN").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (2)").ok());
    // Process dies without COMMIT.
  }
  auto db = sql::Database::Open(DbPath());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Ids(db->get()), (std::vector<int64_t>{1}));
}

// --- SQL checkpoint ---------------------------------------------------------

// Every row of `table` as "id=v", in id order.
std::vector<std::string> Rows(sql::Database* db, const std::string& table) {
  auto result = db->Execute("SELECT id, v FROM " + table + " ORDER BY id");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::string> rows;
  if (result.ok()) {
    for (const auto& row : result->rows) {
      rows.push_back(std::to_string(row[0].AsInteger()) + "=" +
                     std::to_string(row[1].AsInteger()));
    }
  }
  return rows;
}

// A checkpoint that dies anywhere in the snapshot publish loses no commit
// and applies none twice: recovery finds the old snapshot plus the whole
// WAL, or the new snapshot and skips the WAL it folded in.
TEST_F(SqlCrashTest, SnapshotCrashKeepsEveryCommitOnce) {
  for (const std::string step : {"before_write", "torn_write", "before_rename",
                                 "before_dirsync", "after_rename"}) {
    SCOPED_TRACE(step);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    {
      auto db = sql::Database::Open(DbPath());
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE((*db)->Execute("CREATE TABLE c (id INTEGER, v INTEGER)").ok());
      ASSERT_TRUE((*db)->Execute("INSERT INTO c VALUES (1, 10)").ok());
      ASSERT_TRUE((*db)->Execute("INSERT INTO c VALUES (2, 20)").ok());
      ASSERT_TRUE((*db)->Execute("UPDATE c SET v = v + 1").ok());
      fault::ArmCrashPoint("sql.snapshot." + step);
      const Status crashed = (*db)->Checkpoint();
      EXPECT_TRUE(fault::IsCrashStatus(crashed)) << crashed.ToString();
    }
    {
      auto db = sql::Database::Open(DbPath());
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      EXPECT_EQ(Rows(db->get(), "c"),
                (std::vector<std::string>{"1=11", "2=21"}));
      // Later commits are not masked by whatever the crash left.
      ASSERT_TRUE((*db)->Execute("INSERT INTO c VALUES (3, 30)").ok());
    }
    auto db = sql::Database::Open(DbPath());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(Rows(db->get(), "c"),
              (std::vector<std::string>{"1=11", "2=21", "3=30"}));
  }
}

// The window between a checkpoint's publish and its WAL reset: the new
// snapshot beside the WAL it has already folded in. Modelled by putting the
// pre-checkpoint WAL back after a clean checkpoint.
TEST_F(SqlCrashTest, CheckpointedWalIsNotReplayedTwice) {
  const std::string wal = DbPath() + ".wal";
  const std::string saved = DbPath() + ".wal.saved";
  {
    auto db = sql::Database::Open(DbPath());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE c (id INTEGER, v INTEGER)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO c VALUES (1, 10)").ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    // Statements the WAL alone can apply again without an error.
    ASSERT_TRUE((*db)->Execute("INSERT INTO c VALUES (2, 20)").ok());
    ASSERT_TRUE((*db)->Execute("UPDATE c SET v = v + 1").ok());
    std::filesystem::copy_file(wal, saved);
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  std::filesystem::rename(saved, wal);
  auto db = sql::Database::Open(DbPath());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(Rows(db->get(), "c"), (std::vector<std::string>{"1=11", "2=21"}));
}

// --- FileStore --------------------------------------------------------------

using FileCrashTest = CrashRecoveryTest;

TEST_F(FileCrashTest, BeforeWriteCrashLeavesOldValue) {
  auto store = FileStore::Open(dir_ / "fs");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PutString("k", "old").ok());

  fault::ArmCrashPoint("file.put.before_write");
  const Status crashed = (*store)->PutString("k", "new");
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(fault::IsCrashStatus(crashed));

  auto reopened = FileStore::Open(dir_ / "fs");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->GetString("k"), "old");
  EXPECT_EQ(*(*reopened)->Count(), 1u);
}

TEST_F(FileCrashTest, TornWriteKeepsOldValueAndHidesLitter) {
  auto store = FileStore::Open(dir_ / "fs");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PutString("k", "old").ok());

  // Half the new value reaches a temp file, then the "process" dies. The
  // abandoned temp file must be invisible to the store after reopen.
  fault::ArmCrashPoint("file.put.torn_write");
  const Status crashed = (*store)->PutString("k", "new-value-longer");
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(fault::IsCrashStatus(crashed));

  auto reopened = FileStore::Open(dir_ / "fs");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->GetString("k"), "old");
  auto keys = (*reopened)->ListKeys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(*keys, std::vector<std::string>{"k"});
}

TEST_F(FileCrashTest, BeforeRenameCrashLeavesOldValue) {
  auto store = FileStore::Open(dir_ / "fs");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PutString("k", "old").ok());

  // The temp file is complete but never renamed into place: the published
  // value must still be the old one.
  fault::ArmCrashPoint("file.put.before_rename");
  const Status crashed = (*store)->PutString("k", "new");
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(fault::IsCrashStatus(crashed));

  auto reopened = FileStore::Open(dir_ / "fs");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->GetString("k"), "old");
}

TEST_F(FileCrashTest, AfterRenameCrashIsDurable) {
  auto store = FileStore::Open(dir_ / "fs");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PutString("k", "old").ok());

  fault::ArmCrashPoint("file.put.after_rename");
  const Status crashed = (*store)->PutString("k", "new");
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(fault::IsCrashStatus(crashed));

  // Rename completed before the crash: the write is durable even though
  // the client saw an error.
  auto reopened = FileStore::Open(dir_ / "fs");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->GetString("k"), "new");
}

TEST_F(FileCrashTest, BeforeDirsyncCrashLeavesOneIntactValue) {
  auto store = FileStore::Open(dir_ / "fs");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PutString("k", "old").ok());

  // Crash between rename and the parent-directory fsync: the directory
  // entry may or may not survive the power cut, so recovery must see either
  // the old value or the new one — never a torn mix, never both. The
  // simulation cannot roll the rename back, so it lands on "new".
  fault::ArmCrashPoint("file.put.before_dirsync");
  const Status crashed = (*store)->PutString("k", "new");
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(fault::IsCrashStatus(crashed));

  auto reopened = FileStore::Open(dir_ / "fs");
  ASSERT_TRUE(reopened.ok());
  auto value = (*reopened)->GetString("k");
  ASSERT_TRUE(value.ok());
  EXPECT_TRUE(*value == "old" || *value == "new") << *value;
  auto keys = (*reopened)->ListKeys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(*keys, std::vector<std::string>{"k"});
}

// --- LSM --------------------------------------------------------------------

class LsmCrashTest : public CrashRecoveryTest {
 protected:
  std::unique_ptr<lsm::LsmStore> OpenLsm() {
    auto store = lsm::LsmStore::Open(dir_ / "lsm");
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? *std::move(store) : nullptr;
  }

  // Files in the LSM directory, for litter assertions.
  std::vector<std::string> LsmFiles() const {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_ / "lsm", ec)) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  }
};

TEST_F(LsmCrashTest, TornWalAppendLosesOnlyTail) {
  {
    auto store = OpenLsm();
    ASSERT_TRUE(store->PutString("a", "1").ok());
    ASSERT_TRUE(store->PutString("b", "2").ok());
    fault::ArmCrashPoint("lsm.wal.torn_append");
    const Status crashed = store->PutString("c", "3");
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fault::IsCrashStatus(crashed)) << crashed.ToString();
  }
  // Recovery drops the half-written record, keeps everything before it,
  // and — because replayed state is flushed and the WAL restarts fresh —
  // the torn tail can never mask a later append.
  {
    auto store = OpenLsm();
    EXPECT_EQ(*store->GetString("a"), "1");
    EXPECT_EQ(*store->GetString("b"), "2");
    EXPECT_TRUE(store->Get("c").status().IsNotFound());
    ASSERT_TRUE(store->PutString("d", "4").ok());
  }
  auto store = OpenLsm();
  EXPECT_EQ(*store->GetString("d"), "4");
  EXPECT_EQ(*store->Count(), 3u);
}

TEST_F(LsmCrashTest, BeforeFsyncCrashLosesOnlyUnsyncedWrite) {
  {
    auto store = OpenLsm();
    ASSERT_TRUE(store->PutString("a", "1").ok());
    fault::ArmCrashPoint("lsm.wal.before_fsync");
    const Status crashed = store->PutString("b", "2");
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fault::IsCrashStatus(crashed));
  }
  auto store = OpenLsm();
  EXPECT_EQ(*store->GetString("a"), "1");
  EXPECT_TRUE(store->Get("b").status().IsNotFound());
}

TEST_F(LsmCrashTest, AfterFsyncCrashIsDurable) {
  {
    auto store = OpenLsm();
    fault::ArmCrashPoint("lsm.wal.after_fsync");
    const Status crashed = store->PutString("a", "1");
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fault::IsCrashStatus(crashed));
  }
  // The record was fsynced before the crash: durable despite the error
  // (the acknowledged-lost mirror image).
  auto store = OpenLsm();
  EXPECT_EQ(*store->GetString("a"), "1");
}

TEST_F(LsmCrashTest, BeforeAppendCrashLosesWrite) {
  {
    auto store = OpenLsm();
    ASSERT_TRUE(store->PutString("a", "1").ok());
    fault::ArmCrashPoint("lsm.wal.before_append");
    const Status crashed = store->PutString("b", "2");
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fault::IsCrashStatus(crashed));
  }
  auto store = OpenLsm();
  EXPECT_EQ(*store->GetString("a"), "1");
  EXPECT_TRUE(store->Get("b").status().IsNotFound());
}

TEST_F(LsmCrashTest, HalfWrittenSstIsInvisibleAfterRecovery) {
  {
    auto store = OpenLsm();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store->PutString("k" + std::to_string(i), "v").ok());
    }
    // The flush dies with half an SST in a temp file. The acked writes are
    // all in the WAL, so nothing is lost.
    fault::ArmCrashPoint("lsm.sst.torn_write");
    const Status crashed = store->Flush();
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fault::IsCrashStatus(crashed)) << crashed.ToString();
  }
  auto store = OpenLsm();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*store->GetString("k" + std::to_string(i)), "v");
  }
  EXPECT_EQ(*store->Count(), 10u);
  for (const std::string& name : LsmFiles()) {
    EXPECT_FALSE(lsm::IsTempFileName(name)) << "leftover temp: " << name;
  }
}

TEST_F(LsmCrashTest, SstCompleteButUnpublishedIsCleanedUp) {
  {
    auto store = OpenLsm();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store->PutString("k" + std::to_string(i), "v").ok());
    }
    fault::ArmCrashPoint("lsm.sst.before_rename");
    const Status crashed = store->Flush();
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fault::IsCrashStatus(crashed));
  }
  auto store = OpenLsm();
  EXPECT_EQ(*store->Count(), 10u);
  for (const std::string& name : LsmFiles()) {
    EXPECT_FALSE(lsm::IsTempFileName(name)) << "leftover temp: " << name;
  }
}

TEST_F(LsmCrashTest, ManifestCrashKeepsPreviousVersion) {
  for (const char* point :
       {"lsm.manifest.torn_write", "lsm.manifest.before_rename",
        "lsm.manifest.after_rename"}) {
    SCOPED_TRACE(point);
    SetUp();  // fresh directory per point
    {
      auto store = OpenLsm();
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(store->PutString("k" + std::to_string(i), point).ok());
      }
      // The flush writes its SST, then dies persisting the manifest. Before
      // the rename the old MANIFEST is still current (the new SST is an
      // orphan); after it the new version is durable. Either way every
      // acked write must survive, via the manifest or via WAL replay.
      fault::ArmCrashPoint(point);
      const Status crashed = store->Flush();
      ASSERT_FALSE(crashed.ok());
      EXPECT_TRUE(fault::IsCrashStatus(crashed)) << crashed.ToString();
    }
    auto store = OpenLsm();
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(*store->GetString("k" + std::to_string(i)), point);
    }
    EXPECT_EQ(*store->Count(), 8u);
    store.reset();
    TearDown();
  }
}

TEST_F(LsmCrashTest, StoreRefusesWritesAfterBackgroundCrash) {
  auto store = OpenLsm();
  ASSERT_TRUE(store->PutString("a", "1").ok());
  fault::ArmCrashPoint("lsm.sst.torn_write");
  ASSERT_FALSE(store->Flush().ok());
  // The background failure is sticky — like a real crash, the store stops
  // accepting writes until it is reopened (and recovery reruns).
  const Status refused = store->PutString("b", "2");
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(fault::IsCrashStatus(refused)) << refused.ToString();
}

// --- Cache persistence ------------------------------------------------------

TEST_F(CrashRecoveryTest, TornCacheSnapshotLoadsAtomically) {
  MemoryStore durable;
  LruCache cache(1 << 20);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        cache.Put("k" + std::to_string(i), MakeValue(std::string_view("v")))
            .ok());
  }

  fault::ArmCrashPoint("cache.snapshot.torn_save");
  const Status crashed = SaveCacheToStore(&cache, &durable, "warm");
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(fault::IsCrashStatus(crashed));

  // The snapshot on disk is truncated mid-entry. Loading it must fail
  // without partially populating the target cache.
  LruCache restarted(1 << 20);
  auto loaded = LoadCacheFromStore(&restarted, &durable, "warm");
  EXPECT_FALSE(loaded.ok());
  auto keys = restarted.Keys();
  ASSERT_TRUE(keys.ok());
  EXPECT_TRUE(keys->empty())
      << "a torn snapshot must not partially warm the cache";
}

// Crash fires are observable through the fault metrics.
TEST_F(CrashRecoveryTest, CrashFiresAreCounted) {
  const uint64_t before = fault::CrashesInjected();
  auto store = FileStore::Open(dir_ / "fs");
  ASSERT_TRUE(store.ok());
  fault::ArmCrashPoint("file.put.before_write");
  ASSERT_FALSE((*store)->PutString("k", "v").ok());
  EXPECT_EQ(fault::CrashesInjected(), before + 1);
}

}  // namespace
}  // namespace dstore
