// The durable-file module (store/fs_util) and the stores built on it:
// the fsync barriers each durable path pays, and the failed-append rule of
// every append-only log (a write that fails partway leaves no bytes behind,
// so a later acked record never lands behind garbage).

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "replica/log.h"
#include "store/file_store.h"
#include "store/fs_util.h"
#include "store/lsm/lsm_store.h"
#include "store/lsm/sst.h"
#include "store/lsm/version.h"
#include "store/sql/database.h"

namespace dstore {
namespace {

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmCrashPoints();
    dir_ = std::filesystem::temp_directory_path() /
           ("dstore_durability_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmCrashPoints();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  // fsyncs `op` issued through fs_util.
  static uint64_t FsyncsOf(const std::function<void()>& op) {
    const uint64_t before = FsyncCount();
    op();
    return FsyncCount() - before;
  }

  // Runs `op` with the process's file-size limit a few bytes past `file`'s
  // current size, so the next append to it tears mid-record with a real
  // write error (EFBIG) that the process survives. SIGXFSZ is ignored so
  // that write() reports the error instead of killing the test; the limit
  // and the handler are restored afterwards.
  static void WithTornWrite(const std::filesystem::path& file,
                            const std::function<void()>& op) {
    struct rlimit saved;
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    struct rlimit capped = saved;
    capped.rlim_cur = std::filesystem::file_size(file) + 8;
    const sighandler_t old_handler = ::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    op();
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    ::signal(SIGXFSZ, old_handler);
  }

  // A crash without a clean close: what the files hold right now, opened
  // from a copy while the writer is still live.
  std::filesystem::path CopyOf(const std::filesystem::path& path) const {
    const std::filesystem::path copy = dir_ / "crashed";
    std::filesystem::create_directories(copy);
    std::filesystem::copy(path, copy / path.filename(),
                          std::filesystem::copy_options::recursive);
    return copy / path.filename();
  }

  std::filesystem::path dir_;
};

std::string Big() { return std::string(4096, 'x'); }

// --- Barriers ----------------------------------------------------------------

TEST_F(DurabilityTest, FileStorePutBarriers) {
  FileStore::Options synced;
  synced.sync_writes = true;
  auto durable = FileStore::Open(dir_ / "synced", synced);
  auto buffered = FileStore::Open(dir_ / "buffered");
  ASSERT_TRUE(durable.ok() && buffered.ok());
  // The temp file, then the directory after the rename.
  EXPECT_EQ(FsyncsOf([&] { ASSERT_TRUE((*durable)->PutString("k", "v").ok()); }),
            2u);
  EXPECT_EQ(
      FsyncsOf([&] { ASSERT_TRUE((*buffered)->PutString("k", "v").ok()); }),
      0u);
}

TEST_F(DurabilityTest, LsmPublishAndAppendBarriers) {
  lsm::SstWriter sst(dir_, 7, lsm::SstOptions{});
  sst.Add("k", 1, lsm::EntryType::kPut, MakeValue(std::string_view("v")));
  EXPECT_EQ(FsyncsOf([&] { ASSERT_TRUE(sst.Finish().ok()); }), 2u);
  EXPECT_EQ(FsyncsOf([&] {
              ASSERT_TRUE(lsm::SaveManifest(dir_, lsm::ManifestState{}).ok());
            }),
            2u);
  // A new segment syncs its directory once; appends sync nothing.
  std::unique_ptr<WalWriter> wal;
  EXPECT_EQ(FsyncsOf([&] {
              auto opened = WalWriter::Open(dir_ / "segment.log", "test.wal");
              ASSERT_TRUE(opened.ok());
              wal = *std::move(opened);
            }),
            1u);
  EXPECT_EQ(FsyncsOf([&] { ASSERT_TRUE(wal->Append(ToBytes("r")).ok()); }),
            0u);

  lsm::LsmOptions options;
  options.memtable_bytes = 1u << 20;
  auto store = lsm::LsmStore::Open(dir_ / "lsm", options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(FsyncsOf([&] { ASSERT_TRUE((*store)->PutString("k", "v").ok()); }),
            1u);
  // A flush: SST and MANIFEST publishes (2 each) plus the next segment (1).
  EXPECT_EQ(FsyncsOf([&] { ASSERT_TRUE((*store)->Flush().ok()); }), 5u);
}

// A file built piece by piece reaches its temp file through a bounded stage,
// not all at Commit, and publishes with PublishFile's two barriers.
TEST_F(DurabilityTest, FilePublisherStreamsThroughItsStage) {
  const Bytes piece(40 << 10, 'p');
  FilePublisher file(dir_ / "out.tmp", dir_ / "out", "test.publish");
  file.Stage(piece);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "out.tmp"));
  file.Stage(piece);  // the first piece no longer fits beside it: written
  EXPECT_EQ(std::filesystem::file_size(dir_ / "out.tmp"), piece.size());
  file.Stage(piece);
  EXPECT_EQ(std::filesystem::file_size(dir_ / "out.tmp"), 2 * piece.size());
  EXPECT_EQ(file.size(), 3 * piece.size());
  EXPECT_EQ(FsyncsOf([&] { ASSERT_TRUE(file.Commit().ok()); }), 2u);
  auto published = ReadWholeFile(dir_ / "out");
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(published->size(), 3 * piece.size());
  EXPECT_FALSE(std::filesystem::exists(dir_ / "out.tmp"));
}

// An SST build abandoned after it started writing (a failed compaction)
// leaves neither a temp file nor a published one.
TEST_F(DurabilityTest, AbandonedFilePublisherRemovesItsTempFile) {
  {
    FilePublisher file(dir_ / "out.tmp", dir_ / "out", "test.publish");
    file.Stage(Bytes(100 << 10, 'p'));
    EXPECT_TRUE(std::filesystem::exists(dir_ / "out.tmp"));
  }
  EXPECT_FALSE(std::filesystem::exists(dir_ / "out.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "out"));
}

replica::LogEntry Put(uint64_t seq, const std::string& value) {
  replica::LogEntry entry;
  entry.seq = seq;
  entry.epoch = 1;
  entry.key = "k" + std::to_string(seq);
  entry.value = MakeValue(std::string_view(value));
  return entry;
}

TEST_F(DurabilityTest, GroupLogBarriers) {
  auto log = replica::GroupLog::Open("g", dir_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(FsyncsOf([&] { ASSERT_TRUE((*log)->Append(Put(1, "v")).ok()); }),
            1u);
  ASSERT_TRUE((*log)->Append(Put(2, "v")).ok());
  // A trim republishes the file: the temp file and the directory.
  EXPECT_EQ(FsyncsOf([&] { ASSERT_TRUE((*log)->TrimThrough(1).ok()); }), 2u);
}

TEST_F(DurabilityTest, SqlCommitAndCheckpointBarriers) {
  const std::string synced_path = (dir_ / "synced").string();
  auto db = sql::Database::Open(synced_path);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("CREATE TABLE t (id INTEGER PRIMARY KEY)").ok());
  EXPECT_EQ(FsyncsOf([&] {
              ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
            }),
            1u);
  // The snapshot file, its directory, then the WAL reset.
  EXPECT_EQ(FsyncsOf([&] { ASSERT_TRUE((*db)->Checkpoint().ok()); }), 3u);

  sql::Database::Options unsynced;
  unsynced.sync_commits = false;
  auto fast = sql::Database::Open((dir_ / "unsynced").string(), unsynced);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE((*fast)->Execute("CREATE TABLE t (id INTEGER PRIMARY KEY)").ok());
  EXPECT_EQ(FsyncsOf([&] {
              ASSERT_TRUE((*fast)->Execute("INSERT INTO t VALUES (1)").ok());
            }),
            0u);
}

// --- Failed appends -----------------------------------------------------------
//
// For each log: append A and sync it, make B's write fail partway, append C
// and sync it, then recover from the files as they stand. A and C must both
// be there. The replication log's case is replica_test's
// ReplicaLogTest.FailedAppendRestoresDurableWatermark.

TEST_F(DurabilityTest, LsmWalFailedAppendLeavesNoGarbage) {
  lsm::LsmOptions options;
  options.memtable_bytes = 1u << 20;  // no flush: every record stays in the WAL
  auto store = lsm::LsmStore::Open(dir_ / "lsm", options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->PutString("a", "A").ok());
  std::filesystem::path segment;
  for (const auto& entry : std::filesystem::directory_iterator(dir_ / "lsm")) {
    if (entry.path().extension() == ".wal") segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  WithTornWrite(segment, [&] {
    EXPECT_TRUE((*store)->PutString("b", Big()).IsIOError());
  });
  ASSERT_TRUE((*store)->PutString("c", "C").ok());

  auto recovered = lsm::LsmStore::Open(CopyOf(dir_ / "lsm"), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*(*recovered)->GetString("a"), "A");
  EXPECT_EQ(*(*recovered)->GetString("c"), "C");
}

TEST_F(DurabilityTest, SqlWalFailedAppendLeavesNoGarbage) {
  const std::filesystem::path path = dir_ / "db";
  auto db = sql::Database::Open(path.string());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(
      (*db)->Execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").ok());
  ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1, 'A')").ok());
  WithTornWrite(path.string() + ".wal", [&] {
    EXPECT_FALSE(
        (*db)->Execute("INSERT INTO t VALUES (2, '" + Big() + "')").ok());
  });
  ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (3, 'C')").ok());

  CopyOf(path.string() + ".wal");
  auto recovered = sql::Database::Open((dir_ / "crashed" / "db").string());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto rows = (*recovered)->Execute("SELECT id, v FROM t ORDER BY id");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[0][1].AsText(), "A");
  EXPECT_EQ(rows->rows[1][1].AsText(), "C");
}

// --- The writer itself ----------------------------------------------------------

TEST_F(DurabilityTest, FiredCrashPointLeavesWriterDead) {
  auto wal = WalWriter::Open(dir_ / "w.log", "test.wal");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(ToBytes("a")).ok());
  fault::ArmCrashPoint("test.wal.torn_append");
  EXPECT_TRUE(fault::IsCrashStatus((*wal)->Append(ToBytes("bbbb")).status()));
  // The simulated process is dead: nothing lands behind the torn bytes.
  EXPECT_TRUE(fault::IsCrashStatus((*wal)->Append(ToBytes("c")).status()));
  EXPECT_TRUE(fault::IsCrashStatus((*wal)->Sync((*wal)->bytes())));
  auto records = ReadLogRecords(dir_ / "w.log");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(ToString(records->front().payload), "a");
}

TEST_F(DurabilityTest, OpenCutsTheTailRecoveryRejected) {
  {
    auto wal = WalWriter::Open(dir_ / "w.log", "test.wal");
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(ToBytes("keep")).ok());
    ASSERT_TRUE((*wal)->Append(ToBytes("drop")).ok());
  }
  auto records = ReadLogRecords(dir_ / "w.log");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  auto wal = WalWriter::Open(dir_ / "w.log", "test.wal", records->front().end);
  ASSERT_TRUE(wal.ok());
  const auto end = (*wal)->Append(ToBytes("next"));
  ASSERT_TRUE(end.ok());
  ASSERT_TRUE((*wal)->Sync(*end).ok());
  records = ReadLogRecords(dir_ / "w.log");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(ToString((*records)[0].payload), "keep");
  EXPECT_EQ(ToString((*records)[1].payload), "next");
  EXPECT_EQ((*records)[1].end, *end);
}

}  // namespace
}  // namespace dstore
