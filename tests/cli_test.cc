// End-to-end test of the udsm_cli example binary: feeds a command script
// through a pipe and checks the output, exactly as a user would drive it.

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace dstore {
namespace {

// Runs the CLI with `input` on stdin; returns its stdout.
std::string RunCli(const std::string& input) {
  int in_pipe[2], out_pipe[2];
  EXPECT_EQ(::pipe(in_pipe), 0);
  EXPECT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      ::close(fd);
    }
    ::execl(DSTORE_UDSM_CLI_PATH, DSTORE_UDSM_CLI_PATH,
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  // Write the whole script, then close stdin so the CLI exits.
  size_t off = 0;
  while (off < input.size()) {
    const ssize_t n =
        ::write(in_pipe[1], input.data() + off, input.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  ::close(in_pipe[1]);

  std::string output;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(out_pipe[0], buf, sizeof(buf))) > 0) {
    output.append(buf, static_cast<size_t>(n));
  }
  ::close(out_pipe[0]);
  int wait_status = 0;
  ::waitpid(pid, &wait_status, 0);
  EXPECT_TRUE(WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0)
      << output;
  return output;
}

TEST(CliTest, KeyValueWorkflow) {
  const std::string out = RunCli(
      "open scratch memory\n"
      "put greeting hello world\n"
      "get greeting\n"
      "has greeting\n"
      "has missing\n"
      "count\n"
      "del greeting\n"
      "get greeting\n"
      "quit\n");
  EXPECT_NE(out.find("opened scratch (memory)"), std::string::npos);
  EXPECT_NE(out.find("hello world"), std::string::npos);
  EXPECT_NE(out.find("yes"), std::string::npos);
  EXPECT_NE(out.find("no"), std::string::npos);
  EXPECT_NE(out.find("NotFound"), std::string::npos);
}

TEST(CliTest, SqlWorkflow) {
  const std::string out = RunCli(
      "open db sql\n"
      "sql CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT)\n"
      "sql INSERT INTO users VALUES (1, 'ada'), (2, 'bob')\n"
      "sql SELECT name, COUNT(*) FROM users GROUP BY name\n"
      "sql SELECT COUNT(*) FROM users\n"
      "quit\n");
  EXPECT_NE(out.find("ada"), std::string::npos);
  EXPECT_NE(out.find("bob"), std::string::npos);
  EXPECT_NE(out.find("COUNT(*)"), std::string::npos);
  EXPECT_NE(out.find("2"), std::string::npos);
}

TEST(CliTest, MultipleStoresAndMonitor) {
  const std::string out = RunCli(
      "open a memory\n"
      "open b memory\n"
      "stores\n"
      "use b\n"
      "put k v\n"
      "monitor\n"
      "quit\n");
  EXPECT_NE(out.find("a *"), std::string::npos);  // first opened is current
  EXPECT_NE(out.find("using b"), std::string::npos);
  // Monitor report header includes percentile columns.
  EXPECT_NE(out.find("p95_ms"), std::string::npos);
  EXPECT_NE(out.find("memory"), std::string::npos);
}

TEST(CliTest, StatsAndTrace) {
  const std::string out = RunCli(
      "open scratch memory\n"
      "put k v\n"
      "get k\n"
      "stats\n"
      "trace k\n"
      "quit\n");
  // `stats` renders the process registry in Prometheus text format; the
  // monitored get/put must show up as the op-latency histogram.
  EXPECT_NE(out.find("# TYPE dstore_op_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(out.find("dstore_op_latency_ms_bucket"), std::string::npos);
  EXPECT_NE(out.find("dstore_op_latency_ms_count"), std::string::npos);
  // `trace` force-samples one get and prints the span tree rooted at
  // cli.get with the monitored store op nested under it.
  EXPECT_NE(out.find("cli.get"), std::string::npos);
  EXPECT_NE(out.find("memory.get"), std::string::npos);
  EXPECT_NE(out.find("ms"), std::string::npos);
}

TEST(CliTest, ErrorsAreReportedNotFatal) {
  const std::string out = RunCli(
      "get nothing-open\n"
      "open s memory\n"
      "sql SELECT * FROM t\n"
      "bogus-command\n"
      "get after-errors\n"
      "quit\n");
  EXPECT_NE(out.find("no store selected"), std::string::npos);
  EXPECT_NE(out.find("not a sql store"), std::string::npos);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
  EXPECT_NE(out.find("NotFound"), std::string::npos);  // still functional
}

TEST(CliTest, LsmStatsReportsBlockCache) {
  const std::string dir = ::testing::TempDir() + "dstore_cli_lsm_" +
                          std::to_string(::getpid());
  const std::string out = RunCli("open l lsm " + dir +
                                 "\n"
                                 "put k v\n"
                                 "lsm compact\n"
                                 "get k\n"
                                 "get k\n"
                                 "lsm stats\n"
                                 "quit\n");
  // Compaction scanned the one block without caching it (1 miss); the
  // first get read and cached it (1 miss), the second hit it.
  EXPECT_NE(out.find("block cache: 0 bytes, 0 entries, 0 hits, 1 misses"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(" bytes, 1 entries, 1 hits, 2 misses"),
            std::string::npos)
      << out;
  std::filesystem::remove_all(dir);
}

TEST(CliTest, ShardTopologyWorkflow) {
  std::string script = "open s shard 3\n";
  for (int i = 0; i < 16; ++i) {
    script += "put user:" + std::to_string(i) + " v" + std::to_string(i) + "\n";
  }
  script +=
      "topology\n"
      "addshard extra\n"
      "topology\n"
      "count\n"
      "rmshard extra\n"
      "count\n"
      "topology\n"
      "quit\n";
  const std::string out = RunCli(script);
  EXPECT_NE(out.find("opened s (shard)"), std::string::npos);
  EXPECT_NE(out.find("shards=3"), std::string::npos);
  EXPECT_NE(out.find("shard s0 own="), std::string::npos);
  EXPECT_NE(out.find("shard s2 own="), std::string::npos);
  // The resize completed (the CLI waits for the migrator), the new shard
  // shows up in the topology, and no keys were lost either way.
  EXPECT_NE(out.find("added extra (4 shards,"), std::string::npos);
  EXPECT_NE(out.find("shard extra own="), std::string::npos);
  EXPECT_NE(out.find("removed extra (3 shards,"), std::string::npos);
  EXPECT_NE(out.find("\n16\n"), std::string::npos);
  // After the remove, "extra" must be gone from the topology again.
  EXPECT_EQ(out.rfind("shard extra"), out.find("shard extra"));
}

TEST(CliTest, ReplicaStatusAndPromoteWorkflow) {
  const std::string out = RunCli(
      "open r replicated 3 2 2\n"
      "put greeting hello\n"
      "get greeting\n"
      "replica status\n"
      "replica promote r1\n"
      "replica status\n"
      "get greeting\n"
      "count\n"
      "quit\n");
  EXPECT_NE(out.find("opened r (replicated)"), std::string::npos);
  EXPECT_NE(out.find("hello"), std::string::npos);
  EXPECT_NE(out.find("epoch 1"), std::string::npos);
  EXPECT_NE(out.find("primary r0"), std::string::npos);
  // Manual failover drill: r1 takes over at epoch 2 and the data survives.
  EXPECT_NE(out.find("promoted r1 (epoch 2)"), std::string::npos);
  EXPECT_NE(out.find("primary r1"), std::string::npos);
  EXPECT_NE(out.find("\n1\n"), std::string::npos);
}

TEST(CliTest, ReplicaRejectsStatusOnNonReplicatedStore) {
  const std::string out = RunCli(
      "open m memory\n"
      "replica status\n"
      "quit\n");
  EXPECT_NE(out.find("not a replicated store"), std::string::npos);
}

TEST(CliTest, ShardRejectsTopologyOnNonShardStore) {
  const std::string out = RunCli(
      "open m memory\n"
      "topology\n"
      "quit\n");
  EXPECT_NE(out.find("not a shard store"), std::string::npos);
}

}  // namespace
}  // namespace dstore
