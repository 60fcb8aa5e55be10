// True inter-process tests: spawn the standalone server binaries as child
// processes and talk to them over TCP — the literal "remote process cache"
// deployment of paper Section III, including warm restart across process
// lifetimes.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/lru_cache.h"
#include "dscl/cache_persistence.h"
#include "store/cloud_client.h"
#include "store/file_store.h"
#include "store/remote_cache.h"

namespace dstore {
namespace {

// In a forked child: replaces the process image with `binary args...`.
[[noreturn]] void Exec(const std::string& binary,
                       const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  ::execv(binary.c_str(), argv.data());
  _exit(127);
}

// Launches `binary` with `args`, waits for "LISTENING <port>" on its stdout.
class ChildServer {
 public:
  ChildServer(const std::string& binary, std::vector<std::string> args) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) return;
    pid_ = ::fork();
    if (pid_ < 0) return;
    if (pid_ == 0) {
      // Child: stdout -> pipe.
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      Exec(binary, args);
    }
    ::close(pipe_fds[1]);
    // Parent: read until the LISTENING line.
    std::string line;
    char c;
    while (::read(pipe_fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    ::close(pipe_fds[0]);
    if (line.rfind("LISTENING ", 0) != 0) {
      ADD_FAILURE() << "child said: " << line;
      Terminate();
      return;
    }
    port_ = static_cast<uint16_t>(std::stoi(line.substr(10)));
    ok_ = true;
  }

  bool ok() const { return ok_; }

  ~ChildServer() { Terminate(); }

  void Terminate() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int wait_status = 0;
      ::waitpid(pid_, &wait_status, 0);
      pid_ = -1;
    }
  }

  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  bool ok_ = false;
};

// Runs `binary` with `args` (output discarded) and returns its exit status,
// or -1 if it did not exit normally.
int ExitStatusOf(const std::string& binary,
                 const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    Exec(binary, args);
  }
  int wait_status = 0;
  if (::waitpid(pid, &wait_status, 0) != pid) return -1;
  return WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
}

// --eviction is the one way a deployment picks ClockCache or GdsCache over
// the default LRU; each policy must serve a round trip.
TEST(ProcessServerTest, CacheServerServesEveryEvictionPolicy) {
  for (const std::string policy : {"clock", "gds"}) {
    ChildServer server(DSTORE_CACHE_SERVER_PATH,
                       {"--port=0", "--eviction=" + policy});
    ASSERT_TRUE(server.ok()) << policy;
    auto conn = RemoteCacheConnection::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok()) << policy;
    RemoteCacheStore store(*conn);
    ASSERT_TRUE(store.PutString("k", policy).ok()) << policy;
    EXPECT_EQ(*store.GetString("k"), policy);
  }
}

TEST(ProcessServerTest, CacheServerRejectsUnknownEvictionPolicy) {
  EXPECT_EQ(ExitStatusOf(DSTORE_CACHE_SERVER_PATH,
                         {"--port=0", "--eviction=bogus"}),
            2);
}

TEST(ProcessServerTest, CacheServerServesAcrossProcessBoundary) {
  ChildServer server(DSTORE_CACHE_SERVER_PATH,
                     {"--port=0", "--capacity-mb=16"});
  ASSERT_TRUE(server.ok());
  auto conn = RemoteCacheConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  RemoteCacheStore store(*conn);
  ASSERT_TRUE(store.PutString("cross-process", "works").ok());
  EXPECT_EQ(*store.GetString("cross-process"), "works");
  EXPECT_TRUE((*conn)->Ping().ok());
}

TEST(ProcessServerTest, CacheServerWarmRestart) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dstore_warm_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string warm_file = (dir / "warm.snapshot").string();

  {
    ChildServer server(DSTORE_CACHE_SERVER_PATH,
                       {"--port=0", "--warm-file=" + warm_file});
    ASSERT_TRUE(server.ok());
    auto conn = RemoteCacheConnection::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok());
    RemoteCacheStore store(*conn);
    ASSERT_TRUE(store.PutString("persisted", "through restart").ok());
    // SIGTERM: the server saves warm state on the way down.
  }

  {
    ChildServer restarted(DSTORE_CACHE_SERVER_PATH,
                          {"--port=0", "--warm-file=" + warm_file});
    ASSERT_TRUE(restarted.ok());
    auto conn = RemoteCacheConnection::Connect("127.0.0.1", restarted.port());
    ASSERT_TRUE(conn.ok());
    RemoteCacheStore store(*conn);
    auto got = store.GetString("persisted");
    ASSERT_TRUE(got.ok()) << "warm state was not restored";
    EXPECT_EQ(*got, "through restart");
    ASSERT_TRUE(store.PutString("second", "life").ok());
    // SIGTERM again: this save must carry both keys.
  }

  // The child has exited, so its save is complete: load the warm file the
  // way the server does and check both keys made it.
  auto warm_store = FileStore::Open(dir);
  ASSERT_TRUE(warm_store.ok());
  LruCache cache(1u << 20);
  auto loaded = LoadCacheFromStore(&cache, warm_store->get(), "warm.snapshot");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 2u);
  auto persisted = cache.Get("persisted");
  ASSERT_TRUE(persisted.ok());
  EXPECT_EQ(ToString(**persisted), "through restart");
  auto second = cache.Get("second");
  ASSERT_TRUE(second.ok()) << "the restarted server's save lost a key";
  EXPECT_EQ(ToString(**second), "life");

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ProcessServerTest, CloudServerServesHttpAcrossProcessBoundary) {
  ChildServer server(DSTORE_CLOUD_SERVER_PATH,
                     {"--port=0", "--profile=none"});
  ASSERT_TRUE(server.ok());
  auto client = CloudStoreClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->PutString("obj", "payload").ok());
  EXPECT_EQ(*(*client)->GetString("obj"), "payload");
  auto conditional =
      (*client)->GetIfChanged("obj", (*client)->last_put_etag());
  ASSERT_TRUE(conditional.ok());
  EXPECT_TRUE(conditional->not_modified);
}

TEST(ProcessServerTest, MultipleClientsShareOneServerProcess) {
  ChildServer server(DSTORE_CACHE_SERVER_PATH, {"--port=0"});
  ASSERT_TRUE(server.ok());
  auto conn1 = RemoteCacheConnection::Connect("127.0.0.1", server.port());
  auto conn2 = RemoteCacheConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn1.ok());
  ASSERT_TRUE(conn2.ok());
  RemoteCacheStore writer(*conn1);
  RemoteCacheStore reader(*conn2);
  ASSERT_TRUE(writer.PutString("shared", "data").ok());
  EXPECT_EQ(*reader.GetString("shared"), "data");
}

}  // namespace
}  // namespace dstore
