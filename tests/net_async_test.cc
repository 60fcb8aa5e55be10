// The net test family: concurrency and pipelining behavior of the
// event-driven server core (net/async_server.h), plus the contracts it
// shares with the threaded fallback. Run via `ctest -L net` or
// `scripts/check.sh net` (Release and TSan).

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/sync.h"
#include "fault/fault.h"
#include "net/async_server.h"
#include "net/reactor.h"
#include "net/framing.h"
#include "net/http.h"
#include "net/latency_model.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "store/cloud_server.h"
#include "store/key_value.h"

namespace dstore {
namespace {

using std::chrono::milliseconds;

// Polls `pred` until it holds or `timeout` elapses.
bool WaitFor(const std::function<bool()>& pred,
             milliseconds timeout = milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    RealClock::Default()->SleepFor((2) * 1'000'000LL);
  }
  return pred();
}

uint64_t CounterValue(const std::string& name, const obs::Labels& labels) {
  return obs::MetricsRegistry::Default()->GetCounter(name, labels, "")->Value();
}

// The whole net family runs with the blocking-context check counting (not
// aborting): if any reactor loop thread reaches a DSTORE_BLOCKING primitive
// anywhere in the suite — fault injection, backpressure, shutdown races —
// the suite fails here even though no individual test looked.
class BlockingCheckEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    sync::SetBlockingChecking(true);
    sync::SetBlockingAborts(false);
    baseline_ = sync::BlockingViolations();
  }
  void TearDown() override {
    EXPECT_EQ(sync::BlockingViolations(), baseline_)
        << "a reactor loop thread made a blocking call during the net suite";
    sync::SetBlockingAborts(true);
    sync::SetBlockingChecking(false);
  }

 private:
  uint64_t baseline_ = 0;
};

const auto* const kBlockingCheckEnv =
    ::testing::AddGlobalTestEnvironment(new BlockingCheckEnvironment);

// --- Incremental HTTP parser ------------------------------------------------

TEST(HttpParseTest, NeedsMoreUntilComplete) {
  HttpRequest request;
  request.method = "POST";
  request.path = "/echo";
  request.body = ToBytes("payload");
  Bytes wire;
  SerializeHttpRequest(request, &wire);

  // Every strict prefix parses to kNeedMore; the full buffer parses.
  for (size_t n = 0; n < wire.size(); ++n) {
    HttpRequest out;
    size_t consumed = 0;
    EXPECT_EQ(ParseHttpRequest(wire.data(), n, &out, &consumed),
              HttpParseOutcome::kNeedMore)
        << "prefix of " << n << " bytes";
  }
  HttpRequest out;
  size_t consumed = 0;
  ASSERT_EQ(ParseHttpRequest(wire.data(), wire.size(), &out, &consumed),
            HttpParseOutcome::kParsed);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.method, "POST");
  EXPECT_EQ(out.path, "/echo");
  EXPECT_EQ(ToString(out.body), "payload");
}

TEST(HttpParseTest, PipelinedRequestsParseSequentially) {
  Bytes wire;
  for (int i = 0; i < 3; ++i) {
    HttpRequest request;
    request.method = "GET";
    request.path = "/r" + std::to_string(i);
    SerializeHttpRequest(request, &wire);
  }
  size_t pos = 0;
  for (int i = 0; i < 3; ++i) {
    HttpRequest out;
    size_t consumed = 0;
    ASSERT_EQ(ParseHttpRequest(wire.data() + pos, wire.size() - pos, &out,
                               &consumed),
              HttpParseOutcome::kParsed);
    EXPECT_EQ(out.path, "/r" + std::to_string(i));
    pos += consumed;
  }
  EXPECT_EQ(pos, wire.size());
}

TEST(HttpParseTest, GarbageIsAnError) {
  const std::string junk = "definitely-not-a-request-line\r\n\r\n";
  HttpRequest out;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseHttpRequest(reinterpret_cast<const uint8_t*>(junk.data()),
                             junk.size(), &out, &consumed, &error),
            HttpParseOutcome::kError);
  EXPECT_FALSE(error.empty());
}

// --- Pipelining -------------------------------------------------------------

// Responses must come back in request order even when later requests finish
// first: the first request sleeps longest, so out-of-order completion is the
// common case here, not a fluke.
TEST(AsyncServerTest, HttpPipelinedResponsesInRequestOrder) {
  constexpr int kRequests = 4;
  auto server = MakeHttpServer([](const HttpRequest& request) {
    const int index = request.path.back() - '0';
    RealClock::Default()->SleepFor(((kRequests - 1 - index) * 40) * 1'000'000LL);
    HttpResponse response;
    response.body = ToBytes("reply:" + request.path);
    return response;
  });
  ASSERT_TRUE(server->Start(0).ok());

  auto client = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  Bytes wire;
  for (int i = 0; i < kRequests; ++i) {
    HttpRequest request;
    request.method = "GET";
    request.path = "/r" + std::to_string(i);
    SerializeHttpRequest(request, &wire);
  }
  ASSERT_TRUE(client->WriteFull(wire).ok());  // all requests in one write

  HttpConnection http(std::move(*client));
  for (int i = 0; i < kRequests; ++i) {
    auto response = http.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(ToString(response->body), "reply:/r" + std::to_string(i));
  }
  server->Stop();
}

TEST(AsyncServerTest, FramedPipelinedResponsesInRequestOrder) {
  constexpr int kRequests = 5;
  auto server = MakeFramedServer([](const Bytes& request) {
    const int index = request.back() - '0';
    RealClock::Default()->SleepFor(((kRequests - 1 - index) * 25) * 1'000'000LL);
    return ToBytes("echo:" + ToString(request));
  });
  ASSERT_TRUE(server->Start(0).ok());

  auto client = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  Bytes wire;
  for (int i = 0; i < kRequests; ++i) {
    const Bytes payload = ToBytes("msg" + std::to_string(i));
    PutFixed32(&wire, static_cast<uint32_t>(payload.size()));
    wire.insert(wire.end(), payload.begin(), payload.end());
  }
  ASSERT_TRUE(client->WriteFull(wire).ok());

  for (int i = 0; i < kRequests; ++i) {
    auto frame = ReadFrame(&*client);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(ToString(*frame), "echo:msg" + std::to_string(i));
  }
  server->Stop();
}

// A request arriving one byte at a time — worst-case fragmentation for the
// incremental parsers — must reassemble into exactly one request.
TEST(AsyncServerTest, FragmentedFramesReassembled) {
  std::atomic<int> handled{0};
  auto server = MakeFramedServer([&handled](const Bytes& request) {
    handled.fetch_add(1);
    return request;  // echo
  });
  ASSERT_TRUE(server->Start(0).ok());

  auto client = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  Bytes wire;
  const Bytes payload = ToBytes("fragmented-payload");
  PutFixed32(&wire, static_cast<uint32_t>(payload.size()));
  wire.insert(wire.end(), payload.begin(), payload.end());
  for (uint8_t byte : wire) {
    ASSERT_TRUE(client->WriteFull(&byte, 1).ok());
  }
  auto frame = ReadFrame(&*client);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(ToString(*frame), "fragmented-payload");
  EXPECT_EQ(handled.load(), 1);
  server->Stop();
}

TEST(AsyncServerTest, HttpRequestSplitMidHeaderReassembled) {
  auto server = MakeHttpServer([](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.body;
    return response;
  });
  ASSERT_TRUE(server->Start(0).ok());

  auto client = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  HttpRequest request;
  request.method = "POST";
  request.path = "/echo";
  request.body = ToBytes("split");
  Bytes wire;
  SerializeHttpRequest(request, &wire);
  // Split inside the header block, pause, then send the rest plus a whole
  // second request in the same write.
  const size_t cut = wire.size() / 3;
  ASSERT_TRUE(client->WriteFull(wire.data(), cut).ok());
  RealClock::Default()->SleepFor((20) * 1'000'000LL);
  Bytes rest(wire.begin() + static_cast<long>(cut), wire.end());
  SerializeHttpRequest(request, &rest);
  ASSERT_TRUE(client->WriteFull(rest).ok());

  HttpConnection http(std::move(*client));
  for (int i = 0; i < 2; ++i) {
    auto response = http.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(ToString(response->body), "split");
  }
  server->Stop();
}

// --- Backpressure -----------------------------------------------------------

// A client that writes requests but never reads responses must not make the
// server buffer unboundedly: once unsent output passes the limit the server
// stops reading that connection (PausedConnectionCount) and resumes when the
// client drains. Every response still arrives, intact and in order.
TEST(AsyncServerTest, SlowReaderBackpressureIsBounded) {
  // Enough response volume (16 MiB) to overwhelm kernel socket buffering,
  // so the output-buffer pause is sustained rather than transient.
  constexpr int kRequests = 256;
  constexpr size_t kResponseBytes = 64 * 1024;
  AsyncServerOptions options;
  options.max_output_buffer_bytes = 128 * 1024;
  options.max_in_flight_per_connection = 4;
  auto server = MakeFramedServer(
      [](const Bytes& request) {
        Bytes response(kResponseBytes, request.empty() ? 0 : request[0]);
        return response;
      },
      std::move(options));
  ASSERT_TRUE(server->Start(0).ok());

  auto client = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  // Feed requests from a separate thread: once the server pauses reading,
  // our writes themselves start blocking on the socket buffer.
  std::thread writer([&client] {
    for (int i = 0; i < kRequests; ++i) {
      Bytes wire;
      const Bytes payload(1, static_cast<uint8_t>('a' + (i % 26)));
      PutFixed32(&wire, static_cast<uint32_t>(payload.size()));
      wire.insert(wire.end(), payload.begin(), payload.end());
      if (!client->WriteFull(wire).ok()) return;
    }
  });

  // The server must hit the backpressure limit and pause the connection
  // while we are not reading.
  EXPECT_TRUE(WaitFor([&server] { return server->PausedConnectionCount() > 0; }))
      << "server never paused a slow-reader connection";

  // Now drain: every response arrives, intact, in request order.
  for (int i = 0; i < kRequests; ++i) {
    auto frame = ReadFrame(&*client);
    ASSERT_TRUE(frame.ok()) << "response " << i << ": "
                            << frame.status().ToString();
    ASSERT_EQ(frame->size(), kResponseBytes);
    EXPECT_EQ((*frame)[0], static_cast<uint8_t>('a' + (i % 26)));
  }
  writer.join();
  EXPECT_TRUE(WaitFor([&server] { return server->PausedConnectionCount() == 0; }));
  server->Stop();
}

// --- Scale ------------------------------------------------------------------

// The point of the reactor: connection count is no longer bounded by thread
// count. A thousand idle connections cost a thousand fds, not a thousand
// stacks — and a request on any one of them is still served promptly.
TEST(AsyncServerTest, ThousandIdleConnectionsServed) {
  constexpr int kConnections = 1050;
  auto server = MakeFramedServer([](const Bytes& request) { return request; });
  ASSERT_TRUE(server->Start(0).ok());

  std::vector<Socket> idle;
  idle.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    auto conn = Socket::ConnectTcp("127.0.0.1", server->port());
    ASSERT_TRUE(conn.ok()) << "connection " << i << ": "
                           << conn.status().ToString();
    idle.push_back(std::move(*conn));
  }
  ASSERT_TRUE(WaitFor(
      [&server] { return server->ConnectionCount() >= kConnections; },
      milliseconds(10000)))
      << "registered " << server->ConnectionCount() << " of " << kConnections;

  // The last connection in — behind a thousand idle peers — still works.
  ASSERT_TRUE(WriteFrame(&idle.back(), ToBytes("ping")).ok());
  auto reply = ReadFrame(&idle.back());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ToString(*reply), "ping");

  for (auto& conn : idle) conn.Close();
  EXPECT_TRUE(WaitFor([&server] { return server->ConnectionCount() == 0; },
                      milliseconds(10000)))
      << server->ConnectionCount() << " connections still registered";
  server->Stop();
}

// --- Shutdown ---------------------------------------------------------------

TEST(AsyncServerTest, StopDuringInFlightRequestsJoinsCleanly) {
  std::atomic<int> started{0};
  auto server = MakeHttpServer([&started](const HttpRequest&) {
    started.fetch_add(1);
    RealClock::Default()->SleepFor((150) * 1'000'000LL);
    return HttpResponse{};
  });
  ASSERT_TRUE(server->Start(0).ok());

  auto client = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  HttpRequest request;
  request.method = "GET";
  request.path = "/slow";
  Bytes wire;
  SerializeHttpRequest(request, &wire);
  ASSERT_TRUE(client->WriteFull(wire).ok());
  ASSERT_TRUE(WaitFor([&started] { return started.load() > 0; }));

  server->Stop();  // handler still sleeping: must join, not crash or hang
  EXPECT_FALSE(server->running());
  server->Stop();  // idempotent
}

TEST(AsyncServerTest, StartTwiceFails) {
  auto server = MakeFramedServer([](const Bytes& request) { return request; });
  ASSERT_TRUE(server->Start(0).ok());
  EXPECT_FALSE(server->Start(0).ok());
  server->Stop();
}

// --- Fault injection --------------------------------------------------------

// The accept-site injector must fire on the async accept loop exactly as it
// did on the threaded one: the refused connection is dropped (client sees
// EOF), the next one is served.
TEST(AsyncServerFaultTest, AcceptFaultDropsConnection) {
  auto plan = fault::FaultPlan::FromSpec(/*seed=*/1, "site=net.accept at=1");
  ASSERT_TRUE(plan.ok());
  fault::ScopedSocketFaultInjector scoped(
      std::make_shared<fault::PlanSocketFaultInjector>(*plan));

  auto server = MakeFramedServer([](const Bytes& request) { return request; });
  ASSERT_TRUE(server->Start(0).ok());

  auto dropped = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(dropped.ok());  // TCP handshake succeeds; server drops after
  uint8_t byte = 0;
  EXPECT_FALSE(dropped->ReadFull(&byte, 1).ok());  // EOF or reset
  EXPECT_GE((*plan)->injected_total(), 1u);

  auto served = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(WriteFrame(&*served, ToBytes("after")).ok());
  auto reply = ReadFrame(&*served);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ToString(*reply), "after");
  server->Stop();
}

// Targets the *server's* reads and writes without the client's own socket
// calls consuming the schedule: the async core reads in 16 KiB chunks and
// writes whole response buffers, so faults keyed on operation size fire
// only server-side.
class ServerSideFaultInjector : public fault::SocketFaultInjector {
 public:
  // Chunk size used by the async core's read loop (async_server.cc).
  static constexpr size_t kServerReadChunk = 16 * 1024;

  std::atomic<int> read_resets{0};
  std::atomic<int> short_writes{0};
  std::atomic<int> read_stalls{0};
  std::atomic<bool> reset_reads{false};  // armed mid-test, read by I/O threads
  bool shorten_big_writes = false;
  int64_t stall_nanos = 0;

  std::optional<fault::SocketFault> OnConnect(const std::string&,
                                              uint16_t) override {
    return std::nullopt;
  }
  std::optional<fault::SocketFault> OnAccept() override {
    return std::nullopt;
  }
  std::optional<fault::SocketFault> OnRead(size_t len) override {
    if (len != kServerReadChunk) return std::nullopt;
    if (reset_reads && read_resets.fetch_add(1) == 0) {
      fault::SocketFault f;
      f.error = Status::IOError("injected reset");
      f.reset = true;
      return f;
    }
    if (stall_nanos > 0 && read_stalls.fetch_add(1) == 0) {
      fault::SocketFault f;
      f.stall_nanos = stall_nanos;
      return f;  // error OK: stall, then proceed
    }
    return std::nullopt;
  }
  std::optional<fault::SocketFault> OnWrite(size_t len) override {
    if (!shorten_big_writes || len < 50'000) return std::nullopt;
    if (short_writes.fetch_add(1) > 0) return std::nullopt;
    fault::SocketFault f;
    f.error = Status::IOError("injected short write");
    f.allow_prefix = len / 2;
    return f;
  }
};

TEST(AsyncServerFaultTest, MidMessageResetOnServerRead) {
  auto injector = std::make_shared<ServerSideFaultInjector>();
  fault::ScopedSocketFaultInjector scoped(injector);

  auto server = MakeFramedServer([](const Bytes& request) { return request; });
  ASSERT_TRUE(server->Start(0).ok());

  auto client = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  // Deliver half a frame with the injector disarmed — the server's
  // optimistic post-accept read can race the client's first write, so
  // arming up front would sometimes reset the connection before any bytes
  // go out. Armed after the first half lands, the reset fires on a read
  // that is genuinely mid-message.
  const Bytes payload = ToBytes("doomed");
  Bytes wire;
  PutFixed32(&wire, static_cast<uint32_t>(payload.size()));
  wire.insert(wire.end(), payload.begin(), payload.end());
  const size_t half = wire.size() / 2;
  ASSERT_TRUE(client->WriteFull(wire.data(), half).ok());
  injector->reset_reads = true;
  // Best effort: if the server had not yet consumed the first half, its
  // armed read resets the connection before this write is observed.
  (void)client->WriteFull(wire.data() + half, wire.size() - half);

  auto reply = ReadFrame(&*client);
  EXPECT_FALSE(reply.ok()) << "server read should have been reset";
  EXPECT_GE(injector->read_resets.load(), 1);
  EXPECT_TRUE(WaitFor([&server] { return server->ConnectionCount() == 0; }));
  server->Stop();
}

TEST(AsyncServerFaultTest, ShortWriteTruncatesResponse) {
  auto injector = std::make_shared<ServerSideFaultInjector>();
  injector->shorten_big_writes = true;
  fault::ScopedSocketFaultInjector scoped(injector);

  // Response large enough that only the server's response write crosses the
  // injector's size threshold.
  auto server = MakeFramedServer(
      [](const Bytes&) { return Bytes(100 * 1024, 0x5a); });
  ASSERT_TRUE(server->Start(0).ok());

  auto client = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(WriteFrame(&*client, ToBytes("gimme")).ok());
  auto reply = ReadFrame(&*client);
  EXPECT_FALSE(reply.ok()) << "truncated response should not parse";
  EXPECT_GE(injector->short_writes.load(), 1);
  server->Stop();
}

TEST(AsyncServerFaultTest, ReadStallDelaysResponse) {
  auto injector = std::make_shared<ServerSideFaultInjector>();
  injector->stall_nanos = 80'000'000;  // 80ms
  fault::ScopedSocketFaultInjector scoped(injector);

  auto server = MakeFramedServer([](const Bytes& request) { return request; });
  ASSERT_TRUE(server->Start(0).ok());

  auto client = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(WriteFrame(&*client, ToBytes("slow")).ok());
  auto reply = ReadFrame(&*client);
  ASSERT_TRUE(reply.ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<milliseconds>(elapsed).count(), 70)
      << "stall did not delay the request";
  EXPECT_GE(injector->read_stalls.load(), 1);
  server->Stop();
}

// Regression for the loop-stall bug the blocking-context work surfaced: the
// injected read stall used to SleepFor *on the reactor I/O thread*, so every
// connection multiplexed on that loop froze for the stall's duration. The
// fix defers the resume via a reactor timer (RunAfter), so a stalled
// connection waits alone. One io thread forces both connections onto the
// same loop — the configuration where the old bug was guaranteed to bite.
TEST(AsyncServerFaultTest, ReadStallDoesNotBlockOtherConnections) {
  auto injector = std::make_shared<ServerSideFaultInjector>();
  injector->stall_nanos = 300'000'000;  // 300ms
  fault::ScopedSocketFaultInjector scoped(injector);

  const uint64_t violations_before = sync::BlockingViolations();

  AsyncServerOptions options;
  options.io_threads = 1;
  auto server = MakeFramedServer(
      [](const Bytes& request) { return request; }, std::move(options));
  ASSERT_TRUE(server->Start(0).ok());

  auto stalled = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(stalled.ok());
  const auto stall_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(WriteFrame(&*stalled, ToBytes("stalled")).ok());
  ASSERT_TRUE(WaitFor([&] { return injector->read_stalls.load() >= 1; }))
      << "stall never fired";

  // While connection A sits in its 300ms stall, connection B — on the same
  // loop — must still round-trip promptly. Under the old sleeping-loop
  // behavior this took the full stall; 150ms is a generous bound for an
  // unstalled echo even on a loaded CI box.
  auto other = Socket::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(other.ok());
  const auto other_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(WriteFrame(&*other, ToBytes("prompt")).ok());
  auto other_reply = ReadFrame(&*other);
  ASSERT_TRUE(other_reply.ok());
  EXPECT_EQ(ToString(*other_reply), "prompt");
  const auto other_elapsed = std::chrono::steady_clock::now() - other_start;
  EXPECT_LT(std::chrono::duration_cast<milliseconds>(other_elapsed).count(),
            150)
      << "the stalled connection blocked the shared loop";

  // The stalled connection still pays its own delay — per-connection chaos
  // semantics survive the fix.
  auto stalled_reply = ReadFrame(&*stalled);
  ASSERT_TRUE(stalled_reply.ok());
  EXPECT_EQ(ToString(*stalled_reply), "stalled");
  const auto stalled_elapsed = std::chrono::steady_clock::now() - stall_start;
  EXPECT_GE(
      std::chrono::duration_cast<milliseconds>(stalled_elapsed).count(), 250)
      << "stall no longer delays its own connection";

  server->Stop();
  // The loop never slept: the runtime blocking check (armed suite-wide by
  // BlockingCheckEnvironment) saw nothing.
  EXPECT_EQ(sync::BlockingViolations(), violations_before);
}

// --- Blocking-context runtime enforcement -----------------------------------

// A DSTORE_BLOCKING primitive reached from a RunInLoop task must abort (in
// checked mode with aborts on) naming the primitive and the loop.
TEST(ReactorBlockingDeathTest, SleepOnLoopThreadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sync::SetBlockingChecking(true);
        sync::SetBlockingAborts(true);
        Reactor reactor("death-test-loop");
        ASSERT_TRUE(reactor.Start().ok());
        reactor.RunInLoop(
            [] { RealClock::Default()->SleepFor(1'000'000); });
        // The abort lands first; this keeps the child alive long enough.
        RealClock::Default()->SleepFor(5'000'000'000LL);
      },
      "BLOCKING CALL ON REACTOR LOOP THREAD");
}

// The loop-stall watchdog is the net under the annotations: a loop that sits
// inside one event batch — for any reason the static analyzer cannot see —
// shows up in the dstore_reactor_stall_ms gauge while it is stuck.
TEST(ReactorWatchdogTest, StallGaugeRisesDuringDeliberateStall) {
  Reactor reactor("watchdog-test-loop");
  ASSERT_TRUE(reactor.Start().ok());

  std::atomic<bool> release{false};
  std::atomic<bool> done{false};
  reactor.RunInLoop([&] {
    // Suppressed on purpose: the whole point is to hold the loop inside a
    // batch so the watchdog (not the blocking check) reports it.
    DSTORE_BLOCKING_OK("deliberate stall: exercising the loop watchdog");
    while (!release.load()) {
      RealClock::Default()->SleepFor(5'000'000);
    }
    done = true;
  });

  EXPECT_TRUE(WaitFor(
      [] { return reactor_internal::WorstStallMillis() >= 100; }))
      << "watchdog never saw the stalled loop";

  release = true;
  ASSERT_TRUE(WaitFor([&] { return done.load(); }));
  EXPECT_TRUE(WaitFor(
      [] { return reactor_internal::WorstStallMillis() < 100; }))
      << "stall age did not recover after the loop went idle";
  reactor.Stop();
}

// --- ServerQueue under pipelining (regression) ------------------------------

// With pipelining one client lands N requests at once, and each must take
// its own admission — counted per request, shed per request — with excess
// shed as 503 and every response still delivered in order on the one
// connection.
TEST(ServerQueuePipelineTest, PipelinedRequestsAdmittedAndShedPerRequest) {
  constexpr int kRequests = 6;
  admit::ServerQueue::Options queue_options;
  queue_options.name = "pipereg";
  queue_options.max_concurrency = 1;
  queue_options.max_queue_depth = 2;
  queue_options.queue_budget_nanos = 10'000'000'000;  // effectively no limit

  const obs::Labels queue_labels = {{"queue", "pipereg"}};
  const obs::Labels shed_labels = {{"queue", "pipereg"}, {"reason", "full"}};
  const uint64_t admitted_before =
      CounterValue("dstore_admit_queue_admitted_total", queue_labels);
  const uint64_t shed_before =
      CounterValue("dstore_admit_queue_shed_total", shed_labels);

  // 40ms of injected WAN latency keeps the first request occupying the one
  // concurrency slot while the rest of the pipeline burst arrives.
  auto server = CloudStoreServer::Start(
      std::make_unique<FixedLatency>(40'000'000), /*port=*/0, queue_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = Socket::ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Bytes wire;
  for (int i = 0; i < kRequests; ++i) {
    HttpRequest request;
    request.method = "PUT";
    request.path = "/objects/k" + std::to_string(i);
    request.body = ToBytes("value" + std::to_string(i));
    SerializeHttpRequest(request, &wire);
  }
  ASSERT_TRUE(client->WriteFull(wire).ok());  // the whole burst in one write

  int ok_count = 0, shed_count = 0;
  HttpConnection http(std::move(*client));
  for (int i = 0; i < kRequests; ++i) {
    auto response = http.ReadResponse();
    ASSERT_TRUE(response.ok()) << "response " << i << ": "
                               << response.status().ToString();
    if (response->status_code == 200) {
      // In-order delivery: the i-th response answers the i-th request, so a
      // 200 here must carry the etag of body i.
      EXPECT_EQ(response->headers.at("etag"),
                ComputeEtag(ToBytes("value" + std::to_string(i))))
          << "response " << i << " answered a different request";
      ++ok_count;
    } else {
      EXPECT_EQ(response->status_code, 503);
      EXPECT_EQ(response->headers.at("x-dstore-shed"), "1");
      ++shed_count;
    }
  }
  EXPECT_EQ(ok_count + shed_count, kRequests);
  // One slot plus two queue positions survive the burst; the rest shed.
  EXPECT_GE(ok_count, 3);
  EXPECT_GE(shed_count, 1);

  // Per-request accounting: each 200 took exactly one normal-lane
  // admission, each 503 one full-queue shed — nothing counted
  // per-connection.
  EXPECT_EQ(CounterValue("dstore_admit_queue_admitted_total", queue_labels) -
                admitted_before,
            static_cast<uint64_t>(ok_count));
  EXPECT_EQ(CounterValue("dstore_admit_queue_shed_total", shed_labels) -
                shed_before,
            static_cast<uint64_t>(shed_count));
  (*server)->Stop();
}

// Companion regression for the priority-lane accounting fix: data-plane
// requests must never touch the priority lane (they used to enter it once
// each, drowning the control-plane signal); obs routes must take it exactly
// once per request.
TEST(ServerQueuePipelineTest, PriorityLaneCountsOnlyObsRoutes) {
  admit::ServerQueue::Options queue_options;
  queue_options.name = "priolane";
  const obs::Labels queue_labels = {{"queue", "priolane"}};

  auto server = CloudStoreServer::Start(std::make_unique<NoLatency>(),
                                        /*port=*/0, queue_options);
  ASSERT_TRUE(server.ok());
  auto client = Socket::ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  HttpConnection http(std::move(*client));

  const uint64_t priority_before =
      CounterValue("dstore_admit_queue_priority_total", queue_labels);
  const uint64_t admitted_before =
      CounterValue("dstore_admit_queue_admitted_total", queue_labels);

  HttpRequest data;
  data.method = "GET";
  data.path = "/count";
  ASSERT_TRUE(http.WriteRequest(data).ok());
  auto response = http.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(CounterValue("dstore_admit_queue_priority_total", queue_labels),
            priority_before)
      << "data-plane request entered the priority lane";
  EXPECT_EQ(CounterValue("dstore_admit_queue_admitted_total", queue_labels),
            admitted_before + 1);

  HttpRequest probe;
  probe.method = "GET";
  probe.path = "/healthz";
  ASSERT_TRUE(http.WriteRequest(probe).ok());
  response = http.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(CounterValue("dstore_admit_queue_priority_total", queue_labels),
            priority_before + 1);
  EXPECT_EQ(CounterValue("dstore_admit_queue_admitted_total", queue_labels),
            admitted_before + 1)
      << "obs route took a normal-lane admission";
  (*server)->Stop();
}

}  // namespace
}  // namespace dstore
