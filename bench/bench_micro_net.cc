// Microbenchmarks for the networking substrate: framed round trips, HTTP
// round trips, and the remote-cache protocol — the per-request costs that
// separate remote-process from in-process caching in Figs. 11-19.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "cache/lru_cache.h"
#include "common/random.h"
#include "net/async_server.h"
#include "net/framing.h"
#include "net/http.h"
#include "net/socket.h"
#include "store/remote_cache.h"

namespace dstore {
namespace {

// Echo server for raw frame round trips.
struct EchoServer {
  EchoServer() {
    auto listener = ServerSocket::Listen(0);
    port = listener->port();
    thread = std::thread([listener = std::move(*listener)]() mutable {
      for (;;) {
        auto conn = listener.Accept();
        if (!conn.ok()) return;
        for (;;) {
          auto frame = ReadFrame(&*conn);
          if (!frame.ok()) break;
          if (!WriteFrame(&*conn, *frame).ok()) break;
        }
      }
    });
  }
  ~EchoServer() {
    // Closing our end is handled by process teardown; benchmarks detach.
    thread.detach();
  }
  uint16_t port = 0;
  std::thread thread;
};

void BM_FrameRoundTrip(benchmark::State& state) {
  static EchoServer* server = new EchoServer();
  auto client = Socket::ConnectTcp("127.0.0.1", server->port);
  if (!client.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  Random rng(1);
  const Bytes payload = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    if (!WriteFrame(&*client, payload).ok()) break;
    auto echoed = ReadFrame(&*client);
    benchmark::DoNotOptimize(echoed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          2 * state.range(0));
}
BENCHMARK(BM_FrameRoundTrip)->Arg(16)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_RemoteCacheGet(benchmark::State& state) {
  static RemoteCacheServer* server =
      RemoteCacheServer::Start(std::make_unique<LruCache>(1u << 30))
          ->release();
  auto conn = RemoteCacheConnection::Connect("127.0.0.1", server->port());
  if (!conn.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  RemoteCache cache(*conn);
  Random rng(2);
  (void)cache.Put("key", MakeValue(rng.RandomBytes(static_cast<size_t>(state.range(0)))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get("key"));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RemoteCacheGet)->Arg(100)->Arg(10000)->Arg(1000000);

// The in-process vs remote-process cache gap at a glance.
void BM_InProcessCacheGetForComparison(benchmark::State& state) {
  LruCache cache(1u << 30);
  Random rng(3);
  (void)cache.Put("key", MakeValue(rng.RandomBytes(static_cast<size_t>(state.range(0)))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get("key"));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InProcessCacheGetForComparison)->Arg(100)->Arg(1000000);

// Batch amortization: N gets as one MGET round trip vs N sequential gets.
void BM_RemoteCacheBatchVsSequential(benchmark::State& state) {
  static RemoteCacheServer* server =
      RemoteCacheServer::Start(std::make_unique<LruCache>(1u << 30))
          ->release();
  auto conn = RemoteCacheConnection::Connect("127.0.0.1", server->port());
  if (!conn.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  RemoteCacheStore store(*conn);
  const bool batched = state.range(0) != 0;
  constexpr int kBatch = 32;
  std::vector<std::string> keys;
  Random rng(5);
  for (int i = 0; i < kBatch; ++i) {
    keys.push_back("b" + std::to_string(i));
    store.Put(keys.back(), MakeValue(rng.RandomBytes(256))).ok();
  }
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(store.MultiGet(keys));
    } else {
      for (const std::string& key : keys) {
        benchmark::DoNotOptimize(store.Get(key));
      }
    }
  }
  state.SetLabel(batched ? "mget" : "sequential");
}
BENCHMARK(BM_RemoteCacheBatchVsSequential)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_HttpRoundTrip(benchmark::State& state) {
  struct HttpEcho {
    HttpEcho() {
      auto listener = ServerSocket::Listen(0);
      port = listener->port();
      thread = std::thread([listener = std::move(*listener)]() mutable {
        for (;;) {
          auto conn = listener.Accept();
          if (!conn.ok()) return;
          HttpConnection http(std::move(*conn));
          for (;;) {
            auto request = http.ReadRequest();
            if (!request.ok()) break;
            HttpResponse response;
            response.body = request->body;
            if (!http.WriteResponse(response).ok()) break;
          }
        }
      });
      thread.detach();
    }
    uint16_t port = 0;
    std::thread thread;
  };
  static HttpEcho* server = new HttpEcho();

  auto socket = Socket::ConnectTcp("127.0.0.1", server->port);
  if (!socket.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  HttpConnection http(std::move(*socket));
  Random rng(4);
  HttpRequest request;
  request.method = "PUT";
  request.path = "/objects/abcdef";
  request.body = rng.RandomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    if (!http.WriteRequest(request).ok()) break;
    auto response = http.ReadResponse();
    benchmark::DoNotOptimize(response);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          2 * state.range(0));
}
BENCHMARK(BM_HttpRoundTrip)->Arg(16)->Arg(100000);

// The server-core capacity story (docs/udsm_guide.md §11): tail latency
// with N live connections on one server and a burst of them concurrently
// active. The reactor multiplexes all N connections onto two I/O threads
// and must hold 10x the connections of the retired thread-per-connection
// core's baseline at equal-or-better tail latency. Each iteration writes
// one frame on `kBurst` consecutive connections (rotating through all N so
// every connection carries traffic) and then reads the `kBurst` responses.
// Arg: connection count. Iterations are fixed so each row runs its setup
// (N connects) once; the p99 over per-request wall samples lands in the
// p99_us counter, which scripts/bench_snapshot.sh compares against the
// recorded baseline into BENCH_net.json.
void BM_ConcurrentConnections(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  constexpr size_t kBurst = 64;  // concurrently in-flight requests
  auto server =
      MakeFramedServer([](const Bytes& request) { return request; });
  if (!server->Start(0).ok()) {
    state.SkipWithError("server start failed");
    return;
  }

  std::vector<Socket> sockets;
  sockets.reserve(static_cast<size_t>(conns));
  for (int i = 0; i < conns; ++i) {
    auto socket = Socket::ConnectTcp("127.0.0.1", server->port());
    if (!socket.ok()) {
      state.SkipWithError("connect failed");
      return;
    }
    sockets.push_back(std::move(*socket));
  }

  const Bytes payload = ToBytes("ping-payload-64b-");
  std::vector<double> samples;
  samples.reserve(8192);
  size_t next = 0;
  bool failed = false;
  for (auto _ : state) {
    const size_t base = next;
    next = (next + kBurst) % sockets.size();
    const auto start = std::chrono::steady_clock::now();
    for (size_t k = 0; k < kBurst && !failed; ++k) {
      failed = !WriteFrame(&sockets[(base + k) % sockets.size()], payload).ok();
    }
    for (size_t k = 0; k < kBurst && !failed; ++k) {
      failed = !ReadFrame(&sockets[(base + k) % sockets.size()]).ok();
    }
    if (failed) {
      state.SkipWithError("round trip failed");
      break;
    }
    samples.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      static_cast<double>(kBurst));
  }
  if (!samples.empty()) {
    std::sort(samples.begin(), samples.end());
    state.counters["p99_us"] =
        samples[std::min(samples.size() - 1,
                         static_cast<size_t>(static_cast<double>(
                             samples.size()) * 0.99))];
  }
  state.counters["connections"] = conns;
  sockets.clear();
  server->Stop();
}
// Five repetitions reported as aggregates: a single-CPU box makes any one
// p99 estimate hostage to a rare scheduler stall, so the headline the
// snapshot script reads is the median p99 across repetitions.
BENCHMARK(BM_ConcurrentConnections)
    ->Arg(100)   // the baseline's scale
    ->Arg(1000)  // 10x the connections
    ->Iterations(2000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dstore

BENCHMARK_MAIN();
