#ifndef DSTORE_NET_ASYNC_SERVER_H_
#define DSTORE_NET_ASYNC_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "net/http.h"

namespace dstore {

// The event-driven server core behind the cloud, cache, and SQL servers. A
// small pool of reactor I/O threads (net/reactor.h) multiplexes thousands of
// connections with edge-triggered epoll; parsed requests are dispatched onto
// a ListenableFuture worker pool so a slow handler (queue wait, simulated
// WAN delay, SQL execution) never blocks an I/O thread; responses to
// pipelined requests on one connection are written strictly in request
// order.
//
// Behavioral contracts:
//  - the socket fault injector fires on accept/read/write (refusals,
//    mid-message resets, short writes, stalls);
//  - handlers run with whatever ambient state they establish themselves
//    (deadline, trace) — one handler invocation per request, on one worker
//    thread;
//  - Stop() joins the I/O threads and drains in-flight handlers with no
//    fd-reuse races (a connection's descriptor stays open until the last
//    reference to the connection drops);
//  - the dstore_server_connections_total / dstore_server_active_connections
//    / dstore_admit_conn_shed_total metrics keep their names and labels.

// Handles one parsed HTTP request; runs on a worker thread.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

// Handles one length-prefixed frame payload (see net/framing.h); runs on a
// worker thread and returns the response payload.
using FramedHandler = std::function<Bytes(const Bytes&)>;

struct AsyncServerOptions {
  // Metrics label; empty = metrics not published.
  std::string component;
  // Reactor (epoll loop) threads multiplexing the connections.
  int io_threads = 2;
  // Worker threads running handlers. Servers fronted by an
  // admit::ServerQueue must size this at least max_concurrency +
  // max_queue_depth: a queued request blocks its worker in
  // ServerQueue::Enter, and with pipelining the number of concurrently
  // outstanding requests is bounded by admission capacity, not by
  // connection count (see docs/udsm_guide.md §11). 0 = a small default.
  int worker_threads = 0;
  // Pipelining depth: parsed-but-unanswered requests allowed per connection
  // before the server stops reading from it (backpressure).
  size_t max_in_flight_per_connection = 32;
  // Unsent response bytes buffered per connection before the server stops
  // reading from it (slow-reader backpressure).
  size_t max_output_buffer_bytes = 4u << 20;
  // Live-connection cap; beyond it fresh accepts are counted in
  // dstore_admit_conn_shed_total and closed. 0 = unlimited.
  int max_connections = 0;
};

// Lifecycle handle for a running server; hides the reactor and the protocol
// parser behind it.
class Server {
 public:
  virtual ~Server() = default;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving.
  virtual Status Start(uint16_t port) = 0;

  // Stops accepting, tears down connections, joins all threads. Idempotent.
  virtual void Stop() = 0;

  virtual bool running() const = 0;
  virtual uint16_t port() const = 0;

  // Introspection for the backpressure tests: connections currently
  // registered / reads currently paused by per-connection limits.
  virtual size_t ConnectionCount() const = 0;
  virtual size_t PausedConnectionCount() const = 0;
};

// Builds a server speaking HTTP/1.1 with keep-alive and pipelining.
std::unique_ptr<Server> MakeHttpServer(HttpHandler handler,
                                       AsyncServerOptions options = {});

// Builds a server speaking the 4-byte length-prefixed frame protocol.
std::unique_ptr<Server> MakeFramedServer(FramedHandler handler,
                                         AsyncServerOptions options = {});

}  // namespace dstore

#endif  // DSTORE_NET_ASYNC_SERVER_H_
