#ifndef DSTORE_NET_SOCKET_H_
#define DSTORE_NET_SOCKET_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "common/sync.h"

namespace dstore {

// RAII TCP socket (move-only). The remote-process cache and the simulated
// cloud store both run over real sockets so client latency includes genuine
// IPC, system-call, and copy costs — the effect the paper measures when
// comparing in-process and remote-process caches.
//
// Every op below runs the descriptor in blocking mode (connect handshake,
// full-message send/recv loops): all are DSTORE_BLOCKING. The reactor path
// (src/net/reactor.h, async_server.cc) never uses these — it works on raw
// nonblocking fds.
class Socket {
 public:
  Socket() : fd_(-1) {}
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  // Connects to host:port (IPv4 dotted quad or "localhost").
  static StatusOr<Socket> ConnectTcp(const std::string& host,
                                     uint16_t port) DSTORE_BLOCKING;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Writes all `len` bytes or fails.
  Status WriteFull(const void* data, size_t len) DSTORE_BLOCKING;
  Status WriteFull(const Bytes& data) DSTORE_BLOCKING {
    return WriteFull(data.data(), data.size());
  }

  // Reads exactly `len` bytes or fails (EOF mid-read is an IOError).
  Status ReadFull(void* out, size_t len) DSTORE_BLOCKING;

  // Disables Nagle's algorithm; our request/response protocols are latency-
  // sensitive small writes.
  Status SetNoDelay();

  void Close();

 private:
  int fd_;
};

// RAII listening socket bound to 127.0.0.1. Close() may be called from a
// different thread than Accept() or fd() (AsyncServer::Stop closes it while
// a reactor thread may still be accepting), so the descriptor is atomic.
class ServerSocket {
 public:
  ServerSocket() : fd_(-1), port_(0) {}
  ~ServerSocket();

  ServerSocket(ServerSocket&& other) noexcept;
  ServerSocket& operator=(ServerSocket&& other) noexcept;
  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;

  // Binds to 127.0.0.1:`port`; port 0 picks an ephemeral port (see port()).
  static StatusOr<ServerSocket> Listen(uint16_t port);

  // Blocks until a client connects. Fails with Unavailable after Close().
  StatusOr<Socket> Accept() DSTORE_BLOCKING;

  uint16_t port() const { return port_; }
  bool valid() const { return fd_.load() >= 0; }
  // Raw descriptor (-1 after Close), for registration with a Reactor.
  int fd() const { return fd_.load(); }

  // Closing from another thread unblocks Accept().
  void Close();

 private:
  ServerSocket(int fd, uint16_t port) : fd_(fd), port_(port) {}

  std::atomic<int> fd_;
  uint16_t port_;
};

}  // namespace dstore

#endif  // DSTORE_NET_SOCKET_H_
