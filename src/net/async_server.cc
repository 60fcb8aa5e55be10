#include "net/async_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/listenable_future.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "fault/fault.h"
#include "net/framing.h"
#include "net/reactor.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace dstore {

namespace {

// ---------------------------------------------------------------------------
// Protocol codecs. A parser consumes exactly one request from the front of
// a byte buffer; on success it yields a closure that runs the user handler
// and returns the fully serialized response bytes. Framing is folded into
// the closure so the connection machinery below deals only in opaque bytes
// and works for both protocols.
// ---------------------------------------------------------------------------

enum class ParseOutcome { kNeedMore, kParsed, kError };

using RequestTask = std::function<Bytes()>;
using Parser = std::function<ParseOutcome(const uint8_t* data, size_t size,
                                          size_t* consumed, RequestTask* task)>;

// The parser closures run on reactor loop threads (from
// Connection::ReadLocked), so both factories are DSTORE_NONBLOCKING_CTX
// roots: nothing a parser reaches may block. The request task they yield is
// NOT covered — it runs on the worker pool.
Parser MakeHttpParser(HttpHandler handler) DSTORE_NONBLOCKING_CTX;
Parser MakeFramedParser(FramedHandler handler) DSTORE_NONBLOCKING_CTX;

Parser MakeHttpParser(HttpHandler handler) {
  auto shared = std::make_shared<HttpHandler>(std::move(handler));
  return [shared](const uint8_t* data, size_t size, size_t* consumed,
                  RequestTask* task) {
    HttpRequest request;
    switch (ParseHttpRequest(data, size, &request, consumed)) {
      case HttpParseOutcome::kNeedMore:
        return ParseOutcome::kNeedMore;
      case HttpParseOutcome::kError:
        return ParseOutcome::kError;
      case HttpParseOutcome::kParsed:
        break;
    }
    *task = [shared, request = std::move(request)]() {
      Bytes out;
      SerializeHttpResponse((*shared)(request), &out);
      return out;
    };
    return ParseOutcome::kParsed;
  };
}

Parser MakeFramedParser(FramedHandler handler) {
  auto shared = std::make_shared<FramedHandler>(std::move(handler));
  return [shared](const uint8_t* data, size_t size, size_t* consumed,
                  RequestTask* task) {
    if (size < 4) return ParseOutcome::kNeedMore;
    const uint32_t length = DecodeFixed32(data);
    if (length > kMaxFrameBytes) return ParseOutcome::kError;
    if (size - 4 < length) return ParseOutcome::kNeedMore;
    Bytes payload(data + 4, data + 4 + length);
    *consumed = 4 + static_cast<size_t>(length);
    *task = [shared, payload = std::move(payload)]() {
      const Bytes response = (*shared)(payload);
      Bytes out;
      PutFixed32(&out, static_cast<uint32_t>(response.size()));
      out.insert(out.end(), response.begin(), response.end());
      return out;
    };
    return ParseOutcome::kParsed;
  };
}

// ---------------------------------------------------------------------------
// Descriptor I/O. ReadChunk/WriteChunk are pure nonblocking syscall loops —
// safe on a reactor loop thread. Fault-injector consultation lives in the
// callers: the Connection consults in its locked read/flush paths and
// defers injected stalls through Reactor::RunAfter (a loop thread must
// never sleep — the watchdog and the blocking-context check both police
// this). Injected resets become shutdown(), which puts the same FIN on the
// wire as the blocking path's close(), because the Connection owns its
// descriptor until the last reference drops (the fd-reuse guarantee).
// ---------------------------------------------------------------------------

struct IoResult {
  enum Kind { kOk, kEof, kWouldBlock, kError } kind = kOk;
  size_t n = 0;  // bytes transferred (writes may move bytes before kError)
};

IoResult ReadChunk(int fd, uint8_t* buf, size_t cap) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, cap, 0);
    if (n > 0) return {IoResult::kOk, static_cast<size_t>(n)};
    if (n == 0) return {IoResult::kEof, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoResult::kWouldBlock, 0};
    }
    return {IoResult::kError, 0};
  }
}

IoResult WriteChunk(int fd, const uint8_t* data, size_t len) {
  size_t written = 0;
  while (written < len) {
    const ssize_t n = ::send(fd, data + written, len - written, MSG_NOSIGNAL);
    if (n >= 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoResult::kWouldBlock, written};
    }
    return {IoResult::kError, written};
  }
  return {IoResult::kOk, written};
}

// The error half of an injected write fault (the short-write prefix that
// escapes before the failure, so the peer sees a torn frame — same contract
// as Socket::WriteFull — plus the optional reset).
void ApplyWriteFault(int fd, const fault::SocketFault& f, const uint8_t* data,
                     size_t len) {
  size_t prefix = std::min(f.allow_prefix, len);
  const uint8_t* p = data;
  while (prefix > 0) {
    const ssize_t n = ::send(fd, p, prefix, MSG_NOSIGNAL);
    if (n <= 0) break;
    p += n;
    prefix -= static_cast<size_t>(n);
  }
  if (f.reset) ::shutdown(fd, SHUT_RDWR);
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::IOError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

// Per-server metrics bundle, labelled server=<component>.
struct ServerMetrics {
  obs::Counter* connections_total = nullptr;
  obs::Gauge* active_connections = nullptr;
  obs::Counter* conn_shed_total = nullptr;

  explicit ServerMetrics(const std::string& component) {
    if (component.empty()) return;
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
    const obs::Labels labels = {{"server", component}};
    connections_total = registry->GetCounter(
        "dstore_server_connections_total", labels,
        "Connections accepted since process start.");
    active_connections = registry->GetGauge(
        "dstore_server_active_connections", labels,
        "Connections currently being served.");
    conn_shed_total = registry->GetCounter(
        "dstore_admit_conn_shed_total", labels,
        "Connections shed at accept: connection limit reached.");
  }
};

// ---------------------------------------------------------------------------
// The async core.
// ---------------------------------------------------------------------------

class AsyncServer : public Server {
 public:
  AsyncServer(Parser parser, AsyncServerOptions options)
      : parser_(std::move(parser)),
        options_(std::move(options)),
        metrics_(options_.component) {
    if (options_.io_threads < 1) options_.io_threads = 1;
    if (options_.max_in_flight_per_connection == 0) {
      options_.max_in_flight_per_connection = 1;
    }
  }

  ~AsyncServer() override { Stop(); }

  Status Start(uint16_t port) override;
  void Stop() override;

  bool running() const override { return running_.load(); }
  uint16_t port() const override { return listener_.port(); }

  size_t ConnectionCount() const override {
    MutexLock lock(mu_);
    return connections_.size();
  }
  size_t PausedConnectionCount() const override { return paused_count_.load(); }

 private:
  class Connection;

  int listener_fd() const { return listener_.fd(); }
  void OnAcceptable() DSTORE_NONBLOCKING_CTX;
  // Takes ownership of a freshly accepted descriptor: applies the
  // connection limit, creates the Connection, and registers it with a
  // reactor. Runs on the accept loop thread (directly from OnAcceptable,
  // or from a reactor timer when an injected accept stall deferred it).
  void RegisterAccepted(int fd) DSTORE_NONBLOCKING_CTX;
  void EraseConnection(uint64_t id);

  Parser parser_;
  AsyncServerOptions options_;
  ServerMetrics metrics_;
  ServerSocket listener_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::unique_ptr<ThreadPool> workers_;
  std::atomic<bool> running_{false};
  std::atomic<size_t> next_reactor_{0};
  std::atomic<size_t> paused_count_{0};
  mutable Mutex mu_;
  uint64_t next_conn_id_ GUARDED_BY(mu_) = 0;
  std::map<uint64_t, std::shared_ptr<Connection>> connections_ GUARDED_BY(mu_);
};

// One multiplexed connection. All reactor events for this fd arrive on one
// loop thread; handler completions arrive on worker threads, so the state
// below is guarded by a per-connection mutex (contention is a single
// completion against a parse — negligible). The descriptor is closed only
// by the destructor: any late completion still holding a shared_ptr keeps
// the fd number reserved, so a freshly accepted connection can never be
// aliased by a stale writer.
class AsyncServer::Connection
    : public std::enable_shared_from_this<AsyncServer::Connection> {
 public:
  Connection(AsyncServer* server, uint64_t id, int fd, Reactor* reactor)
      : server_(server), id_(id), fd_(fd), reactor_(reactor) {}

  ~Connection() { ::close(fd_); }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  uint64_t id() const { return id_; }
  int fd() const { return fd_; }

  // Reactor-thread entry point for readiness events.
  void OnEvent(uint32_t events) EXCLUDES(mu_) DSTORE_NONBLOCKING_CTX;

  // Reactor-timer entry points: an injected stall on this connection's
  // read/write path has elapsed; apply the deferred fault outcome and
  // continue. Loop-thread only.
  void ResumeRead() EXCLUDES(mu_) DSTORE_NONBLOCKING_CTX;
  void ResumeWrite() EXCLUDES(mu_) DSTORE_NONBLOCKING_CTX;

  // Worker-thread entry point: response for request `seq` is ready.
  void CompleteRequest(uint64_t seq, Bytes response) EXCLUDES(mu_);

  // Marks the connection closed and shuts the socket down (Stop() path;
  // reactors may already be joined, so no epoll deregistration happens).
  void ForceClose() EXCLUDES(mu_);

 private:
  void ReadLocked(std::vector<std::pair<uint64_t, RequestTask>>* to_dispatch)
      REQUIRES(mu_) DSTORE_NONBLOCKING_CTX;
  void FlushLocked() REQUIRES(mu_) DSTORE_NONBLOCKING_CTX;
  // Consults the socket fault injector for the next read/write chunk.
  // Returns false when the caller must stop (a stall timer was scheduled,
  // or an injected error closed the connection). A stall parks the
  // connection (read_stalled_/write_stalled_) and schedules Resume* via
  // Reactor::RunAfter, so the loop thread keeps serving every other
  // connection while this one waits out its fault.
  bool ConsultReadFaultLocked(size_t cap) REQUIRES(mu_);
  bool ConsultWriteFaultLocked() REQUIRES(mu_);
  // Drains completed responses (in seq order) into the output buffer.
  void PromotePendingLocked() REQUIRES(mu_);
  bool ShouldPauseLocked() const REQUIRES(mu_) {
    return in_flight_ >= server_->options_.max_in_flight_per_connection ||
           outbuf_.size() - out_pos_ >
               server_->options_.max_output_buffer_bytes;
  }
  void UpdatePausedLocked() REQUIRES(mu_);
  void CloseLocked() REQUIRES(mu_);
  // True when the peer half-closed, every pipelined response has been
  // written, and nothing is still in flight — time to tear down.
  // `parse_blocked_` keeps a half-closed connection alive while complete
  // requests sit unparsed behind a backpressure pause: the resume will
  // parse and answer them before this fires.
  bool DrainedLocked() const REQUIRES(mu_) {
    return read_closed_ && !parse_blocked_ && in_flight_ == 0 &&
           pending_.empty() && out_pos_ >= outbuf_.size();
  }
  // Common epilogue: dispatch parsed requests, resume paused reads, and
  // deregister a connection that closed during `body`.
  void Epilogue(std::vector<std::pair<uint64_t, RequestTask>> to_dispatch,
                bool resume_read, bool close_now) EXCLUDES(mu_);

  AsyncServer* const server_;
  const uint64_t id_;
  const int fd_;
  Reactor* const reactor_;
  mutable Mutex mu_;
  Bytes inbuf_ GUARDED_BY(mu_);
  size_t parse_pos_ GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;       // next request sequence
  uint64_t next_to_write_ GUARDED_BY(mu_) = 0;  // next response to emit
  std::map<uint64_t, Bytes> pending_ GUARDED_BY(mu_);  // out-of-order done
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  Bytes outbuf_ GUARDED_BY(mu_);
  size_t out_pos_ GUARDED_BY(mu_) = 0;
  bool want_write_ GUARDED_BY(mu_) = false;  // EPOLLOUT armed
  bool paused_ GUARDED_BY(mu_) = false;      // reads suspended (backpressure)
  // The parse loop stopped at the in-flight cap with bytes still buffered
  // (as opposed to stopping for lack of a complete request).
  bool parse_blocked_ GUARDED_BY(mu_) = false;
  bool read_closed_ GUARDED_BY(mu_) = false;
  bool closed_ GUARDED_BY(mu_) = false;
  // Injected-stall deferral state. While *_stalled_ is set the matching
  // I/O direction is parked until the Resume* timer fires and applies the
  // saved post-stall fault outcome; skip_*_consult_ then suppresses exactly
  // one re-consultation so the injector still sees one consult per chunk
  // (the contract the chaos plans and tests count on).
  bool read_stalled_ GUARDED_BY(mu_) = false;
  bool write_stalled_ GUARDED_BY(mu_) = false;
  bool skip_read_consult_ GUARDED_BY(mu_) = false;
  bool skip_write_consult_ GUARDED_BY(mu_) = false;
  fault::SocketFault pending_read_fault_ GUARDED_BY(mu_);
  fault::SocketFault pending_write_fault_ GUARDED_BY(mu_);
};

void AsyncServer::Connection::OnEvent(uint32_t events) {
  std::vector<std::pair<uint64_t, RequestTask>> to_dispatch;
  bool close_now = false;
  {
    MutexLock lock(mu_);
    if (closed_) return;
    if ((events & EPOLLERR) != 0) {
      CloseLocked();
    } else {
      if ((events & EPOLLOUT) != 0 && out_pos_ < outbuf_.size()) {
        FlushLocked();
      }
      if (!closed_) {
        // A drained output buffer may lift the backpressure pause; this
        // already is the loop thread, so resume reading inline (ReadLocked
        // no-ops while paused or half-closed).
        UpdatePausedLocked();
        ReadLocked(&to_dispatch);
      }
      if (!closed_) {
        UpdatePausedLocked();
        if (DrainedLocked()) CloseLocked();
      }
    }
    close_now = closed_;
  }
  Epilogue(std::move(to_dispatch), /*resume_read=*/false, close_now);
}

bool AsyncServer::Connection::ConsultReadFaultLocked(size_t cap) {
  if (skip_read_consult_) {
    // The stall that just elapsed already consulted for this chunk.
    skip_read_consult_ = false;
    return true;
  }
  auto injector = fault::InstalledSocketFaultInjector();
  if (injector == nullptr) return true;
  auto f = injector->OnRead(cap);
  if (!f) return true;
  if (f->stall_nanos > 0) {
    // Defer: park this connection's read path and let the loop thread keep
    // serving its other connections. ResumeRead applies the post-stall
    // outcome (error/reset or a normal read) when the timer fires.
    read_stalled_ = true;
    pending_read_fault_ = *f;
    reactor_->RunAfter(f->stall_nanos,
                       [self = shared_from_this()] { self->ResumeRead(); });
    return false;
  }
  if (!f->error.ok()) {
    if (f->reset) ::shutdown(fd_, SHUT_RDWR);
    CloseLocked();
    return false;
  }
  return true;
}

bool AsyncServer::Connection::ConsultWriteFaultLocked() {
  if (skip_write_consult_) {
    skip_write_consult_ = false;
    return true;
  }
  auto injector = fault::InstalledSocketFaultInjector();
  if (injector == nullptr) return true;
  auto f = injector->OnWrite(outbuf_.size() - out_pos_);
  if (!f) return true;
  if (f->stall_nanos > 0) {
    write_stalled_ = true;
    pending_write_fault_ = *f;
    reactor_->RunAfter(f->stall_nanos,
                       [self = shared_from_this()] { self->ResumeWrite(); });
    return false;
  }
  if (!f->error.ok()) {
    ApplyWriteFault(fd_, *f, outbuf_.data() + out_pos_,
                    outbuf_.size() - out_pos_);
    CloseLocked();
    return false;
  }
  return true;
}

void AsyncServer::Connection::ResumeRead() {
  std::vector<std::pair<uint64_t, RequestTask>> to_dispatch;
  bool close_now = false;
  {
    MutexLock lock(mu_);
    if (closed_) return;
    read_stalled_ = false;
    const fault::SocketFault f = pending_read_fault_;
    pending_read_fault_ = fault::SocketFault{};
    if (!f.error.ok()) {
      if (f.reset) ::shutdown(fd_, SHUT_RDWR);
      CloseLocked();
    } else {
      // The stall was the whole fault: read the chunk it delayed without
      // consulting again (one consult per chunk, stall or not).
      skip_read_consult_ = true;
      UpdatePausedLocked();
      ReadLocked(&to_dispatch);
      if (!closed_) {
        UpdatePausedLocked();
        if (DrainedLocked()) CloseLocked();
      }
    }
    close_now = closed_;
  }
  Epilogue(std::move(to_dispatch), /*resume_read=*/false, close_now);
}

void AsyncServer::Connection::ResumeWrite() {
  bool resume_read = false;
  bool close_now = false;
  {
    MutexLock lock(mu_);
    if (closed_) return;
    write_stalled_ = false;
    const fault::SocketFault f = pending_write_fault_;
    pending_write_fault_ = fault::SocketFault{};
    if (!f.error.ok()) {
      ApplyWriteFault(fd_, f, outbuf_.data() + out_pos_,
                      outbuf_.size() - out_pos_);
      CloseLocked();
    } else {
      skip_write_consult_ = true;
      FlushLocked();
      if (!closed_) {
        const bool was_paused = paused_;
        UpdatePausedLocked();
        resume_read = was_paused && !paused_;
        if (DrainedLocked()) CloseLocked();
      }
    }
    close_now = closed_;
  }
  Epilogue({}, resume_read, close_now);
}

void AsyncServer::Connection::ReadLocked(
    std::vector<std::pair<uint64_t, RequestTask>>* to_dispatch) {
  uint8_t chunk[16384];
  if (read_stalled_) return;  // a ResumeRead timer owns this path
  for (;;) {
    // Parse before reading: a read resumed after a backpressure pause
    // starts with complete requests already sitting in the buffer, and an
    // edge-triggered epoll will never re-announce them.
    parse_blocked_ = false;
    while (!paused_ && !closed_) {
      size_t consumed = 0;
      RequestTask task;
      const ParseOutcome outcome =
          server_->parser_(inbuf_.data() + parse_pos_,
                           inbuf_.size() - parse_pos_, &consumed, &task);
      if (outcome == ParseOutcome::kNeedMore) break;
      if (outcome == ParseOutcome::kError) {
        // Poisoned stream: answer what was already dispatched, read no
        // further (the blocking core likewise drops the connection).
        read_closed_ = true;
        break;
      }
      parse_pos_ += consumed;
      const uint64_t seq = next_seq_++;
      ++in_flight_;
      to_dispatch->emplace_back(seq, std::move(task));
      UpdatePausedLocked();
    }
    parse_blocked_ = paused_ && parse_pos_ < inbuf_.size();
    if (parse_pos_ > 0 && (parse_pos_ == inbuf_.size() ||
                           parse_pos_ >= (1u << 20))) {
      inbuf_.erase(inbuf_.begin(),
                   inbuf_.begin() + static_cast<ptrdiff_t>(parse_pos_));
      parse_pos_ = 0;
    }
    if (paused_ || read_closed_ || closed_) return;

    if (!ConsultReadFaultLocked(sizeof(chunk))) return;
    const IoResult r = ReadChunk(fd_, chunk, sizeof(chunk));
    if (r.kind == IoResult::kWouldBlock) return;
    if (r.kind == IoResult::kEof) {
      // Half-close: the peer finished sending but still expects the
      // responses to its pipelined requests; drain before closing.
      read_closed_ = true;
      return;
    }
    if (r.kind == IoResult::kError) {
      CloseLocked();
      return;
    }
    inbuf_.insert(inbuf_.end(), chunk, chunk + r.n);
  }
}

void AsyncServer::Connection::PromotePendingLocked() {
  for (auto it = pending_.find(next_to_write_); it != pending_.end();
       it = pending_.find(next_to_write_)) {
    outbuf_.insert(outbuf_.end(), it->second.begin(), it->second.end());
    pending_.erase(it);
    ++next_to_write_;
    --in_flight_;
  }
}

void AsyncServer::Connection::FlushLocked() {
  if (closed_ || write_stalled_) return;  // ResumeWrite owns a stalled flush
  while (out_pos_ < outbuf_.size()) {
    if (!ConsultWriteFaultLocked()) return;
    const IoResult r =
        WriteChunk(fd_, outbuf_.data() + out_pos_, outbuf_.size() - out_pos_);
    out_pos_ += r.n;
    if (r.kind == IoResult::kOk) continue;
    if (r.kind == IoResult::kWouldBlock) {
      if (!want_write_) {
        want_write_ = true;
        (void)reactor_->Modify(fd_, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    CloseLocked();
    return;
  }
  outbuf_.clear();
  out_pos_ = 0;
  if (want_write_) {
    want_write_ = false;
    (void)reactor_->Modify(fd_, EPOLLIN);
  }
}

void AsyncServer::Connection::UpdatePausedLocked() {
  const bool should = ShouldPauseLocked();
  if (should == paused_) return;
  paused_ = should;
  if (should) {
    server_->paused_count_.fetch_add(1);
  } else {
    server_->paused_count_.fetch_sub(1);
  }
}

void AsyncServer::Connection::CloseLocked() {
  if (closed_) return;
  closed_ = true;
  if (paused_) {
    paused_ = false;
    server_->paused_count_.fetch_sub(1);
  }
  reactor_->Remove(fd_);
  ::shutdown(fd_, SHUT_RDWR);
}

void AsyncServer::Connection::Epilogue(
    std::vector<std::pair<uint64_t, RequestTask>> to_dispatch,
    bool resume_read, bool close_now) {
  // Dispatch outside mu_: a task that completes before AddListener returns
  // runs its listener inline on this thread, and CompleteRequest takes mu_.
  for (auto& [seq, task] : to_dispatch) {
    auto self = shared_from_this();
    RunAsync<Bytes>(server_->workers_.get(), std::move(task))
        .AddListener([self, seq](const Bytes& response) {
          self->CompleteRequest(seq, response);
        });
  }
  if (resume_read) {
    // Edge-triggered epoll will not re-report bytes that are already
    // buffered, so a read resumed after backpressure re-enters the read
    // path on the loop thread explicitly.
    reactor_->RunInLoop(
        [self = shared_from_this()] { self->OnEvent(EPOLLIN); });
  }
  if (close_now) server_->EraseConnection(id_);
}

void AsyncServer::Connection::CompleteRequest(uint64_t seq, Bytes response) {
  bool resume_read = false;
  bool close_now = false;
  {
    MutexLock lock(mu_);
    if (closed_) return;
    pending_[seq] = std::move(response);
    PromotePendingLocked();
    FlushLocked();
    if (!closed_) {
      const bool was_paused = paused_;
      UpdatePausedLocked();
      resume_read = was_paused && !paused_;
      if (DrainedLocked()) CloseLocked();
    }
    close_now = closed_;
  }
  Epilogue({}, resume_read, close_now);
}

void AsyncServer::Connection::ForceClose() {
  MutexLock lock(mu_);
  if (closed_) return;
  closed_ = true;
  if (paused_) {
    paused_ = false;
    server_->paused_count_.fetch_sub(1);
  }
  ::shutdown(fd_, SHUT_RDWR);
}

Status AsyncServer::Start(uint16_t port) {
  if (running_.load()) return Status::AlreadyExists("server already running");
  DSTORE_ASSIGN_OR_RETURN(listener_, ServerSocket::Listen(port));
  DSTORE_RETURN_IF_ERROR(SetNonBlocking(listener_fd()));

  int workers = options_.worker_threads;
  if (workers <= 0) workers = 4;
  workers_ = std::make_unique<ThreadPool>(static_cast<size_t>(workers));

  reactors_.clear();
  for (int i = 0; i < options_.io_threads; ++i) {
    reactors_.push_back(std::make_unique<Reactor>());
    const Status status = reactors_.back()->Start();
    if (!status.ok()) {
      Stop();
      return status;
    }
  }
  running_.store(true);
  const Status status = reactors_[0]->Add(listener_fd(), EPOLLIN,
                                          [this](uint32_t) { OnAcceptable(); });
  if (!status.ok()) {
    Stop();
    return status;
  }
  // Connections may have raced in between listen() and the epoll
  // registration; ET semantics only report readiness transitions, so sweep
  // the backlog once by hand.
  reactors_[0]->RunInLoop([this] { OnAcceptable(); });
  return Status::OK();
}

void AsyncServer::Stop() {
  if (!running_.exchange(false)) {
    // Not started (or already stopped); still reap any leftover state from
    // a failed Start().
  }
  if (!reactors_.empty() && listener_.valid()) {
    reactors_[0]->Remove(listener_fd());
  }
  listener_.Close();
  // Join the I/O threads first: afterwards no reactor callback can touch a
  // connection, so the remaining in-flight work is only handler tasks.
  for (auto& reactor : reactors_) reactor->Stop();
  std::map<uint64_t, std::shared_ptr<Connection>> connections;
  {
    MutexLock lock(mu_);
    connections.swap(connections_);
  }
  for (auto& [id, connection] : connections) {
    connection->ForceClose();
    if (metrics_.active_connections != nullptr) {
      metrics_.active_connections->Decrement();
    }
  }
  // Drains queued and running handler tasks, then joins the workers. Their
  // completion listeners see closed_ connections and drop the responses.
  if (workers_ != nullptr) workers_->Shutdown();
  workers_.reset();
  reactors_.clear();
  connections.clear();  // last owner → descriptors close here
}

void AsyncServer::OnAcceptable() {
  while (running_.load()) {
    const int listener = listener_fd();
    if (listener < 0) return;
    const int fd = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (backlog drained) or listener closed
    }
    if (auto injector = fault::InstalledSocketFaultInjector()) {
      if (auto f = injector->OnAccept()) {
        if (f->stall_nanos > 0) {
          // Injected accept stall: this connection's registration waits out
          // the fault on a reactor timer while the accept loop keeps
          // draining the backlog (sleeping here would freeze every
          // connection on this loop thread). The guard closes the fd if
          // the timer is dropped at Stop() or the stall ends in an error.
          struct FdGuard {
            int fd;
            ~FdGuard() {
              if (fd >= 0) ::close(fd);
            }
          };
          auto guard = std::make_shared<FdGuard>(FdGuard{fd});
          const bool drop = !f->error.ok();
          reactors_[0]->RunAfter(f->stall_nanos, [this, guard, drop] {
            if (drop || !running_.load()) return;  // guard closes the fd
            const int accepted = guard->fd;
            guard->fd = -1;  // ownership moves to RegisterAccepted
            RegisterAccepted(accepted);
          });
          continue;
        }
        if (!f->error.ok()) {
          // Injected accept failure: drop the fresh connection on the
          // floor; the client sees EOF/reset on its next read or write.
          ::close(fd);
          continue;
        }
      }
    }
    RegisterAccepted(fd);
  }
}

void AsyncServer::RegisterAccepted(int fd) {
  {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  std::shared_ptr<Connection> connection;
  Reactor* reactor =
      reactors_[next_reactor_.fetch_add(1) % reactors_.size()].get();
  {
    MutexLock lock(mu_);
    if (options_.max_connections > 0 &&
        connections_.size() >= static_cast<size_t>(options_.max_connections)) {
      if (metrics_.conn_shed_total != nullptr) {
        metrics_.conn_shed_total->Increment();
      }
      ::close(fd);
      return;
    }
    const uint64_t id = next_conn_id_++;
    connection = std::make_shared<Connection>(this, id, fd, reactor);
    connections_.emplace(id, connection);
    if (metrics_.connections_total != nullptr) {
      metrics_.connections_total->Increment();
    }
    if (metrics_.active_connections != nullptr) {
      metrics_.active_connections->Increment();
    }
  }
  std::weak_ptr<Connection> weak = connection;
  const Status added = reactor->Add(fd, EPOLLIN, [weak](uint32_t events) {
    if (auto conn = weak.lock()) conn->OnEvent(events);
  });
  if (!added.ok()) {
    EraseConnection(connection->id());
    return;
  }
  // Bytes may already be waiting (client wrote immediately after
  // connect); ET reports transitions, so take the first read explicitly.
  reactor->RunInLoop([weak] {
    if (auto conn = weak.lock()) conn->OnEvent(EPOLLIN);
  });
}

void AsyncServer::EraseConnection(uint64_t id) {
  std::shared_ptr<Connection> victim;
  {
    MutexLock lock(mu_);
    auto it = connections_.find(id);
    if (it == connections_.end()) return;
    victim = std::move(it->second);
    connections_.erase(it);
  }
  if (metrics_.active_connections != nullptr) {
    metrics_.active_connections->Decrement();
  }
  // `victim` (and any completion listeners) may outlive this scope; the fd
  // closes when the last reference drops.
}

}  // namespace

std::unique_ptr<Server> MakeHttpServer(HttpHandler handler,
                                       AsyncServerOptions options) {
  return std::make_unique<AsyncServer>(MakeHttpParser(std::move(handler)),
                                       std::move(options));
}

std::unique_ptr<Server> MakeFramedServer(FramedHandler handler,
                                         AsyncServerOptions options) {
  return std::make_unique<AsyncServer>(MakeFramedParser(std::move(handler)),
                                       std::move(options));
}

}  // namespace dstore
