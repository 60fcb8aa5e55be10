#ifndef DSTORE_STORE_CLOUD_SERVER_H_
#define DSTORE_STORE_CLOUD_SERVER_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "admit/server_queue.h"
#include "common/status.h"
#include "common/sync.h"
#include "net/async_server.h"
#include "net/http.h"
#include "net/latency_model.h"
#include "obs/metrics.h"
#include "store/replica_state.h"

namespace dstore {

// Ignored by CloudStoreServer::Start; goes away with the next change to
// scoreboard/, which still passes it.
enum class ServerCore { kAsync };

// Simulated cloud object store: an HTTP/1.1 REST server whose responses are
// delayed by a configurable WAN latency model. Stands in for the paper's
// "Cloud Store 1" and "Cloud Store 2" (commercial cloud stores reached over
// a wide-area network). The REST surface:
//
//   PUT    /objects/<hexkey>   body = value  -> 200, ETag header
//   GET    /objects/<hexkey>  [If-None-Match: <etag>]
//                              -> 200 + body + ETag | 304 | 404
//   HEAD   /objects/<hexkey>   -> 200 | 404
//   DELETE /objects/<hexkey>   -> 200
//   GET    /keys               -> newline-separated hex keys
//   GET    /count              -> decimal count
//   POST   /clear              -> 200
//
// plus the replication verbs src/replica/ speaks when this server hosts a
// replica of a primary-backup group (state lives server-side, so fencing
// holds across independent client handles):
//
//   POST   /replica/apply      headers x-dstore-replica-{op,key,seq,epoch},
//                              body = value -> 200 | 412 when the epoch is
//                              below the highest this replica accepted
//                              (a deposed primary's late write, fenced)
//   POST   /replica/fence      headers x-dstore-replica-{epoch,applied} ->
//                              raises the accepted epoch, caps the applied
//                              watermark
//   GET    /replica/status     -> "<epoch> <applied>"
//
// plus the observability routes from net/obs_endpoint.h (GET /metrics,
// /metrics.json, /traces, /healthz), served without the injected WAN delay
// — a scrape must not pay the simulated round trip.
//
// The conditional GET path implements the paper's Fig. 7 revalidation
// protocol server-side: a current object is confirmed with a 304 and no
// body, saving the transfer.
// Every data-plane request passes through an admit::ServerQueue before any
// handler or WAN-delay work: bounded concurrency, a bounded FIFO, and
// shedding beyond that — 503 "Overloaded" for shed requests, 504 "Timed
// Out" when the caller's x-dstore-deadline-ms budget expires first. The
// obs routes take the queue's priority lane, so the server stays
// scrapeable while it sheds. The x-dstore-deadline-ms request header (sent
// by CloudStoreClient from the ambient admit::Deadline) is re-established
// as the handler's deadline, so budget exhaustion is detected server-side
// before the simulated WAN delay is paid.
class CloudStoreServer {
 public:
  // Takes ownership of `latency` (pass NoLatency for a LAN-local store).
  // `queue_options.name` defaults to "cloud" when left at its stock value.
  static StatusOr<std::unique_ptr<CloudStoreServer>> Start(
      std::unique_ptr<LatencyModel> latency, uint16_t port = 0,
      admit::ServerQueue::Options queue_options = {},
      ServerCore = ServerCore::kAsync);

  ~CloudStoreServer();

  uint16_t port() const { return server_->port(); }
  void Stop();

  // Test/inspection hook: number of stored objects.
  size_t ObjectCount() const;

  // The admission queue in front of the data plane (never null once
  // started).
  admit::ServerQueue* queue() { return queue_.get(); }

 private:
  struct Object {
    Bytes value;
    std::string etag;
  };

  CloudStoreServer() = default;

  // Full per-request pipeline (obs priority lane, deadline + trace
  // re-establishment, admission, handler, WAN delay); runs on a worker
  // thread of the server core, one invocation per pipelined request.
  HttpResponse HandleHttpRequest(const HttpRequest& request);
  HttpResponse HandleRequest(const HttpRequest& request);
  HttpResponse HandleReplicaRequest(const HttpRequest& request);

  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<admit::ServerQueue> queue_;
  std::unique_ptr<Server> server_;
  obs::Histogram* request_ms_ = nullptr;
  int objects_collector_id_ = 0;  // scrape-time object-count gauge refresh
  mutable Mutex mu_;
  std::unordered_map<std::string, Object> objects_ GUARDED_BY(mu_);
  // Replication watermarks (see /replica/* above); under mu_ so an apply is
  // atomic with its object-map write.
  ReplicaWatermark replica_ GUARDED_BY(mu_);
};

}  // namespace dstore

#endif  // DSTORE_STORE_CLOUD_SERVER_H_
