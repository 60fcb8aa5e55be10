#include "store/cloud_server.h"

#include <cstdlib>
#include <optional>
#include <utility>

#include "admit/deadline.h"
#include "common/clock.h"
#include "net/obs_endpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/key_value.h"

namespace dstore {

namespace {

constexpr char kObjectPrefix[] = "/objects/";

HttpResponse MakeResponse(int code, const std::string& reason) {
  HttpResponse response;
  response.status_code = code;
  response.reason = reason;
  return response;
}

// The /replica/* answer to a stale epoch: 412 carrying the accepted epoch.
HttpResponse FencedResponse(uint64_t accepted_epoch) {
  HttpResponse response = MakeResponse(412, "Precondition Failed");
  response.headers["x-dstore-replica-epoch"] = std::to_string(accepted_epoch);
  return response;
}

}  // namespace

StatusOr<std::unique_ptr<CloudStoreServer>> CloudStoreServer::Start(
    std::unique_ptr<LatencyModel> latency, uint16_t port,
    admit::ServerQueue::Options queue_options, ServerCore) {
  auto server = std::unique_ptr<CloudStoreServer>(new CloudStoreServer());
  server->latency_ = std::move(latency);
  if (queue_options.name == admit::ServerQueue::Options().name) {
    queue_options.name = "cloud";
  }
  server->queue_ = std::make_unique<admit::ServerQueue>(queue_options);

  CloudStoreServer* raw = server.get();
  AsyncServerOptions server_options;
  server_options.component = "cloud";
  // A queued request blocks its worker thread in ServerQueue::Enter, and
  // pipelining means outstanding requests are bounded by admission capacity
  // rather than connection count — so the worker pool must cover every
  // admissible-or-queued request (plus headroom for priority-lane scrapes)
  // or the pool itself becomes a hidden second queue that the admission
  // metrics never see. See docs/udsm_guide.md §11.
  server_options.worker_threads =
      queue_options.max_concurrency + queue_options.max_queue_depth + 2;
  server->server_ = MakeHttpServer(
      [raw](const HttpRequest& request) {
        return raw->HandleHttpRequest(request);
      },
      std::move(server_options));
  DSTORE_RETURN_IF_ERROR(server->server_->Start(port));
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
  server->request_ms_ = registry->GetHistogram(
      "dstore_cloud_request_ms", {},
      "Cloud store request service time (handler + injected WAN delay).");
  obs::Gauge* objects = registry->GetGauge(
      "dstore_cloud_objects", {}, "Objects currently stored.");
  server->objects_collector_id_ = registry->AddCollector(
      [raw, objects] { objects->Set(static_cast<double>(raw->ObjectCount())); });
  return server;
}

CloudStoreServer::~CloudStoreServer() { Stop(); }

void CloudStoreServer::Stop() {
  if (objects_collector_id_ != 0) {
    obs::MetricsRegistry::Default()->RemoveCollector(objects_collector_id_);
    objects_collector_id_ = 0;
  }
  if (server_ != nullptr) server_->Stop();
}

size_t CloudStoreServer::ObjectCount() const {
  MutexLock lock(mu_);
  return objects_.size();
}

HttpResponse CloudStoreServer::HandleHttpRequest(const HttpRequest& request) {
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();

  // Observability routes answer immediately through the queue's priority
  // lane: a metrics scrape or health probe must not pay the simulated
  // WAN round trip, and must keep working while the data plane sheds —
  // overload protection that also blinds the operator is useless. The
  // route check comes first so data-plane requests never touch the
  // priority lane (entering it for every request used to inflate
  // dstore_admit_queue_priority_total by one per data-plane request).
  HttpResponse response;
  if (IsObsRequest(request)) {
    admit::ServerQueue::Admission priority(
        queue_.get(), admit::ServerQueue::Lane::kPriority);
    if (HandleObsRequest(request, &response)) return response;
  }

  // Re-establish the caller's budget from the propagated header, so the
  // queue wait and the handler both count against it.
  admit::Deadline deadline;
  auto dl = request.headers.find("x-dstore-deadline-ms");
  if (dl != request.headers.end()) {
    const long long ms = std::atoll(dl->second.c_str());
    if (ms > 0) deadline = admit::Deadline::After(ms * 1'000'000);
  }
  admit::ScopedDeadline scope(deadline);

  // Re-establish the caller's trace the same way: the span tree recorded
  // here becomes a segment of the client's trace, stitched under the
  // client span named in the header. A malformed or oversized header
  // parses to nullopt and the request simply runs untraced. The span tree
  // lives entirely on this worker thread — the server core runs one
  // handler invocation per request, even when requests are pipelined.
  std::optional<obs::TraceContext> trace_ctx;
  auto th = request.headers.find(obs::kTraceHeaderName);
  if (th != request.headers.end()) {
    trace_ctx = obs::ParseTraceContext(th->second);
  }
  {
    obs::Span::Options span_options;
    span_options.remote_parent = trace_ctx.has_value() ? &*trace_ctx : nullptr;
    obs::Span request_span("server.request", span_options);
    request_span.SetAttribute("method", request.method);
    request_span.SetAttribute("path", request.path);

    int64_t queue_wait_nanos = 0;
    {
      obs::Span queue_span("server.queue", obs::Stage::kQueue);
      admit::ServerQueue::Admission admission(queue_.get());
      queue_wait_nanos = admission.wait_nanos();
      if (queue_wait_nanos > 0) {
        queue_span.SetAttribute(
            "queue_wait_ms",
            std::to_string(static_cast<double>(queue_wait_nanos) / 1e6));
      }
      if (!admission.ok()) {
        // Shed: a *distinct* overload answer (503/504), never anything a
        // client could mistake for a data-plane result like 404.
        queue_span.SetAttribute(
            "shed_reason",
            admission.status().IsTimedOut() ? "deadline" : "overload");
        queue_span.MarkError();
        response = admission.status().IsTimedOut()
                       ? MakeResponse(504, "Deadline Expired")
                       : MakeResponse(503, "Overloaded");
        response.headers["x-dstore-shed"] = "1";
      } else {
        queue_span.End();
        Stopwatch watch(RealClock::Default());
        registry
            ->GetCounter("dstore_cloud_requests_total",
                         {{"method", request.method}},
                         "Cloud store data-plane requests by HTTP method.")
            ->Increment();
        {
          obs::Span handle_span("server.handle", obs::Stage::kBackend);
          response = HandleRequest(request);
        }
        // Inject the WAN delay: model the round trip plus transfer of both
        // bodies before the response reaches the client.
        if (latency_ != nullptr) {
          obs::Span wan_span("server.wan", obs::Stage::kNetwork);
          const int64_t delay = latency_->SampleNanos(request.body.size() +
                                                      response.body.size());
          RealClock::Default()->SleepFor(delay);
        }
        request_ms_->Record(watch.ElapsedMillis());
      }
    }
    request_span.SetAttribute("http.status",
                              std::to_string(response.status_code));
    request_span.SetAttribute("bytes", std::to_string(response.body.size()));
    if (response.status_code >= 500) request_span.MarkError();
  }
  // The request span ends (and its segment is published) when this handler
  // returns — before the server core writes the response — so a sampling
  // client still sees its segments on arrival.
  return response;
}


HttpResponse CloudStoreServer::HandleReplicaRequest(
    const HttpRequest& request) {
  auto header_u64 = [&request](const char* name) -> uint64_t {
    auto it = request.headers.find(name);
    if (it == request.headers.end()) return 0;
    return std::strtoull(it->second.c_str(), nullptr, 10);
  };

  if (request.path == "/replica/status" && request.method == "GET") {
    MutexLock lock(mu_);
    HttpResponse response = MakeResponse(200, "OK");
    response.body = ToBytes(std::to_string(replica_.state().epoch) + " " +
                            std::to_string(replica_.state().applied));
    return response;
  }

  if (request.path == "/replica/fence" && request.method == "POST") {
    const uint64_t epoch = header_u64("x-dstore-replica-epoch");
    const uint64_t cap = header_u64("x-dstore-replica-applied");
    MutexLock lock(mu_);
    if (!replica_.Fence(epoch, cap).ok()) {
      return FencedResponse(replica_.state().epoch);
    }
    return MakeResponse(200, "OK");
  }

  if (request.path == "/replica/apply" && request.method == "POST") {
    const uint64_t epoch = header_u64("x-dstore-replica-epoch");
    const uint64_t seq = header_u64("x-dstore-replica-seq");
    auto op_it = request.headers.find("x-dstore-replica-op");
    auto key_it = request.headers.find("x-dstore-replica-key");
    const std::string op =
        op_it == request.headers.end() ? "" : op_it->second;
    const std::string hexkey =
        key_it == request.headers.end() ? "" : key_it->second;
    MutexLock lock(mu_);
    if (!replica_.Admit(epoch).ok()) {
      return FencedResponse(replica_.state().epoch);
    }
    if (!replica_.IsReplay(seq)) {
      if (op == "put") {
        Object object;
        object.value = request.body;
        object.etag = ComputeEtag(object.value);
        objects_[hexkey] = std::move(object);
      } else if (op == "delete") {
        objects_.erase(hexkey);
      } else if (op == "clear") {
        objects_.clear();
      } else {
        return MakeResponse(400, "Bad Replica Op");
      }
      replica_.MarkApplied(seq);
    }
    HttpResponse response = MakeResponse(200, "OK");
    response.headers["x-dstore-replica-applied"] =
        std::to_string(replica_.state().applied);
    return response;
  }

  return MakeResponse(404, "Not Found");
}

HttpResponse CloudStoreServer::HandleRequest(const HttpRequest& request) {
  const std::string& path = request.path;

  if (path.rfind("/replica/", 0) == 0) {
    return HandleReplicaRequest(request);
  }

  if (path.rfind(kObjectPrefix, 0) == 0) {
    const std::string hexkey = path.substr(sizeof(kObjectPrefix) - 1);

    if (request.method == "PUT") {
      Object object;
      object.value = request.body;
      object.etag = ComputeEtag(object.value);
      HttpResponse response = MakeResponse(200, "OK");
      response.headers["etag"] = object.etag;
      MutexLock lock(mu_);
      objects_[hexkey] = std::move(object);
      return response;
    }

    if (request.method == "GET" || request.method == "HEAD") {
      MutexLock lock(mu_);
      auto it = objects_.find(hexkey);
      if (it == objects_.end()) return MakeResponse(404, "Not Found");
      auto inm = request.headers.find("if-none-match");
      if (inm != request.headers.end() && inm->second == it->second.etag) {
        HttpResponse response = MakeResponse(304, "Not Modified");
        response.headers["etag"] = it->second.etag;
        return response;
      }
      HttpResponse response = MakeResponse(200, "OK");
      response.headers["etag"] = it->second.etag;
      if (request.method == "GET") response.body = it->second.value;
      return response;
    }

    if (request.method == "DELETE") {
      MutexLock lock(mu_);
      objects_.erase(hexkey);
      return MakeResponse(200, "OK");
    }

    return MakeResponse(405, "Method Not Allowed");
  }

  if (path == "/keys" && request.method == "GET") {
    std::string listing;
    {
      MutexLock lock(mu_);
      for (const auto& [hexkey, object] : objects_) {
        listing += hexkey;
        listing += '\n';
      }
    }
    HttpResponse response = MakeResponse(200, "OK");
    response.body = ToBytes(listing);
    return response;
  }

  if (path == "/count" && request.method == "GET") {
    HttpResponse response = MakeResponse(200, "OK");
    MutexLock lock(mu_);
    response.body = ToBytes(std::to_string(objects_.size()));
    return response;
  }

  if (path == "/clear" && request.method == "POST") {
    MutexLock lock(mu_);
    objects_.clear();
    return MakeResponse(200, "OK");
  }

  return MakeResponse(404, "Not Found");
}

}  // namespace dstore
