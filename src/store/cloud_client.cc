#include "store/cloud_client.h"

#include <cstdlib>

#include "admit/deadline.h"
#include "obs/trace.h"

namespace dstore {

namespace {

// Maps a non-2xx data-plane answer to its status: the server's admission
// layer speaks 503 (shed -> Overloaded) and 504 (budget exhausted ->
// TimedOut); anything else unexpected stays IOError.
Status HttpError(const std::string& what, int code) {
  if (code == 503) {
    return Status::Overloaded(what + " shed by server: HTTP 503");
  }
  if (code == 504) {
    return Status::TimedOut(what + " exceeded deadline: HTTP 504");
  }
  return Status::IOError(what + " failed: HTTP " + std::to_string(code));
}

// Maps a /replica/* answer: 412 carries the replica's accepted epoch.
Status ReplicaError(const std::string& what, const HttpResponse& response,
                    uint64_t epoch) {
  if (response.status_code == 412) {
    auto it = response.headers.find("x-dstore-replica-epoch");
    return FencedStatus(
        epoch, it == response.headers.end()
                   ? 0
                   : std::strtoull(it->second.c_str(), nullptr, 10));
  }
  return HttpError(what, response.status_code);
}

}  // namespace

StatusOr<std::unique_ptr<CloudStoreClient>> CloudStoreClient::Connect(
    const std::string& host, uint16_t port, std::string name) {
  auto client = std::unique_ptr<CloudStoreClient>(
      new CloudStoreClient(host, port, std::move(name)));
  MutexLock lock(client->mu_);
  DSTORE_RETURN_IF_ERROR(client->EnsureConnected());
  return client;
}

std::string CloudStoreClient::ObjectPath(const std::string& key) {
  return "/objects/" + HexEncode(ToBytes(key));
}

Status CloudStoreClient::EnsureConnected() {
  if (conn_.has_value() && conn_->valid()) return Status::OK();
  DSTORE_ASSIGN_OR_RETURN(Socket socket, Socket::ConnectTcp(host_, port_));
  conn_.emplace(std::move(socket));
  return Status::OK();
}

StatusOr<HttpResponse> CloudStoreClient::RoundTrip(HttpRequest& request) {
  obs::Span span("http.roundtrip", obs::Stage::kNetwork);
  span.SetAttribute("method", request.method);
  span.SetAttribute("path", request.path);
  // Propagate the trace identity so the server's spans join this trace.
  const obs::TraceContext trace_ctx = obs::CurrentTraceContext();
  if (trace_ctx.valid() && trace_ctx.sampled) {
    request.headers[obs::kTraceHeaderName] = trace_ctx.ToHeader();
  }
  const admit::Deadline deadline = admit::CurrentDeadline();
  if (deadline.has_deadline()) {
    const int64_t remaining = deadline.remaining_nanos();
    if (remaining <= 0) {
      return Status::TimedOut("deadline expired before " + request.method +
                              " round trip to " + name_);
    }
    // Propagate the remaining budget (rounded up, so a live sub-ms budget
    // never reads as zero on the wire).
    request.headers["x-dstore-deadline-ms"] =
        std::to_string((remaining + 999'999) / 1'000'000);
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    DSTORE_RETURN_IF_ERROR(EnsureConnected());
    if (!conn_->WriteRequest(request).ok()) {
      conn_->Close();
      continue;
    }
    auto response = conn_->ReadResponse();
    if (!response.ok()) {
      conn_->Close();
      continue;
    }
    span.SetAttribute("http.status", std::to_string(response->status_code));
    span.SetAttribute("bytes", std::to_string(response->body.size()));
    if (response->status_code >= 500) span.MarkError();
    return response;
  }
  span.MarkError();
  return Status::Unavailable("cloud store connection failed");
}

Status CloudStoreClient::Put(const std::string& key, ValuePtr value) {
  if (value == nullptr) return Status::InvalidArgument("null value");
  HttpRequest request;
  request.method = "PUT";
  request.path = ObjectPath(key);
  request.body = *value;
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("cloud PUT", response.status_code);
  }
  auto it = response.headers.find("etag");
  if (it != response.headers.end()) last_put_etag_ = it->second;
  return Status::OK();
}

StatusOr<ValuePtr> CloudStoreClient::Get(const std::string& key) {
  HttpRequest request;
  request.method = "GET";
  request.path = ObjectPath(key);
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code == 404) return Status::NotFound("no such key");
  if (response.status_code != 200) {
    return HttpError("cloud GET", response.status_code);
  }
  return MakeValue(std::move(response.body));
}

StatusOr<ConditionalGetResult> CloudStoreClient::GetIfChanged(
    const std::string& key, const std::string& etag) {
  HttpRequest request;
  request.method = "GET";
  request.path = ObjectPath(key);
  if (!etag.empty()) request.headers["if-none-match"] = etag;
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code == 404) return Status::NotFound("no such key");
  ConditionalGetResult result;
  auto it = response.headers.find("etag");
  if (it != response.headers.end()) result.etag = it->second;
  if (response.status_code == 304) {
    result.not_modified = true;
    return result;
  }
  if (response.status_code != 200) {
    return HttpError("cloud conditional GET", response.status_code);
  }
  result.value = MakeValue(std::move(response.body));
  return result;
}

Status CloudStoreClient::Delete(const std::string& key) {
  HttpRequest request;
  request.method = "DELETE";
  request.path = ObjectPath(key);
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("cloud DELETE", response.status_code);
  }
  return Status::OK();
}

StatusOr<bool> CloudStoreClient::Contains(const std::string& key) {
  HttpRequest request;
  request.method = "HEAD";
  request.path = ObjectPath(key);
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code == 200) return true;
  if (response.status_code == 404) return false;
  return HttpError("cloud HEAD", response.status_code);
}

StatusOr<std::vector<std::string>> CloudStoreClient::ListKeys() {
  HttpRequest request;
  request.method = "GET";
  request.path = "/keys";
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("cloud /keys", response.status_code);
  }
  std::vector<std::string> keys;
  std::string line;
  for (uint8_t b : response.body) {
    if (b == '\n') {
      auto decoded = HexDecode(line);
      if (decoded.ok()) keys.push_back(ToString(*decoded));
      line.clear();
    } else {
      line.push_back(static_cast<char>(b));
    }
  }
  return keys;
}

StatusOr<size_t> CloudStoreClient::Count() {
  HttpRequest request;
  request.method = "GET";
  request.path = "/count";
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("cloud /count", response.status_code);
  }
  return static_cast<size_t>(std::atoll(ToString(response.body).c_str()));
}

Status CloudStoreClient::Clear() {
  HttpRequest request;
  request.method = "POST";
  request.path = "/clear";
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("cloud /clear", response.status_code);
  }
  return Status::OK();
}

Status CloudStoreClient::ReplicaApply(const std::string& op,
                                      const std::string& key,
                                      const Bytes* value, uint64_t seq,
                                      uint64_t epoch) {
  HttpRequest request;
  request.method = "POST";
  request.path = "/replica/apply";
  request.headers["x-dstore-replica-op"] = op;
  request.headers["x-dstore-replica-key"] = HexEncode(ToBytes(key));
  request.headers["x-dstore-replica-seq"] = std::to_string(seq);
  request.headers["x-dstore-replica-epoch"] = std::to_string(epoch);
  if (value != nullptr) request.body = *value;
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return ReplicaError("replica apply", response, epoch);
  }
  return Status::OK();
}

Status CloudStoreClient::ReplicaFence(uint64_t epoch, uint64_t max_applied) {
  HttpRequest request;
  request.method = "POST";
  request.path = "/replica/fence";
  request.headers["x-dstore-replica-epoch"] = std::to_string(epoch);
  request.headers["x-dstore-replica-applied"] = std::to_string(max_applied);
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return ReplicaError("replica fence", response, epoch);
  }
  return Status::OK();
}

StatusOr<ReplicaState> CloudStoreClient::ReplicaStatus() {
  HttpRequest request;
  request.method = "GET";
  request.path = "/replica/status";
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("replica status", response.status_code);
  }
  const std::string body = ToString(response.body);
  char* end = nullptr;
  ReplicaState state;
  state.epoch = std::strtoull(body.c_str(), &end, 10);
  state.applied = end == nullptr ? 0 : std::strtoull(end, nullptr, 10);
  return state;
}

std::string CloudStoreClient::last_put_etag() const {
  MutexLock lock(mu_);
  return last_put_etag_;
}

}  // namespace dstore
