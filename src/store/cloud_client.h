#ifndef DSTORE_STORE_CLOUD_CLIENT_H_
#define DSTORE_STORE_CLOUD_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/sync.h"
#include "net/http.h"
#include "store/key_value.h"
#include "store/replica_state.h"

namespace dstore {

// KeyValueStore client for a CloudStoreServer (or any store speaking the
// same REST surface). Maintains one keep-alive HTTP connection, used
// serially under a lock; reconnects once on failure. Overrides GetIfChanged
// with a true conditional GET (If-None-Match -> 304), so revalidating an
// unmodified object transfers no body — the bandwidth saving of the paper's
// Fig. 7 protocol.
//
// Deadline-aware (src/admit/): when an ambient admit::Deadline is active,
// an already-expired budget fails with TimedOut before any bytes are sent,
// and the remaining budget is forwarded as the x-dstore-deadline-ms header
// so the server can shed or abandon the request on its side. Overload
// answers map to distinct statuses: HTTP 503 -> Overloaded, 504 ->
// TimedOut — never anything resembling a data-plane result.
class CloudStoreClient : public KeyValueStore {
 public:
  static StatusOr<std::unique_ptr<CloudStoreClient>> Connect(
      const std::string& host, uint16_t port, std::string name = "cloud");

  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  StatusOr<bool> Contains(const std::string& key) override;
  StatusOr<std::vector<std::string>> ListKeys() override;
  StatusOr<size_t> Count() override;
  Status Clear() override;
  StatusOr<ConditionalGetResult> GetIfChanged(const std::string& key,
                                              const std::string& etag) override;
  std::string Name() const override { return name_; }

  // --- Replication verbs (the /replica/* routes of cloud_server.h) ---
  // These carry primitives and store-layer types rather than replica/
  // types so the store layer stays below src/replica/ in the dependency
  // graph. A stale epoch (HTTP 412) surfaces as FencedStatus
  // (store/replica_state.h).

  // Applies one replication log entry under `epoch`; `value` may be null
  // for delete/clear.
  Status ReplicaApply(const std::string& op, const std::string& key,
                      const Bytes* value, uint64_t seq, uint64_t epoch);
  // Raises the replica's accepted epoch and caps its applied watermark.
  Status ReplicaFence(uint64_t epoch, uint64_t max_applied);
  StatusOr<ReplicaState> ReplicaStatus();

  // Etag of the last Put, for callers that track versions.
  std::string last_put_etag() const;

 private:
  CloudStoreClient(std::string host, uint16_t port, std::string name)
      : host_(std::move(host)), port_(port), name_(std::move(name)) {}

  static std::string ObjectPath(const std::string& key);
  // Performs one request with reconnect-once semantics; checks the ambient
  // deadline first and attaches its remaining budget as a header.
  StatusOr<HttpResponse> RoundTrip(HttpRequest& request) REQUIRES(mu_);
  Status EnsureConnected() REQUIRES(mu_);

  std::string host_;
  uint16_t port_;
  std::string name_;
  mutable Mutex mu_;
  std::optional<HttpConnection> conn_ GUARDED_BY(mu_);
  std::string last_put_etag_ GUARDED_BY(mu_);
};

}  // namespace dstore

#endif  // DSTORE_STORE_CLOUD_CLIENT_H_
