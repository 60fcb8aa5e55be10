#ifndef DSTORE_FAULT_FAULT_H_
#define DSTORE_FAULT_FAULT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace dstore {
namespace fault {

// Deterministic, schedule-driven fault injection (the machinery behind the
// chaos and crash-recovery suites in tests/chaos/). A FaultPlan is a seeded
// RNG plus a list of declarative FaultRules; injection sites anywhere in the
// library — the FaultInjectingStore decorator, the socket layer, servers —
// ask the plan "does a fault fire here?" and act on the answer. Every
// decision is recorded in a replayable trace, so any failure reproduces from
// the single seed printed by the test harness (Jepsen/CrashMonkey-style
// methodology; see PAPERS.md).

// What an injected fault does at the site where it fires.
enum class FaultKind {
  kError,            // fail the operation before it takes effect
  kErrorAfterApply,  // let the operation take effect, then report an error
                     // (the acknowledged-lost case)
  kLatency,          // delay the operation, then let it proceed
  kCorrupt,          // let it proceed but mangle the payload (stores: flip a
                     // byte; sockets: short write)
};

std::string_view FaultKindName(FaultKind kind);

// One declarative injection rule. A rule applies at matching (site, op)
// pairs; scheduling fields pick which matching operations it fires on.
struct FaultRule {
  // Site filter: exact match, or a prefix ending in '*' ("net.*"), or "*".
  std::string site = "*";
  // Operation filter: "*" or a comma-separated list ("put,get,delete").
  std::string op = "*";

  // --- scheduling ---
  double probability = 1.0;  // chance of firing on an eligible match
  uint64_t after = 0;        // skip the first `after` matching ops
  uint64_t every = 0;        // fire only on every Nth eligible match (0 = all)
  uint64_t limit = 0;        // stop after this many fires (0 = unlimited)

  // --- effect ---
  FaultKind kind = FaultKind::kError;
  StatusCode error = StatusCode::kUnavailable;
  int64_t latency_nanos = 0;  // delay for kLatency (may accompany any kind)

  bool MatchesSite(std::string_view s) const;
  bool MatchesOp(std::string_view o) const;

  std::string ToString() const;

  // Parses one rule from the fault DSL: whitespace-separated key=value
  // tokens, e.g.
  //   "site=store op=put,delete p=0.1 error=unavailable"
  //   "site=net.write at=3 kind=corrupt"       (fail exactly the 3rd write)
  //   "site=store op=get kind=latency latency_ms=5 every=10"
  // Keys: site, op, p|probability, after, every, limit, at (sugar for
  // after=N-1 limit=1), kind (error|error_after_apply|latency|corrupt),
  // error (unavailable|ioerror|timedout|corruption|internal|notfound),
  // latency_ms, latency_ns.
  static StatusOr<FaultRule> Parse(std::string_view spec);
};

// The decision returned when a rule fires.
struct Fault {
  size_t rule_index = 0;
  FaultKind kind = FaultKind::kError;
  StatusCode error = StatusCode::kUnavailable;
  int64_t latency_nanos = 0;
  uint64_t seq = 0;  // plan-wide decision sequence number

  // The Status an injection site should surface, e.g.
  // "injected fault #12 at store/put".
  Status ToStatus(std::string_view site, std::string_view op) const;
};

// A seeded schedule of faults. Thread-safe; decisions are serialized under
// one lock so a single-threaded workload over the plan is fully
// deterministic. Injection counts are mirrored into the default obs
// registry as dstore_fault_injected_total{site=,kind=}.
class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed);

  void AddRule(const FaultRule& rule);

  // Builds a plan from newline- or ';'-separated DSL rules (see
  // FaultRule::Parse). Blank rules and '#' comments are ignored.
  static StatusOr<std::shared_ptr<FaultPlan>> FromSpec(uint64_t seed,
                                                       std::string_view spec);

  // Consults the plan at an injection site. Returns the fired fault, or
  // nullopt to proceed normally. The first matching rule that fires wins.
  std::optional<Fault> Evaluate(std::string_view site, std::string_view op);

  uint64_t seed() const { return seed_; }
  // Operations evaluated (whether or not a fault fired).
  uint64_t ops_seen() const { return ops_seen_.load(); }
  // Faults injected so far.
  uint64_t injected_total() const { return injected_.load(); }

  struct TraceEntry {
    uint64_t seq = 0;
    std::string site;
    std::string op;
    size_t rule_index = 0;
    FaultKind kind = FaultKind::kError;
    StatusCode error = StatusCode::kUnavailable;
  };
  std::vector<TraceEntry> Trace() const;

  // One line per injection — stable across runs with the same seed and
  // workload, so two traces can be compared byte-for-byte (the determinism
  // test) or dumped when an invariant fails.
  std::string TraceString() const;

 private:
  obs::Counter* CounterFor(std::string_view site, FaultKind kind)
      REQUIRES(mu_);

  const uint64_t seed_;
  mutable Mutex mu_;
  Random rng_ GUARDED_BY(mu_);
  std::vector<FaultRule> rules_ GUARDED_BY(mu_);
  // Matching ops seen / faults fired, per rule.
  std::vector<uint64_t> rule_matches_ GUARDED_BY(mu_);
  std::vector<uint64_t> rule_fires_ GUARDED_BY(mu_);
  std::vector<TraceEntry> trace_ GUARDED_BY(mu_);
  std::map<std::string, obs::Counter*> counters_ GUARDED_BY(mu_);
  std::atomic<uint64_t> ops_seen_{0};
  std::atomic<uint64_t> injected_{0};
};

// --- Crash points -----------------------------------------------------------
//
// Simulated kill-points on durability paths (CrashMonkey-style). Production
// code calls CrashPointFires("sql.wal.before_fsync") at instrumented sites;
// unless a test armed that point the call is a single relaxed atomic load.
// When an armed point fires, the site abandons the operation mid-flight —
// leaving on-disk state exactly as a real crash would — and returns
// CrashedStatus(point); the test then reopens from disk and verifies
// recovery. Fires are counted in dstore_fault_crashes_total{point=}.
//
// Instrumented points. The two durable-file protocols in store/fs_util.h
// name theirs `<site>.<step>`, one step list per protocol:
//
//   log append (WalWriter)        publish (PublishFile)
//   <site>.before_append          <site>.before_write
//   <site>.torn_append            <site>.torn_write
//   <site>.before_fsync           <site>.before_rename
//   <site>.after_fsync            <site>.before_dirsync
//                                 <site>.after_rename
//
//   before_append   nothing reaches the log
//   torn_append     half the record's bytes reach the log
//   before_fsync    appended but unsynced bytes are discarded
//   after_fsync     durable, but the caller sees an error
//   before_write    nothing is written
//   torn_write      half the file reaches its temp file (left as litter)
//   before_rename   temp file complete but never published
//   before_dirsync  renamed, but the directory entry not yet durable
//   after_rename    durable, but the caller sees an error
//
// Log sites: sql.wal, lsm.wal, replica.log. Publish sites: file.put,
// lsm.sst, lsm.manifest, sql.snapshot, replica.log.rewrite.
//
// One point sits outside both protocols:
//   cache.snapshot.torn_save  snapshot value truncated mid-write
//
// The replication layer also consults FaultPlan sites "replica.handoff"
// (op replay: break hinted-handoff replay to a rejoining replica) and
// "replica.promote" (op promote: abort or delay a failover promotion);
// see src/replica/group.h.

// True when `point` is armed and its countdown reaches zero on this call.
bool CrashPointFires(std::string_view point);

// The status surfaced by a site that simulated a crash:
// IOError("injected crash at <point>").
Status CrashedStatus(std::string_view point);
bool IsCrashStatus(const Status& status);

// Arms `point` to fire on its `countdown`-th upcoming hit (1 = next hit).
void ArmCrashPoint(const std::string& point, uint64_t countdown = 1);
void DisarmCrashPoints();

// Total fires across all points since process start (monotonic).
uint64_t CrashesInjected();

// --- Socket-level injection -------------------------------------------------
//
// The socket layer (net/socket.cc, net/server.cc) consults a process-wide
// injector — when one is installed — before connect/read/write/accept, so
// CloudStoreClient and RemoteCache are exercised over genuinely broken
// transports. The interface lives here (not in net/) so the plan-driven
// implementation below carries no net dependency.

// What a socket operation should suffer. `error` OK means proceed normally
// after any stall.
struct SocketFault {
  Status error;             // surfaced to the caller; OK = proceed
  size_t allow_prefix = 0;  // writes: bytes actually sent before failing
  int64_t stall_nanos = 0;  // sleep before acting
  bool reset = false;       // hard-close the descriptor (peer sees EOF/RST)
};

class SocketFaultInjector {
 public:
  virtual ~SocketFaultInjector() = default;
  virtual std::optional<SocketFault> OnConnect(const std::string& host,
                                               uint16_t port) = 0;
  virtual std::optional<SocketFault> OnWrite(size_t len) = 0;
  virtual std::optional<SocketFault> OnRead(size_t len) = 0;
  // Consulted by the server accept loop; a fault drops the new connection.
  virtual std::optional<SocketFault> OnAccept() = 0;
};

// Installs (or, with nullptr, removes) the process-wide injector. The
// injector is shared so in-flight socket calls on other threads stay valid
// across removal.
void InstallSocketFaultInjector(std::shared_ptr<SocketFaultInjector> injector);

// The installed injector, or nullptr (the common case: one relaxed load).
std::shared_ptr<SocketFaultInjector> InstalledSocketFaultInjector();

// RAII install/remove for tests.
class ScopedSocketFaultInjector {
 public:
  explicit ScopedSocketFaultInjector(
      std::shared_ptr<SocketFaultInjector> injector) {
    InstallSocketFaultInjector(std::move(injector));
  }
  ~ScopedSocketFaultInjector() { InstallSocketFaultInjector(nullptr); }
  ScopedSocketFaultInjector(const ScopedSocketFaultInjector&) = delete;
  ScopedSocketFaultInjector& operator=(const ScopedSocketFaultInjector&) =
      delete;
};

// FaultPlan-driven injector. Sites: net.connect, net.write, net.read,
// net.accept (ops: connect/write/read/accept). Kind mapping per site:
//   kError on net.connect          -> connection refused (rule's error code)
//   kError on net.write / net.read -> mid-message reset (descriptor closed)
//   kCorrupt on net.write          -> short write: half the bytes, then error
//   kLatency anywhere              -> stall, then proceed
class PlanSocketFaultInjector : public SocketFaultInjector {
 public:
  explicit PlanSocketFaultInjector(std::shared_ptr<FaultPlan> plan)
      : plan_(std::move(plan)) {}

  std::optional<SocketFault> OnConnect(const std::string& host,
                                       uint16_t port) override;
  std::optional<SocketFault> OnWrite(size_t len) override;
  std::optional<SocketFault> OnRead(size_t len) override;
  std::optional<SocketFault> OnAccept() override;

  const std::shared_ptr<FaultPlan>& plan() const { return plan_; }

 private:
  std::optional<SocketFault> Translate(std::string_view site, size_t len,
                                       std::optional<Fault> fault);

  std::shared_ptr<FaultPlan> plan_;
};

}  // namespace fault
}  // namespace dstore

#endif  // DSTORE_FAULT_FAULT_H_
