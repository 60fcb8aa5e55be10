#ifndef DSTORE_REPLICA_GROUP_H_
#define DSTORE_REPLICA_GROUP_H_

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "admit/breaker.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/sync.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "replica/log.h"
#include "replica/transport.h"

namespace dstore {
namespace replica {

// One primary-backup replica group: the unit a ring slot maps to. Writes
// serialize into a GroupLog (the authoritative history) and apply to the
// primary inline; a background replicator streams the log in order to every
// replica that is behind — backups always, and the primary itself when a
// failed inline apply left a hole — so each replica always holds a *prefix*
// of the log. A write is acked once `write_quorum` replicas (primary
// included) have applied it — which is what makes failover lossless: with
// W >= 2 every acked entry is on at least one backup, and promotion picks
// the backup with the longest prefix.
//
//  * Hinted handoff: a down replica pins its unapplied log suffix (the
//    "hints"); on rejoin the replicator replays it in order. A rejoiner's
//    self-reported watermark is only trusted at the current epoch; a
//    stale-epoch rejoiner (a deposed primary that was down during the
//    promotion) is clamped to the group's own last-known watermark and
//    fenced before it serves again.
//  * Failover: manual (Promote) or automatic after `failover_after`
//    consecutive transient primary failures. Promotion bumps the group
//    epoch, truncates the log to the new primary's applied watermark, and
//    fences every reachable replica so the deposed primary's late writes
//    are rejected (replicas remember the highest accepted epoch — stale
//    epochs answer FencedStatus even from a different group handle).
//  * Reads: served by the most-caught-up live replica that passes its
//    circuit breaker, falling over on transient errors; with `read_repair`
//    on, `read_quorum` replicas are compared and divergence is counted
//    (never rewritten on the read path — RepairPass is the one fixer).
//    A session min-seq gate (see session.h) keeps read-your-writes across
//    failover: only replicas at or past the caller's high-water mark answer.
//  * Anti-entropy: RepairPass compares Merkle-style bucketed digests of the
//    primary's backend against each live backup and copies/deletes the
//    differing keys (silent divergence — e.g. a deposed primary's fenced
//    surplus — converges back).
//
// Fault sites: "replica.handoff" (op replay) gates each handoff replay
// apply; "replica.promote" (op promote) can abort or delay a promotion;
// the GroupLog adds the replica.log.* crash points. Metrics are published
// as dstore_replica_* and the hot paths open replica.* spans.
//
// Thread-safe.
class ReplicaGroup {
 public:
  struct Options {
    std::string name = "group";  // metrics label, Name() component
    // Replicas that must have applied a write before it is acked (the
    // primary counts as one). 1 = ack on primary apply, replicate async.
    int write_quorum = 2;
    // Replicas consulted (and compared) per read when `read_repair` is on;
    // divergences are counted in dstore_replica_read_repair_total.
    int read_quorum = 2;
    bool read_repair = true;
    // Promote automatically after this many consecutive transient primary
    // failures (0 disables auto-failover; Promote() still works).
    int failover_after = 3;
    // Consecutive replicator failures before a backup is marked down.
    int down_after = 2;
    // Bound on the quorum wait inside Write (TimedOut past it — the write
    // is then in the "uncertain" class retries may land twice, which
    // replicated puts/deletes absorb idempotently).
    int64_t write_wait_nanos = 10'000'000'000;
    // How often the replicator re-probes a down replica.
    int64_t rejoin_probe_nanos = 50'000'000;
    // Replicator idle poll (also woken by appends).
    int64_t replicator_idle_nanos = 2'000'000;
    // Buckets in the anti-entropy digest tree.
    size_t digest_buckets = 16;
    // Retained log entries tolerated before trimming fully-applied prefix.
    size_t trim_batch = 64;
    // Per-replica circuit breaker template (name/clock are filled in).
    admit::CircuitBreaker::Options breaker;
    // Sites "replica.handoff" and "replica.promote".
    std::shared_ptr<fault::FaultPlan> fault_plan;
    Clock* clock = nullptr;  // null = RealClock
    // Non-empty: the group log is made durable under this directory via
    // the fs_util helpers (one <name>.rlog file).
    std::filesystem::path log_dir;
  };

  struct ReplicaSpec {
    std::string name;
    std::shared_ptr<ReplicaTransport> transport;
  };

  // At least one replica; the first spec starts as primary. write_quorum
  // and read_quorum must be in [1, replicas].
  static StatusOr<std::unique_ptr<ReplicaGroup>> Create(
      std::vector<ReplicaSpec> replicas, Options options);

  ~ReplicaGroup();
  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  // --- Client surface (used by ReplicatedStore) ---

  // Replicates one mutation; returns its log sequence once `write_quorum`
  // replicas applied it. `value` must be non-null for kPut.
  StatusOr<uint64_t> Write(OpType op, const std::string& key, ValuePtr value);

  // Reads from the most-caught-up admissible replica whose applied
  // watermark is at least `min_seq` (0 = no session constraint).
  StatusOr<ValuePtr> Read(const std::string& key, uint64_t min_seq);
  StatusOr<bool> ContainsRead(const std::string& key, uint64_t min_seq);
  StatusOr<std::vector<std::string>> ListKeysRead(uint64_t min_seq);
  StatusOr<size_t> CountRead(uint64_t min_seq);

  // --- Membership / failover ---

  // Promotes `target` (or, when empty, the most-caught-up live backup).
  Status Promote(const std::string& target = std::string());

  // Marks a replica down (as the replicator would after repeated failures):
  // it stops serving reads and starts accumulating hints.
  Status MarkDown(const std::string& name);
  // Asks the replicator to re-probe a down replica now.
  Status Rejoin(const std::string& name);

  // Swaps in a fresh transport for a (non-primary) replica — the "node
  // restarted empty / was replaced" path. The replica is fenced to the
  // current epoch, bootstrapped from the primary's backend when the log no
  // longer holds its full replay suffix, and then caught up by replay.
  Status ReplaceReplica(const std::string& name,
                        std::shared_ptr<ReplicaTransport> transport);

  // --- Anti-entropy ---

  struct RepairStats {
    uint64_t replicas_checked = 0;
    uint64_t buckets_diverged = 0;
    uint64_t keys_repaired = 0;
  };
  // Compares bucketed digests of the primary's backend against every live
  // backup and repairs differing keys. Quiesces writes for its duration.
  StatusOr<RepairStats> RepairPass();

  // --- Introspection ---

  struct ReplicaInfo {
    std::string name;
    bool primary = false;
    bool up = true;
    uint64_t applied = 0;
    uint64_t lag = 0;    // last_seq - applied
    uint64_t hints = 0;  // pending replay entries while down
    std::string breaker;
  };
  struct GroupStatus {
    std::string name;
    uint64_t epoch = 0;
    uint64_t last_seq = 0;
    std::string primary;
    std::vector<ReplicaInfo> replicas;
  };
  GroupStatus GetStatus();

  // Blocks until every live replica has applied the whole log (test +
  // drain hook).
  Status WaitForReplication(int64_t timeout_nanos = 10'000'000'000);

  // One "promote to=<name> epoch=<e> applied=<seq> reason=<r>" line per
  // promotion — byte-stable across same-seed runs (the determinism test).
  std::string PromotionTrace();

  const std::string& name() const { return options_.name; }
  uint64_t epoch();
  std::string primary_name();
  GroupLog* log() { return log_.get(); }

 private:
  struct Member {
    std::string name;
    std::shared_ptr<ReplicaTransport> transport;
    std::unique_ptr<admit::CircuitBreaker> breaker;
    uint64_t applied = 0;
    bool up = true;
    int fail_streak = 0;
    int64_t next_probe_nanos = 0;
  };

  explicit ReplicaGroup(Options options);

  void ReplicatorLoop();
  // One replicator round: probe down replicas, stream one entry to the
  // most-behind live backup. Returns true when it did work.
  bool ReplicateOnceLocked() REQUIRES(mu_);
  Status PromoteLocked(const std::string& target, const std::string& reason)
      REQUIRES(mu_);
  void OnPrimaryFailureLocked(const Status& status) REQUIRES(mu_);
  void MaybeTrimLocked() REQUIRES(mu_);
  int AckCountLocked(uint64_t seq) const REQUIRES(mu_);
  int PotentialAcksLocked(uint64_t seq) const REQUIRES(mu_);
  uint64_t HintsPendingLocked() const REQUIRES(mu_);
  void RefreshGaugesLocked() REQUIRES(mu_);

  const Options options_;
  Clock* const clock_;
  std::unique_ptr<GroupLog> log_;

  // Writers (and RepairPass, which quiesces them) serialize here: log
  // appends must be seq-contiguous and primary applies seq-ordered. mu_ is
  // only ever held for bookkeeping — never across the log fsync or a
  // replica RPC — so reads, status, promotion, and the replicator do not
  // wait behind a write's network or disk latency.
  Mutex write_mu_ ACQUIRED_BEFORE(mu_);
  mutable Mutex mu_;
  CondVar work_cv_;  // replicator wakeups (appends, rejoin requests, stop)
  CondVar ack_cv_;   // quorum waiters (applied advances, down transitions)
  std::vector<Member> members_ GUARDED_BY(mu_);
  size_t primary_ GUARDED_BY(mu_) = 0;
  uint64_t epoch_ GUARDED_BY(mu_) = 1;
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  // Highest sequence ever acknowledged to a client. Promotion refuses any
  // candidate whose applied watermark is below this: the only backup
  // holding an acked write may be transiently down, and promoting past it
  // would turn a blip into acknowledged-write loss.
  uint64_t acked_seq_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  // Transport currently receiving a Write()'s inline primary apply. The
  // replicator must not stream to it meanwhile: a concurrent backfill of an
  // earlier entry could land after the inline apply of a later one and
  // leave the older value on a shared key.
  std::shared_ptr<ReplicaTransport> inline_primary_ GUARDED_BY(mu_);
  std::string promotion_trace_ GUARDED_BY(mu_);
  std::thread replicator_;

  obs::Counter* writes_total_ = nullptr;
  obs::Counter* write_errors_total_ = nullptr;
  obs::Counter* reads_total_ = nullptr;
  obs::Counter* read_repair_total_ = nullptr;
  obs::Counter* repair_total_ = nullptr;
  obs::Counter* promotions_total_ = nullptr;
  obs::Counter* fenced_total_ = nullptr;
  obs::Counter* handoff_replayed_total_ = nullptr;
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Gauge* log_entries_gauge_ = nullptr;
  obs::Gauge* hints_pending_gauge_ = nullptr;
};

}  // namespace replica
}  // namespace dstore

#endif  // DSTORE_REPLICA_GROUP_H_
