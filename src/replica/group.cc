#include "replica/group.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "common/hash.h"
#include "obs/trace.h"

namespace dstore {
namespace replica {

namespace {

// The transient-error class: worth retrying, failing over, or marking a
// replica down for. Fenced rejections are deliberately excluded — they mean
// this handle's leadership is stale, not that the replica is sick.
bool IsTransient(const Status& status) {
  if (IsFenced(status)) return false;
  return status.IsUnavailable() || status.IsIOError() || status.IsTimedOut() ||
         status.IsOverloaded();
}

uint64_t ValueDigest(const std::string& key, const Bytes& value) {
  return Mix64(Fnv1a64(key) ^ Mix64(Fnv1a64(value.data(), value.size())));
}

}  // namespace

ReplicaGroup::ReplicaGroup(Options options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : RealClock::Default()) {}

StatusOr<std::unique_ptr<ReplicaGroup>> ReplicaGroup::Create(
    std::vector<ReplicaSpec> replicas, Options options) {
  if (replicas.empty()) {
    return Status::InvalidArgument("replica group needs at least one replica");
  }
  const int n = static_cast<int>(replicas.size());
  if (options.write_quorum < 1 || options.write_quorum > n ||
      options.read_quorum < 1 || options.read_quorum > n) {
    return Status::InvalidArgument("replica quorums must be in [1, replicas]");
  }
  auto group = std::unique_ptr<ReplicaGroup>(new ReplicaGroup(options));
  if (!group->options_.log_dir.empty()) {
    DSTORE_ASSIGN_OR_RETURN(
        group->log_,
        GroupLog::Open(group->options_.name, group->options_.log_dir));
  } else {
    group->log_ = std::make_unique<GroupLog>(group->options_.name);
  }

  obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
  const obs::Labels labels = {{"group", group->options_.name}};
  group->writes_total_ = registry->GetCounter(
      "dstore_replica_writes_total", labels, "Acknowledged replicated writes.");
  group->write_errors_total_ =
      registry->GetCounter("dstore_replica_write_errors_total", labels,
                           "Replicated writes that surfaced an error.");
  group->reads_total_ = registry->GetCounter(
      "dstore_replica_reads_total", labels, "Replicated reads served.");
  group->read_repair_total_ = registry->GetCounter(
      "dstore_replica_read_repair_total", labels,
      "Divergent replica values seen by read-quorum compares (RepairPass "
      "fixes them).");
  group->repair_total_ = registry->GetCounter(
      "dstore_replica_repair_total", labels,
      "Keys repaired by anti-entropy passes.");
  group->promotions_total_ = registry->GetCounter(
      "dstore_replica_promotions_total", labels, "Primary promotions.");
  group->fenced_total_ = registry->GetCounter(
      "dstore_replica_fenced_total", labels,
      "Replicas fenced to a new epoch during promotion.");
  group->handoff_replayed_total_ = registry->GetCounter(
      "dstore_replica_handoff_replayed_total", labels,
      "Hinted-handoff log entries replayed to rejoining replicas.");
  group->epoch_gauge_ = registry->GetGauge(
      "dstore_replica_epoch", labels, "Current group leadership epoch.");
  group->log_entries_gauge_ =
      registry->GetGauge("dstore_replica_log_entries", labels,
                         "Replication log entries currently retained.");
  group->hints_pending_gauge_ =
      registry->GetGauge("dstore_replica_hints_pending", labels,
                         "Log entries pending replay to down replicas.");

  {
    MutexLock lock(group->mu_);
    group->next_seq_ = group->log_->last_seq();
    std::vector<StatusOr<ReplicaState>> probes;
    for (auto& spec : replicas) {
      Member member;
      member.name = std::move(spec.name);
      member.transport = std::move(spec.transport);
      admit::CircuitBreaker::Options breaker = group->options_.breaker;
      breaker.name = group->options_.name + "/" + member.name;
      if (breaker.clock == nullptr) breaker.clock = group->clock_;
      member.breaker = std::make_unique<admit::CircuitBreaker>(breaker);
      probes.push_back(member.transport->Probe());
      group->members_.push_back(std::move(member));
    }
    // The group's epoch is the highest any reachable replica has accepted;
    // only members at that epoch may vouch for their own watermark.
    for (const auto& probe : probes) {
      if (probe.ok()) group->epoch_ = std::max(group->epoch_, probe->epoch);
    }
    for (size_t i = 0; i < group->members_.size(); ++i) {
      Member& member = group->members_[i];
      const StatusOr<ReplicaState>& probe = probes[i];
      if (!probe.ok()) {
        member.up = false;
        member.next_probe_nanos =
            group->clock_->NowNanos() + group->options_.rejoin_probe_nanos;
        continue;
      }
      if (probe->epoch == group->epoch_ || probe->applied == 0) {
        member.applied = std::min(probe->applied, group->next_seq_);
        // Cold-start ack estimate: every acked entry is on some replica, so
        // the highest current-epoch watermark bounds what promotion must
        // keep.
        group->acked_seq_ = std::max(group->acked_seq_, member.applied);
        continue;
      }
      // Stale-epoch replica at cold start — e.g. a primary deposed by a
      // promotion this handle never saw. Its self-reported applied still
      // counts a truncated old-epoch tail, and with no prior clamp of our
      // own the divergence point is unknown: trust nothing. Fence it to
      // zero and rebuild it by full replay — or, when the log's prefix is
      // already trimmed, leave it down for the ReplaceReplica bootstrap.
      member.applied = 0;
      if (member.transport->Fence(group->epoch_, 0).ok()) {
        group->fenced_total_->Increment();
        if (group->log_->base_seq() == 0) continue;
      }
      member.up = false;
      member.next_probe_nanos =
          group->clock_->NowNanos() + group->options_.rejoin_probe_nanos;
    }
    group->epoch_gauge_->Set(static_cast<double>(group->epoch_));
    group->RefreshGaugesLocked();
  }
  group->replicator_ = std::thread([raw = group.get()] {
    raw->ReplicatorLoop();
  });
  return group;
}

ReplicaGroup::~ReplicaGroup() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    work_cv_.NotifyAll();
    ack_cv_.NotifyAll();
  }
  if (replicator_.joinable()) replicator_.join();
}

StatusOr<uint64_t> ReplicaGroup::Write(OpType op, const std::string& key,
                                       ValuePtr value) {
  if (op == OpType::kPut && value == nullptr) {
    return Status::InvalidArgument("null value");
  }
  obs::Span span("replica." + std::string(OpName(op)));
  span.SetAttribute("group", options_.name);
  // Writers serialize on write_mu_; mu_ guards only the bookkeeping
  // segments, so the log fsync and the primary's apply RPC below never
  // block reads, status, promotion, or the replicator.
  MutexLock write_lock(write_mu_);
  LogEntry entry;
  entry.op = op;
  entry.key = key;
  entry.value = std::move(value);
  std::shared_ptr<ReplicaTransport> primary_transport;
  size_t primary_index = 0;
  uint64_t write_epoch = 0;
  bool apply_inline = false;
  {
    MutexLock lock(mu_);
    if (!members_[primary_].up && options_.failover_after > 0) {
      (void)PromoteLocked(std::string(), "primary down at write");
    }
    if (!members_[primary_].up) {
      write_errors_total_->Increment();
      return Status::Unavailable("group " + options_.name +
                                 ": no live primary");
    }
    if (PotentialAcksLocked(next_seq_ + 1) < options_.write_quorum) {
      write_errors_total_->Increment();
      return Status::Unavailable(
          "group " + options_.name + ": write quorum unavailable (need w=" +
          std::to_string(options_.write_quorum) + ")");
    }
    entry.seq = next_seq_ + 1;
    entry.epoch = epoch_;
    write_epoch = epoch_;
    primary_index = primary_;
    primary_transport = members_[primary_].transport;
    // Apply inline only when the primary holds the full prefix. A hole — a
    // previously failed inline apply — is instead backfilled in order by
    // the replicator, so the primary's watermark can never jump a gap and
    // later claim history its backend does not hold.
    apply_inline = members_[primary_].applied == next_seq_;
  }

  Status status = log_->Append(entry);  // durable-mode fsync, outside mu_
  if (!status.ok()) {
    MutexLock lock(mu_);
    write_errors_total_->Increment();
    if (epoch_ != write_epoch) {
      // A promotion truncated the log mid-append; the refusal is the
      // failover speaking, not an I/O fault.
      return Status::Unavailable("group " + options_.name +
                                 ": superseded by failover during write");
    }
    span.SetStatus(status);
    return status;
  }
  {
    MutexLock lock(mu_);
    if (epoch_ != write_epoch) {
      // A promotion raced the append. If the entry landed anyway (the new
      // history happened to end exactly at its predecessor), drop it: it
      // carries the deposed epoch and was never acked.
      (void)log_->TruncateTo(entry.seq - 1);
      write_errors_total_->Increment();
      return Status::Unavailable("group " + options_.name +
                                 ": superseded by failover during write");
    }
    next_seq_ = entry.seq;
    if (apply_inline) inline_primary_ = primary_transport;
    RefreshGaugesLocked();
    work_cv_.NotifyAll();  // backups may stream the new entry now
  }

  if (apply_inline) {
    status = primary_transport->Apply(entry, write_epoch);
    MutexLock lock(mu_);
    if (inline_primary_ == primary_transport) inline_primary_ = nullptr;
    Member& primary = members_[primary_index];
    const bool valid =
        primary.transport == primary_transport && epoch_ == write_epoch;
    if (!status.ok()) {
      write_errors_total_->Increment();
      span.SetStatus(status);
      if (valid && primary_index == primary_) OnPrimaryFailureLocked(status);
      // The entry stays logged with the watermark pinned below it; the
      // replicator now owns backfilling the primary's hole.
      work_cv_.NotifyAll();
      return status;
    }
    if (valid) {
      primary.fail_streak = 0;
      if (entry.seq == primary.applied + 1) primary.applied = entry.seq;
      ack_cv_.NotifyAll();
    }
  }

  {
    MutexLock lock(mu_);
    const uint64_t seq = entry.seq;
    const int64_t deadline = clock_->NowNanos() + options_.write_wait_nanos;
    while (AckCountLocked(seq) < options_.write_quorum) {
      if (stop_) {
        write_errors_total_->Increment();
        return Status::Unavailable("group " + options_.name +
                                   ": shutting down");
      }
      if (next_seq_ < seq) {
        // A promotion truncated the (unacked) entry out of the log.
        write_errors_total_->Increment();
        return Status::Unavailable("group " + options_.name +
                                   ": write truncated by failover");
      }
      if (PotentialAcksLocked(seq) < options_.write_quorum) {
        write_errors_total_->Increment();
        return Status::Unavailable(
            "group " + options_.name +
            ": write quorum lost while awaiting replication");
      }
      if (clock_->NowNanos() >= deadline) {
        write_errors_total_->Increment();
        return Status::TimedOut("group " + options_.name +
                                ": replication quorum wait timed out");
      }
      ack_cv_.WaitFor(mu_, std::chrono::milliseconds(20));
    }
    if (seq > acked_seq_) acked_seq_ = seq;
  }
  writes_total_->Increment();
  span.SetAttribute("seq", std::to_string(entry.seq));
  return entry.seq;
}

int ReplicaGroup::AckCountLocked(uint64_t seq) const {
  int acks = 0;
  for (const auto& m : members_) {
    if (m.applied >= seq) ++acks;
  }
  return acks;
}

int ReplicaGroup::PotentialAcksLocked(uint64_t seq) const {
  int potential = 0;
  for (const auto& m : members_) {
    if (m.applied >= seq || m.up) ++potential;
  }
  return potential;
}

uint64_t ReplicaGroup::HintsPendingLocked() const {
  uint64_t hints = 0;
  for (const auto& m : members_) {
    if (!m.up && next_seq_ > m.applied) hints += next_seq_ - m.applied;
  }
  return hints;
}

void ReplicaGroup::RefreshGaugesLocked() {
  log_entries_gauge_->Set(static_cast<double>(log_->size()));
  hints_pending_gauge_->Set(static_cast<double>(HintsPendingLocked()));
}

void ReplicaGroup::OnPrimaryFailureLocked(const Status& status) {
  if (!IsTransient(status)) return;
  Member& primary = members_[primary_];
  primary.fail_streak++;
  if (options_.failover_after > 0 &&
      primary.fail_streak >= options_.failover_after) {
    primary.up = false;
    primary.next_probe_nanos =
        clock_->NowNanos() + options_.rejoin_probe_nanos;
    ack_cv_.NotifyAll();
    (void)PromoteLocked(std::string(), "primary failure streak");
  }
}

Status ReplicaGroup::Promote(const std::string& target) {
  obs::Span span("replica.promote");
  span.SetAttribute("group", options_.name);
  MutexLock lock(mu_);
  Status status = PromoteLocked(target, "manual");
  span.SetStatus(status);
  return status;
}

Status ReplicaGroup::PromoteLocked(const std::string& target,
                                   const std::string& reason) {
  if (options_.fault_plan != nullptr) {
    if (auto fault = options_.fault_plan->Evaluate("replica.promote",
                                                   "promote")) {
      if (fault->latency_nanos > 0) clock_->SleepFor(fault->latency_nanos);
      if (fault->kind == fault::FaultKind::kError ||
          fault->kind == fault::FaultKind::kErrorAfterApply) {
        return fault->ToStatus("replica.promote", "promote");
      }
    }
  }
  // Most-caught-up live backup; name-ordered tie-break keeps the choice —
  // and therefore the promotion trace — deterministic. A backup below the
  // acked watermark is never eligible: the holder of an acked write may
  // merely be down for a blip, and promoting past it would lose the write
  // for good. Better to stay headless until a holder rejoins.
  size_t best = members_.size();
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i == primary_ || !members_[i].up) continue;
    if (members_[i].applied < acked_seq_) continue;
    if (!target.empty()) {
      if (members_[i].name == target) best = i;
      continue;
    }
    if (best == members_.size() ||
        members_[i].applied > members_[best].applied ||
        (members_[i].applied == members_[best].applied &&
         members_[i].name < members_[best].name)) {
      best = i;
    }
  }
  if (best == members_.size()) {
    return Status::Unavailable(
        "group " + options_.name +
        ": no promotable backup holding every acknowledged write" +
        (target.empty() ? "" : " named " + target));
  }
  epoch_++;
  const uint64_t cut = members_[best].applied;
  // The deposed primary's unacked tail (entries past the new primary's
  // prefix) is dropped: no acked write is in it when W >= 2, and keeping it
  // would resurrect writes the new history never saw.
  Status status = log_->TruncateTo(cut);
  if (!status.ok()) return status;
  next_seq_ = cut;
  for (auto& m : members_) {
    if (m.applied > cut) m.applied = cut;
  }
  primary_ = best;
  members_[best].fail_streak = 0;
  for (auto& m : members_) {
    if (!m.up) continue;
    if (m.transport->Fence(epoch_, cut).ok()) fenced_total_->Increment();
  }
  promotions_total_->Increment();
  epoch_gauge_->Set(static_cast<double>(epoch_));
  promotion_trace_ += "promote to=" + members_[best].name +
                      " epoch=" + std::to_string(epoch_) +
                      " applied=" + std::to_string(cut) + " reason=" + reason +
                      "\n";
  RefreshGaugesLocked();
  work_cv_.NotifyAll();
  ack_cv_.NotifyAll();
  return Status::OK();
}

StatusOr<ValuePtr> ReplicaGroup::Read(const std::string& key,
                                      uint64_t min_seq) {
  obs::Span span("replica.get");
  span.SetAttribute("group", options_.name);
  struct Candidate {
    size_t index;
    uint64_t applied;
    bool primary;
    std::shared_ptr<ReplicaTransport> transport;
  };
  std::vector<Candidate> candidates;
  bool any_up = false;
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < members_.size(); ++i) {
      const Member& m = members_[i];
      if (!m.up) continue;
      any_up = true;
      if (m.applied < min_seq) continue;
      candidates.push_back({i, m.applied, i == primary_, m.transport});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.applied != b.applied) return a.applied > b.applied;
              if (a.primary != b.primary) return a.primary;
              return a.index < b.index;
            });
  if (candidates.empty()) {
    return any_up
               ? Status::Unavailable(
                     "group " + options_.name +
                     ": no replica at session high-water mark yet (min_seq=" +
                     std::to_string(min_seq) + ")")
               : Status::Unavailable("group " + options_.name +
                                     ": no live replica");
  }

  struct ReadResult {
    Candidate candidate;
    bool found = false;
    ValuePtr value;
  };
  std::vector<ReadResult> results;
  Status last_error = Status::OK();
  const size_t want =
      options_.read_repair ? static_cast<size_t>(options_.read_quorum) : 1;
  for (const auto& candidate : candidates) {
    if (results.size() >= want) break;
    admit::CircuitBreaker* breaker;
    {
      MutexLock lock(mu_);
      if (members_[candidate.index].transport != candidate.transport) continue;
      breaker = members_[candidate.index].breaker.get();
    }
    if (!breaker->Admit().ok()) continue;  // breaker gates selection
    StatusOr<ValuePtr> value = candidate.transport->store()->Get(key);
    const Status status = value.ok() || value.status().IsNotFound()
                              ? Status::OK()
                              : value.status();
    breaker->OnResult(status);
    if (status.ok()) {
      ReadResult result;
      result.candidate = candidate;
      result.found = value.ok();
      if (value.ok()) result.value = std::move(value).value();
      results.push_back(std::move(result));
      MutexLock lock(mu_);
      members_[candidate.index].fail_streak = 0;
    } else {
      last_error = status;
      MutexLock lock(mu_);
      if (members_[candidate.index].transport != candidate.transport ||
          !IsTransient(status)) {
        continue;
      }
      if (candidate.index == primary_) {
        OnPrimaryFailureLocked(status);
      } else {
        Member& m = members_[candidate.index];
        m.fail_streak++;
        if (m.fail_streak >= options_.down_after) {
          m.up = false;
          m.next_probe_nanos =
              clock_->NowNanos() + options_.rejoin_probe_nanos;
          ack_cv_.NotifyAll();
        }
      }
    }
  }
  if (results.empty()) {
    span.MarkError();
    return last_error.ok() ? Status::Unavailable("group " + options_.name +
                                                 ": all replica reads failed")
                           : last_error;
  }
  reads_total_->Increment();

  // The most-caught-up successful read is authoritative (candidates were
  // sorted). A divergent peer — normal lag or silent corruption alike — is
  // only counted: rewriting it here would bypass the group log and the
  // peer's watermark, and could put back a value older than a write that
  // landed on the peer after this read. Log replay catches lagging peers up
  // in order; RepairPass fixes the rest.
  const ReadResult& authority = results.front();
  for (size_t i = 1; i < results.size(); ++i) {
    const ReadResult& other = results[i];
    if (other.found != authority.found ||
        (other.found && *other.value != *authority.value)) {
      read_repair_total_->Increment();
    }
  }
  if (!authority.found) return Status::NotFound("no such key");
  return authority.value;
}

StatusOr<bool> ReplicaGroup::ContainsRead(const std::string& key,
                                          uint64_t min_seq) {
  DSTORE_ASSIGN_OR_RETURN(ValuePtr value, [&]() -> StatusOr<ValuePtr> {
    auto result = Read(key, min_seq);
    if (!result.ok() && result.status().IsNotFound()) return ValuePtr();
    return result;
  }());
  return value != nullptr;
}

StatusOr<std::vector<std::string>> ReplicaGroup::ListKeysRead(
    uint64_t min_seq) {
  obs::Span span("replica.list");
  struct Candidate {
    uint64_t applied;
    bool primary;
    std::shared_ptr<ReplicaTransport> transport;
  };
  std::vector<Candidate> candidates;
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < members_.size(); ++i) {
      const Member& m = members_[i];
      if (m.up && m.applied >= min_seq) {
        candidates.push_back({m.applied, i == primary_, m.transport});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.applied != b.applied) return a.applied > b.applied;
              return a.primary && !b.primary;
            });
  Status last_error =
      Status::Unavailable("group " + options_.name + ": no live replica");
  for (const auto& candidate : candidates) {
    auto keys = candidate.transport->store()->ListKeys();
    if (keys.ok()) {
      reads_total_->Increment();
      return keys;
    }
    last_error = keys.status();
  }
  return last_error;
}

StatusOr<size_t> ReplicaGroup::CountRead(uint64_t min_seq) {
  DSTORE_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                          ListKeysRead(min_seq));
  return keys.size();
}

Status ReplicaGroup::MarkDown(const std::string& name) {
  MutexLock lock(mu_);
  for (auto& m : members_) {
    if (m.name != name) continue;
    m.up = false;
    m.fail_streak = 0;
    m.next_probe_nanos = clock_->NowNanos() + options_.rejoin_probe_nanos;
    RefreshGaugesLocked();
    ack_cv_.NotifyAll();
    return Status::OK();
  }
  return Status::NotFound("no replica named " + name);
}

Status ReplicaGroup::Rejoin(const std::string& name) {
  MutexLock lock(mu_);
  for (auto& m : members_) {
    if (m.name != name) continue;
    m.next_probe_nanos = 0;
    work_cv_.NotifyAll();
    return Status::OK();
  }
  return Status::NotFound("no replica named " + name);
}

Status ReplicaGroup::ReplaceReplica(
    const std::string& name, std::shared_ptr<ReplicaTransport> transport) {
  MutexLock lock(mu_);
  size_t index = members_.size();
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].name == name) index = i;
  }
  if (index == members_.size()) {
    return Status::NotFound("no replica named " + name);
  }
  if (index == primary_) {
    return Status::InvalidArgument("cannot replace the live primary; promote "
                                   "another replica first");
  }
  DSTORE_RETURN_IF_ERROR(transport->Fence(epoch_, 0));
  DSTORE_ASSIGN_OR_RETURN(ReplicaState state, transport->Probe());
  Member& member = members_[index];
  member.transport = std::move(transport);
  member.fail_streak = 0;
  member.applied = std::min(state.applied, next_seq_);
  if (member.applied < log_->base_seq()) {
    // The log no longer holds this replica's replay suffix (it was trimmed
    // while the slot was healthy elsewhere). Bootstrap: copy the primary's
    // current state wholesale, then let ordered replay of the retained
    // suffix converge it — put/delete/clear are state-overwriting, so
    // replaying an old suffix over a newer snapshot lands on the primary's
    // final state.
    KeyValueStore* source = members_[primary_].transport->store();
    KeyValueStore* target = member.transport->store();
    DSTORE_RETURN_IF_ERROR(target->Clear());
    DSTORE_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                            source->ListKeys());
    for (const auto& key : keys) {
      auto value = source->Get(key);
      if (!value.ok()) {
        if (value.status().IsNotFound()) continue;  // raced a delete
        return value.status();
      }
      DSTORE_RETURN_IF_ERROR(target->Put(key, std::move(value).value()));
    }
    member.applied = log_->base_seq();
  }
  member.up = true;
  RefreshGaugesLocked();
  work_cv_.NotifyAll();
  ack_cv_.NotifyAll();
  return Status::OK();
}

StatusOr<ReplicaGroup::RepairStats> ReplicaGroup::RepairPass() {
  obs::Span span("replica.repair");
  span.SetAttribute("group", options_.name);
  RepairStats stats;
  // Quiesce writes for the pass: write_mu_ blocks writers, mu_ holds off
  // the replicator's target selection, so the digests race nothing.
  MutexLock write_lock(write_mu_);
  MutexLock lock(mu_);
  if (!members_[primary_].up) {
    return Status::Unavailable("group " + options_.name +
                               ": no live primary to repair from");
  }
  const size_t buckets = std::max<size_t>(1, options_.digest_buckets);
  KeyValueStore* source = members_[primary_].transport->store();

  // Merkle-style two-level digest: per-bucket XOR of (key, value) hashes.
  // XOR keeps the fold order-independent, so two stores with equal contents
  // digest equally no matter how ListKeys orders them.
  auto digest = [&](KeyValueStore* store)
      -> StatusOr<std::pair<std::vector<uint64_t>,
                            std::map<size_t, std::vector<std::string>>>> {
    std::vector<uint64_t> tree(buckets, 0);
    std::map<size_t, std::vector<std::string>> keys_by_bucket;
    DSTORE_ASSIGN_OR_RETURN(std::vector<std::string> keys, store->ListKeys());
    for (const auto& key : keys) {
      auto value = store->Get(key);
      if (!value.ok()) {
        if (value.status().IsNotFound()) continue;
        return value.status();
      }
      const size_t bucket = Mix64(Fnv1a64(key)) % buckets;
      tree[bucket] ^= ValueDigest(key, **value);
      keys_by_bucket[bucket].push_back(key);
    }
    return std::make_pair(std::move(tree), std::move(keys_by_bucket));
  };

  DSTORE_ASSIGN_OR_RETURN(auto source_digest, digest(source));
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i == primary_ || !members_[i].up) continue;
    KeyValueStore* target = members_[i].transport->store();
    auto target_digest = digest(target);
    if (!target_digest.ok()) continue;  // unreadable replica: skip this pass
    stats.replicas_checked++;
    for (size_t bucket = 0; bucket < buckets; ++bucket) {
      if (source_digest.first[bucket] == target_digest->first[bucket]) {
        continue;
      }
      stats.buckets_diverged++;
      // Union of both sides' keys in the differing bucket; the primary's
      // value (or absence) wins.
      std::vector<std::string> keys = source_digest.second[bucket];
      const auto& extra = target_digest->second[bucket];
      keys.insert(keys.end(), extra.begin(), extra.end());
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      for (const auto& key : keys) {
        auto want = source->Get(key);
        auto have = target->Get(key);
        const bool want_found = want.ok();
        const bool have_found = have.ok();
        if (!want_found && !want.status().IsNotFound()) continue;
        if (!have_found && !have.status().IsNotFound()) continue;
        const bool same = want_found == have_found &&
                          (!want_found || **want == **have);
        if (same) continue;
        const Status repaired = want_found
                                    ? target->Put(key, std::move(want).value())
                                    : target->Delete(key);
        if (repaired.ok()) {
          stats.keys_repaired++;
          repair_total_->Increment();
        }
      }
    }
  }
  span.SetAttribute("keys_repaired", std::to_string(stats.keys_repaired));
  return stats;
}

ReplicaGroup::GroupStatus ReplicaGroup::GetStatus() {
  MutexLock lock(mu_);
  GroupStatus status;
  status.name = options_.name;
  status.epoch = epoch_;
  status.last_seq = next_seq_;
  status.primary = members_[primary_].name;
  for (size_t i = 0; i < members_.size(); ++i) {
    const Member& m = members_[i];
    ReplicaInfo info;
    info.name = m.name;
    info.primary = i == primary_;
    info.up = m.up;
    info.applied = m.applied;
    info.lag = next_seq_ > m.applied ? next_seq_ - m.applied : 0;
    info.hints = m.up ? 0 : info.lag;
    info.breaker =
        std::string(admit::CircuitBreaker::StateName(m.breaker->state()));
    status.replicas.push_back(std::move(info));
  }
  return status;
}

Status ReplicaGroup::WaitForReplication(int64_t timeout_nanos) {
  const int64_t deadline = clock_->NowNanos() + timeout_nanos;
  MutexLock lock(mu_);
  for (;;) {
    bool caught_up = true;
    for (const auto& m : members_) {
      if (m.up && m.applied < next_seq_) caught_up = false;
    }
    if (caught_up) return Status::OK();
    if (clock_->NowNanos() >= deadline) {
      return Status::TimedOut("group " + options_.name +
                              ": replication did not drain in time");
    }
    ack_cv_.WaitFor(mu_, std::chrono::milliseconds(10));
  }
}

std::string ReplicaGroup::PromotionTrace() {
  MutexLock lock(mu_);
  return promotion_trace_;
}

uint64_t ReplicaGroup::epoch() {
  MutexLock lock(mu_);
  return epoch_;
}

std::string ReplicaGroup::primary_name() {
  MutexLock lock(mu_);
  return members_[primary_].name;
}

void ReplicaGroup::MaybeTrimLocked() {
  uint64_t min_applied = next_seq_;
  for (const auto& m : members_) {
    min_applied = std::min(min_applied, m.applied);
  }
  if (min_applied > log_->base_seq() &&
      min_applied - log_->base_seq() >= options_.trim_batch) {
    (void)log_->TrimThrough(min_applied);  // retried next round on failure
  }
}

bool ReplicaGroup::ReplicateOnceLocked() {
  // Down-replica probes (breaker-gated — the same selection gate reads
  // use, so a tripping replica is probed at the breaker's pace, not ours).
  const int64_t now = clock_->NowNanos();
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].up || now < members_[i].next_probe_nanos) continue;
    members_[i].next_probe_nanos = now + options_.rejoin_probe_nanos;
    auto transport = members_[i].transport;
    admit::CircuitBreaker* breaker = members_[i].breaker.get();
    mu_.Unlock();
    StatusOr<ReplicaState> probe =
        Status::Unavailable("probe short-circuited");
    if (breaker->Admit().ok()) {
      probe = transport->Probe();
      breaker->OnResult(probe.ok() ? Status::OK() : probe.status());
    }
    mu_.Lock();
    if (stop_) return false;
    Member& member = members_[i];
    if (member.up || member.transport != transport) continue;
    if (!probe.ok()) continue;
    if (probe->epoch > epoch_) {
      // The replica accepted a newer epoch than this handle knows: we are
      // the stale side. Leave it down rather than graft our superseded
      // history onto it.
      continue;
    }
    uint64_t applied = std::min(probe->applied, next_seq_);
    if (probe->epoch < epoch_ && probe->applied > 0) {
      // Stale-epoch rejoiner — e.g. a deposed primary that was down during
      // the promotion and missed its fence. Its self-reported watermark
      // still counts the truncated old-epoch tail, so trust only the
      // group's own clamp (promotion caps every member, down ones
      // included), and fence the replica so replay actually re-applies
      // past the clamp instead of being skipped as idempotent.
      applied = std::min(applied, member.applied);
      const uint64_t fence_epoch = epoch_;
      mu_.Unlock();
      const Status fenced = transport->Fence(fence_epoch, applied);
      mu_.Lock();
      if (stop_) return false;
      if (member.up || member.transport != transport ||
          epoch_ != fence_epoch) {
        continue;
      }
      if (!fenced.ok()) continue;  // retry at the next probe
      fenced_total_->Increment();
    }
    if (applied < log_->base_seq()) continue;  // needs ReplaceReplica
    member.applied = applied;
    member.up = true;
    member.fail_streak = 0;
    if (member.applied < next_seq_) {
      // The retained suffix now replays as hinted handoff.
      handoff_replayed_total_->Increment(next_seq_ - member.applied);
    }
    RefreshGaugesLocked();
    ack_cv_.NotifyAll();
    return true;
  }

  // Stream the next entry to the most-behind live replica — the primary
  // included: a failed inline apply leaves a hole at the front of the
  // primary's suffix that only ordered replay may fill (Write never jumps
  // the watermark). Skip the transport a Write() is applying to inline, so
  // a backfilled entry cannot land after a later one on a shared key.
  size_t target = members_.size();
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!members_[i].up) continue;
    if (members_[i].applied >= next_seq_) continue;
    if (members_[i].transport == inline_primary_) continue;
    if (target == members_.size() ||
        members_[i].applied < members_[target].applied) {
      target = i;
    }
  }
  if (target == members_.size()) {
    MaybeTrimLocked();
    return false;
  }
  Member& member = members_[target];
  std::optional<LogEntry> entry = log_->EntryAt(member.applied + 1);
  if (!entry.has_value()) return false;  // trimmed out from under: rejoin path
  const uint64_t epoch_snapshot = epoch_;
  auto transport = member.transport;

  if (options_.fault_plan != nullptr) {
    if (auto fault =
            options_.fault_plan->Evaluate("replica.handoff", "replay")) {
      if (fault->latency_nanos > 0) {
        mu_.Unlock();
        clock_->SleepFor(fault->latency_nanos);
        mu_.Lock();
        if (stop_) return false;
      }
      if (fault->kind == fault::FaultKind::kError) {
        Member& m = members_[target];
        if (m.transport == transport) {
          m.fail_streak++;
          if (m.fail_streak >= options_.down_after) {
            m.up = false;
            m.next_probe_nanos =
                clock_->NowNanos() + options_.rejoin_probe_nanos;
            RefreshGaugesLocked();
            ack_cv_.NotifyAll();
          }
        }
        return true;
      }
    }
  }

  mu_.Unlock();
  const Status status = transport->Apply(*entry, epoch_snapshot);
  mu_.Lock();
  if (stop_) return false;
  Member& m = members_[target];
  if (m.transport != transport || epoch_ != epoch_snapshot) return true;
  if (status.ok()) {
    if (entry->seq == m.applied + 1) m.applied = entry->seq;
    m.fail_streak = 0;
    MaybeTrimLocked();
    RefreshGaugesLocked();
    ack_cv_.NotifyAll();
  } else if (target == primary_ && IsTransient(status)) {
    // Backfilling the primary's own hole failed: this is a primary
    // failure, so route it through the failover counter.
    OnPrimaryFailureLocked(status);
  } else if (IsTransient(status) || IsFenced(status)) {
    m.fail_streak++;
    if (m.fail_streak >= options_.down_after) {
      m.up = false;
      m.next_probe_nanos = clock_->NowNanos() + options_.rejoin_probe_nanos;
      RefreshGaugesLocked();
      ack_cv_.NotifyAll();
    }
  }
  return true;
}

void ReplicaGroup::ReplicatorLoop() {
  MutexLock lock(mu_);
  while (!stop_) {
    if (!ReplicateOnceLocked()) {
      if (stop_) break;
      work_cv_.WaitFor(
          mu_, std::chrono::nanoseconds(options_.replicator_idle_nanos));
    }
  }
}

}  // namespace replica
}  // namespace dstore
