#ifndef DSTORE_TESTS_CHAOS_CHAOS_HARNESS_H_
#define DSTORE_TESTS_CHAOS_CHAOS_HARNESS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "store/key_value.h"

namespace dstore {
namespace chaos {

// Seeded workload driver + history checker for the chaos suite. The driver
// issues a random mix of operations against a (fault-injected) store stack,
// records every operation and its outcome, and checks linearizability-style
// invariants as it goes — the Jepsen recipe scaled down to a single client:
//
//  * Every value written for key k is k "#" tag, so any read can be traced
//    back to the put that produced it. A read observing bytes never written
//    is corruption or value-mixing.
//  * No acknowledged-write loss / read-your-writes: after an acknowledged
//    Put (or Delete) of k, reads of k must return exactly that state until
//    the next write attempt on k.
//  * Errored writes are uncertain — they may or may not have landed (the
//    acknowledged-lost case is error_after_apply) — so the checker widens
//    the set of states it will accept for k instead of failing.
//
// Everything derives from ChaosConfig::seed; on failure, tests print the
// seed so the exact run replays.
struct ChaosConfig {
  uint64_t seed = 1;
  int ops = 2000;
  int key_space = 24;  // keys chaos-k0 .. chaos-k{n-1}
  // Operation mix (weights, not probabilities).
  int put_weight = 5;
  int get_weight = 8;
  int delete_weight = 2;
  int contains_weight = 1;
};

// What the checker knows about one key.
struct KeyModel {
  // Value tags that may currently be stored (uncertain writes add to this).
  std::set<uint64_t> possible_tags;
  bool possibly_absent = true;
  // Set while the last write attempt on the key was acknowledged: reads
  // must observe exactly this state. nullopt tag = acknowledged Delete.
  bool acked_state_known = true;  // trivially "absent" before first write
  std::optional<uint64_t> acked_tag;
};

struct ChaosStats {
  uint64_t ops_issued = 0;
  uint64_t puts_acked = 0;
  uint64_t deletes_acked = 0;
  uint64_t gets_ok = 0;
  uint64_t gets_notfound = 0;  // NotFound reads (not counted as errors)
  uint64_t op_errors = 0;      // operations that surfaced an error
};

// Concurrent clients on a small hot key set: `writers` threads Put and
// `readers` threads MultiGet, all over the same keys. ChaosWorkload's model
// assumes one client, so this mix records each operation's invocation and
// completion on one logical clock and checks the history afterwards, per
// key and per MultiGet result:
//
//  * a read returns bytes some Put of that key wrote, and that Put was
//    invoked before the read completed (no read from the future);
//  * no stale read: if Put A completed before Put B was invoked, and B
//    completed before the read was invoked, the read must not return A;
//  * no lost write: once a Put of the key completed, a read invoked later
//    must not return NotFound.
//
// An errored Put is uncertain: it never completes, so it may be read at any
// later point but never makes another value stale. Every linearizable
// single-key store passes these checks; they do not order concurrent reads
// against each other (so they are weaker than linearizability).
struct HotKeyConfig {
  uint64_t seed = 1;
  int writers = 2;
  int readers = 2;
  int ops_per_client = 300;
  int hot_keys = 4;   // keys hot-k0 .. hot-k{n-1}
  int batch = 4;      // keys per MultiGet (drawn with replacement)
};

struct HotKeyStats {
  uint64_t puts_acked = 0;
  uint64_t put_errors = 0;
  uint64_t reads_checked = 0;  // MultiGet results (value or NotFound)
  uint64_t read_errors = 0;    // MultiGet results that surfaced an error
};

// Runs the mix against `store`, which must be thread-safe, then checks the
// recorded history. Returns the first violation (message includes the
// seed), or OK.
Status RunHotKeyMix(KeyValueStore* store, const HotKeyConfig& config,
                    HotKeyStats* stats = nullptr);

class ChaosWorkload {
 public:
  explicit ChaosWorkload(const ChaosConfig& config)
      : config_(config), rng_(config.seed) {}

  // Issues config_.ops operations against `store`, checking invariants
  // after each. Returns the first violation (message includes the seed), or
  // OK. May be called repeatedly to extend the run on the same store.
  Status Run(KeyValueStore* store);

  // Verifies `authoritative` (the base store under every decorator) holds,
  // for every key, a state the history allows. Call after Run, on the
  // *bottom* of the stack, where acknowledged-lost writes are visible.
  Status VerifyFinalState(KeyValueStore* authoritative);

  // Order-sensitive digest over the recorded history (op, key, outcome,
  // observed value); equal digests mean two runs behaved identically.
  uint64_t HistoryDigest() const;

  const ChaosStats& stats() const { return stats_; }
  const ChaosConfig& config() const { return config_; }

 private:
  std::string KeyAt(int index) const;
  Status Violation(const std::string& what) const;
  void Digest(std::string_view piece);

  ChaosConfig config_;
  Random rng_;
  ChaosStats stats_;
  std::map<std::string, KeyModel> model_;
  uint64_t next_tag_ = 1;
  uint64_t digest_ = 1469598103934665603ull;  // FNV-1a offset basis
};

}  // namespace chaos
}  // namespace dstore

#endif  // DSTORE_TESTS_CHAOS_CHAOS_HARNESS_H_
