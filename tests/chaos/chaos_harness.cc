#include "chaos_harness.h"

#include <atomic>
#include <cstdlib>
#include <limits>
#include <thread>

namespace dstore {
namespace chaos {
namespace {

std::string ValueFor(const std::string& key, uint64_t tag) {
  return key + "#" + std::to_string(tag);
}

// Extracts the tag from a stored value for `key`; nullopt if the bytes were
// never a value this harness wrote for that key.
std::optional<uint64_t> TagOf(const std::string& key,
                              const std::string& value) {
  const std::string prefix = key + "#";
  if (value.rfind(prefix, 0) != 0) return std::nullopt;
  const std::string digits = value.substr(prefix.size());
  if (digits.empty()) return std::nullopt;
  char* end = nullptr;
  const uint64_t tag = std::strtoull(digits.c_str(), &end, 10);
  if (*end != '\0') return std::nullopt;
  return tag;
}

// --- Hot-key mix ------------------------------------------------------------

constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

struct PutRecord {
  int key = 0;
  uint64_t tag = 0;
  uint64_t invoke = 0;
  uint64_t complete = kNever;  // kNever: errored, so uncertain
};

struct ReadRecord {
  int key = 0;
  std::optional<uint64_t> tag;  // nullopt: NotFound
  std::string bad_bytes;        // set when the value carried no valid tag
  uint64_t invoke = 0;
  uint64_t complete = 0;
};

std::string HotKey(int index) { return "hot-k" + std::to_string(index); }

}  // namespace

Status RunHotKeyMix(KeyValueStore* store, const HotKeyConfig& config,
                    HotKeyStats* stats) {
  std::atomic<uint64_t> clock{0};
  std::atomic<uint64_t> next_tag{1};
  const int clients = config.writers + config.readers;
  std::vector<std::vector<PutRecord>> puts(static_cast<size_t>(clients));
  std::vector<std::vector<ReadRecord>> reads(static_cast<size_t>(clients));
  std::vector<uint64_t> read_errors(static_cast<size_t>(clients), 0);
  std::atomic<bool> wrong_arity{false};  // MultiGet owes one result per key

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Random rng(config.seed * 1000 + static_cast<uint64_t>(c));
      const bool writer = c < config.writers;
      for (int op = 0; op < config.ops_per_client; ++op) {
        if (writer) {
          PutRecord put;
          put.key = static_cast<int>(rng.Uniform(config.hot_keys));
          put.tag = next_tag.fetch_add(1);
          put.invoke = clock.fetch_add(1);
          const std::string key = HotKey(put.key);
          const Status st = store->PutString(key, ValueFor(key, put.tag));
          const uint64_t done = clock.fetch_add(1);
          if (st.ok()) put.complete = done;
          puts[static_cast<size_t>(c)].push_back(put);
          continue;
        }
        std::vector<int> picked;
        std::vector<std::string> keys;
        for (int i = 0; i < config.batch; ++i) {
          picked.push_back(static_cast<int>(rng.Uniform(config.hot_keys)));
          keys.push_back(HotKey(picked.back()));
        }
        const uint64_t invoke = clock.fetch_add(1);
        const std::vector<StatusOr<ValuePtr>> got = store->MultiGet(keys);
        const uint64_t complete = clock.fetch_add(1);
        if (got.size() != keys.size()) wrong_arity.store(true);
        for (size_t i = 0; i < got.size() && i < keys.size(); ++i) {
          ReadRecord read;
          read.key = picked[i];
          read.invoke = invoke;
          read.complete = complete;
          if (got[i].ok()) {
            const std::string bytes = ToString(**got[i]);
            read.tag = TagOf(keys[i], bytes);
            if (!read.tag.has_value()) {
              read.bad_bytes = bytes.empty() ? "<empty>" : bytes;
            }
          } else if (!got[i].status().IsNotFound()) {
            ++read_errors[static_cast<size_t>(c)];
            continue;
          }
          reads[static_cast<size_t>(c)].push_back(std::move(read));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Per key: every put, indexed by tag.
  std::vector<std::map<uint64_t, PutRecord>> puts_by_key(
      static_cast<size_t>(config.hot_keys));
  HotKeyStats local;
  for (const auto& list : puts) {
    for (const PutRecord& put : list) {
      puts_by_key[static_cast<size_t>(put.key)][put.tag] = put;
      if (put.complete == kNever) {
        ++local.put_errors;
      } else {
        ++local.puts_acked;
      }
    }
  }
  for (uint64_t errors : read_errors) local.read_errors += errors;

  const auto violation = [&config](const std::string& what) {
    return Status::Internal("hot-key invariant violated (seed=" +
                            std::to_string(config.seed) + "): " + what);
  };
  if (wrong_arity.load()) {
    return violation("a MultiGet returned a result count unequal to its keys");
  }
  for (const auto& list : reads) {
    for (const ReadRecord& read : list) {
      ++local.reads_checked;
      const std::string key = HotKey(read.key);
      const auto& key_puts = puts_by_key[static_cast<size_t>(read.key)];
      // The latest-invoked put that completed before this read began: any
      // value whose put completed before that one started is overwritten.
      const PutRecord* overwriter = nullptr;
      bool any_completed = false;
      for (const auto& [tag, put] : key_puts) {
        if (put.complete >= read.invoke) continue;
        any_completed = true;
        if (tag != read.tag.value_or(0) &&
            (overwriter == nullptr || put.invoke > overwriter->invoke)) {
          overwriter = &put;
        }
      }
      if (!read.bad_bytes.empty()) {
        return violation("read of " + key + " observed bytes never written: '" +
                         read.bad_bytes + "'");
      }
      if (!read.tag.has_value()) {
        if (any_completed) {
          return violation("read of " + key +
                           " returned NotFound after an acknowledged put");
        }
        continue;
      }
      const auto it = key_puts.find(*read.tag);
      if (it == key_puts.end()) {
        return violation("read of " + key + " observed tag " +
                         std::to_string(*read.tag) + " that no put wrote");
      }
      if (it->second.invoke > read.complete) {
        return violation("read of " + key + " observed tag " +
                         std::to_string(*read.tag) +
                         " before its put was issued");
      }
      if (overwriter != nullptr && it->second.complete < overwriter->invoke) {
        return violation(
            "stale read of " + key + ": tag " + std::to_string(*read.tag) +
            " (acked at t" + std::to_string(it->second.complete) +
            ") was overwritten by tag " + std::to_string(overwriter->tag) +
            " (put t" + std::to_string(overwriter->invoke) + "-t" +
            std::to_string(overwriter->complete) + ") before the read at t" +
            std::to_string(read.invoke) + "-t" +
            std::to_string(read.complete));
      }
    }
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

std::string ChaosWorkload::KeyAt(int index) const {
  return "chaos-k" + std::to_string(index);
}

Status ChaosWorkload::Violation(const std::string& what) const {
  return Status::Internal("chaos invariant violated (seed=" +
                          std::to_string(config_.seed) + "): " + what);
}

void ChaosWorkload::Digest(std::string_view piece) {
  for (char c : piece) {
    digest_ ^= static_cast<uint8_t>(c);
    digest_ *= 1099511628211ull;  // FNV-1a prime
  }
  digest_ ^= 0xFF;  // separator so "ab"+"c" != "a"+"bc"
  digest_ *= 1099511628211ull;
}

uint64_t ChaosWorkload::HistoryDigest() const { return digest_; }

Status ChaosWorkload::Run(KeyValueStore* store) {
  const int total_weight = config_.put_weight + config_.get_weight +
                           config_.delete_weight + config_.contains_weight;
  for (int i = 0; i < config_.ops; ++i) {
    const std::string key =
        KeyAt(static_cast<int>(rng_.Uniform(config_.key_space)));
    KeyModel& m = model_[key];
    const int pick = static_cast<int>(rng_.Uniform(total_weight));
    ++stats_.ops_issued;

    if (pick < config_.put_weight) {
      // --- Put ---
      const uint64_t tag = next_tag_++;
      const Status st = store->PutString(key, ValueFor(key, tag));
      Digest("put");
      Digest(key);
      Digest(st.ok() ? "ok" : StatusCodeToString(st.code()));
      if (st.ok()) {
        ++stats_.puts_acked;
        m.possible_tags = {tag};
        m.possibly_absent = false;
        m.acked_state_known = true;
        m.acked_tag = tag;
      } else {
        // Uncertain: the write may or may not have landed.
        ++stats_.op_errors;
        m.possible_tags.insert(tag);
        m.acked_state_known = false;
      }
    } else if (pick < config_.put_weight + config_.get_weight) {
      // --- Get ---
      const auto got = store->GetString(key);
      Digest("get");
      Digest(key);
      if (got.ok()) {
        Digest(*got);
        ++stats_.gets_ok;
        const std::optional<uint64_t> tag = TagOf(key, *got);
        if (!tag.has_value()) {
          return Violation("read of " + key + " observed bytes never written: '" +
                           *got + "'");
        }
        if (m.acked_state_known) {
          if (!m.acked_tag.has_value()) {
            return Violation("read of " + key +
                             " returned a value after an acknowledged delete");
          }
          if (*tag != *m.acked_tag) {
            return Violation(
                "read-your-writes broken for " + key + ": acked tag " +
                std::to_string(*m.acked_tag) + ", read tag " +
                std::to_string(*tag));
          }
        } else if (m.possible_tags.count(*tag) == 0) {
          return Violation("read of " + key + " observed tag " +
                           std::to_string(*tag) +
                           " outside the possible set");
        }
      } else if (got.status().IsNotFound()) {
        Digest("notfound");
        ++stats_.gets_notfound;
        if (m.acked_state_known && m.acked_tag.has_value()) {
          return Violation("acknowledged write to " + key + " (tag " +
                           std::to_string(*m.acked_tag) + ") was lost");
        }
        if (!m.acked_state_known && !m.possibly_absent) {
          return Violation("key " + key + " vanished without any delete");
        }
      } else {
        Digest(StatusCodeToString(got.status().code()));
        ++stats_.op_errors;
      }
    } else if (pick <
               config_.put_weight + config_.get_weight + config_.delete_weight) {
      // --- Delete ---
      const Status st = store->Delete(key);
      Digest("delete");
      Digest(key);
      Digest(st.ok() ? "ok" : StatusCodeToString(st.code()));
      if (st.ok()) {
        ++stats_.deletes_acked;
        m.possible_tags.clear();
        m.possibly_absent = true;
        m.acked_state_known = true;
        m.acked_tag = std::nullopt;
      } else {
        ++stats_.op_errors;
        m.possibly_absent = true;  // the delete may have landed
        m.acked_state_known = false;
      }
    } else {
      // --- Contains ---
      const auto has = store->Contains(key);
      Digest("contains");
      Digest(key);
      if (has.ok()) {
        Digest(*has ? "true" : "false");
        if (*has) {
          if (m.acked_state_known && !m.acked_tag.has_value()) {
            return Violation("contains(" + key +
                             ") true after an acknowledged delete");
          }
          if (!m.acked_state_known && m.possible_tags.empty()) {
            return Violation("contains(" + key +
                             ") true but no write could have landed");
          }
        } else {
          if (m.acked_state_known && m.acked_tag.has_value()) {
            return Violation("contains(" + key +
                             ") false after an acknowledged put");
          }
          if (!m.acked_state_known && !m.possibly_absent) {
            return Violation("contains(" + key +
                             ") false but the key cannot be absent");
          }
        }
      } else {
        Digest(StatusCodeToString(has.status().code()));
        ++stats_.op_errors;
      }
    }
  }
  return Status::OK();
}

Status ChaosWorkload::VerifyFinalState(KeyValueStore* authoritative) {
  for (const auto& [key, m] : model_) {
    const auto got = authoritative->GetString(key);
    if (got.ok()) {
      const std::optional<uint64_t> tag = TagOf(key, *got);
      if (!tag.has_value()) {
        return Violation("final state of " + key +
                         " holds bytes never written: '" + *got + "'");
      }
      if (m.acked_state_known) {
        if (!m.acked_tag.has_value()) {
          return Violation("final state: " + key +
                           " present after an acknowledged delete");
        }
        if (*tag != *m.acked_tag) {
          return Violation("final state: acknowledged write to " + key +
                           " (tag " + std::to_string(*m.acked_tag) +
                           ") was replaced by tag " + std::to_string(*tag));
        }
      } else if (m.possible_tags.count(*tag) == 0) {
        return Violation("final state of " + key + " holds tag " +
                         std::to_string(*tag) + " outside the possible set");
      }
    } else if (got.status().IsNotFound()) {
      if (m.acked_state_known && m.acked_tag.has_value()) {
        return Violation("final state: acknowledged write to " + key +
                         " (tag " + std::to_string(*m.acked_tag) +
                         ") was lost");
      }
      if (!m.acked_state_known && !m.possibly_absent) {
        return Violation("final state: " + key +
                         " absent though no delete could have landed");
      }
    } else {
      return got.status();  // the authoritative store must not fail
    }
  }
  return Status::OK();
}

}  // namespace chaos
}  // namespace dstore
