#ifndef DSTORE_STORE_OVERHEAD_STORE_H_
#define DSTORE_STORE_OVERHEAD_STORE_H_

#include <chrono>
#include <memory>
#include <string>

#include "store/forwarding_store.h"

namespace dstore {

// KeyValueStore decorator that adds a fixed per-operation latency (plus an
// optional per-byte marshalling term) before delegating.
//
// Why this exists: the paper's evaluation measures *Java* clients — JDBC,
// java.io file streams, Jedis — whose fixed per-call overhead is on the
// order of 0.1-1 ms. This library's native clients cost single-digit
// microseconds, which erases client-stack-dominated orderings such as
// "Redis beats the file system for small objects" (Fig. 9). The benchmark
// harness wraps local stores in OverheadStore with constants calibrated to
// the paper's stacks (and flags to disable it), so those orderings can be
// reproduced *and* ablated. See DESIGN.md's substitution table.
//
// The delay is implemented as a calibrated spin (not sleep_for) because
// sub-millisecond sleeps have scheduler-quantum jitter that would swamp the
// modeled constant.
class OverheadStore : public PerKeyStore {
 public:
  struct Overheads {
    int64_t per_op_nanos = 0;
    double per_byte_nanos = 0;  // applied to value sizes moved
  };

  OverheadStore(std::shared_ptr<KeyValueStore> inner, Overheads overheads)
      : PerKeyStore(std::move(inner)), overheads_(overheads) {}

  Status Put(const std::string& key, ValuePtr value) override {
    Delay(value ? value->size() : 0);
    return inner_->Put(key, std::move(value));
  }
  StatusOr<ValuePtr> Get(const std::string& key) override {
    DSTORE_ASSIGN_OR_RETURN(ValuePtr value, inner_->Get(key));
    Delay(value->size());
    return value;
  }
  Status Delete(const std::string& key) override {
    Delay(0);
    return inner_->Delete(key);
  }
  StatusOr<bool> Contains(const std::string& key) override {
    Delay(0);
    return inner_->Contains(key);
  }
  StatusOr<std::vector<std::string>> ListKeys() override {
    Delay(0);
    return inner_->ListKeys();
  }
  StatusOr<size_t> Count() override {
    Delay(0);
    return inner_->Count();
  }
  StatusOr<ConditionalGetResult> GetIfChanged(
      const std::string& key, const std::string& etag) override {
    Delay(0);
    return inner_->GetIfChanged(key, etag);
  }

 private:
  void Delay(size_t bytes) const {
    const int64_t total =
        overheads_.per_op_nanos +
        static_cast<int64_t>(overheads_.per_byte_nanos *
                             static_cast<double>(bytes));
    if (total <= 0) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(total);
    while (std::chrono::steady_clock::now() < deadline) {
      // spin: sub-ms accuracy matters more than the burned cycles here
    }
  }

  Overheads overheads_;
};

}  // namespace dstore

#endif  // DSTORE_STORE_OVERHEAD_STORE_H_
