#ifndef DSTORE_FAULT_FAULT_STORE_H_
#define DSTORE_FAULT_FAULT_STORE_H_

#include <memory>
#include <string>

#include "common/clock.h"
#include "fault/fault.h"
#include "store/forwarding_store.h"

namespace dstore {

// KeyValueStore decorator that injects faults from a FaultPlan around every
// operation — the store-layer injection surface of src/fault/.
//
// Per operation the plan is consulted at (site, op) with op one of put, get,
// delete, contains, listkeys, count, clear, getifchanged, multiget,
// multiput. Fault kinds:
//   kError            the inner store is never called; the rule's error
//                     class is returned.
//   kErrorAfterApply  the inner operation runs (the write lands) but the
//                     error is returned anyway — acknowledged-lost.
//   kLatency          sleep latency_nanos on the given clock, then proceed.
//   kCorrupt          proceed, then flip one byte of a Get/MultiGet result
//                     (deterministic position from the fault seq).
//
// With a plan whose rules never fire (or fire with probability 0) the
// decorator is behaviour-identical to the bare store — enforced by the
// fault-wrapped rows of kv_conformance_test.
class FaultInjectingStore : public ForwardingStore {
 public:
  FaultInjectingStore(std::shared_ptr<KeyValueStore> inner,
                      std::shared_ptr<fault::FaultPlan> plan,
                      std::string site = "store", Clock* clock = nullptr)
      : ForwardingStore(std::move(inner)),
        plan_(std::move(plan)),
        site_(std::move(site)),
        clock_(clock != nullptr ? clock : RealClock::Default()) {}

  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  StatusOr<bool> Contains(const std::string& key) override;
  StatusOr<std::vector<std::string>> ListKeys() override;
  StatusOr<size_t> Count() override;
  Status Clear() override;
  StatusOr<ConditionalGetResult> GetIfChanged(
      const std::string& key, const std::string& etag) override;
  std::vector<StatusOr<ValuePtr>> MultiGet(
      const std::vector<std::string>& keys) override;
  Status MultiPut(
      const std::vector<std::pair<std::string, ValuePtr>>& entries) override;
  std::string Name() const override { return inner_->Name() + "+fault"; }

  const std::shared_ptr<fault::FaultPlan>& plan() const { return plan_; }
  uint64_t injected_failures() const { return plan_->injected_total(); }

 private:
  // Evaluates the plan for `op`; applies any latency stall. Returns the
  // fired fault (already counted/traced) for the caller to act on.
  std::optional<fault::Fault> Hit(const char* op);

  std::shared_ptr<fault::FaultPlan> plan_;
  std::string site_;
  Clock* clock_;
};

}  // namespace dstore

#endif  // DSTORE_FAULT_FAULT_STORE_H_
