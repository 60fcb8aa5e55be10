#ifndef DSTORE_TESTS_COUNTING_STORE_H_
#define DSTORE_TESTS_COUNTING_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "store/forwarding_store.h"
#include "store/memory_store.h"

namespace dstore {

// Test double: counts the calls that reach it, by kind ("get",
// "getifchanged", ...; batches count per key). Not thread-safe.
class CountingStore : public WrappingStore {
 public:
  explicit CountingStore(std::shared_ptr<KeyValueStore> inner =
                             std::make_shared<MemoryStore>())
      : WrappingStore(std::move(inner)) {}

  std::map<std::string, int> calls;

 protected:
  Status Around(StoreOp op, const OpCall& call) override {
    ++calls[StoreOpName(op)];
    return call();
  }
};

}  // namespace dstore

#endif  // DSTORE_TESTS_COUNTING_STORE_H_
