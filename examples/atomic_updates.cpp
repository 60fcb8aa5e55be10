// Atomic multi-store updates and replica consistency — the paper's future
// work (Section VII), demonstrated end to end:
//   1. a two-phase-commit transaction moving value between two different
//      stores, with its decision journal in a third;
//   2. crash recovery rolling an in-doubt transaction forward;
//   3. a replica group over two stores repairing silent divergence.
//
//   ./atomic_updates

#include <cstdio>

#include "replica/replicated_store.h"
#include "store/memory_store.h"
#include "udsm/transaction.h"

using namespace dstore;

int main() {
  auto ledger = std::make_shared<MemoryStore>();   // one data store
  auto archive = std::make_shared<MemoryStore>();  // a second data store
  auto journal = std::make_shared<MemoryStore>();  // the coordinator

  (void)ledger->PutString("balance/alice", "100");
  (void)archive->PutString("balance/bob", "50");

  // --- 1. Atomic transfer across stores ---
  {
    MultiStoreTransaction txn(journal, MakeTransactionId());
    txn.Put(ledger, "ledger", "balance/alice", MakeValue("70"));
    txn.Put(archive, "archive", "balance/bob", MakeValue("80"));
    const Status status = txn.Commit();
    std::printf("transfer commit: %s\n", status.ToString().c_str());
    std::printf("  alice=%s bob=%s (both updated or neither)\n",
                ledger->GetString("balance/alice")->c_str(),
                archive->GetString("balance/bob")->c_str());
  }

  // --- 2. Crash recovery ---
  // Fabricate the state left by a client that crashed after the commit
  // point: value staged in the ledger, journal says "committing".
  {
    const std::string crash_id = "0123456789abcdef0123456789abcdef";
    const std::string staged_key = "~txnstage!" + crash_id + "!0";
    (void)ledger->PutString(staged_key, "42");
    Bytes record;
    record.push_back(2);  // phase = committing
    PutVarint64(&record, 1);
    PutLengthPrefixed(&record, std::string("ledger"));
    PutLengthPrefixed(&record, std::string("recovered-key"));
    record.push_back(0);  // put
    PutLengthPrefixed(&record, staged_key);
    journal->Put("~txnlog!" + crash_id, MakeValue(std::move(record))).ok();

    const Status status = MultiStoreTransaction::Recover(
        journal.get(), {{"ledger", ledger}, {"archive", archive}});
    std::printf("\nrecovery after simulated crash: %s\n",
                status.ToString().c_str());
    auto recovered = ledger->GetString("recovered-key");
    std::printf("  recovered-key=%s (rolled forward from the journal)\n",
                recovered.ok() ? recovered->c_str() : "<missing>");
  }

  // --- 3. Replicas with anti-entropy repair ---
  {
    auto r1 = std::make_shared<MemoryStore>();
    auto r2 = std::make_shared<MemoryStore>();
    replica::ReplicaGroup::Options options;
    options.write_quorum = 2;  // write concern "all" for two replicas
    auto replicated = replica::ReplicatedStore::Create(
        {{"r1", r1}, {"r2", r2}}, options);
    if (!replicated.ok()) return 1;
    (void)(*replicated)->PutString("config", "v1");
    (void)r2->PutString("config", "bit-rot");  // silent divergence

    auto repair = (*replicated)->group()->RepairPass();
    std::printf("\nanti-entropy after corruption: %llu key(s) repaired\n",
                repair.ok() ? static_cast<unsigned long long>(
                                  repair->keys_repaired)
                            : 0ull);
    std::printf("after RepairPass(): replica2 config=%s\n",
                r2->GetString("config")->c_str());
  }
  return 0;
}
