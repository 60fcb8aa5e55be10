// Seeded-violation fixture for tools/dstore_blocking.py.
//
// This file is deliberately NOT part of any CMake target: it exists so the
// analyze gate can prove the blocking-call checker still bites. scripts/
// check.sh runs the analyzer over this file with --expect-violations 1 and
// fails the gate if the one seeded violation below is not reported (or if
// extra ones appear — the suppressed path must stay suppressed).
//
// Expected report: LoopCallback -> Helper -> PretendFsync.

#include "common/sync.h"

namespace dstore {
namespace analysis_fixture {

// A stand-in for fsync/PublishFile: annotated blocking, does nothing.
void PretendFsync() DSTORE_BLOCKING;
void PretendFsync() {}

// Reaches the blocking call with no suppression — the seeded violation.
void Helper() { PretendFsync(); }

// Reaches the same blocking call under a reviewed DSTORE_BLOCKING_OK scope;
// the analyzer must NOT report this path.
void SuppressedHelper() {
  DSTORE_BLOCKING_OK("fixture: reviewed, bounded, and test-only");
  PretendFsync();
}

// The reactor-context root the walk starts from.
void LoopCallback() DSTORE_NONBLOCKING_CTX;
void LoopCallback() {
  Helper();
  SuppressedHelper();
}

}  // namespace analysis_fixture
}  // namespace dstore
