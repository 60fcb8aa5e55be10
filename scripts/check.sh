#!/usr/bin/env bash
# Builds and tests the tree twice: a plain Release build, then a
# ThreadSanitizer build (-DDSTORE_SANITIZE=thread) to catch data races in
# the concurrent paths (metrics registry, tracer, monitor, servers).
#
#   scripts/check.sh [extra ctest args...]   # full suite, both builds
#   scripts/check.sh chaos                   # chaos-labelled suites only
#   scripts/check.sh shard                   # sharding suites only
#   scripts/check.sh admit                   # admission-control suites only
#   scripts/check.sh obs                     # observability suites only
#   scripts/check.sh net                     # server-core suites only
#   scripts/check.sh lsm                     # LSM engine suites only
#   scripts/check.sh replica                 # replication suites only
#   scripts/check.sh compress                # codec suites, ASan + UBSan
#   scripts/check.sh analyze                 # static analysis + lint gate
#
# The chaos mode runs the seeded fault-injection soak (tests/chaos/, see
# docs/testing.md) in both builds over the DSTORE_CHAOS_SEEDS matrix
# (default "1,7,1337"; override with a comma-separated list). A failing
# seed is printed in the test output — replay it in isolation with
# DSTORE_CHAOS_SEEDS=<seed>.
#
# The analyze mode runs the repo lint gate (tools/dstore_lint.py), the
# reactor blocking-context analyzer (tools/dstore_blocking.py — the full
# tree must be clean AND the seeded fixture in tests/analysis/ must still
# trip exactly one violation, proving the gate bites), then — when clang is
# installed — a -DDSTORE_ANALYZE=ON build that promotes clang's
# -Wthread-safety capability analysis to an error, and clang-tidy over the
# compilation database. See docs/testing.md ("Static analysis" and
# "Blocking-context analysis") for the annotation conventions and the
# runtime lock-order / blocking-context validators.
#
# Build trees land in build-check-release/, build-check-tsan/, and
# build-check-analyze/ so the default build/ directory is left alone.
set -euo pipefail

cd "$(dirname "$0")/.."

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" > /dev/null
  cmake --build "$dir" -j"$(nproc)"
  (cd "$dir" && ctest --output-on-failure -j"$(nproc)" "${CTEST_ARGS[@]}")
}

if [[ "${1:-}" == "analyze" ]]; then
  shift
  echo "=== Lint gate (tools/dstore_lint.py) ==="
  python3 tools/dstore_lint.py --self-test
  python3 tools/dstore_lint.py

  echo "=== Blocking-context analysis (tools/dstore_blocking.py) ==="
  # Self-test first (also resolves the frontend: libclang when the bindings
  # work, the dependency-free text frontend otherwise), then the full tree
  # (must be clean), then the seeded fixture (must report exactly one
  # violation — a zero here means the gate stopped biting).
  python3 tools/dstore_blocking.py --self-test \
    --build-dir build-check-analyze
  python3 tools/dstore_blocking.py --build-dir build-check-analyze
  python3 tools/dstore_blocking.py --build-dir build-check-analyze \
    --expect-violations 1 tests/analysis/blocking_fixture.cc

  if command -v clang++ > /dev/null 2>&1; then
    echo "=== Thread-safety analysis build (clang, -Werror=thread-safety) ==="
    cmake -B build-check-analyze -S . \
      -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON -DDSTORE_ANALYZE=ON > /dev/null
    cmake --build build-check-analyze -j"$(nproc)"

    if command -v run-clang-tidy > /dev/null 2>&1; then
      echo "=== clang-tidy (.clang-tidy profile) ==="
      run-clang-tidy -quiet -p build-check-analyze \
        "$(pwd)/(src|tests|bench|examples)/.*" "$@"
    else
      echo "clang-tidy not installed; skipping (lint + analysis build ran)."
    fi
  else
    echo "clang not installed; skipping -Wthread-safety build and clang-tidy."
    echo "The lint gate passed; install clang to run the full analyze mode."
  fi
  echo "Analyze checks passed."
  exit 0
elif [[ "${1:-}" == "chaos" ]]; then
  shift
  export DSTORE_CHAOS_SEEDS="${DSTORE_CHAOS_SEEDS:-1,7,1337}"
  echo "chaos seed matrix: ${DSTORE_CHAOS_SEEDS}"
  CTEST_ARGS=(-L chaos "$@")
elif [[ "${1:-}" == "shard" ]]; then
  # The ring/conformance/determinism units plus the shard chaos soak
  # (tests labelled "shard"), in Release and TSan.
  shift
  export DSTORE_CHAOS_SEEDS="${DSTORE_CHAOS_SEEDS:-1,7,1337}"
  echo "chaos seed matrix: ${DSTORE_CHAOS_SEEDS}"
  CTEST_ARGS=(-L shard "$@")
elif [[ "${1:-}" == "admit" ]]; then
  # Admission-control suites (tests labelled "admit"): the unit tests, the
  # wrapped conformance rows, the end-to-end overload demo, and the overload
  # chaos soak — in Release and TSan (the limiter, breaker, and server
  # queue are lock-heavy hot paths).
  shift
  export DSTORE_CHAOS_SEEDS="${DSTORE_CHAOS_SEEDS:-1,7,1337}"
  echo "chaos seed matrix: ${DSTORE_CHAOS_SEEDS}"
  CTEST_ARGS=(-L admit "$@")
elif [[ "${1:-}" == "net" ]]; then
  # Server-core suites (tests labelled "net"): the socket/framing/HTTP
  # units, the async-core family (reactor, pipelining, backpressure,
  # fault-injection — tests/net_async_test.cc), plus the overload and
  # tracing e2e suites that run against the async core — in Release and
  # TSan (the reactor's connection state is touched from I/O threads,
  # worker threads, and Stop()).
  shift
  CTEST_ARGS=(-L net "$@")
elif [[ "${1:-}" == "lsm" ]]; then
  # LSM engine suites (tests labelled "lsm"): the engine units, the
  # conformance rows, the crash-recovery matrix, and the lsm chaos soak.
  # Runs Release + AddressSanitizer instead of the usual Release + TSan:
  # the engine's crash/recovery cycles churn file buffers, readers, and
  # block-cache entries, which is exactly the lifetime territory ASan
  # polices (TSan still covers the store via the chaos and full modes).
  # Each test runs up to three times and fails on the first failure, so a
  # racy durability check surfaces here instead of hiding behind ctest -j.
  shift
  export DSTORE_CHAOS_SEEDS="${DSTORE_CHAOS_SEEDS:-1,7,1337}"
  echo "chaos seed matrix: ${DSTORE_CHAOS_SEEDS}"
  CTEST_ARGS=(-L lsm --repeat until-fail:3 "$@")

  echo "=== Release build ==="
  run_suite build-check-release -DCMAKE_BUILD_TYPE=Release

  echo "=== AddressSanitizer build ==="
  run_suite build-check-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDSTORE_SANITIZE=address

  echo "All checks passed."
  exit 0
elif [[ "${1:-}" == "compress" ]]; then
  # Codec suites (tests labelled "compress"): CRC-32, bit I/O, Huffman,
  # DEFLATE and gzip, including the golden-digest and hostile-input tests.
  # The decoder's out-of-bounds and UB checks only bite under a sanitizer,
  # so this runs Release + ASan + UBSan instead of Release + TSan.
  shift
  CTEST_ARGS=(-L compress "$@")

  echo "=== Release build ==="
  run_suite build-check-release -DCMAKE_BUILD_TYPE=Release

  echo "=== AddressSanitizer build ==="
  run_suite build-check-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDSTORE_SANITIZE=address

  echo "=== UndefinedBehaviorSanitizer build ==="
  run_suite build-check-ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDSTORE_SANITIZE=undefined

  echo "All checks passed."
  exit 0
elif [[ "${1:-}" == "replica" ]]; then
  # Replication suites (tests labelled "replica"): the group/log/session
  # units, the replicated conformance rows, and the failover chaos soak
  # (kill/restart the primary mid-workload under seeded socket faults) —
  # in Release and TSan (the replicator thread, quorum waiters, and
  # promotion all share the group lock with the client paths).
  shift
  export DSTORE_CHAOS_SEEDS="${DSTORE_CHAOS_SEEDS:-1,7,1337}"
  echo "chaos seed matrix: ${DSTORE_CHAOS_SEEDS}"
  CTEST_ARGS=(-L replica "$@")
elif [[ "${1:-}" == "obs" ]]; then
  # Observability suites (tests labelled "obs"): the metrics/tracer units,
  # the monitor bridge, and the distributed-tracing e2e suite that drives
  # real servers, scatter-gather fan-out, and the socket fault injector —
  # in Release and TSan (the tracer, exemplar stamps, and segment rings are
  # touched from every request thread).
  shift
  CTEST_ARGS=(-L obs "$@")
else
  CTEST_ARGS=("$@")
fi

echo "=== Release build ==="
run_suite build-check-release -DCMAKE_BUILD_TYPE=Release

echo "=== ThreadSanitizer build ==="
run_suite build-check-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDSTORE_SANITIZE=thread

echo "All checks passed."
