#!/usr/bin/env bash
# Seeds the bench trajectory: builds the microbenchmarks in Release, runs
# bench_micro_stores (store substrate), bench_micro_admit (admission
# layer), bench_micro_obs (tracing), bench_micro_net (server core), and
# bench_micro_lsm (the LSM engine vs FileStore), and bench_micro_replica
# (the replication layer), and writes machine-readable BENCH_admit.json,
# BENCH_obs.json, BENCH_net.json, BENCH_lsm.json, and BENCH_replica.json
# files at the repo root.
#
#   scripts/bench_snapshot.sh            # full snapshot
#   scripts/bench_snapshot.sh --quick    # shorter benchmark runs
#
# The snapshots record the raw google-benchmark rows plus the derived
# headline overheads: the pass-through cost of the untripped admission
# stack (paired BM_AdmitFileReadOverhead rows, contract ≤5%), the
# per-op cost of tracing that is compiled in but not sampling (the
# BM_ObsFileReadOverhead no-spans/disabled/always-on rows, contract ≤2%
# for the disabled regime — docs/testing.md, "Observability"), the
# server-core capacity headline (BM_ConcurrentConnections: the async
# reactor must hold ≥10x the connection count of the retired
# thread-per-connection core's recorded baseline at equal-or-better p99 —
# docs/udsm_guide.md §11), and the LSM engine
# headlines (BM_RandomWrite buffered rows: random-write throughput ≥5x
# FileStore at equal value sizes; BM_RandomRead: post-compaction read p99
# ≤2x FileStore — docs/udsm_guide.md §12). The build tree lands in
# build-bench/ so the default build/ directory is left alone.
set -euo pipefail

cd "$(dirname "$0")/.."

MIN_TIME=""
if [[ "${1:-}" == "--quick" ]]; then
  MIN_TIME="--benchmark_min_time=0.05"
fi

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build-bench -j"$(nproc)" \
  --target bench_micro_stores bench_micro_admit bench_micro_obs \
  bench_micro_net bench_micro_lsm bench_micro_replica

out_dir="build-bench/bench"
./build-bench/bench/bench_micro_stores ${MIN_TIME} \
  --benchmark_out="${out_dir}/stores.json" --benchmark_out_format=json
./build-bench/bench/bench_micro_admit ${MIN_TIME} \
  --benchmark_out="${out_dir}/admit.json" --benchmark_out_format=json
./build-bench/bench/bench_micro_obs ${MIN_TIME} \
  --benchmark_out="${out_dir}/obs.json" --benchmark_out_format=json
# The capacity rows pin their iteration counts (setup opens N sockets once
# per row), so MIN_TIME does not apply; the plain round-trip rows honor it.
./build-bench/bench/bench_micro_net ${MIN_TIME} \
  --benchmark_out="${out_dir}/net.json" --benchmark_out_format=json
./build-bench/bench/bench_micro_lsm ${MIN_TIME} \
  --benchmark_out="${out_dir}/lsm.json" --benchmark_out_format=json
./build-bench/bench/bench_micro_replica ${MIN_TIME} \
  --benchmark_out="${out_dir}/replica.json" --benchmark_out_format=json

python3 - "${out_dir}/stores.json" "${out_dir}/admit.json" \
  "${out_dir}/obs.json" "${out_dir}/net.json" "${out_dir}/lsm.json" \
  "${out_dir}/replica.json" <<'PY'
import json
import sys

stores = json.load(open(sys.argv[1]))
admit = json.load(open(sys.argv[2]))
obs = json.load(open(sys.argv[3]))
net = json.load(open(sys.argv[4]))
lsm = json.load(open(sys.argv[5]))
replica = json.load(open(sys.argv[6]))

# google-benchmark reports times in each row's time_unit (a bench's
# ->Unit(...)); every snapshot field named *_ns is converted from it.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Row fields google-benchmark itself emits; anything else is a user counter.
STANDARD_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "aggregate_unit",
    "label", "error_occurred", "error_message", "bytes_per_second",
    "items_per_second",
}

def to_ns(b, field="cpu_time"):
    unit = b.get("time_unit")
    if unit not in NS_PER_UNIT:
        sys.exit(f"{b['name']}: unknown time_unit {unit!r}")
    return b[field] * NS_PER_UNIT[unit]

def row(b):
    out = {"name": b["name"]}
    if b.get("aggregate_unit") == "percentage":
        out["cv"] = b["cpu_time"]  # coefficient of variation, not a time
    else:
        out["cpu_ns"] = to_ns(b)
    out["label"] = b.get("label", "")
    counters = {k: v for k, v in b.items()
                if k not in STANDARD_FIELDS and isinstance(v, (int, float))}
    if counters:
        out["counters"] = counters
    return out

def rows(doc):
    return [row(b) for b in doc["benchmarks"]]

def cpu_ns(doc, name):
    for b in doc["benchmarks"]:
        if b["name"] == name:
            return to_ns(b)
    raise KeyError(name)

baseline = cpu_ns(admit, "BM_AdmitFileReadOverhead/0")
wrapped = cpu_ns(admit, "BM_AdmitFileReadOverhead/1")
overhead_pct = 100.0 * (wrapped - baseline) / baseline

snapshot = {
    "context": admit.get("context", {}),
    "admit_pass_through": {
        "baseline_cpu_ns": baseline,
        "wrapped_cpu_ns": wrapped,
        "overhead_percent": round(overhead_pct, 2),
        "budget_percent": 5.0,
    },
    "bench_micro_admit": rows(admit),
    "bench_micro_stores": rows(stores),
}
with open("BENCH_admit.json", "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")

print(f"admission pass-through overhead: {overhead_pct:.2f}% "
      f"(budget 5%)")
if overhead_pct > 5.0:
    print("WARNING: pass-through overhead exceeds the 5% budget")
print("wrote BENCH_admit.json")

no_spans = cpu_ns(obs, "BM_ObsFileReadOverhead/0")
disabled = cpu_ns(obs, "BM_ObsFileReadOverhead/1")
always_on = cpu_ns(obs, "BM_ObsFileReadOverhead/2")
disabled_pct = 100.0 * (disabled - no_spans) / no_spans
always_on_pct = 100.0 * (always_on - no_spans) / no_spans

obs_snapshot = {
    "context": obs.get("context", {}),
    "tracing_per_op": {
        "no_spans_cpu_ns": no_spans,
        "disabled_cpu_ns": disabled,
        "always_on_cpu_ns": always_on,
        "disabled_overhead_percent": round(disabled_pct, 2),
        "always_on_overhead_percent": round(always_on_pct, 2),
        "disabled_budget_percent": 2.0,
    },
    "bench_micro_obs": rows(obs),
}
with open("BENCH_obs.json", "w") as f:
    json.dump(obs_snapshot, f, indent=2)
    f.write("\n")

print(f"tracing per-op overhead: disabled {disabled_pct:.2f}% "
      f"(budget 2%), always-on {always_on_pct:.2f}%")
if disabled_pct > 2.0:
    print("WARNING: disabled-tracing overhead exceeds the 2% budget")
print("wrote BENCH_obs.json")

def capacity_row(doc, conns):
    # The capacity rows report aggregates over repetitions; the median p99
    # is the headline (a lone p99 on a small box is hostage to one
    # scheduler stall). Falls back to a plain row if repetitions change.
    prefix = f"BM_ConcurrentConnections/{conns}/"
    plain = None
    for b in doc["benchmarks"]:
        if not b["name"].startswith(prefix):
            continue
        if b.get("aggregate_name") == "median":
            return b
        if "aggregate_name" not in b:
            plain = b
    if plain is not None:
        return plain
    raise KeyError(prefix)

# Baseline of the retired thread-per-connection core, kept as a constant
# now that the core is gone: BM_ConcurrentConnections at 100 connections,
# median p99 over 5 repetitions, Release, 1 CPU at 2.1 GHz (BENCH_net.json
# of 2026-08-08).
THREADED_BASELINE_CONNECTIONS = 100
THREADED_BASELINE_P99_US = 27.38

async_same = capacity_row(net, 100)
async_10x = capacity_row(net, 1000)
threaded_conns = THREADED_BASELINE_CONNECTIONS
async_conns = async_10x["connections"]
ratio = async_conns / threaded_conns
threaded_p99 = THREADED_BASELINE_P99_US
async_p99 = async_10x["p99_us"]

net_snapshot = {
    "context": net.get("context", {}),
    "server_core_capacity": {
        "threaded_connections": threaded_conns,
        "threaded_p99_us": round(threaded_p99, 2),
        "async_same_scale_p99_us": round(async_same["p99_us"], 2),
        "async_connections": async_conns,
        "async_p99_us": round(async_p99, 2),
        "capacity_ratio": round(ratio, 1),
        "capacity_ratio_floor": 10.0,
        "p99_contract": "async p99 at 10x connections <= threaded baseline p99",
    },
    "bench_micro_net": rows(net),
}
with open("BENCH_net.json", "w") as f:
    json.dump(net_snapshot, f, indent=2)
    f.write("\n")

print(f"server-core capacity: async {async_conns:.0f} conns "
      f"p99 {async_p99:.1f}us vs threaded baseline {threaded_conns:.0f} "
      f"conns p99 {threaded_p99:.1f}us ({ratio:.0f}x, floor 10x)")
if ratio < 10.0:
    print("WARNING: async connection count below the 10x capacity floor")
if async_p99 > threaded_p99:
    print("WARNING: async p99 at 10x connections exceeds the threaded "
          "baseline p99")
print("wrote BENCH_net.json")

def lsm_row(name):
    for b in lsm["benchmarks"]:
        if b["name"] == name:
            return b
    raise KeyError(name)

# Write headline: buffered rows at matched durability (FileStore's default
# regime) isolate log-append-vs-file-per-key; 8 writers is the concurrent
# row. Durable rows record the group-commit story alongside.
file_w = lsm_row("BM_RandomWrite/0/8/0/real_time")
lsm_w = lsm_row("BM_RandomWrite/1/8/0/real_time")
write_speedup = lsm_w["items_per_second"] / file_w["items_per_second"]
file_wd = lsm_row("BM_RandomWrite/0/16/1/real_time")
lsm_wd = lsm_row("BM_RandomWrite/1/16/1/real_time")
durable_speedup = lsm_wd["items_per_second"] / file_wd["items_per_second"]

# Read headline: post-compaction random point reads, p99 vs p99.
file_r = lsm_row("BM_RandomRead/0/real_time")
lsm_r = lsm_row("BM_RandomRead/1/real_time")
read_p99_ratio = lsm_r["p99_us"] / file_r["p99_us"]

lsm_snapshot = {
    "context": lsm.get("context", {}),
    "lsm_vs_filestore": {
        "write_file_items_per_sec": round(file_w["items_per_second"], 1),
        "write_lsm_items_per_sec": round(lsm_w["items_per_second"], 1),
        "write_speedup": round(write_speedup, 2),
        "write_speedup_floor": 5.0,
        "durable_write_file_items_per_sec":
            round(file_wd["items_per_second"], 1),
        "durable_write_lsm_items_per_sec":
            round(lsm_wd["items_per_second"], 1),
        "durable_write_speedup": round(durable_speedup, 2),
        "read_file_p99_us": round(file_r["p99_us"], 3),
        "read_lsm_p99_us": round(lsm_r["p99_us"], 3),
        "read_p99_ratio": round(read_p99_ratio, 3),
        "read_p99_ratio_ceiling": 2.0,
    },
    "bench_micro_lsm": rows(lsm),
}
with open("BENCH_lsm.json", "w") as f:
    json.dump(lsm_snapshot, f, indent=2)
    f.write("\n")

print(f"lsm vs filestore: random-write {write_speedup:.1f}x "
      f"(floor 5x, durable group-commit {durable_speedup:.1f}x), "
      f"read p99 {lsm_r['p99_us']:.1f}us vs {file_r['p99_us']:.1f}us "
      f"({read_p99_ratio:.2f}x, ceiling 2x)")
if write_speedup < 5.0:
    print("WARNING: lsm random-write speedup below the 5x floor")
if read_p99_ratio > 2.0:
    print("WARNING: lsm read p99 above 2x the FileStore p99")
print("wrote BENCH_lsm.json")

def replica_row(name):
    for b in replica["benchmarks"]:
        if b["name"] == name:
            return b
    raise KeyError(name)

# Put headline: the W=1 row acks on the primary's apply, so its delta over
# the bare FileStore put is the replication machinery's pass-through cost
# (log append + bookkeeping; budget 10%). W=2/W=3 record what each extra
# quorum member costs. Read headline: p99 with read-repair off vs on.
bare_put = to_ns(replica_row("BM_BareFilePut")) / 1e3
w1_put = to_ns(replica_row("BM_ReplicatedPut/1")) / 1e3
w2_put = to_ns(replica_row("BM_ReplicatedPut/2")) / 1e3
w3_put = to_ns(replica_row("BM_ReplicatedPut/3")) / 1e3
w1_pct = 100.0 * (w1_put - bare_put) / bare_put
bare_get_p99 = replica_row("BM_BareFileGet")["p99_us"]
get_plain = replica_row("BM_ReplicatedGet/0")["p99_us"]
get_repair = replica_row("BM_ReplicatedGet/1")["p99_us"]

replica_snapshot = {
    "context": replica.get("context", {}),
    "replicated_put": {
        "bare_file_put_cpu_us": round(bare_put, 3),
        "w1_put_cpu_us": round(w1_put, 3),
        "w2_put_cpu_us": round(w2_put, 3),
        "w3_put_cpu_us": round(w3_put, 3),
        "w1_overhead_percent": round(w1_pct, 2),
        "w1_budget_percent": 10.0,
    },
    "replicated_read": {
        "bare_file_get_p99_us": round(bare_get_p99, 3),
        "repair_off_p99_us": round(get_plain, 3),
        "repair_on_p99_us": round(get_repair, 3),
    },
    "bench_micro_replica": rows(replica),
}
with open("BENCH_replica.json", "w") as f:
    json.dump(replica_snapshot, f, indent=2)
    f.write("\n")

print(f"replicated put: W=1 {w1_pct:.2f}% over bare (budget 10%), "
      f"W=2 {w2_put:.1f}us, W=3 {w3_put:.1f}us; read p99 "
      f"repair-off {get_plain:.1f}us, repair-on {get_repair:.1f}us")
if w1_pct > 10.0:
    print("WARNING: W=1 replicated-put overhead exceeds the 10% budget")
print("wrote BENCH_replica.json")
PY
