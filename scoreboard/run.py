#!/usr/bin/env python3
"""Builds the scoreboard from source and runs one workload.

    python3 scoreboard/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 scoreboard/run.py --self-test

The build is a Release CMake build of scoreboard/CMakeLists.txt (which
compiles ../src) into $CARGO_TARGET_DIR, default .bench_build, under the
repository root. Run data goes to .bench_data/ and is removed afterwards.
The last line of standard output is the result object; on any failure the
script exits non-zero without printing one.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    sys.stderr.write("scoreboard: %s\n" % message)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "scoreboard")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("dstore sources (src/) not found next to scoreboard/")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "scoreboard", "scoreboard_selftest"])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                fail("build failed (%s); log in %s" % (" ".join(cmd),
                                                       log_path), 3)


def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "scoreboard"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"} and
            result["correct"] is True and result["attempted"] >= 1)


def run(cmd):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        sys.stderr.write(out + err)
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    return proc.returncode, out, err


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    build(out)

    if args.self_test:
        rc, stdout, stderr = run([os.path.join(out, "scoreboard_selftest")])
        sys.stdout.write(stdout)
        sys.stderr.write(stderr)
        sys.exit(rc)

    if not args.workload:
        fail("--workload is required")
    data_dir = os.path.join(ROOT, ".bench_data", "run-%d" % os.getpid())
    cmd = [os.path.join(out, "scoreboard"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--data-dir", data_dir,
           "--source-digest", source_digest()]
    try:
        rc, stdout, stderr = run(cmd)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    if rc != 0 or not lines or not check_result(lines[-1]):
        # No result line on failure: route everything to stderr.
        sys.stderr.write(stdout + stderr)
        fail("run failed (exit %d)" % rc, rc if rc != 0 else 5)
    sys.stderr.write(stderr)
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
