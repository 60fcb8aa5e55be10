#!/usr/bin/env python3
"""Repo lint gate for dstore. Run from anywhere:

    python3 tools/dstore_lint.py [--list-rules] [paths...]

With no paths, lints src/, tests/, bench/, examples/, and tools/, plus the
#include lines of README.md, DESIGN.md, and docs/*.md. Exits
non-zero when any finding is reported, printing one finding per line in
the familiar file:line: message format.

Rules (suppress a single line with a trailing `// NOLINT(dstore-<rule>)`
or a bare `// NOLINT` comment):

  raw-sync          std::mutex / std::lock_guard / std::condition_variable
                    and friends outside src/common/sync.h|.cc. Everything
                    else must use the annotated wrappers in common/sync.h so
                    clang -Wthread-safety and the runtime lock-order
                    validator see every acquisition.
  naked-new         `x = new T` / `return new T` outside a smart-pointer
                    wrapper. `std::unique_ptr<T>(new T)` (private ctors)
                    and `static T* x = new T` (leaked singletons) are
                    allowed idioms.
  naked-delete      `delete expr;` statements. Deleted functions
                    (`= delete`) are of course fine.
  include-guard     Headers must open with a matching #ifndef/#define
                    include guard and close with #endif.
  discarded-status  A known fallible call (Put, Delete, AddShard, ...)
                    used as a bare statement. Write `(void)call(...)` or
                    `call(...).ok()` for an intentional discard; the
                    [[nodiscard]] attribute on Status/StatusOr makes the
                    compiler flag the rest.
  raw-sleep         ::sleep / usleep / std::this_thread::sleep_for|until
                    outside src/common/clock.cc. Everything else must go
                    through Clock::SleepFor, which is DSTORE_BLOCKING-
                    annotated — a raw sleep is invisible to the reactor
                    blocking-context check and to SimulatedClock tests.
  hand-forwarder    A class that derives from KeyValueStore directly and
                    holds a std::shared_ptr<KeyValueStore> member: a
                    decorator re-typing the interface by hand silently
                    drops whatever it forgets to forward (whole-store
                    calls, GetIfChanged, batches). Derive from
                    ForwardingStore (store/forwarding_store.h) and override
                    only the calls that change.
  doc-include       An `#include "..."` in README.md, DESIGN.md, or
                    docs/*.md that names no file under src/: a guide's
                    snippet must not outlive the header it shows.
  raw-file-io       ::write / ::pwrite / ::fsync / ::fdatasync /
                    ::ftruncate / ::truncate / ::rename or
                    std::filesystem::rename in src/, outside
                    src/store/fs_util.cc and src/net/ (sockets and
                    eventfds). Durable files are written through
                    PublishFile or WalWriter (store/fs_util.h), so each
                    protocol has one implementation, one failure rule and
                    one set of crash points.

`--self-test` runs the embedded rule fixtures (each rule must fire on its
positive snippet and stay quiet on its negative/suppressed one) and exits.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_DIRS = ["src", "tests", "bench", "examples", "tools"]
DEFAULT_DOCS = ["README.md", "DESIGN.md", "docs"]
CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")
DOC_EXTENSION = ".md"

# The one place raw standard-library primitives are allowed: the annotated
# wrappers themselves (sync.cc's validator graph also needs an
# uninstrumented mutex).
RAW_SYNC_ALLOWED = {
    os.path.join("src", "common", "sync.h"),
    os.path.join("src", "common", "sync.cc"),
}

RAW_SYNC_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b"
)

# The one place a raw sleep is the implementation, not a bug: the real
# clock. (The annotated Clock::SleepFor wrapper lives there.)
RAW_SLEEP_ALLOWED = {
    os.path.join("src", "common", "clock.cc"),
}

RAW_SLEEP_RE = re.compile(
    r"this_thread::sleep_(for|until)\b|(?<![\w.])(::)?u?sleep\s*\(")

# Raw file writes, syncs and renames belong to the durable-file module; the
# network layer writes sockets and eventfds with the same calls.
RAW_FILE_IO_ALLOWED = os.path.join("src", "store", "fs_util.cc")
RAW_FILE_IO_EXEMPT_DIR = os.path.join("src", "net") + os.sep

RAW_FILE_IO_RE = re.compile(
    r"(?<![\w>.])::(write|pwrite|fsync|fdatasync|ftruncate|truncate|rename)"
    r"\s*\(|\bfilesystem::rename\s*\(")

NAKED_NEW_RE = re.compile(r"(=|return)\s+new\b")
SMART_WRAP_RE = re.compile(r"(unique_ptr|shared_ptr)\s*<")
NAKED_DELETE_RE = re.compile(r"^\s*delete(\[\])?\s+[^;=]+;")

# Status/StatusOr-returning methods whose result must not be silently
# dropped. Kept to names that are unambiguous in this codebase (AddShard /
# RemoveShard are omitted: HashRing has void methods of the same name, and
# [[nodiscard]] already catches discards of the Status-returning ones).
FALLIBLE_METHODS = (
    "Put|PutString|PutWithTtl|MultiPut|Delete|RegisterStore|"
    "UnregisterStore|Checkpoint|SaveTo|LoadFrom|AppendWal|FlushWal"
)
DISCARDED_STATUS_RE = re.compile(
    r"^\s*(?P<recv>[A-Za-z_][\w]*)(\.|->)(" + FALLIBLE_METHODS +
    r")\(.*\);\s*(//.*)?$"
)
# MultiStoreTransaction::Put/Delete stage writes and return void; the
# conventional receiver names identify them.
VOID_STAGING_RECEIVERS = {"txn", "transaction"}

# A significant line ending in one of these continues onto the next line
# (assignment RHS, open argument list, binary operator, return expression),
# so the next line is not a statement of its own.
CONTINUATION_END_RE = re.compile(r"([=+\-*/%<>&|^?,(]|::|\breturn)\s*$")

NOLINT_RE = re.compile(r"//\s*NOLINT(\(([^)]*)\))?")

COMMENT_LINE_RE = re.compile(r"^\s*(//|\*)")


def suppressed(line, rule):
    m = NOLINT_RE.search(line)
    if not m:
        return False
    rules = m.group(2)
    return rules is None or ("dstore-" + rule) in rules


def strip_strings(line):
    """Blanks out string and char literals so their contents can't match."""
    return re.sub(r'"(\\.|[^"\\])*"|\'(\\.|[^\'\\])*\'', '""', line)


# The one place a KeyValueStore subclass owns an inner store and forwards
# it: the decorator base itself.
HAND_FORWARDER_ALLOWED = {
    os.path.join("src", "store", "forwarding_store.h"),
}

# A class deriving from KeyValueStore directly (possibly across lines).
KV_SUBCLASS_RE = re.compile(
    r"\b(?:class|struct)\s+\w+\s*(?:final\s*)?:\s*public\s+"
    r"(?:dstore::)?KeyValueStore\s*\{")
# A data member holding one inner store (vectors of stores are composites).
KV_MEMBER_RE = re.compile(
    r"^\s*(?:const\s+)?std::shared_ptr<\s*(?:dstore::)?KeyValueStore\s*>"
    r"\s+\w+\s*;", re.MULTILINE)


def lint_hand_forwarder(rel, text, lines, findings):
    for m in KV_SUBCLASS_RE.finditer(text):
        lineno = text.count("\n", 0, m.start()) + 1
        # The class body, brace-matched, with comments dropped and nested
        # blocks (method bodies, nested types) collapsed so only the class's
        # own member declarations remain.
        depth = 0
        for end in range(m.end() - 1, len(text)):
            depth += {"{": 1, "}": -1}.get(text[end], 0)
            if depth == 0:
                break
        body = re.sub(r"//[^\n]*", "", text[m.end():end])
        while True:
            collapsed = re.sub(r"\{[^{}]*\}", ";", body)
            if collapsed == body:
                break
            body = collapsed
        if KV_MEMBER_RE.search(body) and \
                not suppressed(lines[lineno - 1], "hand-forwarder"):
            findings.append(
                (rel, lineno, "hand-forwarder: derive decorators from "
                 "ForwardingStore (store/forwarding_store.h) instead of "
                 "re-forwarding KeyValueStore by hand"))


DOC_INCLUDE_RE = re.compile(r'#include\s+"([^"]+)"')


def lint_doc_includes(rel, lines, findings):
    for i, line in enumerate(lines, start=1):
        for m in DOC_INCLUDE_RE.finditer(line):
            header = m.group(1)
            if not os.path.isfile(os.path.join(REPO_ROOT, "src", header)) \
                    and not suppressed(line, "doc-include"):
                findings.append(
                    (rel, i, "doc-include: %s is not a file under src/" %
                     header))


def lint_file(path, rel, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        lint_text(rel, f.read(), findings)


def lint_text(rel, text, findings):
    lines = text.split("\n")
    if rel.endswith(DOC_EXTENSION):
        lint_doc_includes(rel, lines, findings)
        return
    is_header = rel.endswith((".h", ".hpp"))
    if is_header:
        lint_include_guard(rel, lines, findings)
    if rel not in HAND_FORWARDER_ALLOWED:
        lint_hand_forwarder(rel, text, lines, findings)

    raw_sync_ok = rel in RAW_SYNC_ALLOWED
    raw_sleep_ok = rel in RAW_SLEEP_ALLOWED
    raw_file_io_checked = rel.startswith("src" + os.sep) and \
        rel != RAW_FILE_IO_ALLOWED and \
        not rel.startswith(RAW_FILE_IO_EXEMPT_DIR)
    depth = 0  # unbalanced-paren depth from preceding lines
    prev_continues = False  # previous line left a statement unfinished
    for i, raw in enumerate(lines, start=1):
        if COMMENT_LINE_RE.match(raw):
            continue
        line = strip_strings(raw)
        # Statement-level rules only fire at paren depth 0 and when the
        # previous line completed its statement, so continuation lines of a
        # multi-line call or assignment RHS are not mistaken for statements.
        at_statement_start = depth == 0 and not prev_continues
        depth = max(0, depth + line.count("(") - line.count(")"))
        code = NOLINT_RE.sub("", line).split("//")[0].rstrip()
        if code:
            prev_continues = bool(CONTINUATION_END_RE.search(code))

        if not raw_sync_ok and RAW_SYNC_RE.search(line):
            if not suppressed(raw, "raw-sync"):
                findings.append(
                    (rel, i, "raw-sync: use the annotated wrappers in "
                     "common/sync.h instead of raw std synchronization"))

        if not raw_sleep_ok and RAW_SLEEP_RE.search(line):
            if not suppressed(raw, "raw-sleep"):
                findings.append(
                    (rel, i, "raw-sleep: use Clock::SleepFor (annotated "
                     "DSTORE_BLOCKING, simulated-clock aware) instead of a "
                     "raw sleep"))

        if raw_file_io_checked and RAW_FILE_IO_RE.search(line):
            if not suppressed(raw, "raw-file-io"):
                findings.append(
                    (rel, i, "raw-file-io: write durable files through "
                     "PublishFile or WalWriter (store/fs_util.h)"))

        if NAKED_NEW_RE.search(line) and not SMART_WRAP_RE.search(line) \
                and "static" not in line:
            if not suppressed(raw, "naked-new"):
                findings.append(
                    (rel, i, "naked-new: wrap in std::make_unique / "
                     "std::unique_ptr (or a static leaked singleton)"))

        if NAKED_DELETE_RE.match(line):
            if not suppressed(raw, "naked-delete"):
                findings.append(
                    (rel, i, "naked-delete: owning pointers should be "
                     "smart pointers"))

        m = DISCARDED_STATUS_RE.match(line) if at_statement_start else None
        if m and ".ok()" not in line \
                and m.group("recv") not in VOID_STAGING_RECEIVERS:
            if not suppressed(raw, "discarded-status"):
                findings.append(
                    (rel, i, "discarded-status: result of a fallible call "
                     "is ignored; use (void)call(...) or check .ok()"))


def lint_include_guard(rel, lines, findings):
    ifndef = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        m = re.match(r"#ifndef\s+(\w+)", stripped)
        if m:
            ifndef = m.group(1)
            # The guard's #define must follow immediately.
            if i + 1 < len(lines):
                d = re.match(r"#define\s+(\w+)", lines[i + 1].strip())
                if d and d.group(1) == ifndef:
                    return
            findings.append(
                (rel, i + 2, "include-guard: #ifndef %s not followed by "
                 "matching #define" % ifndef))
            return
        if stripped == "#pragma once":
            findings.append(
                (rel, i + 1, "include-guard: use an #ifndef guard, not "
                 "#pragma once"))
            return
        break
    findings.append((rel, 1, "include-guard: header has no include guard"))


# Each fixture: (filename, source, rule names that must fire — and no
# others). Exercises every rule's positive, negative, and NOLINT
# suppression path.
SELF_TEST_FIXTURES = [
    ("fx_raw_sync.cc", "std::mutex mu;\n", ["raw-sync"]),
    ("fx_raw_sync_ok.cc",
     "std::mutex mu;  // NOLINT(dstore-raw-sync)\n", []),
    ("fx_raw_sleep.cc",
     "void F() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n"
     "void G() { usleep(100); }\n"
     "void H() { ::sleep(1); }\n",
     ["raw-sleep", "raw-sleep", "raw-sleep"]),
    ("fx_raw_sleep_ok.cc",
     "void F() { clock->SleepFor(1000); }\n"
     "void G() { usleep(100); }  // NOLINT(dstore-raw-sleep)\n", []),
    ("fx_naked_new.cc", "void F() { auto* p = new Widget(); }\n",
     ["naked-new"]),
    ("fx_naked_new_ok.cc",
     "void F() { auto p = std::unique_ptr<W>(new W()); }\n"
     "void G() { static W* w = new W(); }\n", []),
    ("fx_naked_delete.cc", "void F(W* p) {\n  delete p;\n}\n",
     ["naked-delete"]),
    ("fx_guard.h", "int x;\n", ["include-guard"]),
    ("fx_guard_ok.h",
     "#ifndef FX_GUARD_OK_H_\n#define FX_GUARD_OK_H_\n#endif\n", []),
    ("fx_discard.cc", "void F() {\n  store->Put(key, value);\n}\n",
     ["discarded-status"]),
    ("fx_forwarder.cc",
     "class Fwd\n    : public KeyValueStore {\n public:\n"
     "  Status Clear() override { return inner_->Clear(); }\n\n private:\n"
     "  std::shared_ptr<KeyValueStore> inner_;\n};\n", ["hand-forwarder"]),
    ("fx_forwarder_ok.cc",
     "class Fwd : public ForwardingStore {\n"
     "  std::shared_ptr<KeyValueStore> front_;\n};\n"
     "class Sharded : public KeyValueStore {\n"
     "  void F() { std::shared_ptr<KeyValueStore> local; }\n"
     "  std::vector<std::shared_ptr<KeyValueStore>> shards_;\n};\n"
     "class Kept : public KeyValueStore {  // NOLINT(dstore-hand-forwarder)\n"
     "  std::shared_ptr<KeyValueStore> inner_;\n};\n", []),
    ("fx_doc.md",
     "```cpp\n#include \"udsm/no_such_store.h\"\n```\n", ["doc-include"]),
    ("fx_doc_ok.md",
     "```cpp\n#include \"store/key_value.h\"\n#include <vector>\n"
     "#include \"udsm/gone.h\"  // NOLINT(dstore-doc-include)\n```\n", []),
    (os.path.join("src", "store", "fx_raw_file_io.cc"),
     "void F(int fd) {\n  if (::fsync(fd) != 0) return;\n"
     "  std::filesystem::rename(a, b, ec);\n"
     "  n = ::write(fd, p, len);\n}\n",
     ["raw-file-io", "raw-file-io", "raw-file-io"]),
    (os.path.join("src", "net", "fx_socket.cc"),
     "void F(int fd) { n = ::write(fd, p, len); }\n", []),
    (os.path.join("src", "store", "fs_util.cc"),
     "void F(int fd) { if (::fsync(fd) != 0) return; }\n", []),
    (os.path.join("tests", "fx_raw_file_io.cc"),
     "void F(int fd) { (void)::ftruncate(fd, 0); }\n", []),
    (os.path.join("src", "store", "fx_raw_file_io_ok.cc"),
     "void F(int fd) {\n"
     "  (void)::ftruncate(fd, 0);  // NOLINT(dstore-raw-file-io)\n"
     "  conn->write(buf);\n  Socket::write(buf);\n}\n", []),
    ("fx_discard_ok.cc",
     "void F() {\n  (void)store->Put(key, value);\n"
     "  if (!store->Put(key, value).ok()) return;\n}\n", []),
]


def run_self_test():
    failures = []
    for name, source, expected in SELF_TEST_FIXTURES:
        findings = []
        lint_text(name, source, findings)
        got = sorted(f[2].split(":")[0] for f in findings)
        want = sorted(expected)
        if got != want:
            failures.append("%s: expected rules %s, got %s" %
                            (name, want or "none", got or "none"))
    if failures:
        print("dstore_lint: SELF-TEST FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("dstore_lint: self-test passed (%d fixtures)" %
          len(SELF_TEST_FIXTURES))
    return 0


def collect_files(argv):
    paths = argv or [os.path.join(REPO_ROOT, d)
                     for d in DEFAULT_DIRS + DEFAULT_DOCS]
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
            continue
        for root, dirs, names in os.walk(p):
            dirs[:] = [d for d in dirs if not d.startswith(("build", "."))]
            for name in names:
                if name.endswith(CXX_EXTENSIONS + (DOC_EXTENSION,)):
                    files.append(os.path.join(root, name))
    return sorted(files)


def main(argv):
    if "--list-rules" in argv:
        print(__doc__)
        return 0
    if "--self-test" in argv:
        return run_self_test()
    findings = []
    for path in collect_files([a for a in argv if not a.startswith("-")]):
        rel = os.path.relpath(path, REPO_ROOT)
        lint_file(path, rel, findings)
    for rel, line, message in findings:
        print("%s:%d: %s" % (rel, line, message))
    if findings:
        print("dstore_lint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("dstore_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
