#!/usr/bin/env python3
"""Project-specific concurrency/allocation lint gate.

Checks conventions the generic toolchain cannot see, with file:line
diagnostics and a ratcheting baseline (tools/lint/contracts_baseline.json):
a rule's finding count per file may only SHRINK over time. New findings
fail the gate; fixing old ones requires refreshing the baseline with
--update-baseline so the lower count becomes the new ceiling.

Rules:
  kernel-heap-alloc
      No heap allocation inside src/linalg/kernels*.cpp. The kernel layer
      is the hot path under every OS-ELM update, and it allocates
      nothing — new allocations are rejected.
  backend-call-outside-batch
      Inside src/rl/async_server.cpp, mutating/predicting OsElmQBackend
      virtuals must go through checked_backend() (which asserts
      batch-thread affinity), never directly through backend_->.
      Metadata getters (initialized, input_dim, hidden_units, ledger,
      supports_state_sync) are exempt: they are safe to read anywhere.
  naked-thread
      No std::thread construction outside util/thread_pool.*. The
      long-lived service threads (AsyncQServer's batch thread,
      RouterQServer's maintenance thread) are baselined; ad-hoc thread
      spawns must go through util::ThreadPool.
  mutex-lock-order
      A header declaring two or more std::mutex members must document
      their lock order (a comment containing "Lock order").
  hot-loop-clock
      Hot-loop code (src/linalg/kernels*.cpp and the batch-thread drain
      in src/rl/async_server.cpp) must not call std::chrono clocks
      directly: instrumentation reads go through obs::Tracer::now_us()
      (one steady-clock seam, gated by the enable flags) or the
      util::TimeLedger/WallTimer seams. The pre-existing Clock::now()
      sites in async_server.cpp (admission stamps, batch deadline) are
      baselined; new direct clock reads on the hot path are rejected.
  dead-header
      Every src/**/*.hpp must be reachable through #include chains from
      a translation unit under bench/, perfbench/, examples/ or tools/.
      Reaching x.hpp also follows the includes of its x.cpp. A header
      only tests include is dead code: delete it with its .cpp.

Usage:
  python3 tools/lint/check_contracts.py            # gate (CI mode)
  python3 tools/lint/check_contracts.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "contracts_baseline.json"

# OsElmQBackend virtuals that mutate state or run predictions — the ones
# AsyncQServer must only touch on the batch thread (src/rl/agent.hpp).
MUTATING_BACKEND_CALLS = (
    "initialize",
    "init_train",
    "seq_train",
    "sync_target",
    "predict_main",
    "predict_target",
    "predict_actions",
    "predict_actions_multi",
    "export_state",
    "import_state",
)

HEAP_ALLOC_PATTERNS = (
    re.compile(r"\bnew\b(?!\w)"),
    re.compile(r"\bstd::vector<"),
    re.compile(r"\bmalloc\s*\("),
    re.compile(r"\bcalloc\s*\("),
    re.compile(r"\bmake_unique\b"),
    re.compile(r"\bmake_shared\b"),
    re.compile(r"\.resize\s*\("),
    re.compile(r"\.push_back\s*\("),
    re.compile(r"\.reserve\s*\("),
)

COMMENT_RE = re.compile(r"//.*$")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

# Directories whose translation units are the program's callers: a
# src/ header none of them reaches is dead code.
CALLER_DIRS = ("bench", "perfbench", "examples", "tools")


class Finding:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def location(self) -> str:
        return f"{self.path.relative_to(REPO)}:{self.line}"


def stripped_code_lines(path: Path):
    """Yields (1-based line number, line with // comments removed)."""
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        yield number, COMMENT_RE.sub("", raw)


def check_kernel_heap_alloc() -> list[Finding]:
    findings = []
    for path in sorted(REPO.glob("src/linalg/kernels*.cpp")):
        for number, line in stripped_code_lines(path):
            # Parameter lists legitimately mention std::vector& — only
            # flag lines that can allocate (declarations, calls).
            if "const std::vector<" in line and "&" in line:
                continue
            for pattern in HEAP_ALLOC_PATTERNS:
                if pattern.search(line):
                    findings.append(Finding(
                        "kernel-heap-alloc", path, number,
                        "heap allocation in the kernel layer: "
                        + line.strip()))
                    break
    return findings


def check_backend_call_outside_batch() -> list[Finding]:
    findings = []
    path = REPO / "src" / "rl" / "async_server.cpp"
    call = re.compile(
        r"backend_->(" + "|".join(MUTATING_BACKEND_CALLS) + r")\s*\(")
    for number, line in stripped_code_lines(path):
        match = call.search(line)
        if match:
            findings.append(Finding(
                "backend-call-outside-batch", path, number,
                f"direct backend_->{match.group(1)}() — route through "
                "checked_backend() so batch-thread affinity is asserted"))
    return findings


def check_naked_thread() -> list[Finding]:
    findings = []
    spawn = re.compile(r"std::thread\s*[({\[]|std::thread\s+\w+\s*;"
                       r"|std::vector<std::thread>")
    for path in sorted(REPO.glob("src/**/*.?pp")):
        if path.name.startswith("thread_pool."):
            continue
        for number, line in stripped_code_lines(path):
            if "std::thread::" in line or "this_thread" in line:
                continue
            if spawn.search(line):
                findings.append(Finding(
                    "naked-thread", path, number,
                    "std::thread outside util::ThreadPool: "
                    + line.strip()))
    return findings


def check_mutex_lock_order() -> list[Finding]:
    findings = []
    mutex_decl = re.compile(r"\bstd::(?:recursive_)?mutex\s+\w+_?\s*;")
    for path in sorted(REPO.glob("src/**/*.hpp")):
        text = path.read_text()
        count = 0
        first_line = 0
        for number, line in stripped_code_lines(path):
            if mutex_decl.search(line):
                count += 1
                if first_line == 0:
                    first_line = number
        if count >= 2 and "lock order" not in text.lower():
            findings.append(Finding(
                "mutex-lock-order", path, first_line,
                f"{count} mutex members but no 'Lock order' comment"))
    return findings


def check_hot_loop_clock() -> list[Finding]:
    findings = []
    clock_call = re.compile(
        r"\b(?:std::chrono::)?"
        r"(?:steady_clock|system_clock|high_resolution_clock|Clock)"
        r"::now\s*\(")
    paths = sorted(REPO.glob("src/linalg/kernels*.cpp"))
    paths.append(REPO / "src" / "rl" / "async_server.cpp")
    for path in paths:
        if not path.exists():
            continue
        for number, line in stripped_code_lines(path):
            if clock_call.search(line):
                findings.append(Finding(
                    "hot-loop-clock", path, number,
                    "direct std::chrono clock read on a hot path — use "
                    "obs::Tracer::now_us() (or a TimeLedger seam): "
                    + line.strip()))
    return findings


def resolve_include(including: Path, name: str) -> Path | None:
    """Resolves a quoted include the way the builds do: next to the
    including file first, then from src/."""
    for base in (including.parent, REPO / "src"):
        candidate = (base / name).resolve()
        if candidate.is_file():
            return candidate
    return None


def check_dead_header() -> list[Finding]:
    src = REPO / "src"
    pending = [path.resolve() for d in CALLER_DIRS
               for path in sorted((REPO / d).glob("**/*.cpp"))]
    seen = set(pending)
    while pending:
        path = pending.pop()
        for name in INCLUDE_RE.findall(path.read_text()):
            header = resolve_include(path, name)
            if header is None:
                continue
            reached = [header]
            source = header.with_suffix(".cpp")
            if header.suffix == ".hpp" and source.is_file():
                reached.append(source)
            for item in reached:
                if item not in seen:
                    seen.add(item)
                    pending.append(item)
    return [Finding("dead-header", path, 1,
                    "no translation unit under " + ", ".join(CALLER_DIRS)
                    + " reaches this header; delete it with its .cpp")
            for path in sorted(src.glob("**/*.hpp"))
            if path.resolve() not in seen]


CHECKS = (
    check_kernel_heap_alloc,
    check_backend_call_outside_batch,
    check_naked_thread,
    check_mutex_lock_order,
    check_hot_loop_clock,
    check_dead_header,
)


def collect() -> list[Finding]:
    findings = []
    for check in CHECKS:
        findings.extend(check())
    return findings


def counts_by_key(findings: list[Finding]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for finding in findings:
        counts[f"{finding.rule}:{finding.path.relative_to(REPO)}"] += 1
    return dict(sorted(counts.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the ratchet to the current counts")
    args = parser.parse_args()

    findings = collect()
    counts = counts_by_key(findings)

    if args.update_baseline:
        BASELINE_PATH.write_text(json.dumps(counts, indent=2) + "\n")
        print(f"baseline updated: {sum(counts.values())} finding(s) "
              f"across {len(counts)} rule:file key(s)")
        return 0

    baseline = {}
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())

    failed = False
    for key, count in counts.items():
        allowed = baseline.get(key, 0)
        if count > allowed:
            failed = True
            rule = key.split(":", 1)[0]
            print(f"FAIL {key}: {count} finding(s), baseline allows "
                  f"{allowed}:", file=sys.stderr)
            for finding in findings:
                if (finding.rule == rule
                        and key.endswith(str(finding.path.relative_to(REPO)))):
                    print(f"  {finding.location()}: {finding.message}",
                          file=sys.stderr)
    # The ratchet only shrinks: a fixed finding must be locked in.
    for key, allowed in baseline.items():
        count = counts.get(key, 0)
        if count < allowed:
            failed = True
            print(f"FAIL {key}: {count} finding(s) but baseline still "
                  f"allows {allowed} — run --update-baseline to ratchet "
                  "down", file=sys.stderr)

    if failed:
        return 1
    print(f"check_contracts: OK ({sum(counts.values())} baselined "
          f"finding(s), {len(CHECKS)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
