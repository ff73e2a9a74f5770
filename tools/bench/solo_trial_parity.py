#!/usr/bin/env python3
"""Checks that solo-train produces the same trials as a base commit.

Builds and runs perfbench's solo-train workload twice, once from a clean
export of the base commit and once from this checkout, each in its own
build directory (CARGO_TARGET_DIR):

    perfbench/run.py --workload solo-train --seed 1 --seconds 10 --trace 0

Both runs print one `trial design=... index=... key=value ...` line per
finished trial. The seeds of trial (design, index) depend only on the seed
and the index, so a trial both runs reached must report the same values.
The check compares those trials over the keys both lines carry, ignoring
the wall-clock `wall_s`, and fails on any mismatch, on a design with no
common trial, or on a run whose result line says "correct": false. The
comparison is deterministic; the 10 s budget only decides how many trials
each run reaches.

Usage (from the repository root):

    python3 tools/bench/solo_trial_parity.py --base <git rev> [--seed N]
        [--seconds S] [--work-dir DIR]

Exits non-zero when the check fails or a run cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
IGNORED_KEYS = {"wall_s"}


def export_commit(rev, dest):
    """Writes the tree of `rev` into `dest` (git archive, no worktree)."""
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)


def run_solo_train(checkout, build_dir, seed, seconds):
    """Runs solo-train from `checkout`; returns (trials, result)."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               "--workload", "solo-train", "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"solo_trial_parity: run failed in {checkout} "
                 f"(exit {done.returncode})")
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"solo_trial_parity: no output from {checkout}")
    trials = {}
    for line in lines:
        if not line.startswith("trial "):
            continue
        fields = dict(token.split("=", 1) for token in line.split()[1:]
                      if "=" in token)
        trials[(fields["design"], int(fields["index"]))] = fields
    return trials, json.loads(lines[-1])


def compare(base, head):
    """Returns (mismatch messages, compared count per design)."""
    problems = []
    compared = {}
    for key in sorted(set(base) & set(head)):
        shared = (set(base[key]) & set(head[key])) - IGNORED_KEYS
        diffs = [f"{name}: {base[key][name]} -> {head[key][name]}"
                 for name in sorted(shared)
                 if base[key][name] != head[key][name]]
        if diffs:
            problems.append(f"trial {key[0]}#{key[1]}: " + ", ".join(diffs))
        compared[key[0]] = compared.get(key[0], 0) + 1
    designs = {design for design, _ in set(base) | set(head)}
    for design in sorted(designs - set(compared)):
        problems.append(f"design {design}: no trial common to both runs")
    return problems, compared


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work-dir", default=None,
                        help="scratch directory (default: a temporary one)")
    args = parser.parse_args()

    work = args.work_dir or tempfile.mkdtemp(prefix="solo_trial_parity_")
    base_checkout = os.path.join(work, "base")
    export_commit(args.base, base_checkout)
    runs = {}
    for name, checkout in (("base", base_checkout), ("head", ROOT)):
        trials, result = run_solo_train(
            checkout, os.path.join(work, f"{name}-build"), args.seed,
            args.seconds)
        print(f"{name}: {len(trials)} trials, correct="
              f"{result.get('correct')}, failed={result.get('failed')}")
        if result.get("correct") is not True:
            sys.exit(f"solo_trial_parity: the {name} run is not correct")
        runs[name] = trials

    problems, compared = compare(runs["base"], runs["head"])
    for design, count in sorted(compared.items()):
        print(f"{design}: {count} common trials compared")
    if problems:
        print("\n".join(problems))
        sys.exit(f"solo_trial_parity: {len(problems)} mismatch(es) "
                 f"against {args.base}")
    print(f"solo_trial_parity: every common trial matches {args.base}")


if __name__ == "__main__":
    main()
