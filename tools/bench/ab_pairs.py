#!/usr/bin/env python3
"""Compares one perfbench workload between a base commit and this checkout.

Builds perfbench from a clean export of the base commit and from this
checkout, each in its own build directory (CARGO_TARGET_DIR), as
solo_trial_parity.py does. Then runs interleaved pairs, one base and one
head run of

    perfbench/run.py --workload W --seed <seed + i> --seconds S --trace T

per pair i, with the order alternating from pair to pair (base first in
even pairs), so slow drift on a shared host falls on both sides alike.

Prints every run's `correct` and `failed`, each side's share of failed
operations (failed / attempted over all its runs; the benchmark rejects
a head share above the base share), then for every metric each side's
median and quartiles, the median ratio head/base, the gap between the
medians against the base side's quartile distance (IQR), and the sign
count: in how many pairs head was better, by the metric's direction in
BENCHMARK.json (ties count for neither side). Metrics BENCHMARK.json does
not list get no sign count. A metric is marked `claim` when at least ten
pairs ran, head won at least 9 of every 10 of them and its median is
better by more than the base IQR (gap/IQR > 1), the rule a claimed gain
must pass. An end-to-end
metric whose head median is worse than the base median by more than its
BENCHMARK.json `bound` (a fraction of the base median) is marked `over
bound`, the benchmark's no-regression check.

Usage (from the repository root):

    python3 tools/bench/ab_pairs.py --base <git rev> --workload W
        --pairs N --seconds S [--seed N] [--trace 0|1] [--work-dir DIR]

Exits non-zero when any run is incorrect or cannot be built or run; an
`over bound` metric does not change the exit code.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from solo_trial_parity import ROOT, export_commit

WORKLOADS = ("solo-train", "serve-train", "fleet-churn")


def metric_specs():
    """Metric name -> its BENCHMARK.json entry (`better`, maybe `bound`)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def over_bound(spec, base_median, head_median):
    """True when head is worse than base by more than the metric's bound."""
    if "bound" not in spec or not base_median:
        return False
    sign = 1 if spec["better"] == "higher" else -1
    worse = sign * (base_median - head_median) / abs(base_median)
    return worse > spec["bound"]


def report_failures(runs):
    """Prints each side's failed/attempted share, flagging a head share
    above the base share."""
    shares = {}
    for side in ("base", "head"):
        failed = sum(r.get("failed", 0) for r in runs[side])
        attempted = sum(r.get("attempted", 0) for r in runs[side])
        shares[side] = failed / attempted if attempted else 0.0
        print(f"{side} failed/attempted: {failed}/{attempted} "
              f"({100.0 * shares[side]:.3f}%)")
    if shares["head"] > shares["base"]:
        print("head fails a larger share of operations than base")


def run_once(checkout, build_dir, workload, seed, seconds, trace):
    """Runs one perfbench workload from `checkout`; returns its result."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"ab_pairs: run failed in {checkout} "
                 f"(exit {done.returncode})")
    for line in lines:
        if line.startswith("INCORRECT:"):
            print(f"  {line}")
    return json.loads(lines[-1])


def spread(values):
    """`median [q1, q3]` of `values`, and (q1, median, q3)."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.6g} [{q1:.5g}, {q3:.5g}]", (q1, median, q3)


def report(runs, specs):
    """Prints one line per metric both sides reported."""
    names = sorted(set.intersection(
        *(set(r["metrics"]) for side in runs.values() for r in side)))
    print(f"{'metric':<28} {'base median [q1, q3]':<34} "
          f"{'head median [q1, q3]':<34} {'ratio':>7} {'gap/IQR':>8} "
          f"{'better':>7} {'claim':>6} {'bound':>10}")
    for name in names:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        base_text, (b_q1, b_med, b_q3) = spread(base)
        head_text, (_, h_med, _) = spread(head)
        ratio = h_med / b_med if b_med else float("nan")
        iqr = b_q3 - b_q1
        gap = abs(h_med - b_med)
        gap_iqr = f"{gap / iqr:.2f}" if iqr > 0 else ("inf" if gap else "0")
        wins = "-"
        claim = ""
        bound = ""
        if name in specs:
            sign = 1 if specs[name]["better"] == "higher" else -1
            won = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
            wins = f"{won}/{len(base)}"
            # At least ten pairs, >= 9/10 of them won, and the median
            # better by more than the base IQR.
            if (len(base) >= 10 and 10 * won >= 9 * len(base)
                    and sign * (h_med - b_med) > iqr):
                claim = "claim"
            if over_bound(specs[name], b_med, h_med):
                bound = "over bound"
        print(f"{name:<28} {base_text:<34} {head_text:<34} {ratio:>7.3f} "
              f"{gap_iqr:>8} {wins:>7} {claim:>6} {bound:>10}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of pair 0; pair i runs seed + i")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--work-dir", default=None,
                        help="scratch directory (default: a temporary one)")
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("ab_pairs: --pairs must be >= 1")

    work = args.work_dir or tempfile.mkdtemp(prefix="ab_pairs_")
    checkouts = {"base": os.path.join(work, "base"), "head": ROOT}
    export_commit(args.base, checkouts["base"])
    runs = {"base": [], "head": []}
    incorrect = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        status = []
        for side in order:
            result = run_once(checkouts[side],
                              os.path.join(work, f"{side}-build"),
                              args.workload, seed, args.seconds, args.trace)
            runs[side].append(result)
            ok = result.get("correct") is True
            incorrect += 0 if ok else 1
            status.append(f"{side} correct={result.get('correct')} "
                          f"failed={result.get('failed')}")
        print(f"pair {i} seed {seed} ({order[0]} first): "
              + ", ".join(status), flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"head = {ROOT}, base = {args.base}")
    report_failures(runs)
    report(runs, metric_specs())
    if incorrect:
        sys.exit(f"ab_pairs: {incorrect} run(s) reported incorrect outputs")


if __name__ == "__main__":
    main()
