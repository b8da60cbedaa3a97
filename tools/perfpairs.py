#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python3 tools/perfpairs.py --parent DIR --change DIR --workload scale \
        --seeds 801-810 --seconds 25 [--build-root DIR]

Runs each checkout's perfbench/run.py once per seed at --trace 0, each side
built into its own CARGO_TARGET_DIR under --build-root, alternating which
side runs first (the first seed's pair starts with the parent). One
uncounted --seconds 1 run per side builds it and warms the file cache
first.

Every pair must agree on its simulated output: the `point`, `anchor.` and
`sim` lines. The tool prints each run's end-to-end metrics, then one row per
end-to-end metric of the change's BENCHMARK.json:

  * each side's median and quartiles over the seeds;
  * wins: pairs where the change is better (ties count for neither side);
  * >IQR: whether the medians differ, in the change's favour, by more than
    the parent's interquartile range;
  * gain: wins in at least nine tenths of the pairs, and >IQR -- the rule a
    claimed gain must meet;
  * bound: whether the change's median is worse than the parent's by more
    than the metric's BENCHMARK.json bound.

Exits 1 when any pair's simulated lines differ or any run reports a failed
operation, 2 when a run produces no result.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIM_PREFIXES = ("point ", "anchor.", "sim ")


def fail(msg):
    print(f"perfpairs: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_seeds(text):
    """'801-810' (inclusive) or one seed."""
    lo, _, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi or lo)
    except ValueError:
        fail(f"--seeds wants A-B or A, got {text!r}")
    if first < 0 or last < first:
        fail(f"--seeds range {text!r} is empty or negative")
    return list(range(first, last + 1))


def build_dir(root, side, checkout):
    # Keyed by the checkout too: a CMake build directory belongs to one
    # source tree.
    digest = hashlib.sha1(os.path.abspath(checkout).encode()).hexdigest()[:8]
    return os.path.join(root, f"{side}-{digest}")


def run_side(checkout, target_dir, workload, seed, seconds):
    """One perfbench run: (simulated lines, result object)."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=checkout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{checkout}: seed {seed} exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{checkout}: seed {seed} ended without a JSON result line")
    sim = [line for line in lines[:-1] if line.startswith(SIM_PREFIXES)]
    return sim, result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def better(metric, a, b):
    """True when value a is strictly better than b."""
    return a < b if metric["better"] == "lower" else a > b


def summarize(metric, parent, change):
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    wins = sum(better(metric, c, p) for p, c in zip(parent, change))
    beyond_iqr = better(metric, c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1
    gain = wins >= 0.9 * len(parent) and beyond_iqr
    worse_by = (c_med - p_med) if metric["better"] == "lower" else (p_med - c_med)
    within_bound = p_med == 0 or worse_by <= metric["bound"] * abs(p_med)
    delta = (c_med - p_med) / abs(p_med) * 100 if p_med else 0.0
    p_cell = f"{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]"
    c_cell = f"{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]"
    return (f"{metric['name']:<15} {metric['unit']:<6} {p_cell:>36} {c_cell:>36}"
            f" {delta:+7.2f}% {wins:>3}/{len(parent):<3}"
            f" {'yes' if beyond_iqr else 'no':<5} {'yes' if gain else 'no':<5}"
            f" {'ok' if within_bound else 'WORSE'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent commit's checkout")
    ap.add_argument("--change", required=True, help="change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="A-B, inclusive")
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--build-root", default=os.path.join(tempfile.gettempdir(), "perfpairs"),
                    help="where each side's CARGO_TARGET_DIR goes")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    sides = {"parent": args.parent, "change": args.change}
    for side, checkout in sides.items():
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            fail(f"--{side} {checkout}: no perfbench/run.py")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    targets = {s: build_dir(args.build_root, s, c) for s, c in sides.items()}

    for side, checkout in sides.items():
        print(f"warm-up {side}: building into {targets[side]}", flush=True)
        run_side(checkout, targets[side], args.workload, seeds[0], 1)

    values = {s: {m["name"]: [] for m in metrics} for s in sides}
    mismatches = failures = 0
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {s: run_side(sides[s], targets[s], args.workload, seed, args.seconds)
                for s in order}
        print(f"seed {seed} ({order[0]} first)")
        for side in sides:
            result = runs[side][1]
            got = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
            for name, value in got.items():
                values[side][name].append(value)
            failures += result["failed"] > 0 or result["correct"] is not True
            print(f"  {side:<6} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{n}={v:.6g}" for n, v in got.items()))
        if runs["parent"][0] != runs["change"][0]:
            mismatches += 1
            diff = next((p, c) for p, c in zip(runs["parent"][0] + [""],
                                               runs["change"][0] + [""]) if p != c)
            print(f"  SIMULATED OUTPUT DIFFERS\n    parent: {diff[0]}\n    change: {diff[1]}")

    print(f"\n{args.workload}, {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]},"
          f" --seconds {args.seconds}")
    print(f"{'metric':<15} {'unit':<6} {'parent median [q1, q3]':>36}"
          f" {'change median [q1, q3]':>36} {'delta':>8} {'wins':>7} {'>IQR':<5}"
          f" {'gain':<5} bound")
    for m in metrics:
        print(summarize(m, values["parent"][m["name"]], values["change"][m["name"]]))
    print(f"simulated output: {len(seeds) - mismatches}/{len(seeds)} pairs identical;"
          f" runs with failed operations: {failures}")
    return 1 if mismatches or failures else 0


if __name__ == "__main__":
    sys.exit(main())
