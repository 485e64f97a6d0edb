#!/usr/bin/env python3
"""Compare two sets of perfbench results, metric by metric and workload by workload.

    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are files (or directories of files) holding the captured
standard output of untraced perfbench runs, one run after another: each run
prints an `env` line naming its workload and seed, then a `detail` line, then
the result object. Runs pair up in the order they appear, per workload, so run
the two sides alternately (parent, change, change, parent, ...) to give drift
no side to favour.

Each (end-to-end metric, workload) pair gets one label, by the rule below and
the bounds in BENCHMARK.json:

  improved      at least 10 pairs, the change wins at least 9 in 10 of them
                (ties count for neither side), and the medians differ by more
                than the parent's interquartile range;
  regressed     the same with the change losing, or (spread permitting) its
                median worse than the parent's by more than the metric's bound;
  within bound  the change's median is no worse than the bound allows;
  unresolved    fewer than 10 pairs, or the parent's own spread (IQR over
                median) is wider than the bound, unless every change run reads
                better than every parent run.

Exits 1 if any pair regressed, else 0.
"""

import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def read_runs(path):
    """{workload: [metrics dict, ...]} in run order."""
    files = (
        sorted(os.path.join(path, f) for f in os.listdir(path))
        if os.path.isdir(path)
        else [path]
    )
    runs = {}
    for name in files:
        workload = None
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "env" in obj:
                    workload = obj["env"]["workload"]
                    if obj["env"].get("trace"):
                        workload = None
                elif "metrics" in obj and workload is not None:
                    if not obj["correct"]:
                        sys.exit(f"{name}: a {workload} run reported wrong answers")
                    values = {k: v["value"] for k, v in obj["metrics"].items()}
                    runs.setdefault(workload, []).append(values)
                    workload = None
    return runs


def spread(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def label(parent, change, better, bound):
    """One of improved / regressed / within bound / unresolved, and why."""
    pairs = list(zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = (c_med - p_med) / p_med if better == "lower" else (p_med - c_med) / p_med
    if len(pairs) < MIN_PAIRS:
        return "unresolved", f"{len(pairs)} pairs < {MIN_PAIRS}"
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    iqr = spread(parent)
    if abs(c_med - p_med) > iqr:
        if wins >= WIN_SHARE * len(pairs):
            return "improved", f"won {wins}/{len(pairs)}, |median diff| > parent IQR {iqr:.4g}"
        if losses >= WIN_SHARE * len(pairs):
            return "regressed", f"lost {losses}/{len(pairs)}, |median diff| > parent IQR {iqr:.4g}"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if iqr / p_med > bound and not all_better:
        return "unresolved", f"parent spread {iqr / p_med:.1%} > bound {bound:.0%}"
    if worse > bound:
        return "regressed", f"median {worse:+.1%} worse, bound {bound:.0%}"
    return "within bound", f"median {worse:+.1%} worse (bound {bound:.0%})"


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    bench_path = "BENCHMARK.json"
    if "--benchmark" in argv:
        bench_path = argv[argv.index("--benchmark") + 1]
        args.remove(bench_path)
    if len(args) != 2:
        sys.exit(__doc__)
    with open(bench_path) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = read_runs(args[0]), read_runs(args[1])
    regressed = False
    print(f"{'workload':<12} {'metric':<16} {'parent':>12} {'change':>12}  label")
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        for m in metrics:
            name = m["name"]
            p = [r[name] for r in p_runs if name in r]
            c = [r[name] for r in c_runs if name in r]
            if not p or not c:
                print(f"{workload:<12} {name:<16} {'-':>12} {'-':>12}  unresolved (no runs)")
                continue
            verdict, why = label(p, c, m["better"], m["bound"])
            regressed |= verdict == "regressed"
            print(
                f"{workload:<12} {name:<16} {statistics.median(p):>12.5g} "
                f"{statistics.median(c):>12.5g}  {verdict} ({why})"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
