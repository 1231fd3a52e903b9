#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

A set of runs is a directory of saved standard outputs of
perfbench/run.py, one file per run (any file name). Each file names its
workload on its first benchmark line and ends with the result JSON.

For every workload and metric the command prints each side's median and
quartiles, the change of the medians, and a verdict:

  better      the new median is better by more than either side's
              quartile spread, and at least 9 in 10 of all (old, new)
              pairs of runs favour the new side;
  worse       the new median is worse by more than the metric's bound
              in BENCHMARK.json (per-layer metrics have no bound: worse
              mirrors better);
  unresolved  a side's quartile spread is wider than the bound, so a
              change of the bound's size cannot be told from noise —
              unless every new run beats every old run;
  unchanged   none of the above.
"""

import json
import os
import re
import statistics
import sys

WORKLOAD_LINE = re.compile(r"^workload (\S+),")


def load_runs(directory):
    """{workload: [metrics dict, ...]} from every run file in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        workload, result = None, None
        with open(path) as f:
            for line in f:
                m = WORKLOAD_LINE.match(line)
                if m:
                    workload = m.group(1)
                if line.startswith("{"):
                    try:
                        result = json.loads(line)
                    except ValueError:
                        result = None
        if workload and result and "metrics" in result:
            runs.setdefault(workload, []).append(result["metrics"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, better, bound):
    """old, new: lists of values; better: 'higher' or 'lower'."""
    sign = 1.0 if better == "higher" else -1.0
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    change = sign * (nm - om) / abs(om) if om else 0.0
    o_spread = (o3 - o1) / abs(om) if om else 0.0
    n_spread = (n3 - n1) / abs(nm) if nm else 0.0
    pairs = [(o, n) for o in old for n in new]
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    losses = sum(1 for o, n in pairs if sign * (n - o) < 0)
    all_better = wins == len(pairs)
    spread = max(o_spread, n_spread)
    if bound is not None and spread > bound and not all_better:
        return "unresolved", change
    if change > spread and wins >= 0.9 * len(pairs):
        return "better", change
    if bound is not None:
        if -change > bound:
            return "worse", change
    elif -change > spread and losses >= 0.9 * len(pairs):
        return "worse", change
    return "unchanged", change


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    bounds.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    old, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    for workload in sorted(set(old) | set(new)):
        o_runs, n_runs = old.get(workload, []), new.get(workload, [])
        print("== %s: %d old runs, %d new runs" % (workload, len(o_runs), len(n_runs)))
        if not o_runs or not n_runs:
            continue
        print("%-36s %32s %32s %8s  %s" % ("metric", "old q1 / median / q3",
                                           "new q1 / median / q3", "change", "verdict"))
        names = [n for n in bounds if all(n in r for r in o_runs + n_runs)]
        for name in names:
            better, bound = bounds[name]
            ov = [r[name]["value"] for r in o_runs]
            nv = [r[name]["value"] for r in n_runs]
            word, change = verdict(ov, nv, better, bound)
            fmt = lambda q: "%.6g / %.6g / %.6g" % q
            print("%-36s %32s %32s %+7.1f%%  %s%s" % (
                name, fmt(quartiles(ov)), fmt(quartiles(nv)), 100 * change, word,
                "" if bound is None else " (bound %.0f%%)" % (100 * bound)))


if __name__ == "__main__":
    main()
