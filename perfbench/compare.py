#!/usr/bin/env python3
"""Summarises benchmark reports, or compares two sets of them (A/B).

    python3 perfbench/compare.py A [B]

A and B are report files or directories of them (`perfbench` writes one
per run to `.bench_out/reports/`). Runs are grouped by workload and by
traced/untraced.

With one set, prints each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) against the
metric's bound in BENCHMARK.json.

With two sets (A = parent, B = change), also prints a verdict per
(workload, metric), by a rule made for small, noisy hosts:
  improved    B beats A in at least 9 of 10 pairs (runs paired by seed,
              ties count for neither) and the medians differ by more
              than A's own spread (its interquartile distance);
  worse       B's median is worse than A's by more than the metric's
              bound (per-layer metrics have none: the improved rule
              with A and B swapped);
  unresolved  A's spread is wider than the bound and not every B run
              beats every A run, or (without a bound) the medians
              differ by more than A's spread without a 9-in-10 win;
  unchanged   otherwise.
Separately, the deterministic work counts must be exactly equal across
every run of both sets; the exit status is 1 when one differs.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DETERMINISTIC = ["sim.executed_cycles", "sim.skipped_cycles", "sim.retired_minst", "wire.reply_bytes"]


def load_reports(path):
    files = []
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
    else:
        files = [path]
    runs = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if not r.get("correct"):
            print(f"warning: {f} failed its output checks; left out", file=sys.stderr)
            continue
        key = (r["workload"], int(r["trace"]))
        runs.setdefault(key, []).append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["seed"])
    return runs


def catalogue():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def better(a, b, direction):
    """True when b is better than a."""
    return b > a if direction == "higher" else b < a


def verdict(a_runs, b_runs, name, direction, bound):
    a, b = values(a_runs, name), values(b_runs, name)
    a_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]}
    b_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]}
    common = sorted(set(a_by_seed) & set(b_by_seed))
    pairs = [(a_by_seed[s], b_by_seed[s]) for s in common] or list(zip(a, b))
    wins = sum(better(x, y, direction) for x, y in pairs)
    losses = sum(better(y, x, direction) for x, y in pairs)
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    iqr_a = q3a - q1a
    diff = abs(med_b - med_a)
    if pairs and wins >= 0.9 * len(pairs) and diff > iqr_a:
        return "improved"
    if bound is not None:
        worse_by = (med_a - med_b) if direction == "higher" else (med_b - med_a)
        if med_a and worse_by / abs(med_a) > bound:
            return "worse"
        every_b_better = all(better(x, y, direction) for x in a for y in b)
        if spread(a) > bound and not every_b_better:
            return "unresolved"
        return "unchanged"
    if pairs and losses >= 0.9 * len(pairs) and diff > iqr_a:
        return "worse"
    return "unchanged" if diff <= iqr_a else "unresolved"


def fmt(x):
    return f"{x:.6g}"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    metrics = catalogue()
    sets = [load_reports(p) for p in sys.argv[1:]]
    status = 0
    keys = sorted(set().union(*[s.keys() for s in sets]))
    for workload, trace in keys:
        a_runs = sets[0].get((workload, trace), [])
        b_runs = sets[1].get((workload, trace), []) if len(sets) == 2 else []
        print(f"== {workload} ({'traced' if trace else 'untraced'}): "
              f"{len(a_runs)} run(s)" + (f" vs {len(b_runs)}" if len(sets) == 2 else ""))
        names = [n for n in metrics if values(a_runs, n) or values(b_runs, n)]
        for name in names:
            direction, bound = metrics[name]
            bound_txt = f"{bound:.0%}" if bound is not None else "-"
            line = f"  {name:<30}"
            for runs in ([a_runs, b_runs] if len(sets) == 2 else [a_runs]):
                v = values(runs, name)
                if not v:
                    line += f" {'(none)':>36}"
                    continue
                q1, med, q3 = quartiles(v)
                line += f" med {fmt(med):>10} [{fmt(q1)}, {fmt(q3)}] ({spread(v):.1%})"
            line += f" bound {bound_txt}"
            if len(sets) == 2 and values(a_runs, name) and values(b_runs, name):
                line += "  " + verdict(a_runs, b_runs, name, direction, bound)
            print(line)
        for name in DETERMINISTIC:
            seen = sorted({v for v in values(a_runs + b_runs, name)})
            if len(seen) > 1:
                status = 1
                print(f"  DETERMINISTIC COUNT DIFFERS: {name} takes {seen}")
            elif seen:
                print(f"  deterministic {name} = {fmt(seen[0])} in every run")
    sys.exit(status)


if __name__ == "__main__":
    main()
