#!/usr/bin/env python3
"""Compare two tssbench result sets: ``compare.py A B``.

``A`` and ``B`` are ``summary.json`` files (or the ``--out`` directories
holding them) written by ``run.py --repeat N``.  One row per workload x
end-to-end metric: both medians, the ratio B/A *with its base*, the
regression bound, the wider of the two run-to-run spreads (interquartile
range over the median) and a verdict:

``same``        B is within the bound of A
``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``unresolved``  the spread is wider than the bound, so the runs cannot tell

Metrics without a gate of their own are judged against the nominal 10 %
and shown with the bound in parentheses.  ``fail_ratio`` has an absolute
bound of zero: any new failure is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys

import spec

NOMINAL_BOUND = 0.10


def load(path: str) -> dict:
    if os.path.isdir(path):
        path = os.path.join(path, "summary.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def spread(q: dict) -> float:
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0


def verdict(metric: spec.Metric, a: dict, b: dict, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base, new = a["median"], b["median"]
    worse = new > base * (1 + bound) if metric.better == "lower" else new < base * (1 - bound)
    better = new < base * (1 - bound) if metric.better == "lower" else new > base * (1 + bound)
    return "worse" if worse else "better" if better else "same"


def rows(a: dict, b: dict):
    for workload in spec.WORKLOADS:
        qa, qb = a["quartiles"].get(workload), b["quartiles"].get(workload)
        if qa is None or qb is None:
            continue
        for metric in spec.E2E:
            if metric.name not in qa or metric.name not in qb:
                continue
            ma, mb = qa[metric.name], qb[metric.name]
            if not ma["median"] and not mb["median"]:
                continue  # the workload never issues this class
            bound = metric.bound if metric.bound is not None else NOMINAL_BOUND
            shown = f"{bound:.2f}" if metric.bound is not None else f"({bound:.2f})"
            ratio = f"{mb['median'] / ma['median']:.3f}" if ma["median"] else "n/a"
            yield (
                workload, metric.name, metric.unit, f"{ma['median']:.6g}", f"{mb['median']:.6g}",
                f"{ratio} of A={ma['median']:.6g}", shown,
                f"{max(spread(ma), spread(mb)):.3f}", verdict(metric, ma, mb, bound),
            )
        if "fail_ratio" in qa and "fail_ratio" in qb:
            fa, fb = qa["fail_ratio"]["median"], qb["fail_ratio"]["median"]
            yield (
                workload, "fail_ratio", "ratio", f"{fa:.6g}", f"{fb:.6g}",
                f"{fb - fa:+.6g} over A={fa:.6g}", "abs 0", "-", "worse" if fb > fa else "same",
            )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    print(f"A: {argv[0]} (git {a['header']['git_sha']}, {len(a['runs'])} runs, {a['seconds']:g} s windows)")
    print(f"B: {argv[1]} (git {b['header']['git_sha']}, {len(b['runs'])} runs, {b['seconds']:g} s windows)")
    table = [("workload", "metric", "unit", "A median", "B median", "ratio B/A (base)", "bound", "spread", "verdict")]
    table.extend(rows(a, b))
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    # Only a bounded metric can fail the comparison; the nominal 10 % on
    # the rest is a reading aid.
    gated = {m.name for m in spec.GATED} | {"fail_ratio"}
    return 1 if any(row[-1] == "worse" and row[1] in gated for row in table[1:]) else 0


if __name__ == "__main__":
    raise SystemExit(main())
