"""Compare two result sets, one per commit.

A result set is a JSON-lines file written by ``run.py --record FILE``: one
line per run with the workload, seed, trace flag and the printed result.
Runs of the two sets are paired in file order per workload, so alternate the
two commits when recording.  One row per workload x end-to-end metric gives
each side's median and quartiles, the share of pairs the second set wins
(ties count for neither) and a verdict against the metric's bound:

- better:     wins at least 9 pairs in 10 and the medians differ by more
              than the first set's quartile distance;
- worse:      the median is worse by more than the bound, with both spreads
              within the bound (or every run worse than every base run);
- unresolved: a spread is wider than the bound and not every run is better;
- same:       none of the above; the change is within the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

WIN_SHARE = 0.9


def load(path) -> dict[str, list[dict]]:
    """Untraced results per workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec.get("trace"):
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], bound: float, lower: bool) -> dict:
    """Summary row for one metric; values are oriented so that lower is better."""
    sign = 1.0 if lower else -1.0
    b = [sign * v for v in base]
    h = [sign * v for v in head]
    bq, hq = quartiles(b), quartiles(h)
    pairs = list(zip(b, h))
    wins = sum(1 for x, y in pairs if y < x)
    win = wins / len(pairs) if pairs else 0.0
    scale = abs(bq[1]) or 1.0
    worse_by = (hq[1] - bq[1]) / scale
    spread = max(abs(bq[2] - bq[0]) / scale, abs(hq[2] - hq[0]) / (abs(hq[1]) or 1.0))
    all_better = max(h) < min(b)
    all_worse = min(h) > max(b)
    if (win >= WIN_SHARE and bq[1] - hq[1] > bq[2] - bq[0]) or \
            (spread > bound and all_better):
        label = "better"
    elif worse_by > bound and (spread <= bound or all_worse):
        label = "worse"
    elif spread > bound:
        label = "unresolved"
    else:
        label = "same"
    return {"base": quartiles(base), "head": quartiles(head), "win": win, "pairs": len(pairs), "worse_by": worse_by, "verdict": label}


def compare(base_runs: dict, head_runs: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(base_runs) & set(head_runs)):
        base, head = base_runs[workload], head_runs[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
            hv = [r["metrics"][name]["value"] for r in head if name in r["metrics"]]
            if not bv or not hv:
                continue
            row = verdict(bv, hv, metric["bound"], metric["better"] == "lower")
            row.update(workload=workload, metric=name,
                       failed=(sum(r["failed"] for r in base), sum(r["failed"] for r in head)))
            rows.append(row)
    return rows


def _q(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv, benchmark: Path) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.jsonl HEAD.jsonl", file=sys.stderr)
        return 2
    spec = json.loads(Path(benchmark).read_text())
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print(f"{'workload':<14} {'metric':<12} {'base median [q1, q3]':<34} "
          f"{'head median [q1, q3]':<34} {'win':>9} {'worse by':>8}  verdict")
    for r in rows:
        print(f"{r['workload']:<14} {r['metric']:<12} {_q(r['base']):<34} {_q(r['head']):<34} "
              f"{r['win']:>5.0%} of {r['pairs']:<2} {r['worse_by']:>+8.1%}  {r['verdict']}"
              + (f"  (failed tasks {r['failed'][0]} vs {r['failed'][1]})"
                 if any(r["failed"]) else ""))
    return 0
