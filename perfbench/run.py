"""weightlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
    python3 perfbench/run.py compare BASE.jsonl HEAD.jsonl
    python3 perfbench/run.py record-digests

Run from the root of a checkout.  Each workload runs in fresh single-threaded
Python processes (closed loop: one client, tasks back to back) with a pinned
environment.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the workload once untraced and once traced and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only if every
task passed its correctness gate; 2 if the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import CALIBRATION_REF_S, DEFAULT_SEED, WORKLOADS, compare  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 4          # extra processes that only set up; setup_s is the median
CHILD_TIMEOUT_S = 170


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    """Hermetic environment: only what the workload process needs, with
    hash seed and every thread-pool size pinned."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": str(ROOT / "src"),
           "PYTHONHASHSEED": "0",
           "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "LC_ALL": "C"}
    return env


def run_child(*args) -> dict:
    cmd = [sys.executable, "-s", "-m", "perfbench.child", *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"workload process exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"workload process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: int) -> float:
    """p-th percentile (p in 1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[p - 1]


def corrected(times: list[float], host: list[float]) -> list[float]:
    """Times scaled to the reference host speed (see perfbench/__init__.py)."""
    return [t * CALIBRATION_REF_S / h for t, h in zip(times, host)]


def task_medians(child: dict, correct: bool = True) -> list[float]:
    """Each task's median time over the passes of one workload process."""
    passes = [corrected(t, h) if correct else t
              for t, h in zip(child["task_s"], child["host_s"])]
    return [statistics.median(reps) for reps in zip(*passes)]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    passes = max(1, round(seconds / WORKLOADS[workload]))
    main = run_child("--workload", workload, "--seed", seed, "--passes", passes)
    setups = [main]
    for _ in range(SETUP_PROBES):
        setups.append(run_child("--workload", workload, "--seed", seed, "--setup-only"))
    tasks = task_medians(main)
    ok = main["attempted"] - main["failed"]
    metrics = {
        "wall_s": (sum(tasks), "s"),
        "task_s.p50": (statistics.median(tasks), "s"),
        "task_s.p90": (percentile(tasks, 90), "s"),
        "setup_s": (statistics.median(corrected([c["setup_s"] for c in setups],
                                                [c["setup_host_s"] for c in setups])), "s"),
        "peak_rss_mb": (main["rss_mb"], "MB"),
        "ok_frac": (ok / main["attempted"], "fraction"),
    }
    raw = task_medians(main, correct=False)
    host = statistics.median(h for hs in main["host_s"] for h in hs)
    print(f"# {workload} seed {seed}: {len(main['task_s'])} pass(es) over {len(tasks)} tasks, "
          f"{len(setups)} setup samples; uncorrected wall_s {sum(raw):.4f}, "
          f"task_s.p50 {statistics.median(raw):.6f}, task_s.p90 {percentile(raw, 90):.6f}, "
          f"setup_s {statistics.median(c['setup_s'] for c in setups):.4f}; "
          f"calibration loop {host * 1000:.2f} ms (reference {CALIBRATION_REF_S * 1000:.0f} ms)")
    return main, metrics


def layer_metrics(untraced: dict, traced: dict) -> dict:
    s, c = traced["self_s"], traced["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    calls = c.get("tensor.calls", 0)
    folds = calls - c.get("tensor.repeats", 0)
    out = {
        "rootdata.build_s": s.get("rootdata.build", 0.0),
        "rootdata.builds": c.get("rootdata.builds", 0),
        "weyl.orbit_s": s.get("weyl.orbit", 0.0),
        "weyl.orbit_calls": c.get("weyl.orbit_calls", 0),
        "weyl.orbit_rows": c.get("weyl.orbit_rows", 0),
        "charcalc.walk_s": s.get("charcalc.walk", 0.0),
        "charcalc.walk_weights": c.get("charcalc.walk_weights", 0),
        "charcalc.freudenthal_s": s.get("charcalc.freudenthal", 0.0),
        "charcalc.characters": c.get("charcalc.characters", 0),
        "charcalc.dominant_entries": c.get("charcalc.dominant_entries", 0),
        "charcalc.expand_s": s.get("charcalc.expand", 0.0),
        "charcalc.expanded_rows": c.get("charcalc.expanded_rows", 0),
        "tensor.fold_s": s.get("tensor.fold", 0.0),
        "tensor.calls": calls,
        "tensor.fold_rows": c.get("tensor.fold_rows", 0),
        "tensor.summands": c.get("tensor.summands", 0),
        "tensor.repeat_ratio": ratio(c.get("tensor.repeats", 0), calls),
        "tensor.table_reuse_ratio": ratio(c.get("tensor.table_reuses", 0), folds),
        "latticecalc.project_s": s.get("latticecalc.project", 0.0),
        "latticecalc.project_calls": c.get("latticecalc.project_calls", 0),
        "perfectmonoid.sweep_s": s.get("perfectmonoid.sweep", 0.0),
        "perfectmonoid.predict_s": s.get("perfectmonoid.predict", 0.0),
        "perfectmonoid.members": c.get("perfectmonoid.members", 0),
        "perfectmonoid.pairs": c.get("perfectmonoid.pairs", 0),
        "perfectmonoid.pairs_decomposed": c.get("perfectmonoid.pairs_decomposed", 0),
        "perfectmonoid.decompose_ratio": ratio(c.get("perfectmonoid.pairs_decomposed", 0),
                                               c.get("perfectmonoid.pairs", 0)),
        "constructions.trace_s": s.get("constructions.trace", 0.0),
        "constructions.check_s": s.get("constructions.check", 0.0),
        "constructions.prv_steps": c.get("constructions.prv_steps", 0),
        "constructions.tensor_checked": c.get("constructions.tensor_checked", 0),
        "cli.self_s": s.get("cli", 0.0),
        "cli.output_bytes": c.get("cli.output_bytes", 0),
        "trace.overhead_frac": sum(task_medians(traced)) / sum(task_medians(untraced)) - 1.0,
        "trace.absent_layers": len(traced["absent"]),
    }
    return out


def per_layer(workload: str, seed: int) -> tuple[list[dict], dict]:
    untraced = run_child("--workload", workload, "--seed", seed)
    traced = run_child("--workload", workload, "--seed", seed, "--trace", 1)
    values = layer_metrics(untraced, traced)
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    # shares among the library's layers; the benchmark's own spans are left out
    layer_self = {k: v for k, v in traced["self_s"].items()
                  if not k.startswith(("trace.", "host."))}
    total = sum(layer_self.values()) or 1.0
    shares = ", ".join(f"{k} {v / total:.1%}" for k, v in
                       sorted(layer_self.items(), key=lambda kv: -kv[1]))
    print(f"# {workload} seed {seed}: self-time shares: {shares}")
    if traced["missing"]:
        print(f"# missing trace targets: {', '.join(traced['missing'])}; "
              f"absent layers: {', '.join(traced['absent']) or 'none'}")
    return [untraced, traced], {k: (v, units[k]) for k, v in values.items()}


def run_workload(args) -> int:
    if args.trace:
        children, metrics = per_layer(args.workload, args.seed)
    else:
        main, metrics = end_to_end(args.workload, args.seed, args.seconds)
        children = [main]
    attempted = sum(ch["attempted"] for ch in children)
    failed = sum(ch["failed"] for ch in children)
    correct = failed == 0 and all(ch["threads"] == 1 for ch in children)
    for ch in children:
        for reason in ch["reasons"]:
            print(f"# FAIL {reason}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def record_digests() -> int:
    """Rewrite digests.json from the current library at the default seed."""
    digests = {}
    for workload in WORKLOADS:
        out = run_child("--workload", workload, "--seed", DEFAULT_SEED, "--record-digests")
        if out["reasons"]:
            print("\n".join(out["reasons"]), file=sys.stderr)
            return 1
        digests.update(out["digests"])
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


def check_checkout() -> str | None:
    for needed in (ROOT / "src" / "weightlab" / "__init__.py", BENCHMARK):
        if not needed.is_file():
            return f"missing {needed.relative_to(ROOT)}: run from a full checkout"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], BENCHMARK)
    problem = check_checkout()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    if argv[:1] == ["record-digests"]:
        return record_digests()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured time; sets the number of passes over the task list")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--record", help="append the result line to this JSON-lines file")
    args = ap.parse_args(argv)
    try:
        return run_workload(args)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
