"""The benchmark's own tests, at a tiny task count: task generation, the
correctness gates, the tracing wrappers, the compare mode and the runner's
refusal to run outside a full checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import weightlab.charcalc  # noqa: E402
import weightlab.cli  # noqa: E402
import weightlab.rootdata  # noqa: E402

from perfbench import DEFAULT_SEED, compare, run, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

W = workloads


def _cli_plan(name, *argvs, seed=7):
    tasks = [W.Task(f"test|{i}", tuple(argv)) for i, argv in enumerate(argvs)]
    return W.Plan(name, seed, tasks, gate_data={"A2": weightlab.rootdata.build_root_datum("A2")})


def _outcome(plan, task):
    return W.finish(W.execute(plan, task))


@pytest.fixture
def tensor_plan(monkeypatch):
    monkeypatch.setattr(W, "TENSOR_FAMILIES", {"A2": (1, 0)})
    datum = weightlab.rootdata.build_root_datum("A2")
    task = W.Task("test|tensor", family="A2", lam=(2, 1))
    plan = W.Plan("tensor-family", 7, [task], gate_data={"A2": datum}, warm={"A2": None})
    W.prepare(plan)
    return plan


SMALL = {
    "chain": ("construct", "--type", "A2", "--omega", "1,1", "--check"),
    "character": ("character", "--type", "A2", "--weight", "2,1"),
    "closure": ("verify", "--type", "A1", "--generators", "2", "--box", "4"),
}


@pytest.mark.parametrize("name", ["chain", "closure", "tensor-family"])
def test_plans_are_seeded_and_hold_enough_tasks(name):
    first = [t.key for t in W.make_plan(name, 5).tasks]
    assert first == [t.key for t in W.make_plan(name, 5).tasks]
    assert first != [t.key for t in W.make_plan(name, 6).tasks]
    assert len(first) >= 100


def test_stratified_pick_takes_one_per_slice():
    import random
    picks = W.stratified_pick(list(range(100)), 10, random.Random(3))
    assert [p // 10 for p in picks] == list(range(10))
    with pytest.raises(ValueError):
        W.stratified_pick([1, 2], 3, random.Random(3))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gate_accepts_correct_cli_output(name):
    plan = _cli_plan(name, SMALL[name])
    out = _outcome(plan, plan.tasks[0])
    assert W.check(plan, plan.tasks[0], out, None) is None


def test_gate_accepts_correct_tensor_output(tensor_plan):
    task = tensor_plan.tasks[0]
    assert W.check(tensor_plan, task, _outcome(tensor_plan, task), None) is None


def _tampered(out, edit):
    payload = json.loads(json.dumps(out.payload))
    edit(payload)
    return W.Outcome(out.status, out.output, payload)


@pytest.mark.parametrize("name,edit", [
    ("chain", lambda p: p["check"].update(tensor_checked=p["check"]["tensor_checked"] - 1)),
    ("chain", lambda p: p["check"].update(ok=False)),
    ("character", lambda p: p["entries"][-1].update(mult=p["entries"][-1]["mult"] + 1)),
    ("closure", lambda p: p["missing_from_prediction"].append([9])),
])
def test_gate_rejects_wrong_cli_output(name, edit):
    plan = _cli_plan(name, SMALL[name])
    out = _tampered(_outcome(plan, plan.tasks[0]), edit)
    assert W.check(plan, plan.tasks[0], out, None) is not None


def test_gate_rejects_wrong_tensor_output(tensor_plan):
    task = tensor_plan.tasks[0]
    out = _tampered(_outcome(tensor_plan, task), lambda p: p[0].__setitem__(1, p[0][1] + 1))
    assert "dim" in W.check(tensor_plan, task, out, None)


def test_gate_rejects_exit_code_and_digest_mismatch():
    plan = _cli_plan("closure", SMALL["closure"])
    task = plan.tasks[0]
    out = _outcome(plan, task)
    assert W.check(plan, task, out, {task.key: W.digest(out)}) is None
    assert "digest" in W.check(plan, task, out, {task.key: "0" * 64})
    assert W.check(plan, task, W.Outcome(2, "", None), None) == "exit 2"
    plan.seed = DEFAULT_SEED
    assert "no recorded digest" in W.check(plan, task, out, {})


def _targets():
    modules = ("cli", "rootdata", "charcalc", "tensor", "constructions",
               "perfectmonoid", "latticecalc")
    return {(m, name): getattr(mod, name)
            for m in modules
            for mod in [sys.modules["weightlab." + m]]
            for name in dir(mod) if callable(getattr(mod, name))}


def test_tracer_times_layers_and_restores_originals():
    __import__("weightlab.perfectmonoid")
    before = _targets()
    plans = [_cli_plan(name, argv) for name, argv in SMALL.items()]
    tracer = Tracer()
    tracer.install()
    try:
        for plan in plans:
            assert W.check(plan, plan.tasks[0], _outcome(plan, plan.tasks[0]), None) is None
    finally:
        tracer.restore()
    assert _targets() == before
    assert tracer.missing == [] and tracer.absent_layers() == []
    for span in ("cli", "rootdata.build", "perfectmonoid.sweep", "tensor.fold",
                 "charcalc.walk", "charcalc.freudenthal", "charcalc.expand", "weyl.orbit",
                 "constructions.check", "latticecalc.project"):
        assert tracer.self_s[span] > 0, span
    c = tracer.counts
    assert c["rootdata.builds"] == 3
    m = c["perfectmonoid.members"]
    assert c["perfectmonoid.pairs"] == m * (m + 1) // 2
    assert 0 < c["perfectmonoid.pairs_decomposed"] <= c["tensor.calls"]
    assert c["constructions.tensor_checked"] == c["constructions.prv_steps"] > 0
    assert c["charcalc.characters"] > 0 and c["weyl.orbit_rows"] >= c["weyl.orbit_calls"]


def test_tracer_reports_missing_layer_as_absent(monkeypatch):
    monkeypatch.delattr(weightlab.charcalc, "orbit")
    monkeypatch.delattr(weightlab.charcalc, "dominant_weights_below")
    plan = _cli_plan("character", SMALL["character"])
    tracer = Tracer()
    tracer.install()
    try:
        assert W.check(plan, plan.tasks[0], _outcome(plan, plan.tasks[0]), None) is None
    finally:
        tracer.restore()
    assert tracer.absent_layers() == ["weyl"]
    assert set(tracer.missing) == {"weightlab.charcalc.orbit",
                                   "weightlab.charcalc.dominant_weights_below"}
    assert tracer.self_s["charcalc.freudenthal"] > 0
    assert "charcalc.walk" not in tracer.self_s


def test_compare_verdicts():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, True)["verdict"] == "better"
    assert compare.verdict(base, [v * 1.3 for v in base], 0.1, True)["verdict"] == "worse"
    assert compare.verdict(base, [v * 1.3 for v in base], 0.1, False)["verdict"] == "better"
    assert compare.verdict(base, [v * 1.01 for v in base], 0.1, True)["verdict"] == "same"
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.5]
    assert compare.verdict(base, noisy, 0.1, True)["verdict"] == "unresolved"
    row = compare.verdict(base, [v * 0.8 for v in base], 0.1, True)
    assert row["win"] == 1.0 and row["pairs"] == 10


def test_compare_reads_recorded_result_sets(tmp_path, capsys):
    def result_set(path, scale):
        with open(path, "w") as fh:
            for i in range(4):
                for trace in (0, 1):
                    result = {"correct": True, "attempted": 100, "failed": 0,
                              "metrics": {"wall_s": {"value": scale * (1 + i / 100), "unit": "s"}}}
                    fh.write(json.dumps({"workload": "chain", "seed": i, "trace": trace,
                                         "result": result}) + "\n")
    result_set(tmp_path / "a.jsonl", 1.0)
    result_set(tmp_path / "b.jsonl", 2.0)
    assert len(compare.load(tmp_path / "a.jsonl")["chain"]) == 4
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")],
                        ROOT / "BENCHMARK.json") == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("chain")]
    assert len(rows) == 1 and rows[0].endswith("worse")


def test_child_environment_is_pinned(monkeypatch):
    monkeypatch.setenv("WEIGHTLAB_THREADS", "4")
    env = run.child_env()
    assert "WEIGHTLAB_THREADS" not in env
    assert env["PYTHONHASHSEED"] == "0" and env["OPENBLAS_NUM_THREADS"] == "1"


def test_benchmark_refuses_an_incomplete_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
