import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weightlab
from weightlab.cli import run


def run_cli(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_decompose_clebsch_gordan(capsys):
    status, out, _ = run_cli(capsys, "decompose", "--type", "A1", "--lhs", "2", "--rhs", "2")
    assert status == 0
    payload = json.loads(out)
    assert payload["summands"] == [{"mult": 1, "weight": [0]},
                                   {"mult": 1, "weight": [2]},
                                   {"mult": 1, "weight": [4]}]


def test_decompose_wrong_arity_is_usage_error(capsys):
    status, _, err = run_cli(capsys, "decompose", "--type", "A1", "--lhs", "1,2", "--rhs", "2")
    assert status == 2
    assert json.loads(err.strip())["kind"] == "input"


def test_unknown_type_string(capsys):
    status, _, err = run_cli(capsys, "character", "--type", "Z3", "--weight", "1")
    assert status == 2
    assert "error" in json.loads(err.strip())


def test_missing_required_option(capsys):
    status, _, err = run_cli(capsys, "decompose", "--type", "A1", "--lhs", "2")
    assert status == 2
    assert json.loads(err.strip())["kind"] == "usage"


def test_enumerate_counts(capsys):
    status, out, _ = run_cli(capsys, "enumerate", "--type", "D4", "--support", "all")
    assert status == 0
    assert json.loads(out)["count"] == 5


def test_character_output_sorted(capsys):
    status, out, _ = run_cli(capsys, "character", "--type", "A2", "--weight", "1,1")
    assert status == 0
    payload = json.loads(out)
    weights = [e["weight"] for e in payload["entries"]]
    assert weights == sorted(weights)
    assert payload["dimension"] == 8


def test_closure_and_verify(capsys):
    status, out, _ = run_cli(capsys, "closure", "--type", "A1",
                             "--generators", "2", "--box", "4")
    assert status == 0
    assert json.loads(out)["members"] == [[0], [2], [4]]
    status, out, _ = run_cli(capsys, "verify", "--type", "A2",
                             "--generators", "1,0", "--box", "4")
    assert status == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["missing_from_prediction"] == []


def test_generator_outside_box(capsys):
    status, _, err = run_cli(capsys, "closure", "--type", "A1",
                             "--generators", "9", "--box", "4")
    assert status == 2
    assert "box" in json.loads(err.strip())["error"]


def test_pipe_separator_accepted(capsys):
    status, out, _ = run_cli(capsys, "classify", "--type", "A1xA1",
                             "--generators", "1|1")
    assert status == 0
    payload = json.loads(out)
    assert payload["descriptor"]["support"] == [1, 2]


def test_construct_check(capsys):
    status, out, _ = run_cli(capsys, "construct", "--type", "D5", "--check")
    assert status == 0
    payload = json.loads(out)
    assert payload["final"] == [4, 4, 8, 0, 0]
    assert payload["check"] == {"ok": True, "prv_steps": 2, "tensor_checked": 2,
                                "failures": []}


def test_construct_refuses_the_removed_budget_flag(capsys):
    # the chain check takes no budget, so this flag is a usage error
    status, out, err = run_cli(capsys, "construct", "--type", "D5", "--check",
                               "--tensor-budget", "5")
    assert status == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "usage"


def test_construct_single_factor(capsys):
    status, out, _ = run_cli(capsys, "construct", "--type", "A2", "--factor", "1",
                             "--omega", "1,1", "--check")
    assert status == 0
    payload = json.loads(out)
    assert payload["check"]["ok"] is True
    assert payload["check"]["tensor_checked"] == payload["check"]["prv_steps"]


def test_prv_check_deterministic(capsys):
    args = ("prv-check", "--type", "B2", "--count", "25", "--seed", "11")
    status1, out1, _ = run_cli(capsys, *args)
    status2, out2, _ = run_cli(capsys, *args)
    assert status1 == status2 == 0
    assert out1 == out2
    assert json.loads(out1)["failures"] == []


def test_adjoint_lattice_flag(capsys):
    status, out, _ = run_cli(capsys, "closure", "--type", "A1", "--lattice", "adjoint",
                             "--generators", "2", "--box", "4")
    assert status == 0
    assert json.loads(out)["members"] == [[0], [2], [4]]
    status, _, err = run_cli(capsys, "closure", "--type", "A1", "--lattice", "adjoint",
                             "--generators", "1", "--box", "4")
    assert status == 2


def test_subgroup_lattice_json(capsys):
    status, out, _ = run_cli(capsys, "closure", "--type", "A3",
                             "--lattice", '{"mode": "subgroup", "generators": [[2]]}',
                             "--generators", "0,1,0", "--box", "2")
    assert status == 0
    members = json.loads(out)["members"]
    assert [0, 1, 0] in members
    status, _, err = run_cli(capsys, "closure", "--type", "A3",
                             "--lattice", '{"mode": "subgroup", "generators": [[2]]}',
                             "--generators", "1,0,0", "--box", "2")
    assert status == 2  # omega_1 is not in the index-2 lattice


def test_text_format(capsys):
    status, out, _ = run_cli(capsys, "--format", "text", "character",
                             "--type", "A1", "--weight", "2")
    assert status == 0
    assert "dimension: 3" in out


@pytest.mark.parametrize("lhs", ["9223372036854775806", "9223372036854775808"])
def test_decompose_out_of_int64_range_is_input_error(lhs):
    # a subprocess with a timeout, so that a fold that never returns fails
    src = str(Path(weightlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "weightlab.cli", "decompose", "--type", "A1",
                           "--lhs", lhs, "--rhs", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "input"


def test_verify_oversized_box_is_input_error():
    # a subprocess with a timeout, so that a run that starts building the
    # whole box (2.1e8 weights) fails instead of hanging the suite
    src = str(Path(weightlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "weightlab.cli", "verify", "--type", "E8",
                           "--generators", "1,0,0,0,0,0,0,0", "--box", "10"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "input"


@pytest.mark.parametrize("lattice", [
    '{"mode": "subgroup", "generators": [2]}',
    '{"mode": "subgroup", "generators": [[1.5]]}',
    '{"mode": "subgroup", "generators": [[true]]}',
])
def test_malformed_lattice_json_is_usage_error(lattice):
    # exit 1 is reserved for verification failures; a generator that is no
    # list of integers is an input error, neither a traceback nor truncated
    src = str(Path(weightlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "weightlab.cli", "closure", "--type", "A3",
                           "--lattice", lattice, "--generators", "0,1,0", "--box", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "usage"
