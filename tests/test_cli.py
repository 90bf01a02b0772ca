import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weightlab
from weightlab import cli
from weightlab.cli import run


def run_cli(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_process(*argv):
    """One CLI call in a fresh interpreter, with a timeout, so that a run
    that never returns fails instead of hanging the suite."""
    src = str(Path(weightlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "weightlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_decompose_clebsch_gordan(capsys):
    status, out, _ = run_cli(capsys, "decompose", "--type", "A1", "--lhs", "2", "--rhs", "2")
    assert status == 0
    payload = json.loads(out)
    assert payload["summands"] == [{"mult": 1, "weight": [0]},
                                   {"mult": 1, "weight": [2]},
                                   {"mult": 1, "weight": [4]}]


def test_decompose_wrong_arity_is_input_error(capsys):
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


@pytest.mark.parametrize("type_string, support, factors", [
    ("D4", "1,1", [1]), ("A1xA3", "2,1,2", [1, 2]), ("A1xA3", "2", [2])])
def test_enumerate_echoes_distinct_sorted_support(capsys, type_string, support, factors):
    status, out, _ = run_cli(capsys, "enumerate", "--type", type_string, "--support", support)
    assert status == 0
    payload = json.loads(out)
    assert payload["params"]["support"] == factors
    assert all(d["support"] == factors for d in payload["descriptors"])


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


@pytest.mark.parametrize("argv", [
    ("decompose", "--type", "A2", "--lhs=-1,2", "--rhs", "1,0"),
    ("character", "--type", "A2", "--weight=-1,2"),
    ("closure", "--type", "A2", "--generators=-1,2"),
])
def test_non_dominant_weight_is_refused_with_one_message(capsys, argv):
    # "=" keeps argparse from reading -1,2 as an option
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert json.loads(err.strip()) == {"error": "expected a dominant weight, got (-1, 2)",
                                       "kind": "input"}


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


@pytest.mark.parametrize("type_string, factor", [("A1xA2", "2"), ("B2xD3", "1")])
def test_construct_single_factor_default_omega(capsys, type_string, factor):
    # the default omega is ones on the chosen factor alone
    status, out, _ = run_cli(capsys, "construct", "--type", type_string,
                             "--factor", factor, "--check")
    assert status == 0
    payload = json.loads(out)
    assert payload["check"]["ok"] is True
    assert payload["check"]["tensor_checked"] == payload["check"]["prv_steps"]


def test_construct_refuses_a_shift_with_a_factor(capsys):
    status, out, err = run_cli(capsys, "construct", "--type", "A2", "--factor", "1",
                               "--mu", "5,0")
    assert (status, out) == (2, "")
    error = json.loads(err)
    assert error["kind"] == "usage"
    assert "--mu" in error["error"] and "--factor" in error["error"]


def test_construct_refuses_factor_zero(capsys):
    # factors are 1-based, so 0 is out of range, not "no factor"
    status, out, err = run_cli(capsys, "construct", "--type", "A1xA2", "--factor", "0")
    assert (status, out) == (2, "")
    error = json.loads(err)
    assert error["kind"] == "input" and "out of range 1..2" in error["error"]
    status, out, err = run_cli(capsys, "construct", "--type", "A1xA2", "--factor", "0",
                               "--mu", "1,0,0")
    assert (status, out) == (2, "")


def test_chain_check_walks_a_pruned_orbit(capsys):
    # an unpruned coefficient walks all 1,920 points of W(D5) per PRV step
    status, _, err = run_cli(capsys, "--stats", "construct", "--type", "D5", "--check")
    assert status == 0
    stats = json.loads(err)
    assert stats["prv_confirmed"] == 2
    assert stats["coefficient_points"] <= 2 * 1920 // 4


def test_chain_check_folds_only_points_that_count(capsys):
    # from rho, only the walked points on the orbit of mu pass the norm test,
    # and the walk pushes no point that fails it
    status, _, err = run_cli(capsys, "--stats", "construct", "--type", "D5", "--check")
    assert status == 0
    stats = json.loads(err)
    assert stats["coefficient_folds"] == stats["prv_confirmed"] == 2
    assert stats["coefficient_points"] == stats["coefficient_folds"]


def test_verify_closure_counts_are_pinned(capsys):
    # every pair of the 1,024 members counted once, each way it was settled
    status, _, err = run_cli(capsys, "--stats", "verify", "--type", "D5",
                             "--generators", "0,0,0,1,0", "--box", "3")
    assert status == 0
    stats = json.loads(err)
    assert {k: stats[k] for k in ("closure_pairs", "closure_settled", "closure_rechecked",
                                  "closure_coefficients", "closure_decomposed",
                                  "coefficient_points")} == {
        "closure_pairs": 524800, "closure_settled": 524291, "closure_rechecked": 413,
        "closure_coefficients": 94, "closure_decomposed": 2, "coefficient_points": 11410}


def test_chain_check_from_rho_reads_no_character(capsys):
    # every walked point that counts folds onto mu itself, so no partial
    # table, walk or character is built
    status, _, err = run_cli(capsys, "--stats", "construct", "--type", "D5", "--check")
    assert status == 0
    stats = json.loads(err)
    assert not any(key.startswith(("interval_", "character_", "below_with_depth_"))
                   for key in stats)


def test_prv_check_deterministic(capsys):
    args = ("prv-check", "--type", "B2", "--count", "25", "--seed", "11")
    status1, out1, _ = run_cli(capsys, *args)
    status2, out2, _ = run_cli(capsys, *args)
    assert status1 == status2 == 0
    assert out1 == out2
    assert json.loads(out1)["failures"] == []


@pytest.mark.parametrize("verb, option, value", [
    pytest.param(verb, option, value, id=f"{verb} {option} {value}")
    for verb, option, value in [("prv-check", "--count", "-3"), ("prv-check", "--max-coord", "-1"),
                                ("closure", "--box", "-1"), ("closure", "--box", "0"),
                                ("verify", "--box", "-1"), ("verify", "--box", "0")]])
def test_refuses_an_option_below_its_bound(capsys, verb, option, value):
    generators = () if verb == "prv-check" else ("--generators", "2")
    status, out, err = run_cli(capsys, verb, "--type", "A1", *generators, option, value)
    assert status == 2 and out == ""
    error = json.loads(err)
    assert error["kind"] == "usage"
    assert option in error["error"] and repr(value) in error["error"]


def test_prv_check_confirms_by_coefficient_above_the_weyl_cap(capsys):
    # |W(E8)| = 696,729,600; a decomposition of these factors expands past
    # the row cap, but each component asks for one coefficient
    status, out, _ = run_cli(capsys, "prv-check", "--type", "E8", "--count", "20",
                             "--max-coord", "1")
    assert status == 0
    assert json.loads(out)["failures"] == []


def test_prv_check_reads_intervals_below_the_walk_bound(capsys):
    # each coefficient reads the dominant weights between a folded point and
    # mu, far fewer than the 10^5 of mu's whole character
    status, out, _ = run_cli(capsys, "prv-check", "--type", "E7", "--count", "5")
    assert status == 0
    assert json.loads(out)["failures"] == []


def test_prv_check_zero_count(capsys):
    status, out, _ = run_cli(capsys, "prv-check", "--type", "A1", "--count", "0")
    assert status == 0 and json.loads(out)["checked"] == 0


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
    status, out, err = run_process("decompose", "--type", "A1", "--lhs", lhs, "--rhs", "1")
    assert status == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "input"


def test_verify_oversized_box_is_input_error():
    # a run that starts building the whole box (2.1e8 weights) would hang
    status, out, err = run_process("verify", "--type", "E8",
                                   "--generators", "1,0,0,0,0,0,0,0", "--box", "10")
    assert status == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "input"


def test_verify_settles_e8_pairs_by_coefficients():
    # a decomposition of (1,0,...,0) with itself expands a table of
    # 1,597,681 rows, past the row cap; each missing weight of Box(1) below
    # a flagged total asks for one coefficient instead
    status, out, _ = run_process("verify", "--type", "E8",
                                 "--generators", "1,0,0,0,0,0,0,0", "--box", "1")
    assert status == 0
    assert json.loads(out)["equal"] is True


@pytest.mark.parametrize("argv", [
    ("character", "--type", "E8", "--weight", "4,4,4,4,4,4,4,4"),
    ("decompose", "--type", "A2", "--lhs", "600,600", "--rhs", "600,600"),
])
def test_walk_bound_refuses_in_the_cli(argv):
    # both hold more than 10^5 dominant weights below the top, and are
    # refused before any walk, as their coordinates promise more: 5^8 for
    # E8 (4,...,4) and 120,401 for A2 (600,600)
    status, out, err = run_process(*argv)
    assert (status, out) == (2, "")
    error = json.loads(err)
    assert error["kind"] == "input" and "dominant weights" in error["error"]


@pytest.mark.parametrize("lattice", [
    '{"mode": "subgroup", "generators": [2]}',
    '{"mode": "subgroup", "generators": [[1.5]]}',
    '{"mode": "subgroup", "generators": [[true]]}',
])
def test_malformed_lattice_json_is_usage_error(lattice):
    # exit 1 is reserved for verification failures; a generator that is no
    # list of integers is an input error, neither a traceback nor truncated
    status, out, err = run_process("closure", "--type", "A3", "--lattice", lattice,
                                   "--generators", "0,1,0", "--box", "2")
    assert status == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "usage"


# sha256 of stdout for the README's CLI block and two text-format calls
README_DIGESTS = [
    (("decompose", "--type", "A1", "--lhs", "2", "--rhs", "2"),
     "712a258ded8a8ebfadc3101418e79c37cda174ac139ed1de8070b73c747e6580"),
    (("character", "--type", "A2", "--weight", "1,1"),
     "25a480673b04fbe17efcc08582688d247f541913eda079eba8efffd2bf4992a3"),
    (("closure", "--type", "A1", "--generators", "2", "--box", "4"),
     "ac469d70f62228f7eea1eb9ff41e1d50e021ca1d3d54ffbab361a41eb80ae711"),
    (("classify", "--type", "A1xA1", "--generators", "1|1"),
     "329b482f5c06f5de597ee30379ff20f2bd2e5d3602cefc9b38cdb025cf09707f"),
    (("enumerate", "--type", "D4", "--support", "all"),
     "a1e59cdea6b4368ef62fa188ecd609b34b271d7dfbc2c1ef2db6b990d1ba34f0"),
    (("verify", "--type", "A2", "--generators", "1,0", "--box", "4"),
     "bb13894a598592bc2c216951515b7ae9b723750cb299ea67d9a1bf65355485fa"),
    (("construct", "--type", "D5", "--check"),
     "93950b80446b0f599048192e8eea1e630fef238720cf8ba632e341871e20f9cd"),
    (("prv-check", "--type", "B2", "--count", "100", "--seed", "7"),
     "c7a559d8cf671ce03e9101c87ef1be63265b4471b435d9d1c76bc5b8c1db2ce2"),
    (("--format", "text", "character", "--type", "A2", "--weight", "1,1"),
     "e7d1a7bd9d2483403087f7c40f63b705243abc440d7e9292ba31567fcebd5a10"),
    (("--format", "text", "construct", "--type", "A3", "--check"),
     "e1e788db23a28ef37a528b5209024ea509f8637d4b0c81a64b3ab38762d38421"),
]


@pytest.mark.parametrize("argv, digest", README_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in README_DIGESTS])
def test_readme_commands_are_byte_stable(capsys, argv, digest):
    status, out, err = run_cli(capsys, *argv)
    assert status == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [argv for argv, _ in README_DIGESTS[:8]],
                         ids=[" ".join(argv) for argv, _ in README_DIGESTS[:8]])
def test_stats_goes_to_stderr_and_leaves_stdout_alone(capsys, monkeypatch, argv):
    status, out, err = run_cli(capsys, *argv)
    built = []
    build = cli.build_root_datum
    monkeypatch.setattr(cli, "build_root_datum", lambda *a: built.append(build(*a)) or built[-1])
    assert run_cli(capsys, "--stats", *argv) == (
        status, out, err + json.dumps(built[0].stats, sort_keys=True) + "\n")


def test_stats_count_one_miss_per_memo_entry(capsys, monkeypatch):
    built = []
    build = cli.build_root_datum
    monkeypatch.setattr(cli, "build_root_datum", lambda *a: built.append(build(*a)) or built[-1])
    assert run_cli(capsys, "--stats", "verify", "--type", "A2", "--generators", "1,0",
                   "--box", "4")[0] == 0
    (datum,) = built
    assert set(datum.memo) == {"parabolic_order", "root_strings", "below_with_depth",
                               "character", "weyl_dimension", "expanded_table", "coset_region",
                               "coset_images"}
    misses = {key[:-len("_misses")] for key in datum.stats if key.endswith("_misses")}
    assert misses == set(datum.memo)
    for name, values in datum.memo.items():
        assert datum.stats[name + "_misses"] == len(values), name


def test_enumerate_support_error_names_the_option(capsys):
    _, _, err = run_cli(capsys, "enumerate", "--type", "D4", "--support", "1,x")
    assert "--support" in json.loads(err)["error"] and "1,x" in json.loads(err)["error"]


# one good call per verb on A1; each error case below edits one option
GOOD_OPTIONS = {
    "decompose": {"--lhs": "2", "--rhs": "2"},
    "character": {"--weight": "1"},
    "closure": {"--generators": "2"},
    "classify": {"--generators": "2"},
    "enumerate": {"--support": "all"},
    "verify": {"--generators": "2"},
    "construct": {"--omega": "1", "--mu": "0"},
    "prv-check": {"--count": "5"},
}
WEIGHT_OPTIONS = {"decompose": ("--lhs", "--rhs"), "character": ("--weight",),
                  "closure": ("--generators",), "classify": ("--generators",),
                  "verify": ("--generators",), "construct": ("--omega", "--mu")}


def _error_cases():
    for verb, good in GOOD_OPTIONS.items():
        edits = [("--lattice", "bogus", "usage"),
                 ("--lattice", '{"mode": "bogus"}', "usage"),
                 ("--type", "Q7", "input")]
        for option in WEIGHT_OPTIONS.get(verb, ()):
            edits += [(option, "1,x", "usage"), (option, "1,2", "input")]
        for option, value, kind in edits:
            opts = {"--type": "A1", **good, option: value}
            argv = [verb] + [x for item in opts.items() for x in item]
            yield pytest.param(argv, kind, id=f"{verb} {option} {value}")
    yield pytest.param(["enumerate", "--type", "D4", "--support", "1,x"], "usage",
                       id="enumerate --support 1,x")


@pytest.mark.parametrize("argv, kind", list(_error_cases()))
def test_error_kind_per_verb(capsys, argv, kind):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == kind


# calls whose arguments differ from the call before in a default, the
# format, or an error raised while parsing
SEQUENCE = [
    ("closure", "--type", "A1", "--generators", "2", "--box", "6"),
    ("closure", "--type", "A1", "--generators", "2"),
    ("--format", "text", "character", "--type", "A2", "--weight", "1,1"),
    ("character", "--type", "A2", "--weight", "1,1"),
    ("decompose", "--type", "A1", "--lhs", "2"),
    ("decompose", "--type", "A1", "--lhs", "2", "--rhs", "2"),
    ("decompose", "--type", "A1", "--lattice", "bogus", "--lhs", "x", "--rhs", "2"),
    ("construct", "--type", "A2", "--check"),
]


def test_repeated_runs_match_runs_alone(capsys):
    alone = [run_process(*argv) for argv in SEQUENCE]
    in_process = [run_cli(capsys, *argv) for argv in SEQUENCE]
    assert in_process == alone


def test_repeated_runs_share_one_parser(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    statuses = [run(list(argv)) for argv in SEQUENCE]
    capsys.readouterr()
    assert statuses == [0, 0, 0, 0, 2, 0, 2, 0]
    assert built == []
