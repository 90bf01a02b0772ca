import random

import pytest

from weightlab import weyl
from weightlab import (Box, ConstructionError, MonoidSpec, build_root_datum, check_prv_chain,
                       classify, factor_antifixed_sequence, predicted_members,
                       smallest_dominating_multiple, support_growing_step,
                       support_regular_weight, w0_action, w0_antifixed_weight)
from weightlab.constructions import ConstructionTrace, TraceStep
from weightlab.rootdata import RootDataError, wneg
from conftest import get_datum
from oracles import minus_one_type

RANK_LE_6 = (["A%d" % n for n in range(1, 7)]
             + ["B%d" % n for n in range(2, 7)]
             + ["C%d" % n for n in range(2, 7)]
             + ["D%d" % n for n in range(3, 7)]
             + ["E6", "F4", "G2"])


def test_support_growth_examples():
    a2 = get_datum("A2")
    assert support_growing_step(a2, (1, 0)) == (1, 1)
    a3 = get_datum("A3")
    assert support_growing_step(a3, (0, 1, 0)) == (1, 1, 1)
    with pytest.raises(ConstructionError):
        support_growing_step(a2, (1, 1))
    with pytest.raises(ConstructionError):
        support_growing_step(a2, (0, 0))


def test_support_growth_random():
    rng = random.Random(41)
    types = [t for t in RANK_LE_6 if int(t[1]) <= 5 and t not in ("A1",)]
    for ts in types:
        datum = get_datum(ts)
        done = 0
        while done < 30:
            lam = tuple(rng.randrange(3) for _ in range(datum.rank))
            supp = {i for i, x in enumerate(lam) if x > 0}
            if not supp or all(
                    all(n in supp for n in datum.neighbors[j]) for j in supp):
                continue
            mu = support_growing_step(datum, lam)
            assert all(x >= 0 for x in mu)
            assert {i for i, x in enumerate(mu) if x > 0} > supp
            done += 1


def test_support_regular_weight():
    a2 = get_datum("A2")
    trace = support_regular_weight(a2, (1, 0))
    assert trace.final == (1, 1)
    assert sum(1 for s in trace.steps if s.kind == "prv") == 1
    a3 = get_datum("A3")
    trace = support_regular_weight(a3, (1, 0, 0))
    assert all(x > 0 for x in trace.final)
    assert sum(1 for s in trace.steps if s.kind == "prv") <= 2
    a1 = get_datum("A1")
    trace = support_regular_weight(a1, (3,))
    assert trace.final == (3,) and len(trace.steps) == 1
    # growth confined to the supported factors
    prod = get_datum("A2xA1")
    trace = support_regular_weight(prod, (1, 0, 0))
    assert trace.final[:2] == (1, 1) and trace.final[2] == 0


def test_factor_sequence_minus_one_types():
    for ts in ["A1", "B2", "B4", "C3", "D4", "D6", "F4", "G2"]:
        datum = get_datum(ts)
        rho = datum.weyl_vector
        trace = factor_antifixed_sequence(datum, 1, rho)
        assert len(trace.steps) == 1
        assert trace.final == rho
        assert w0_action(datum, rho) == wneg(rho)


@pytest.mark.parametrize("type_string", [f"A{n}" for n in range(1, 9)]
                         + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(2, 9)]
                         + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8", "F4", "G2"])
def test_diagram_involution_is_trivial_on_the_minus_one_types(type_string):
    datum = get_datum(type_string)
    (family, rank), = datum.ctype.factors
    fixes_every_node = datum.diagram_involution == tuple(range(rank))
    assert fixes_every_node == minus_one_type(family, rank)
    # on those types the recipe adds no step to the generator (A7 and A8
    # are left out: their recipe from rho takes (n+1)! - 1 sums)
    if type_string not in ("A7", "A8"):
        trace = factor_antifixed_sequence(datum, 1, datum.weyl_vector)
        assert (len(trace.steps) == 1) == minus_one_type(family, rank)


def test_factor_sequence_d5_example():
    d5 = get_datum("D5")
    trace = factor_antifixed_sequence(d5, 1, (1, 1, 1, 1, 1))
    weights = [s.weight for s in trace.steps]
    assert weights == [(1, 1, 1, 1, 1), (2, 2, 3, 2, 0), (4, 4, 8, 0, 0)]
    assert w0_action(d5, trace.final) == wneg(trace.final)
    assert check_prv_chain(d5, trace).ok


def test_factor_sequence_e6():
    e6 = get_datum("E6")
    trace = factor_antifixed_sequence(e6, 1, (1,) * 6)
    assert trace.steps[1].weight == (2, 2, 2, 2, 3, 0)
    final = trace.final
    assert all(x == 0 for i, x in enumerate(final) if i not in (1, 3))
    assert final[1] > 0 and final[3] > 0
    assert w0_action(e6, final) == wneg(final)


def test_factor_sequence_a_types():
    for n in range(2, 7):
        datum = get_datum(f"A{n}")
        trace = factor_antifixed_sequence(datum, 1, datum.weyl_vector)
        final = trace.final
        assert final[0] == final[-1] > 0
        assert all(x == 0 for x in final[1:-1])
        assert w0_action(datum, final) == wneg(final)
        for step in trace.steps:
            assert any(step.weight)


def test_a_type_staircase_support_claim():
    # the i-th collapse is supported on the last fundamental weights only,
    # with strictly positive listed coefficients
    for n in range(2, 7):
        datum = get_datum(f"A{n}")
        trace = factor_antifixed_sequence(datum, 1, datum.weyl_vector)
        prv_weights = [s.weight for s in trace.steps if s.kind == "prv"]
        collapses = []
        for w in prv_weights:
            lead = next(i for i, x in enumerate(w) if x > 0)
            if all(x > 0 for x in w[lead:]):
                collapses.append((lead, w))
        stages = {}
        for lead, w in collapses:
            stages[lead] = w
        for i in range(1, n):
            assert i in stages, f"A{n} missing stage {i}"


def test_factor_sequence_preconditions():
    a3 = get_datum("A3")
    with pytest.raises(ConstructionError):
        factor_antifixed_sequence(a3, 1, (1, 0, 1))  # not regular
    prod = get_datum("A2xA1")
    with pytest.raises(ConstructionError):
        factor_antifixed_sequence(prod, 1, (1, 1, 1))  # supported outside factor
    # a factor index that is not an int: True used to pass as 1, 1.0 raised TypeError
    for factor in (True, 1.0):
        with pytest.raises(RootDataError, match="is not an int"):
            factor_antifixed_sequence(get_datum("A1xA2"), factor, (1, 0, 0))


def test_chain_verification_small_types_full_tensor():
    for ts in ["A2", "A3", "D3"]:
        datum = get_datum(ts)
        trace = factor_antifixed_sequence(datum, 1, datum.weyl_vector)
        report = check_prv_chain(datum, trace)
        assert report.ok
        assert report.tensor_checked == report.prv_steps


def test_chain_verification_detects_corruption():
    a2 = get_datum("A2")
    trace = factor_antifixed_sequence(a2, 1, (1, 1))
    bad_steps = list(trace.steps)
    for idx, step in enumerate(bad_steps):
        if step.kind == "prv":
            alpha1 = a2.cartan_columns[0]
            bad = tuple(x + a for x, a in zip(step.weight, alpha1))
            bad_steps[idx] = TraceStep(bad, "prv", left=step.left,
                                       word=step.word, right=step.right)
            break
    corrupted = ConstructionTrace(tuple(bad_steps))
    assert not check_prv_chain(a2, corrupted).ok


def test_chain_verification_ignores_the_weyl_cap(monkeypatch):
    d5 = get_datum("D5")
    trace = factor_antifixed_sequence(d5, 1, d5.weyl_vector)
    report = check_prv_chain(d5, trace)
    assert report.ok and report.prv_steps == report.tensor_checked == 2
    monkeypatch.setattr(weyl, "MAX_WEYL_ELEMENTS", d5.weyl_order - 1)
    assert check_prv_chain(d5, trace) == report
    # a corrupted step still fails the replay
    steps = list(trace.steps)
    steps[-1] = TraceStep((4, 4, 6, 1, 1), "prv", left=steps[-1].left,
                          word=steps[-1].word, right=steps[-1].right)
    report = check_prv_chain(d5, ConstructionTrace(tuple(steps)))
    assert not report.ok and "replay" in report.failures[0]


@pytest.mark.parametrize("type_string", ["A2", "A1xA2", "A2xA2", "A4", "D7"])
def test_chain_from_rho_confirms_every_prv_step(type_string):
    # fresh data, so that the counts start at zero; |W(D7)| = 322,560.  Each
    # coefficient walks one orbit point, the product types included
    datum = build_root_datum(type_string)
    trace = w0_antifixed_weight(datum, datum.weyl_vector, (0,) * datum.rank)
    report = check_prv_chain(datum, trace)
    assert report.ok and report.prv_steps > 0
    assert datum.stats["prv_confirmed"] == report.tensor_checked == report.prv_steps
    assert datum.stats["coefficient_points"] == report.prv_steps


def test_chain_verification_single_generator():
    a2 = get_datum("A2")
    trace = ConstructionTrace((TraceStep((2, 1), "generator"),))
    assert check_prv_chain(a2, trace).ok


def test_chain_verification_malformed_indices():
    a2 = get_datum("A2")
    trace = ConstructionTrace((
        TraceStep((1, 1), "generator"),
        TraceStep((2, 2), "sum", left=0, right=5),
    ))
    with pytest.raises(ValueError):
        check_prv_chain(a2, trace).ok


GEN = TraceStep((1, 1), "generator")


@pytest.mark.parametrize("steps, bad", [
    pytest.param((GEN, TraceStep((2, 2), "prv", left=0, right=0)), 1, id="prv-without-word"),
    pytest.param((GEN, TraceStep((2, 2), "prv", left=0, word=(3,), right=0)), 1,
                 id="letter-above-rank"),
    pytest.param((GEN, TraceStep((2, 2), "prv", left=0, word=(0,), right=0)), 1,
                 id="letter-zero"),
    pytest.param((GEN, TraceStep((2, 2), "prv", left=0, word=(True,), right=0)), 1,
                 id="letter-bool"),
    pytest.param((GEN, TraceStep((2, 2, 0), "sum", left=0, right=0)), 1, id="sum-of-rank-3"),
    pytest.param((GEN, TraceStep((2, 2.0), "sum", left=0, right=0)), 1, id="float-coordinate"),
    # a generator of the wrong rank plus a sum once replayed as ok
    pytest.param((TraceStep((1, 1, 1), "generator"), TraceStep((2, 2, 2), "sum", left=0, right=0)),
                 0, id="generator-of-rank-3"),
])
def test_chain_verification_refuses_malformed_steps(steps, bad):
    with pytest.raises(ValueError, match=f"^step {bad}:"):
        check_prv_chain(get_datum("A2"), ConstructionTrace(steps))


@pytest.mark.parametrize("child", [
    {"weight": [-2, 4], "kind": "sum", "left": 0, "right": 0},
    {"weight": [0, 3], "kind": "prv", "left": 0, "right": 0, "word": [1]},
], ids=["sum", "prv"])
def test_chain_verification_refuses_a_step_outside_the_dominant_cone(child):
    # a sum of a non-dominant generator once replayed as ok, and a PRV child
    # that matches its replay once raised without naming a step
    trace = ConstructionTrace.from_json(
        {"steps": [{"weight": [-1, 2], "kind": "generator"}, child]})
    with pytest.raises(ValueError, match="^step 0: expected a dominant weight"):
        check_prv_chain(get_datum("A2"), trace)


def test_factor_recipes_at_block_offsets():
    # recipes on a later factor must be the pure recipe shifted into its block
    mixed = get_datum("B2xD3")
    shifted = factor_antifixed_sequence(mixed, 2, (0, 0, 1, 1, 1))
    pure = factor_antifixed_sequence(get_datum("D3"), 1, (1, 1, 1))
    assert [s.weight[2:] for s in shifted.steps] == [s.weight for s in pure.steps]
    assert all(s.weight[:2] == (0, 0) for s in shifted.steps)
    assert check_prv_chain(mixed, shifted).ok

    tall = get_datum("A1xE6")
    trace = w0_antifixed_weight(tall, (1,) * 7, (0,) * 7)
    final = trace.final
    assert w0_action(tall, final) == wneg(final)
    assert final[0] > 0  # first factor scaled along, never zeroed
    assert all(x == 0 for i, x in enumerate(final[1:]) if i not in (1, 3))


def test_w0_antifixed_single_factor_products():
    aa = get_datum("A1xA1")
    trace = w0_antifixed_weight(aa, (1, 1), (0, 0))
    assert trace.final == (1, 1)
    mixed = get_datum("A2xB2")
    trace = w0_antifixed_weight(mixed, (1, 1, 1, 1), (0, 0, 0, 0))
    eta = trace.final
    assert w0_action(mixed, eta) == wneg(eta)
    assert eta[0] == eta[1] > 0  # collapsed first factor is symmetric
    assert eta[2] > 0 and eta[3] > 0  # second factor untouched up to scaling
    assert check_prv_chain(mixed, trace).ok


def test_w0_antifixed_with_shift():
    d5 = get_datum("D5")
    mu = (1, 1, 1, 1, 1)
    trace = w0_antifixed_weight(d5, (1, 1, 1, 1, 1), mu)
    assert w0_action(d5, (4, 4, 8, 0, 0)) == (-4, -4, -8, 0, 0)
    main = [s.weight for s in trace.steps[:3]]
    assert main == [(1, 1, 1, 1, 1), (2, 2, 3, 2, 0), (4, 4, 8, 0, 0)]
    shadows = [s.weight for s in trace.steps[3:]]
    assert shadows[0] == (2, 2, 2, 2, 2)
    assert all(all(x >= 0 for x in w) for w in shadows)
    assert check_prv_chain(d5, trace).ok


def test_w0_antifixed_preconditions():
    aa = get_datum("A1xA1")
    with pytest.raises(ConstructionError):
        w0_antifixed_weight(aa, (1, 0), (0, 1))  # shift outside support
    a2 = get_datum("A2")
    with pytest.raises(ConstructionError):
        w0_antifixed_weight(a2, (1, 0), (0, 0))  # not regular on support


def test_trace_weights_stay_in_predicted_monoid():
    for ts, gens in [("A2", ((1, 0),)), ("A2xA1", ((1, 0, 1),))]:
        datum = get_datum(ts)
        spec = MonoidSpec(datum, gens)
        desc = classify(spec)
        omega_trace = support_regular_weight(datum, gens[0])
        trace = w0_antifixed_weight(datum, omega_trace.final, (0,) * datum.rank)
        box = Box(max(max(s.weight) for s in trace.steps) + 1)
        members = predicted_members(datum, desc, box)
        for step in omega_trace.steps:
            assert step.weight in members
        for step in trace.steps:
            assert step.weight in members


def test_smallest_dominating_multiple():
    a2 = get_datum("A2")
    # the lowered simple root -alpha_1 = (-2, 1) forces two copies of rho
    assert smallest_dominating_multiple(a2, (1, 1), (1, 1)) == 2
    m = smallest_dominating_multiple(a2, (3, 3), (1, 1))
    assert m >= 1
    from weightlab import expand_character, character
    from weightlab.rootdata import wadd
    expanded = expand_character(a2, character(a2, (3, 3)))
    target = (m, m)
    assert all(all(x >= 0 for x in wadd(mu, target)) for mu in expanded)
    if m > 1:
        smaller = (m - 1, m - 1)
        assert any(any(x < 0 for x in wadd(mu, smaller)) for mu in expanded)


@pytest.mark.parametrize("type_string,lam,omega", [
    ("A1", (1,), (-1,)),
    ("A2", (1, 0), (-1, 2)),
])
def test_smallest_dominating_multiple_refuses_a_non_dominant_omega(type_string, lam, omega):
    # no multiple of a non-dominant omega need dominate the weights of
    # L(lam): on A2, (-1, 1) + (-1, 2) = (-2, 3)
    with pytest.raises(ValueError, match="expected a dominant weight"):
        smallest_dominating_multiple(get_datum(type_string), lam, omega)


def test_trace_json_round_trip():
    import json
    d5 = get_datum("D5")
    trace = factor_antifixed_sequence(d5, 1, (1, 1, 1, 1, 1))
    payload = trace.to_json()
    assert payload["final"] == [4, 4, 8, 0, 0]
    assert payload["steps"][0]["kind"] == "generator"
    assert payload["steps"][1]["word"] == [5]
    # serialized traces replay bit-exactly
    parsed = ConstructionTrace.from_json(json.loads(json.dumps(payload)))
    assert parsed == trace
    assert check_prv_chain(d5, parsed).ok


@pytest.mark.parametrize("payload", [
    {"steps": 3}, [1], {}, {"steps": []}, {"steps": [{"kind": "generator"}]},
    {"steps": [{"weight": [1, 0]}]}, {"steps": [3]},
    {"steps": [{"weight": [1, 0], "kind": 7}]}])
def test_trace_from_json_refuses_malformed_shapes(payload):
    with pytest.raises(RootDataError):
        ConstructionTrace.from_json(payload)
