import tracemalloc
from collections import Counter

import numpy as np
import pytest

from weightlab import (Box, LatticeSpec, MonoidSpec, RootDataError, bounded_perfect_closure,
                       build_root_datum, classify, component_support, dominant_weights_below,
                       enumerate_perfect, is_perfect_in_box, is_saturated_monoid,
                       predicted_members, root_coordinates, verify_classification)
from weightlab import latticecalc, perfectmonoid
from weightlab.tensor import _check_coefficient
from conftest import get_datum
from oracles import pairwise_perfect_closure


def test_component_support_examples():
    datum = get_datum("A1xA2")
    assert component_support(MonoidSpec(datum, ((1, 0, 0),))) == {1}
    assert component_support(MonoidSpec(datum, ((1, 0, 0), (0, 1, 1)))) == {1, 2}
    assert component_support(MonoidSpec(datum, ())) == frozenset()


def test_bounded_closure_rank_one():
    a1 = get_datum("A1")
    assert bounded_perfect_closure(MonoidSpec(a1, ((1,),)), Box(4)) == \
        {(0,), (1,), (2,), (3,), (4,)}
    assert bounded_perfect_closure(MonoidSpec(a1, ((2,),)), Box(4)) == \
        {(0,), (2,), (4,)}
    assert bounded_perfect_closure(MonoidSpec(a1, ()), Box(3)) == {(0,)}


def test_closure_generator_must_fit_box():
    a1 = get_datum("A1")
    with pytest.raises(ValueError):
        bounded_perfect_closure(MonoidSpec(a1, ((5,),)), Box(4))


@pytest.mark.parametrize("bound", [2.5, True, "3"])
def test_box_refuses_a_bound_that_is_not_an_int(bound):
    with pytest.raises(ValueError):
        Box(bound)


def test_verify_builds_one_region_for_both_sides():
    datum = build_root_datum("A2", LatticeSpec("sc"))
    verify_classification(MonoidSpec(datum, ((1, 0),)), Box(4))
    assert datum.stats["coset_region_misses"] == datum.stats["coset_region_hits"] == 1


def test_region_of_many_small_factors_stays_small():
    # A1^12 at box 1: 4,096 weights in 4,096 classes of P/Q; a table indexed
    # by pairs of classes would take gigabytes
    n = 12
    datum = build_root_datum("x".join(["A1"] * n), LatticeSpec("sc"))
    spec = MonoidSpec(datum, ((1,) + (0,) * (n - 1),))
    datum.cocenter
    tracemalloc.start()
    try:
        verify_classification(spec, Box(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_closure_meeting_many_classes_stays_small():
    # A1^9 at box 1 with every fundamental weight as a generator: the
    # closure fills the box, 512 members in 512 classes, so anything kept
    # per pair of classes met grows to 10^5 entries
    n = 9
    datum = build_root_datum("x".join(["A1"] * n), LatticeSpec("sc"))
    spec = MonoidSpec(datum, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    datum.cocenter
    tracemalloc.start()
    try:
        members = bounded_perfect_closure(spec, Box(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(members) == 2 ** n
    assert peak < 4 * 2 ** 20


def test_is_perfect_in_box_examples():
    a1 = get_datum("A1")
    assert is_perfect_in_box(a1, {(0,), (2,), (4,)}, Box(4))
    assert not is_perfect_in_box(a1, {(0,), (2,)}, Box(4))
    assert is_perfect_in_box(a1, {(0,)}, Box(4))
    with pytest.raises(ValueError):
        is_perfect_in_box(a1, {(2,)}, Box(4))


def test_closure_output_is_perfect_and_inside_prediction():
    for ts, gens in [("A2", ((1, 0),)), ("A2", ((1, 1), (3, 0))),
                     ("B2", ((0, 1),)), ("A1xA1", ((1, 1),))]:
        datum = get_datum(ts)
        spec = MonoidSpec(datum, gens)
        box = Box(4)
        closure = bounded_perfect_closure(spec, box)
        assert is_perfect_in_box(datum, closure, box)
        predicted = predicted_members(datum, classify(spec), box)
        assert closure <= predicted


def test_classify_examples():
    a2 = get_datum("A2")
    desc = classify(MonoidSpec(a2, ((1, 0),)))
    assert desc.support == {1}
    assert desc.subgroup.order == 3
    desc = classify(MonoidSpec(a2, ((1, 1), (3, 0))))
    assert desc.support == {1}
    assert desc.subgroup.order == 1
    aa = get_datum("A1xA1")
    desc = classify(MonoidSpec(aa, ((1, 1),)))
    assert desc.support == {1, 2}
    assert desc.subgroup.members == ((0, 0), (1, 1))


def test_predicted_members_examples():
    a2 = get_datum("A2")
    full = classify(MonoidSpec(a2, ((1, 0),)))
    assert len(predicted_members(a2, full, Box(2))) == 9
    trivial = classify(MonoidSpec(a2, ((1, 1),)))
    assert predicted_members(a2, trivial, Box(2)) == {(0, 0), (1, 1), (2, 2)}
    empty = classify(MonoidSpec(a2, ()))
    assert predicted_members(a2, empty, Box(3)) == {(0, 0)}


def test_predicted_members_are_perfect():
    for ts in ["A2", "B2", "A1xA1", "A3"]:
        datum = get_datum(ts)
        for desc in enumerate_perfect(datum, range(1, datum.n_factors + 1)):
            members = predicted_members(datum, desc, Box(4))
            assert is_perfect_in_box(datum, members, Box(4))


def test_verification_examples():
    a2 = get_datum("A2")
    rep = verify_classification(MonoidSpec(a2, ((1, 0), (0, 1))), Box(3))
    assert rep.equal
    a1 = get_datum("A1")
    rep = verify_classification(MonoidSpec(a1, ((2,),)), Box(6))
    assert rep.equal
    assert rep.descriptor.subgroup.order == 1
    d4 = get_datum("D4")
    rep = verify_classification(MonoidSpec(d4, ((1, 0, 0, 0),)), Box(2))
    assert not rep.missing_from_prediction
    assert rep.equal


def test_enumerate_perfect_counts():
    assert len(enumerate_perfect(get_datum("A2"), (1,))) == 2
    assert len(enumerate_perfect(get_datum("D4"), (1,))) == 5
    assert len(enumerate_perfect(get_datum("A1xA1"), (1,))) == 2
    assert len(enumerate_perfect(get_datum("A1xA1"), (1, 2))) == 5


@pytest.mark.parametrize("bad", [[True], [1.0], [1, True], [1, 1.0], [1.0, 1]],
                         ids=["bool", "float", "int-bool", "int-float", "float-int"])
def test_enumerate_perfect_refuses_a_factor_index_that_is_not_an_int(bad):
    # True == 1.0 == 1, so either would pass the range test and reach a
    # descriptor's support, whose JSON would print it as given; each index
    # is checked before a set can merge it with an equal int
    with pytest.raises(RootDataError, match="not an int"):
        enumerate_perfect(build_root_datum("A1xA2"), bad)


def test_enumerate_perfect_refuses_before_listing_the_lattice_classes(monkeypatch):
    # the sc lattice of A1^18 has 2^18 classes; the walk's budget refuses
    # before any subgroup lists its elements
    datum = build_root_datum("x".join(["A1"] * 18))
    monkeypatch.setattr(latticecalc.Subgroup, "members", property(lambda s: pytest.fail("listed")))
    with pytest.raises(ValueError, match="^the subgroups list more than 1000000 elements$"):
        enumerate_perfect(datum, range(1, 19))


def test_enumerate_perfect_respects_lattice():
    # adjoint lattice: only the trivial class survives
    adj = get_datum("A3", "adjoint")
    descs = enumerate_perfect(adj, (1,))
    assert len(descs) == 1
    assert descs[0].subgroup.order == 1
    # intermediate lattice of A3 (index 2): Z/4 shrinks to Z/2, two subgroups
    half = build_root_datum("A3", LatticeSpec("subgroup", ((2,),)))
    descs = enumerate_perfect(half, (1,))
    assert len(descs) == 2


def test_enumerate_partial_support_intersects_not_projects():
    # lattice = preimage of the diagonal in Z/2 x Z/2; weights supported on a
    # single factor must have even coordinate there, so only one perfect
    # submonoid lives on factor 1
    datum = build_root_datum("A1xA1", LatticeSpec("subgroup", ((1, 1),)))
    descs = enumerate_perfect(datum, (1,))
    assert len(descs) == 1
    assert descs[0].subgroup.order == 1


def test_descriptor_members_closed_under_dominant_weight_systems():
    # membership is closed under taking dominant weights of the weight system
    for ts in ["A2", "B2", "A3"]:
        datum = get_datum(ts)
        box = Box(4)
        for desc in enumerate_perfect(datum, range(1, datum.n_factors + 1)):
            members = predicted_members(datum, desc, box)
            for lam in members:
                for mu in dominant_weights_below(datum, lam):
                    if mu in box:
                        assert mu in members


def test_root_lattice_dominants_always_predicted():
    for ts in ["A2", "B2", "D4"]:
        datum = get_datum(ts)
        box = Box(3)
        for desc in enumerate_perfect(datum, range(1, datum.n_factors + 1)):
            adjoint_members = {w for w in box.region(datum)
                               if all(k.denominator == 1
                                      for k in root_coordinates(datum, w))}
            predicted = predicted_members(datum, desc, box)
            assert adjoint_members <= predicted


def test_closure_monotone_in_box():
    a2 = get_datum("A2")
    spec = MonoidSpec(a2, ((1, 0),))
    small = bounded_perfect_closure(spec, Box(3))
    large = bounded_perfect_closure(spec, Box(5))
    assert {w for w in large if w in Box(3)} >= small


def test_saturation_examples():
    a1 = get_datum("A1")
    assert not is_saturated_monoid(a1, {(0,), (2,), (4,)}, Box(4))
    assert is_saturated_monoid(a1, {(0,), (1,), (2,), (3,), (4,)}, Box(4))
    a2 = get_datum("A2")
    trivial = classify(MonoidSpec(a2, ((1, 1),)))
    members = predicted_members(a2, trivial, Box(3))
    assert not is_saturated_monoid(a2, members, Box(3))


def test_center_subgroups_biject_with_predicted_monoids():
    # the two inverse maps: a center subgroup H yields the monoid of weights
    # restricting trivially to it, realized by the annihilator descriptor;
    # the double annihilator recovers H
    from weightlab import PerfectDescriptor, annihilator, enumerate_subgroups, weight_kills_subgroup
    for ts in ["A3", "D4"]:
        datum = get_datum(ts)
        g = datum.cocenter
        box = Box(3)
        seen = set()
        for H in enumerate_subgroups(g):
            ann = annihilator(g, H)
            desc = PerfectDescriptor(frozenset({1}), ann)
            members = predicted_members(datum, desc, box)
            killed = {w for w in box.region(datum)
                      if weight_kills_subgroup(g, w, H)}
            assert members == killed
            assert annihilator(g, ann).members == H.members
            seen.add(members_key(members))
        assert len(seen) == len(enumerate_subgroups(g))


def members_key(members):
    return tuple(sorted(members))


def closure_stats(datum, spec, box):
    """The closure and the datum's closure counts it added."""
    before = Counter(datum.stats)
    members = bounded_perfect_closure(spec, box)
    return members, Counter(datum.stats) - before


def test_closure_settles_most_pairs_without_decomposing():
    # each pair is settled when its later member is reached, after the
    # summands of every earlier pair were absorbed, so the row test and its
    # recheck settle all but 243 of the 58,996 pairs here without decomposing
    datum = get_datum("A3")
    members, stats = closure_stats(datum, MonoidSpec(datum, ((1, 0, 0),)), Box(6))
    assert len(members) == 343
    assert stats["closure_decomposed"] <= 243


def test_closure_settles_each_pair_once():
    datum = get_datum("A3")
    members, stats = closure_stats(datum, MonoidSpec(datum, ((1, 0, 0),)), Box(6))
    m = len(members)
    assert m == 343
    assert stats["closure_pairs"] == m * (m + 1) // 2
    assert stats["closure_settled"] + stats["closure_rechecked"] + stats["closure_decomposed"] \
        + stats["closure_coefficients"] == stats["closure_pairs"]
    # a flagged pair is settled by coefficients or decomposed, by its size
    assert stats["closure_coefficients"] > 0 and stats["closure_decomposed"] > 0


def test_closure_stops_once_its_reach_set_is_full():
    # D5 (0,0,0,1,0) box 3 reaches every predicted weight early; the rows
    # it skips are counted as settled, so the CLI test's pins hold
    d5 = build_root_datum("D5")
    report = verify_classification(MonoidSpec(d5, ((0, 0, 0, 1, 0),)), Box(3))
    assert report.equal and d5.stats["closure_rows_skipped"] > 0
    assert {k: d5.stats[k] for k in ("closure_pairs", "closure_settled", "closure_rechecked",
                                     "closure_coefficients", "closure_decomposed",
                                     "coefficient_points")} == {
        "closure_pairs": 524800, "closure_settled": 524291, "closure_rechecked": 413,
        "closure_coefficients": 94, "closure_decomposed": 2, "coefficient_points": 11410}
    # G2 (0,1) box 1 never reaches two predicted weights, so it skips no row
    g2 = build_root_datum("G2")
    report = verify_classification(MonoidSpec(g2, ((0, 1),)), Box(1))
    assert len(report.unreached_in_box) == 2 and g2.stats["closure_rows_skipped"] == 0
    # {0} reaches only itself: its one row is skipped, before any row test
    a2 = build_root_datum("A2")
    assert is_perfect_in_box(a2, {(0, 0)}, Box(3))
    assert a2.stats["closure_rows_skipped"] == a2.stats["closure_pairs"] \
        == a2.stats["closure_settled"] == 1


# every simple type of a rank at which the region cap admits a box
SIMPLE_BOX_TYPES = ([f"{family}{rank}" for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                     for rank in range(low, 20)] + ["E6", "E7", "E8", "F4", "G2"])


def test_any_three_box_weights_pass_the_coefficient_guard():
    # the closure asks for its coefficients unchecked: at the largest bound
    # the cap admits, the box's top corner, taken three times, passes
    for type_string in SIMPLE_BOX_TYPES:
        datum = build_root_datum(type_string)
        side = int(perfectmonoid.MAX_REGION ** (1 / datum.rank))
        while side ** datum.rank > perfectmonoid.MAX_REGION:
            side -= 1
        while (side + 1) ** datum.rank <= perfectmonoid.MAX_REGION:
            side += 1
        bound = side - 1
        assert bound >= 1, type_string
        with pytest.raises(ValueError, match="spans"):
            Box(bound + 1).region(datum)
        top = (bound,) * datum.rank
        _check_coefficient(datum, top, top, top)


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("type_string, generators", [
    ("D4", ((1, 0, 0, 0), (0, 0, 1, 0))),  # P/Q = Z2xZ2, all four classes
    ("A1xA3", ((1, 0, 1, 0),)),            # P/Q = Z2xZ4
])
def test_closure_on_a_non_cyclic_cocenter(type_string, generators, bound):
    # the row test groups a row by the class of a; on Z2xZ2 and Z2xZ4 a
    # class sum reduces two coordinates, each mod its own order
    datum = build_root_datum(type_string, LatticeSpec("sc"))
    spec, box = MonoidSpec(datum, generators), Box(bound)
    members, stats = closure_stats(datum, spec, box)
    assert members == pairwise_perfect_closure(spec, box)
    m = len(members)
    assert stats["closure_pairs"] == m * (m + 1) // 2
    assert stats["closure_settled"] + stats["closure_rechecked"] + stats["closure_decomposed"] \
        + stats["closure_coefficients"] == stats["closure_pairs"]


@pytest.mark.parametrize("limit", [perfectmonoid._ROW_TEST_ELEMENTS, 1, 7, 100])
def test_dominates_any_matches_a_brute_check(monkeypatch, limit):
    # the default limit holds each of these in one chunk; the small ones
    # split the totals into chunks of one or a few
    monkeypatch.setattr(perfectmonoid, "_ROW_TEST_ELEMENTS", limit)
    rng = np.random.default_rng(0)
    for rank, n_totals, n_missing in [(1, 1, 1), (3, 5, 1), (4, 17, 6), (8, 40, 3)]:
        totals = rng.integers(-3, 4, size=(n_totals, rank), dtype=np.int64)
        missing = rng.integers(-3, 4, size=(n_missing, rank), dtype=np.int64)
        got = perfectmonoid._dominates_any(totals, missing)
        want = [any(all(m <= t for m, t in zip(mu, total)) for mu in missing.tolist())
                for total in totals.tolist()]
        assert got.dtype == bool and got.tolist() == want


def test_spec_json_round_trip():
    spec = MonoidSpec(get_datum("A2"), ((1, 0), (0, 1)))
    again = MonoidSpec.from_json(spec.to_json())
    assert again.generators == spec.generators
    assert str(again.datum.ctype) == "A2"


def test_spec_from_json_rejects_malformed_lattice():
    with pytest.raises(RootDataError):
        MonoidSpec.from_json({"type": "A3", "generators": [[0, 1, 0]],
                              "lattice": {"mode": "subgroup", "generators": [[1.5]]}})


def test_monoid_spec_validation():
    a2 = get_datum("A2", "adjoint")
    with pytest.raises(ValueError):
        MonoidSpec(a2, ((1, 0),))  # not in the adjoint lattice
    with pytest.raises(ValueError):
        MonoidSpec(get_datum("A2"), ((-1, 0),))


def test_box_region_refuses_oversized_boxes(monkeypatch):
    # 11^8 = 2.1e8 weights would exhaust memory; refused before allocating
    with pytest.raises(ValueError):
        Box(10).region(get_datum("E8"))
    with pytest.raises(ValueError):
        verify_classification(MonoidSpec(get_datum("E8"), ((1, 0, 0, 0, 0, 0, 0, 0),)),
                              Box(10))
    # the cap itself is inclusive
    monkeypatch.setattr(perfectmonoid, "MAX_REGION", 100)
    assert len(Box(9).region(get_datum("A2"))) == 100
    with pytest.raises(ValueError):
        Box(10).region(get_datum("A2"))
