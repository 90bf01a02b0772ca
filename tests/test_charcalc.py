import json
import random
from itertools import product

import pytest

from weightlab import (RootDataError, build_root_datum, character, charcalc,
                       dominant_weights_below, expand_character, orbit, orbit_size,
                       tensor_decompose, tensor_multiplicity, weyl_dimension)
from weightlab.charcalc import expanded_weight_table
from weightlab.cli import run
from conftest import get_datum
from oracles import is_saturated_weight_set, kostant_multiplicity, per_root_freudenthal


def test_dominant_weights_below_examples():
    a2 = get_datum("A2")
    assert set(dominant_weights_below(a2, (1, 1))) == {(1, 1), (0, 0)}
    a1 = get_datum("A1")
    assert set(dominant_weights_below(a1, (4,))) == {(4,), (2,), (0,)}
    assert dominant_weights_below(a2, (0, 0)) == [(0, 0)]


def test_dominant_weights_below_requires_dominant():
    with pytest.raises(ValueError):
        dominant_weights_below(get_datum("A2"), (-1, 0))


def test_dominant_weights_below_closed_under_dominance():
    rng = random.Random(11)
    for ts in ["A2", "B2", "A3", "G2"]:
        datum = get_datum(ts)
        for _ in range(10):
            lam = tuple(rng.randrange(4) for _ in range(datum.rank))
            below = dominant_weights_below(datum, lam)
            assert below[0] == lam
            assert len(set(below)) == len(below)
            from weightlab import dominance_leq
            for mu in below:
                assert dominance_leq(datum, mu, lam)


def test_character_examples():
    a2 = get_datum("A2")
    assert character(a2, (1, 1)).entries == {(1, 1): 1, (0, 0): 2}
    a1 = get_datum("A1")
    assert character(a1, (4,)).entries == {(4,): 1, (2,): 1, (0,): 1}
    assert character(a2, (0, 0)).entries == {(0, 0): 1}


def test_character_multiplicities_against_kostant_sum():
    for ts, lam in [("A2", (2, 1)), ("A2", (1, 1)), ("B2", (1, 2)),
                    ("G2", (1, 1)), ("A1xA1", (2, 3)), ("A3", (1, 0, 1))]:
        datum = get_datum(ts)
        char = character(datum, lam)
        for mu in dominant_weights_below(datum, lam):
            assert char.entries[mu] == kostant_multiplicity(datum, lam, mu), (ts, lam, mu)


def test_freudenthal_walks_one_string_per_stabilizer_orbit():
    # a fresh datum, so that the counts start at zero
    d5 = build_root_datum("D5")
    lam = (2, 2, 3, 2, 0)
    char = character(d5, lam)
    assert char.entries == per_root_freudenthal(d5, lam)
    assert d5.stats["freudenthal_strings"] == 4651
    # the per-root recursion walks every positive root from each mu < lam
    assert (len(dominant_weights_below(d5, lam)) - 1) * len(d5.positive_roots) == 8740
    # one table, read again by the oracle, the walk and the second call
    table = ("interval_misses", "interval_hits", "interval_extensions")
    assert tuple(d5.stats[k] for k in table) == (1, 2, 1)
    assert character(d5, lam).entries is char.entries
    assert tuple(d5.stats[k] for k in table) == (1, 3, 1)
    assert d5.stats["freudenthal_strings"] == 4651


@pytest.mark.parametrize("type_string, lam, counts", [
    ("G2", (20, 20), (4936, 4780, 4559, 221)),
    ("D5", (2, 2, 3, 2, 0), (4651, 3598, 1899, 1699)),
])
def test_freudenthal_string_walks_stop_at_a_stored_sum(type_string, lam, counts):
    # (strings, steps, strings closed by the stored sum of a dominant weight
    # along the same root, strings closed by the sum of the folded root); a
    # string takes at most one step
    datum = build_root_datum(type_string)
    assert character(datum, lam).entries == per_root_freudenthal(datum, lam)
    assert (datum.stats["freudenthal_strings"], datum.stats["freudenthal_steps"],
            datum.stats["freudenthal_reused"], datum.stats["freudenthal_jumped"]) == counts


def test_a1_string_walk_takes_at_most_two_steps_per_weight():
    # each mu < lam - alpha steps to mu + alpha, dominant and walked, and
    # stops there; the one string from lam - alpha steps to lam, whose sum
    # is 0
    a1 = build_root_datum("A1")
    char = character(a1, (10000,))
    assert char.entries == {(k,): 1 for k in range(0, 10001, 2)}
    assert a1.stats["freudenthal_steps"] == len(char.entries) - 1
    assert a1.stats["freudenthal_reused"] == len(char.entries) - 2


@pytest.mark.parametrize("bad", [(1.0, 0), (True, 0)], ids=["float", "bool"])
@pytest.mark.parametrize("call", [
    character, weyl_dimension, dominant_weights_below,
    lambda datum, lam: tensor_decompose(datum, lam, lam),
], ids=["character", "weyl_dimension", "dominant_weights_below", "tensor_decompose"])
def test_cached_weight_does_not_admit_an_equal_key(call, bad):
    # bad == (1, 0) and hashes alike, so the check must come before the memo
    a2 = build_root_datum("A2")
    call(a2, (1, 0))
    assert bad == (1, 0) and hash(bad) == hash((1, 0))
    with pytest.raises(RootDataError):
        call(a2, bad)


def test_expansion_is_refused_above_the_row_cap(monkeypatch, capsys):
    a2 = get_datum("A2")
    char = character(a2, (2, 2))
    rows = len(expand_character(a2, char))
    # the cap itself is inclusive
    monkeypatch.setattr(charcalc, "MAX_EXPANDED_ROWS", rows)
    assert len(expanded_weight_table(a2, char)[0]) == rows
    monkeypatch.setattr(charcalc, "MAX_EXPANDED_ROWS", rows - 1)
    with pytest.raises(ValueError, match="exceeds bound"):
        expanded_weight_table(a2, char)
    with pytest.raises(ValueError, match="exceeds bound"):
        expand_character(a2, char)
    # the CLI builds a fresh datum, so its fold reaches the guard
    status = run(["decompose", "--type", "A2", "--lhs", "2,2", "--rhs", "2,2"])
    out, err = capsys.readouterr()
    assert status == 2
    assert out == ""
    assert json.loads(err)["kind"] == "input"


def test_row_cap_refuses_before_any_orbit_is_walked(monkeypatch):
    a2 = get_datum("A2")
    char = character(a2, (2, 2))
    rows = sum(orbit_size(a2, w) for w in char.entries)

    def no_orbit(*args):
        raise AssertionError("orbit walked before the row cap")

    monkeypatch.setattr(charcalc, "orbit", no_orbit)
    monkeypatch.setattr(charcalc, "MAX_EXPANDED_ROWS", rows - 1)
    with pytest.raises(ValueError, match="exceeds bound"):
        expanded_weight_table(a2, char)


def test_coset_images_refuse_a_walk_that_could_leave_int64(monkeypatch):
    # forty free A1 coordinates encode in base 3, and 3^40 > 2^63
    datum = build_root_datum("x".join(["A1"] * 40))

    def no_orbit(*args):
        raise AssertionError("orbit walked before the int64 guard")

    monkeypatch.setattr(charcalc, "orbit", no_orbit)
    with pytest.raises(ValueError, match="out of int64 range"):
        charcalc._coset_images(datum, 0)


def test_product_expands_factor_by_factor():
    # A1^12 (1, ..., 1): every sign vector once, from one walk of 2 points
    # per factor instead of one walk of 4,096
    n = 12
    datum = build_root_datum("x".join(["A1"] * n))
    rows, mults = expanded_weight_table(datum, character(datum, (1,) * n))
    assert sorted(map(tuple, rows.tolist())) == sorted(product((-1, 1), repeat=n))
    assert (mults == 1).all()
    assert datum.stats["coset_images_misses"] == n
    assert all(images.shape == (1, 2 * n) for images in datum.memo["coset_images"].values())


def test_character_refuses_a_key_of_the_wrong_length_and_a_zero_multiplicity():
    # a key must be a weight of the datum: (1,) is no weight of A2
    a2 = build_root_datum("A2")
    with pytest.raises(RootDataError, match="expected rank 2"):
        charcalc.Character(a2, {(1,): 1})
    with pytest.raises(ValueError, match="multiplicity 0 at \\(1, 0\\) must be positive"):
        charcalc.Character(a2, {(1, 0): 0})


@pytest.mark.parametrize("type_string, lam", [("A2", (2, 1)), ("A1xA2", (0, 0, 0))])
@pytest.mark.parametrize("call", [character, dominant_weights_below],
                         ids=["character", "dominant_weights_below"])
def test_fresh_table_is_walked_once(monkeypatch, call, type_string, lam):
    # a fresh table starts unwalked, lam alone cut at depth 0, so one walk
    # to the bottom reaches every dominant weight below lam
    floors = []
    walk = charcalc._walk

    def counted(datum, seen, start, floor, cut):
        floors.append(floor)
        return walk(datum, seen, start, floor, cut)
    monkeypatch.setattr(charcalc, "_walk", counted)
    datum = build_root_datum(type_string)
    call(datum, lam)
    assert floors == [None]
    # the one depth-0 weight, lam, counts as one run of the recursion
    assert datum.stats["interval_extensions"] == (1 if call is character else 0)


def test_empty_character_expands_to_an_empty_table():
    a2 = build_root_datum("A2")
    rows, mults = expanded_weight_table(a2, charcalc.Character(a2, {}))
    assert rows.shape == (0, 2) and mults.shape == (0,)


def test_expansion_refuses_a_coordinate_that_could_leave_int64():
    # s_1 (2^62, 2^62) = (-2^62, 2^63) on A2
    a2 = build_root_datum("A2")
    char = charcalc.Character(a2, {(2 ** 62, 2 ** 62): 1})
    with pytest.raises(ValueError, match="out of int64 range"):
        expanded_weight_table(a2, char)


def test_walk_bound_is_exact(monkeypatch):
    # A1 (10) has the 6 dominant weights 10, 8, ..., 0; the bound is inclusive
    monkeypatch.setattr(charcalc, "MAX_DOMINANT_WEIGHTS", 6)
    a1 = build_root_datum("A1")
    assert len(dominant_weights_below(a1, (10,))) == 6
    assert character(a1, (10,)).dimension() == 11
    assert tensor_multiplicity(a1, (10,), (10,), (10,)) == 1
    assert tensor_decompose(a1, (10,), (10,)).summands[(10,)] == 1
    monkeypatch.setattr(charcalc, "MAX_DOMINANT_WEIGHTS", 5)
    a1 = build_root_datum("A1")
    # c(10, 10; 10) folds a point onto 0 < 10, so it reads the character of 10
    for call in (dominant_weights_below, character,
                 lambda d, w: tensor_multiplicity(d, w, w, w),
                 lambda d, w: tensor_decompose(d, w, w)):
        with pytest.raises(ValueError, match="more than 5 dominant weights"):
            call(a1, (10,))
    # refused before the recursion, and lam's table is as it started:
    # nothing walked, lam alone cut at depth 0
    assert a1.stats["freudenthal_strings"] == 0
    part = a1.memo["interval"][(10,)]
    assert not part.seen and part.cut == {(10,): (0,)} and not part.table and not part.queue


def test_walk_bound_refuses_e8_without_walking(monkeypatch):
    # E8 has P = Q, so every dominant weight coordinatewise <= (4,...,4)
    # lies below it: 5^8 = 390,625 of them, read off before any walk
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(charcalc, "_walk", no_walk)
    e8 = build_root_datum("E8")
    built = {name: dict(values) for name, values in e8.memo.items()}
    assert charcalc._below_count_bound(e8, (4,) * 8) == 5 ** 8
    for call in (dominant_weights_below, character):
        with pytest.raises(ValueError, match="more than 100000 dominant weights"):
            call(e8, (4,) * 8)
    # nothing is kept beyond what the datum holds from its build
    assert e8.stats["freudenthal_strings"] == 0
    assert {name: values for name, values in e8.memo.items() if values} == built


def test_walk_bound_refuses_a2_without_walking(monkeypatch):
    # A2 (600,600): the dominant weights coordinatewise <= it and in its
    # class of P/Q = Z/3 are the (a, b) with a = b mod 3, 120,401 of them
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(charcalc, "_walk", no_walk)
    a2 = build_root_datum("A2")
    lam = (600, 600)
    count = sum((a - b) % 3 == 0 for a in range(601) for b in range(601))
    assert charcalc._below_count_bound(a2, lam) == count == 120401
    for call in (dominant_weights_below, character):
        with pytest.raises(ValueError, match="more than 100000 dominant weights"):
            call(a2, lam)
    assert a2.stats["freudenthal_strings"] == 0


def test_partial_table_refusal_keeps_the_table(monkeypatch):
    # A1 (10) holds 10, 8, ..., 0; a floor at depth 5 would hold all six
    monkeypatch.setattr(charcalc, "MAX_DOMINANT_WEIGHTS", 5)
    a1 = build_root_datum("A1")
    part = charcalc._interval(a1, (10,))
    assert part.extend(a1, (2,)) == {(10,): 1, (8,): 1, (6,): 1}
    with pytest.raises(ValueError, match="more than 5 dominant weights"):
        part.extend(a1, (5,))
    assert part.floor == (2,) and list(part.seen) == [(10,), (8,), (6,)]
    monkeypatch.setattr(charcalc, "MAX_DOMINANT_WEIGHTS", 6)
    assert part.extend(a1, (5,)) == character(a1, (10,)).entries
    assert a1.stats["interval_extensions"] == 2
    # the character found nothing left to compute, and the table is complete
    assert part.floor is None and part.sums is None and not part.cut


def test_weyl_dimension_examples():
    a2 = get_datum("A2")
    assert weyl_dimension(a2, (1, 1)) == 8
    assert weyl_dimension(a2, (0, 0)) == 1
    a1 = get_datum("A1")
    for n in range(7):
        assert weyl_dimension(a1, (n,)) == n + 1


def test_weyl_dimension_known_values():
    assert weyl_dimension(get_datum("G2"), (1, 0)) == 7
    assert weyl_dimension(get_datum("G2"), (0, 1)) == 14
    assert weyl_dimension(get_datum("F4"), (0, 0, 0, 1)) == 26
    assert weyl_dimension(get_datum("E6"), (1, 0, 0, 0, 0, 0)) == 27
    assert weyl_dimension(get_datum("D5"), (1, 0, 0, 0, 0)) == 10
    assert weyl_dimension(get_datum("B3"), (0, 0, 1)) == 8
    assert weyl_dimension(get_datum("C3"), (1, 0, 0)) == 6


def test_character_conservation_of_dimension():
    rng = random.Random(12)
    for ts in ["A2", "A3", "B2", "B3", "C3", "D4", "G2", "A1xA2"]:
        datum = get_datum(ts)
        for _ in range(30):
            lam = tuple(rng.randrange(3) for _ in range(datum.rank))
            assert character(datum, lam).dimension() == weyl_dimension(datum, lam)


def test_character_orbit_invariance_round_trip():
    datum = get_datum("B2")
    char = character(datum, (1, 1))
    expanded = expand_character(datum, char)
    for w, m in char.entries.items():
        for v in orbit(datum, w):
            assert expanded[v] == m
    # re-collapse
    collapsed = {w: m for w, m in expanded.items() if all(x >= 0 for x in w)}
    assert collapsed == char.entries


def test_expanded_character_is_saturated():
    for ts, lam in [("A1", (4,)), ("A2", (1, 1)), ("B2", (0, 2)), ("G2", (1, 0))]:
        datum = get_datum(ts)
        expanded = expand_character(datum, character(datum, lam))
        assert is_saturated_weight_set(datum, set(expanded))


def test_saturated_weight_set_counterexample():
    a1 = get_datum("A1")
    assert not is_saturated_weight_set(a1, {(4,), (-4,), (0,)})
    assert is_saturated_weight_set(a1, {(0,)})


def test_membership_iff_all_images_below():
    # mu in the weight system iff every W-image of mu is below lam
    from weightlab import apply_word, dominance_leq, weyl_group_elements
    for ts in ["A2", "B2"]:
        datum = get_datum(ts)
        words = weyl_group_elements(datum)
        lam = (2, 1)
        expanded = set(expand_character(datum, character(datum, lam)))
        grid = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
        for mu in grid:
            in_system = mu in expanded
            criterion = all(
                dominance_leq(datum, apply_word(datum, w, mu), lam) for w in words)
            assert in_system == criterion, (ts, mu)
