import random

import pytest

from weightlab import (apply_word, dominance_leq, dual_weight, make_dominant,
                       orbit, orbit_size, prv_component, reflect, w0_action,
                       weyl_group_elements)
from weightlab import charcalc, weyl
from weightlab.rootdata import RootDataError, wneg
from conftest import get_datum
from oracles import word_sign


def test_reflect_examples():
    a3 = get_datum("A3")
    assert reflect(a3, 2, (0, 1, 0)) == (1, -1, 1)
    d5 = get_datum("D5")
    assert reflect(d5, 5, (1, 1, 1, 1, 1)) == (1, 1, 2, 1, -1)
    assert reflect(a3, 1, (0, 0, 0)) == (0, 0, 0)


def test_reflect_involution_random():
    rng = random.Random(2)
    for ts in ["A2", "B3", "G2", "D4", "A1xB2"]:
        datum = get_datum(ts)
        for _ in range(50):
            lam = tuple(rng.randrange(-3, 4) for _ in range(datum.rank))
            for i in range(1, datum.rank + 1):
                assert reflect(datum, i, reflect(datum, i, lam)) == lam


def test_reflect_index_range():
    datum = get_datum("A2")
    with pytest.raises(IndexError):
        reflect(datum, 0, (1, 0))
    with pytest.raises(IndexError):
        reflect(datum, 3, (1, 0))


@pytest.mark.parametrize("letter", [True, False, 1.0, 2.0, "1", None])
def test_reflect_refuses_a_letter_that_is_not_an_int(letter):
    # a bool would act as s_1 or s_0, and a float would index nothing
    datum = get_datum("A2")
    with pytest.raises(RootDataError, match="is not an int"):
        reflect(datum, letter, (1, 0))


def test_words_with_a_letter_that_is_not_an_int_are_refused():
    datum = get_datum("A2")
    with pytest.raises(RootDataError, match="is not an int"):
        apply_word(datum, (1.0,), (1, 0))
    with pytest.raises(RootDataError, match="is not an int"):
        prv_component(datum, (1, 0), (1, 0), (2.0,))
    # an int out of range keeps its IndexError
    with pytest.raises(IndexError):
        apply_word(datum, (1, 3), (1, 0))


def test_empty_word_checks_its_weight():
    # as a one-letter word does: a wrong length or a float is refused, and a
    # list comes back as a tuple
    datum = get_datum("A2")
    for lam in [(1,), (1.5, 2)]:
        with pytest.raises(RootDataError):
            apply_word(datum, (), lam)
        with pytest.raises(RootDataError):
            apply_word(datum, (1,), lam)
    assert apply_word(datum, (), [1, 2]) == (1, 2)
    assert type(apply_word(datum, (), [1, 2])) is tuple


def test_make_dominant_examples():
    a1 = get_datum("A1")
    res = make_dominant(a1, (-3,))
    assert res.dominant == (3,) and res.word == (1,) and res.regular

    a2 = get_datum("A2")
    res = make_dominant(a2, (-1, -1))
    assert res.dominant == (1, 1) and res.regular
    # the element taking -rho to rho is the longest one; its length is the
    # number of positive roots, here 3
    assert len(res.word) == 3 and word_sign(res.word) == -1

    res = make_dominant(a2, (1, -1))
    assert res.dominant == (0, 1)
    assert not res.regular
    assert apply_word(a2, res.word, (1, -1)) == (0, 1)


def test_make_dominant_matches_orbit_enumeration():
    rng = random.Random(3)
    for ts in ["A2", "B2", "A3", "G2"]:
        datum = get_datum(ts)
        for _ in range(25):
            lam = tuple(rng.randrange(-3, 4) for _ in range(datum.rank))
            res = make_dominant(datum, lam)
            orb = orbit(datum, lam)
            dominants = {w for w in orb if all(x >= 0 for x in w)}
            assert res.dominant in dominants
            assert len(dominants) == 1
            assert apply_word(datum, res.word, lam) == res.dominant


def test_make_dominant_word_parity_well_defined():
    # any two words representing the same element on a regular orbit agree mod 2
    datum = get_datum("B2")
    rho = datum.weyl_vector
    for word in weyl_group_elements(datum):
        lam = apply_word(datum, word, rho)
        res = make_dominant(datum, lam)
        assert (len(res.word) - len(word)) % 2 == 0


def test_w0_action_examples():
    a2 = get_datum("A2")
    assert w0_action(a2, (1, 0)) == (0, -1)
    e6 = get_datum("E6")
    assert w0_action(e6, (0, 1, 0, 0, 0, 0)) == (0, -1, 0, 0, 0, 0)
    b2 = get_datum("B2")
    for lam in [(1, 2), (0, 3), (2, 0), (1, -1), (-2, 5)]:
        assert w0_action(b2, lam) == wneg(lam)


def test_w0_action_involution_and_antidominance():
    rng = random.Random(4)
    for ts in ["A3", "D5", "E6", "G2", "A2xA1"]:
        datum = get_datum(ts)
        for _ in range(30):
            lam = tuple(rng.randrange(-3, 4) for _ in range(datum.rank))
            assert w0_action(datum, w0_action(datum, lam)) == lam
        for _ in range(10):
            dom = tuple(rng.randrange(4) for _ in range(datum.rank))
            assert all(x <= 0 for x in w0_action(datum, dom))


def test_w0_action_agrees_with_make_dominant_identity_on_dominants():
    rng = random.Random(5)
    for ts in ["A3", "B3", "D4", "D5", "E6"]:
        datum = get_datum(ts)
        for _ in range(20):
            dom = tuple(rng.randrange(4) for _ in range(datum.rank))
            dual = make_dominant(datum, wneg(dom)).dominant
            assert w0_action(datum, dom) == wneg(dual)


def test_dual_weight_examples():
    a2 = get_datum("A2")
    assert dual_weight(a2, (1, 0)) == (0, 1)
    d4 = get_datum("D4")
    assert dual_weight(d4, (1, 0, 0, 0)) == (1, 0, 0, 0)
    assert dual_weight(a2, (0, 0)) == (0, 0)
    with pytest.raises(ValueError):
        dual_weight(a2, (-1, 0))


def test_dual_weight_involution():
    rng = random.Random(6)
    for ts in ["A3", "D5", "E6"]:
        datum = get_datum(ts)
        for _ in range(25):
            dom = tuple(rng.randrange(4) for _ in range(datum.rank))
            assert dual_weight(datum, dual_weight(datum, dom)) == dom


def test_dominance_examples():
    a1 = get_datum("A1")
    assert dominance_leq(a1, (0,), (2,))
    assert not dominance_leq(a1, (1,), (2,))
    a2 = get_datum("A2")
    assert dominance_leq(a2, (0, 0), (1, 1))
    assert dominance_leq(a2, (1, 1), (1, 1))


def test_dominance_refuses_what_int64_cannot_hold():
    # det C^-1 of A2 is [[2, 1], [1, 2]]: 2 * 2^60 fits int64, 2 * 2^62 does not
    a2 = get_datum("A2")
    assert dominance_leq(a2, (0, 0), (3 * 2 ** 59, 0))
    assert not dominance_leq(a2, (0, 0), (2 ** 60, 0))
    with pytest.raises(ValueError):
        dominance_leq(a2, (0, 0), (2 ** 62, 0))


def test_dominance_is_partial_order():
    rng = random.Random(7)
    datum = get_datum("B2")
    sample = [tuple(rng.randrange(5) for _ in range(2)) for _ in range(50)]
    for lam in sample:
        assert dominance_leq(datum, lam, lam)
    for a in sample:
        for b in sample:
            if dominance_leq(datum, a, b) and dominance_leq(datum, b, a):
                assert a == b
    for a in sample[:12]:
        for b in sample[:12]:
            for c in sample[:12]:
                if dominance_leq(datum, a, b) and dominance_leq(datum, b, c):
                    assert dominance_leq(datum, a, c)


def test_orbit_size_matches_enumeration():
    rng = random.Random(8)
    for ts in ["A3", "B3", "G2", "D4", "A1xA2"]:
        datum = get_datum(ts)
        for _ in range(15):
            dom = tuple(rng.randrange(3) for _ in range(datum.rank))
            assert orbit_size(datum, dom) == len(orbit(datum, dom))


def test_weyl_group_elements_counts():
    assert len(weyl_group_elements(get_datum("A2"))) == 6
    assert len(weyl_group_elements(get_datum("B2"))) == 8
    assert len(weyl_group_elements(get_datum("A1xA1"))) == 4
    assert len(weyl_group_elements(get_datum("G2"))) == 12


def test_weyl_group_elements_refuses_large_groups(monkeypatch):
    with pytest.raises(ValueError):
        weyl_group_elements(get_datum("E7"))
    # the cap itself is inclusive
    monkeypatch.setattr(weyl, "MAX_WEYL_ELEMENTS", 8)
    assert len(weyl_group_elements(get_datum("B2"))) == 8
    with pytest.raises(ValueError):
        weyl_group_elements(get_datum("A3"))


def test_orbit_refuses_more_points_than_a_weight_table_holds(monkeypatch):
    # the cap is charcalc.MAX_EXPANDED_ROWS, inclusive; D5 rho is regular,
    # so its orbit has |W| = 1,920 points
    d5 = get_datum("D5")
    monkeypatch.setattr(charcalc, "MAX_EXPANDED_ROWS", 1919)
    with pytest.raises(ValueError, match="orbit of 1920 points"):
        orbit(d5, d5.weyl_vector)
    monkeypatch.setattr(charcalc, "MAX_EXPANDED_ROWS", 1920)
    assert len(orbit(d5, d5.weyl_vector)) == 1920
    monkeypatch.undo()
    # E8 rho, 696,729,600 points, is refused before the walk starts

    def no_walk(*args):
        raise AssertionError("orbit walked")
    monkeypatch.setattr(weyl, "orbit_tree", no_walk)
    e8 = get_datum("E8")
    with pytest.raises(ValueError, match="orbit of 696729600 points"):
        orbit(e8, e8.weyl_vector)
