import random
from math import prod
from unittest import mock

import pytest

from weightlab import latticecalc
from weightlab import (RootDataError, Subgroup, annihilator, enumerate_subgroups, fundamental_group,
                       project_to_cocenter, quotient_subgroups, smith_normal_form,
                       weight_kills_subgroup)
from conftest import get_datum
from oracles import int_det

KNOWN_COCENTERS = {
    "A1": (2,), "A2": (3,), "A3": (4,), "A4": (5,), "A5": (6,), "A6": (7,),
    "B2": (2,), "B3": (2,), "C3": (2,), "C4": (2,),
    "D4": (2, 2), "D5": (4,), "D6": (2, 2),
    "E6": (3,), "E7": (2,), "F4": (), "G2": (),
}


def test_smith_normal_form_random_matrices():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(m)] for _ in range(n)]
        s, u, v = smith_normal_form(mat)
        # S = U * mat * V
        prod = [[sum(u[i][k] * mat[k][j] for k in range(n)) for j in range(m)]
                for i in range(n)]
        prod = [[sum(prod[i][k] * v[k][j] for k in range(m)) for j in range(m)]
                for i in range(n)]
        assert prod == s
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert s[i][j] == 0
        diag = [s[i][i] for i in range(min(n, m))]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0
        assert abs(_det(u)) == 1 and abs(_det(v)) == 1


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(n))


def test_cocenters_match_classical_table():
    for ts, orders in KNOWN_COCENTERS.items():
        datum = get_datum(ts)
        group = datum.cocenter
        assert sorted(group.orders) == sorted(orders), ts
        assert group.order == abs(_det([list(r) for r in datum.cartan]))


def test_invariants_divisibility_display():
    group = get_datum("A1xA2").cocenter
    assert group.orders == (2, 3)  # factor-blocked presentation
    assert group.invariants == (6,)  # divisibility-chain display
    d4 = get_datum("D4").cocenter
    assert d4.invariants == (2, 2)


def test_simple_roots_project_to_zero():
    for ts in KNOWN_COCENTERS:
        datum = get_datum(ts)
        group = datum.cocenter
        for j in range(datum.rank):
            assert all(x == 0 for x in project_to_cocenter(group, datum.cartan_columns[j]))


def test_projection_examples():
    a2 = get_datum("A2")
    g = a2.cocenter
    p1 = project_to_cocenter(g, (1, 0))
    p2 = project_to_cocenter(g, (0, 1))
    assert p1 != (0,)
    assert p2 == g.add(p1, p1)
    assert project_to_cocenter(g, (1, 1)) == (0,)
    assert project_to_cocenter(g, (0, 0)) == (0,)


def test_projection_additive_random():
    rng = random.Random(32)
    for ts in ["A3", "D4", "A2xA1"]:
        datum = get_datum(ts)
        g = datum.cocenter
        for _ in range(40):
            lam = tuple(rng.randrange(-3, 4) for _ in range(datum.rank))
            mu = tuple(rng.randrange(-3, 4) for _ in range(datum.rank))
            total = tuple(a + b for a, b in zip(lam, mu))
            assert project_to_cocenter(g, total) == g.add(
                project_to_cocenter(g, lam), project_to_cocenter(g, mu))


def test_enumerate_subgroups_counts():
    assert len(enumerate_subgroups(get_datum("A2").cocenter)) == 2
    assert len(enumerate_subgroups(get_datum("D4").cocenter)) == 5
    assert len(enumerate_subgroups(get_datum("A3").cocenter)) == 3
    assert len(enumerate_subgroups(get_datum("A1xA1").cocenter)) == 5


def test_cyclic_subgroup_count_is_divisor_count():
    def tau(n):
        return sum(1 for d in range(1, n + 1) if n % d == 0)

    for n in range(1, 9):
        group = get_datum(f"A{n}").cocenter
        assert len(enumerate_subgroups(group)) == tau(n + 1)


def test_enumeration_bound():
    # (Z/2)^8 has 417,199 subgroups listing 7,866,259 elements in all; the
    # walk refuses once it passes the budget, before any element list is built
    group = get_datum("A1xA1xA1xA1xA1xA1xA1xA1").cocenter
    with mock.patch.object(Subgroup, "members", property(lambda s: pytest.fail("listed"))):
        with pytest.raises(ValueError, match="^the subgroups list more than 1000000 elements$"):
            enumerate_subgroups(group)


def test_enumeration_bound_is_inclusive(monkeypatch):
    # Z/7 has exactly the trivial group and itself: 1 + 7 = 8 elements listed
    monkeypatch.setattr(latticecalc, "MAX_SUBGROUP_ELEMENTS", 8)
    assert [s.order for s in enumerate_subgroups(get_datum("A6").cocenter)] == [1, 7]
    monkeypatch.setattr(latticecalc, "MAX_SUBGROUP_ELEMENTS", 7)
    with pytest.raises(ValueError):
        enumerate_subgroups(get_datum("A6").cocenter)


def test_quotient_subgroups():
    z4 = get_datum("A3").cocenter
    half = Subgroup.generated(z4, ((2,),))
    over = quotient_subgroups(z4, half)
    assert len(over) == 2
    assert all(half <= s for s in over)
    all_subs = enumerate_subgroups(z4)
    trivial = Subgroup.generated(z4, ())
    assert quotient_subgroups(z4, trivial) == all_subs
    v4 = get_datum("A1xA1").cocenter
    assert len(quotient_subgroups(v4, Subgroup.full(v4))) == 1


def test_weight_kills_subgroup_examples():
    a1 = get_datum("A1")
    g = a1.cocenter
    full = Subgroup.full(g)
    trivial = Subgroup.generated(g, ())
    assert not weight_kills_subgroup(g, (1,), full)
    assert weight_kills_subgroup(g, (2,), full)
    assert weight_kills_subgroup(g, (1,), trivial)
    a2 = get_datum("A2")
    assert not weight_kills_subgroup(a2.cocenter, (1, 0), Subgroup.full(a2.cocenter))


@pytest.mark.parametrize("bad", [(1,), (1, 0, 5), (1.5, 0), (True, 0), (1, 0.0)])
def test_projection_refuses_a_malformed_weight(bad):
    # each used to project: (1,) and (1, 0, 5) to (2,), (1.5, 0) to (0.0,)
    g = get_datum("A2").cocenter
    with pytest.raises(RootDataError, match="not a weight"):
        project_to_cocenter(g, bad)
    with pytest.raises(RootDataError, match="not a weight"):
        weight_kills_subgroup(g, bad, Subgroup.full(g))


def test_projection_onto_a_trivial_cocenter_checks_only_ints():
    g = get_datum("G2").cocenter
    assert project_to_cocenter(g, (1, 2)) == ()
    with pytest.raises(RootDataError, match="not a weight"):
        project_to_cocenter(g, (1, True))


@pytest.mark.parametrize("bad", [(1.5,), (), (1, 0), [1], (True,), (1.0,)])
def test_generated_refuses_a_malformed_generator(bad):
    # (1.5,) and () ended in a bare AssertionError, and (1, 0) was cut to (1,)
    z3 = get_datum("A2").cocenter
    with pytest.raises(RootDataError, match="not a tuple of 1 ints"):
        Subgroup.generated(z3, [(1,), bad])


def test_membership_of_an_element_of_the_wrong_arity_is_false():
    z3 = get_datum("A2").cocenter
    for sub in (Subgroup.full(z3), Subgroup.generated(z3, ())):
        assert (0,) in sub
        assert (1, 0) not in sub
        assert (0, 0) not in sub
        assert () not in sub


def test_subgroup_is_its_hermite_rows():
    # Z/4 x Z/2: (1, 1) spans {(0,0), (1,1), (2,0), (3,1)}, with pivots 1 and 2 = d_2
    group = get_datum("A3xA1").cocenter
    assert group.orders == (4, 2)
    sub = Subgroup.generated(group, [(5, -1)])
    assert sub.rows == ((1, 1), (0, 2))
    assert sub.order == 4
    assert sub.members == ((0, 0), (1, 1), (2, 0), (3, 1))
    assert Subgroup.generated(group, (g for g in [(1, 1)])) == sub  # read once
    assert Subgroup.generated(group, ()).rows == ((4, 0), (0, 2))
    assert Subgroup.full(group).rows == ((1, 0), (0, 1))
    assert Subgroup.generated(group, [(2, 1)]).rows == ((2, 1), (0, 2))


def test_kill_depends_only_on_class():
    rng = random.Random(33)
    datum = get_datum("A3")
    g = datum.cocenter
    subs = enumerate_subgroups(g)
    for _ in range(30):
        lam = tuple(rng.randrange(4) for _ in range(3))
        shift = datum.cartan_columns[rng.randrange(3)]
        moved = tuple(a + b for a, b in zip(lam, shift))
        for H in subs:
            assert weight_kills_subgroup(g, lam, H) == weight_kills_subgroup(g, moved, H)


def test_annihilator_index():
    for ts in ["A3", "D4", "A1xA2"]:
        g = get_datum(ts).cocenter
        for H in enumerate_subgroups(g):
            ann = annihilator(g, H)
            assert ann.order * H.order == g.order


@pytest.mark.parametrize("type_string", ["A3", "D4", "D5", "E6", "A1xA2"])
def test_pairing_is_bilinear_and_nondegenerate(type_string):
    g = get_datum(type_string).cocenter
    elements = g.elements()
    for a in elements:
        for b in elements:
            assert 0 <= g.pairing(a, b) < 1
            for c in elements:
                assert g.pairing(g.add(a, b), c) == (g.pairing(a, c) + g.pairing(b, c)) % 1
                assert g.pairing(c, g.add(a, b)) == (g.pairing(c, a) + g.pairing(c, b)) % 1
        # a pairs to 0 with every element only when it is zero
        assert all(g.pairing(a, b) == 0 for b in elements) == (a == g.zero())


@pytest.mark.parametrize("type_string", ["G2", "A3", "D4", "D6", "A1xA3", "A1xA1xA2"])
def test_add_at_is_the_position_of_the_sum(type_string):
    g = get_datum(type_string).cocenter
    elements = g.elements()
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            assert elements[g.add_at(i, j)] == g.add(a, b)


@pytest.mark.parametrize("type_string", [f"A{n}" for n in range(1, 9)]
                         + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(2, 9)]
                         + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8", "F4", "G2"])
def test_smith_diagonal_is_cartan_determinant(type_string):
    cartan = get_datum(type_string).cartan
    s, _, _ = smith_normal_form(cartan)
    assert prod(s[i][i] for i in range(len(cartan))) == abs(int_det(cartan))
