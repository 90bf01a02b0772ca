import gc
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from weightlab import tensor, weyl
from weightlab import (DominanceRegimeError, dominant_weights_below, prv_component,
                       stable_multiplicity_check, tensor_decompose, tensor_multiplicity,
                       weyl_dimension, weyl_group_elements)
from weightlab.charcalc import character, expanded_weight_table
from weightlab.rootdata import RootDatum, build_root_datum
from weightlab.tensor import INT64_MAX, _expanded_table, _fold_dtype, _fold_points, _klimyk
from conftest import get_datum
from oracles import (brute_tensor, cg_closed_form, per_root_freudenthal, random_dominant,
                     unique_klimyk)


def test_clebsch_gordan_examples():
    a1 = get_datum("A1")
    assert tensor_decompose(a1, (2,), (2,)).summands == {(4,): 1, (2,): 1, (0,): 1}
    assert tensor_decompose(a1, (2,), (2,)).summands == cg_closed_form(2, 2)
    assert tensor_decompose(a1, (2,), (2,)).support() == {(4,), (2,), (0,)}


def test_a1_closed_form_sweep():
    a1 = get_datum("A1")
    for a in range(7):
        for b in range(7):
            assert tensor_decompose(a1, (a,), (b,)).summands == cg_closed_form(a, b)


def test_a2_adjoint_square():
    a2 = get_datum("A2")
    dec = tensor_decompose(a2, (1, 1), (1, 1))
    assert dec.summands == {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}


def test_trivial_factor():
    for ts, lam in [("A2", (2, 1)), ("B2", (1, 1)), ("G2", (0, 1))]:
        datum = get_datum(ts)
        zero = (0,) * datum.rank
        assert tensor_decompose(datum, lam, zero).summands == {lam: 1}
        assert tensor_decompose(datum, lam, zero).support() == {lam}


def test_x_support_example_3x3bar():
    a2 = get_datum("A2")
    assert tensor_decompose(a2, (1, 0), (0, 1)).support() == {(1, 1), (0, 0)}


def test_requires_dominant_inputs():
    with pytest.raises(ValueError):
        tensor_decompose(get_datum("A2"), (-1, 0), (1, 0))


def test_against_brute_force_small():
    rng = random.Random(21)
    caps = {"A1": 6, "A2": 3, "B2": 3, "G2": 2}
    for ts, cap in caps.items():
        datum = get_datum(ts)
        for _ in range(12):
            lam = random_dominant(rng, datum.rank, cap)
            mu = random_dominant(rng, datum.rank, cap)
            assert tensor_decompose(datum, lam, mu).summands == brute_tensor(datum, lam, mu), (ts, lam, mu)


def test_commutativity_and_cartan_component():
    rng = random.Random(22)
    for ts in ["A2", "B2", "A1xA1", "C3"]:
        datum = get_datum(ts)
        for _ in range(20):
            lam = random_dominant(rng, datum.rank, 2)
            mu = random_dominant(rng, datum.rank, 2)
            left = tensor_decompose(datum, lam, mu).summands
            right = tensor_decompose(datum, mu, lam).summands
            assert left == right
            top = tuple(a + b for a, b in zip(lam, mu))
            assert left[top] == 1


def test_dimension_conservation_random():
    rng = random.Random(23)
    for ts in ["A2", "B3", "D4", "G2"]:
        datum = get_datum(ts)
        for _ in range(15):
            lam = random_dominant(rng, datum.rank, 2)
            mu = random_dominant(rng, datum.rank, 2)
            dec = tensor_decompose(datum, lam, mu)
            total = sum(m * weyl_dimension(datum, w) for w, m in dec.summands.items())
            assert total == weyl_dimension(datum, lam) * weyl_dimension(datum, mu)


def test_kostant_bound_on_support():
    # every summand is lam' + mu for a weight lam' of the first factor
    from oracles import expanded
    from weightlab.rootdata import wsub
    datum = get_datum("B2")
    lam, mu = (2, 1), (1, 1)
    pi_lam = set(expanded(datum, lam))
    for nu in tensor_decompose(datum, lam, mu).support():
        assert wsub(nu, mu) in pi_lam


def test_prv_component_examples():
    a2 = get_datum("A2")
    w0 = max(weyl_group_elements(a2), key=len)
    assert prv_component(a2, (1, 1), (1, 1), w0) == (0, 0)
    assert prv_component(a2, (2, 1), (1, 2), ()) == (3, 3)
    a1 = get_datum("A1")
    assert prv_component(a1, (4,), (2,), (1,)) == (2,)
    assert prv_component(a1, (4,), (2,), (1,)) in tensor_decompose(a1, (4,), (2,)).support()


def test_prv_membership_exhaustive_small():
    rng = random.Random(24)
    for ts in ["A2", "B2", "A1xA1"]:
        datum = get_datum(ts)
        words = weyl_group_elements(datum)
        for _ in range(12):
            lam = random_dominant(rng, datum.rank, 3)
            mu = random_dominant(rng, datum.rank, 3)
            support = tensor_decompose(datum, lam, mu).support()
            for word in words:
                assert prv_component(datum, lam, mu, word) in support


def test_stable_multiplicity_examples():
    a1 = get_datum("A1")
    assert stable_multiplicity_check(a1, (4,), (2,))
    assert tensor_decompose(a1, (4,), (2,)).summands == {(6,): 1, (4,): 1, (2,): 1}
    a2 = get_datum("A2")
    assert stable_multiplicity_check(a2, (3, 3), (1, 0))
    with pytest.raises(DominanceRegimeError):
        stable_multiplicity_check(a1, (1,), (2,))


def test_stable_multiplicity_refuses_a_non_dominant_factor_as_input():
    # a non-dominant factor is an input error, not a failed regime
    with pytest.raises(ValueError, match="expected a dominant weight") as info:
        stable_multiplicity_check(get_datum("A1"), (-1,), (0,))
    assert not isinstance(info.value, DominanceRegimeError)


def test_stable_multiplicity_transfers_inner_multiplicities():
    # the adjoint module of B2 carries the zero weight twice, and the regime
    # reproduces that multiplicity at the shifted highest weight
    b2 = get_datum("B2")
    from weightlab import character
    assert character(b2, (0, 2)).entries[(0, 0)] == 2
    assert stable_multiplicity_check(b2, (4, 4), (0, 2))
    assert tensor_decompose(b2, (4, 4), (0, 2)).summands[(4, 4)] == 2


def test_fold_is_exact_up_to_the_int64_guard():
    a1 = get_datum("A1")
    # A1: coroot height 1 and Cartan entry 2, so lam + 2 <= INT64_MAX // 2
    top = INT64_MAX // 2 - 2
    assert tensor_decompose(a1, (top,), (1,)).summands == cg_closed_form(top, 1)
    for lam in (top + 1, 2 ** 63):
        with pytest.raises(ValueError, match="int64"):
            tensor_decompose(a1, (lam,), (1,))


def test_int64_guard_precedes_the_expansion():
    # the huge factor is the smaller one: refused before its character exists
    a1 = get_datum("A1")
    with pytest.raises(ValueError, match="int64"):
        tensor_decompose(a1, (2 ** 63,), (2 ** 64,))
    assert (2 ** 63,) not in a1.memo["interval"]


def test_coefficient_examples():
    a2 = get_datum("A2")
    # (1,1) is a weight of the adjoint module but not extremal, and carries 2
    assert tensor_multiplicity(a2, (1, 1), (1, 1), (1, 1)) == 2
    # (3,0) lies below (2,2) in its coset but is not a summand of 6 (x) 6bar
    assert tensor_multiplicity(a2, (2, 0), (0, 2), (3, 0)) == 0
    assert tensor_multiplicity(a2, (2, 0), (0, 2), (1, 1)) == 1
    # a nu outside the coset of lam + mu
    assert tensor_multiplicity(a2, (1, 0), (1, 0), (1, 0)) == 0
    with pytest.raises(ValueError):
        tensor_multiplicity(a2, (1, 0), (1, 0), (-1, 2))


def test_character_completes_the_table_a_coefficient_began():
    # the coefficient of (1,5) in (1,1) x (2,2) reads mu = (2,2)'s table down
    # to depth (1,0) only; the character of mu then walks and computes the
    # rest of that same table
    b2 = build_root_datum("B2")
    mu = (2, 2)
    assert tensor_multiplicity(b2, (1, 1), mu, (1, 5)) == 1
    part = b2.memo["interval"][mu]
    assert part.floor == (1, 0) and len(part.table) == 2 and part.cut
    full = character(b2, mu).entries
    assert full is part.table
    assert full == character(build_root_datum("B2"), mu).entries \
        == per_root_freudenthal(build_root_datum("B2"), mu)
    assert part.floor is None and part.sums is None and not part.cut and not part.queue
    assert b2.stats["interval_misses"] == 1 and b2.stats["interval_extensions"] == 2


def test_zero_at_the_top_walks_nothing():
    # nu + rho - lam - rho = (4,) misses the norm ball |y| <= |mu| = 2
    a1 = build_root_datum("A1")
    assert tensor_multiplicity(a1, (0,), (2,), (4,)) == 0
    assert a1.stats["coefficient_points"] == 0


def test_coefficient_ignores_the_weyl_cap(monkeypatch):
    a3 = get_datum("A3")
    monkeypatch.setattr(weyl, "MAX_WEYL_ELEMENTS", a3.weyl_order - 1)
    assert tensor_multiplicity(a3, (1, 0, 0), (0, 0, 1), (1, 0, 1)) == 1
    # the int64 guard still refuses
    with pytest.raises(ValueError, match="int64"):
        tensor_multiplicity(a3, (INT64_MAX,) * 3, (1, 0, 0), (1, 0, 0))


def test_e8_coefficients_above_the_weyl_cap():
    # |W(E8)| = 696,729,600; c(omega_4, omega_4; omega_j) for j = 1..8
    e8 = get_datum("E8")
    fundamental = [tuple(int(i == j) for i in range(8)) for j in range(8)]
    assert [tensor_multiplicity(e8, fundamental[3], fundamental[3], omega)
            for omega in fundamental] == [3, 6, 17, 70, 38, 17, 5, 1]


def test_coefficients_fold_alike_in_batches_and_by_climb(monkeypatch):
    # every walk folded by _climb, as one numpy batch, or in batches of at
    # most 5 points: the same coefficients, equal to the decomposition's,
    # from the same points
    # their walks reach 8, 4 and 30 points
    cases = (("B3", (2, 1, 2), (2, 2, 1)), ("G2", (3, 2), (2, 3)), ("F4", (1, 0, 1, 1), (1, 1, 0, 1)))
    runs = []
    for climb_max, batch_max in ((10 ** 9, 10 ** 9), (0, 10 ** 9), (0, 5)):
        monkeypatch.setattr(tensor, "_CLIMB_MAX", climb_max)
        monkeypatch.setattr(tensor, "_BATCH_MAX", batch_max)
        run = []
        for type_string, lam, mu in cases:
            datum = build_root_datum(type_string)
            nus = dominant_weights_below(datum, tuple(a + b for a, b in zip(lam, mu)))
            run.append(([tensor_multiplicity(datum, lam, mu, nu) for nu in nus],
                        datum.stats["coefficient_points"]))
        runs.append(run)
    assert runs[0] == runs[1] == runs[2]
    for (type_string, lam, mu), (coefficients, _) in zip(cases, runs[0]):
        datum = build_root_datum(type_string)
        summands = tensor_decompose(datum, lam, mu).summands
        nus = dominant_weights_below(datum, tuple(a + b for a, b in zip(lam, mu)))
        assert coefficients == [summands.get(nu, 0) for nu in nus]


def test_coefficient_is_exact_up_to_the_int64_guard():
    a1 = get_datum("A1")
    # A1: coroot height 1, Cartan entry 2 and det C^-1 = (1), so the guard
    # accepts 2 (lam + mu + nu + 2) <= INT64_MAX
    top = (INT64_MAX - 8) // 4
    expected = cg_closed_form(top, 1)
    for nu in (top - 1, top, top + 1):
        assert tensor_multiplicity(a1, (top,), (1,), (nu,)) == expected.get((nu,), 0)
    with pytest.raises(ValueError, match="int64"):
        tensor_multiplicity(a1, (top + 1,), (1,), (top + 2,))


# (type, mu, limit): the fold bound, Cartan entry * coroot height
# * (max lam + max mu + 1), is put on each side of the limit of a dtype
NARROW_FOLD_CASES = [("A1", (31,), 127), ("A1", (3,), 32767), ("A1", (3,), 2**31 - 1),
                     ("B2", (2, 2), 127), ("B2", (1, 1), 32767),
                     ("G2", (1, 1), 127), ("G2", (0, 1), 32767)]


@pytest.mark.parametrize("type_string, mu, limit", NARROW_FOLD_CASES)
@pytest.mark.parametrize("side", [0, 1])
def test_narrow_fold_matches_int64_oracle(type_string, mu, limit, side):
    datum = build_root_datum(type_string)
    scale = datum._cartan_entry * datum._coroot_height
    top = limit // scale - 1 + side  # max lam + max mu
    lam = (top - max(mu),) + (0,) * (datum.rank - 1)
    dtype = _fold_dtype(datum, lam, mu)
    assert (datum._cartan_entry * datum._coroot_height * (top + 1) <= limit) == (side == 0)
    assert np.iinfo(dtype).max == limit if side == 0 else np.iinfo(dtype).max > limit
    cols, mults = _expanded_table(datum, mu)
    saved = cols.copy(), mults.copy()
    assert tensor_decompose(datum, lam, mu).summands == unique_klimyk(datum, lam, mu)
    # the cached table is the same arrays, unchanged by the fold
    assert datum.memo["expanded_table"][mu][0] is cols
    assert datum.memo["expanded_table"][mu][1] is mults
    # read-only, mults int64, cols the int64 table transposed, C-contiguous,
    # in a dtype no wider than the fold's
    assert not cols.flags.writeable and not mults.flags.writeable
    assert mults.dtype == np.int64
    rows = expanded_weight_table(datum, character(datum, mu))[0]
    assert rows.dtype == np.int64 and np.array_equal(cols.T, rows)
    assert cols.flags.c_contiguous and np.can_cast(cols.dtype, dtype, "safe")
    assert np.array_equal(cols, saved[0]) and np.array_equal(mults, saved[1])


@pytest.mark.parametrize("type_string, lam, mu, dtype", [
    ("A2", (1, 1), (1, 1), np.int8), ("A1", (100,), (3,), np.int16),
    ("A1", (40000,), (3,), np.int32), ("A1", (4 * 10 ** 18,), (1,), np.int64)])
def test_summands_are_python_ints_at_every_fold_dtype(type_string, lam, mu, dtype):
    # check_weight refuses numpy scalars, and a closure reads summands back
    # as weights
    datum = build_root_datum(type_string)
    assert _fold_dtype(datum, lam, mu) == dtype
    summands = tensor_decompose(datum, lam, mu).summands
    assert summands == unique_klimyk(datum, lam, mu)
    for weight, mult in summands.items():
        assert type(weight) is tuple and all(type(x) is int for x in weight)
        assert type(mult) is int and datum.check_weight(weight) == weight


@pytest.mark.parametrize("count", [tensor._CLIMB_MAX, tensor._CLIMB_MAX + 1])
def test_fold_points_are_python_ints_by_climb_and_by_batch(count):
    # a batch of at most _CLIMB_MAX points folds by _climb, a longer one as
    # one int64 array; both give tuples of ints, beyond 2^31 too
    datum = get_datum("B3")
    rng = random.Random(count)
    big = 2 ** 40
    batch = [(tuple(rng.randint(-big, big) for _ in range(3)), 1) for _ in range(count)]
    shift = (big, 1, 2)
    points = list(_fold_points(datum, batch, shift))
    expected = []
    for x, _ in batch:
        p = [a - b for a, b in zip(x, shift)]
        weyl._climb(datum, p)
        expected.append(tuple(p))
    assert points == expected
    assert all(type(p) is tuple and all(type(x) is int for x in p) for p in points)


def test_expanded_table_is_narrowest_that_holds_it():
    # A5 (2,2,2,2,2): entries at most 10 in absolute value, so int8
    datum = build_root_datum("A5")
    cols, mults = _expanded_table(datum, (2,) * 5)
    assert cols.dtype == np.int8 and int(np.abs(cols).max()) == 10
    assert cols.shape == (5, 62683) and mults.shape == (62683,)


def test_fold_counts_rows_and_sweeps():
    # one fold of B4 (2,2,2,2) with itself starts from its 30,249-row table
    datum = build_root_datum("B4")
    tensor_decompose(datum, (2,) * 4, (2,) * 4)
    assert datum.stats["fold_rows"] == 30249
    assert datum.stats["fold_sweeps"] == 3
    # the table's entries are at least -14, so lam + rho = 21 rho puts every
    # row in the dominant chamber, and the fold needs no sweep
    sweeps = datum.stats["fold_sweeps"]
    tensor_decompose(datum, (20,) * 4, (2,) * 4)
    assert datum.stats["fold_rows"] == 2 * 30249
    assert datum.stats["fold_sweeps"] == sweeps


@pytest.mark.parametrize("type_string, lam, mu, widths", [
    # a folded coordinate reaches 70,003 > 2^16: a key of its own
    ("A1", (70000,), (3,), ["uint32"]),
    # radices 303 and 5 multiply past 2^8, within 2^16
    ("A2", (300, 2), (1, 1), ["uint16"]),
    ("B2", (2, 2), (2, 2), ["uint8"]),
    # eight radices multiply past 2^16: two keys
    ("E8", (2,) * 8, (0,) * 7 + (1,), ["uint16", "uint8"]),
    # radices 1 and 2^16: the second is a key of its own, as no 16-bit key
    # holds it
    ("A2", (0, 65535), (0, 0), ["uint8", "uint32"]),
])
def test_fold_sorts_on_packed_keys_of_every_width(type_string, lam, mu, widths):
    # the regroup sorts on the keys _packed_keys builds, most significant
    # first, and keeps the summands in lexicographic order
    datum = get_datum(type_string)
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        summands = _klimyk(datum, lam, mu)
    keys = lexsort.call_args.args[0][::-1]
    assert [key.dtype.name for key in keys] == widths
    assert summands == unique_klimyk(datum, lam, mu)
    assert list(summands) == sorted(summands)


def test_cold_decomposition_checks_its_weights_once(monkeypatch):
    # tensor_decompose checks both factors itself; past it only the
    # character of the expanded factor goes through the public check, at
    # its entry and for its one key, and the expansion checks nothing
    datum = build_root_datum("A2")
    calls = []
    check = RootDatum.check_dominant

    def counted(d, lam):
        calls.append(lam)
        return check(d, lam)
    monkeypatch.setattr(RootDatum, "check_dominant", counted)
    tensor_decompose(datum, (2, 1), (1, 0))
    assert calls == [(2, 1), (1, 0), (1, 0), (1, 0)]
    assert datum.stats["weyl_dimension_misses"] == 2
    assert datum.stats["weyl_dimension_hits"] == 1
    # the row count comes from the zero patterns, with no check per key
    char = character(datum, (2, 1))
    calls.clear()
    expanded_weight_table(datum, char)
    assert calls == []


def test_decompositions_are_not_kept_on_the_datum():
    # a result is freed with its last reference: the datum keeps the folded
    # factor's expanded table, not one summand dict per pair, which would
    # hold about 8 MB for these twenty
    datum = build_root_datum("B4")
    mu = (2, 2, 2, 2)
    tensor_decompose(datum, mu, mu)  # warms the character and table of mu
    lams = [(2, 2, 2 + a, 3 + b) for a in range(4) for b in range(5)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for lam in lams:
            assert tensor_decompose(datum, lam, mu).summands
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 2 ** 20
    assert "summands" not in datum.memo
    assert datum.stats["expanded_table_misses"] == 1
