"""Property tests on hypothesis-drawn weights: det C^-1, root coordinates
and dominance against a Fraction inverse of the Cartan matrix, the one
chamber fold against the leftmost-negative oracle, the word it replays,
its length and make_dominant's word, and under the zeros of a dominant
weight against W_J-orbits, the dominant-weight walk, the
orbit-sum Freudenthal recursion against the per-root one, its
root-string classes against W_J-orbits, the weights its strings fold
against the root cone below lam and the roots they fold against the W_J-orbit
of their image under make_dominant's word, the orbit walk, orbit sizes, Weyl
group orders and elements, the coset images the expansion decodes,
expanded weight systems, the Brauer-Klimyk fold,
single tensor coefficients against decompositions and the unpruned orbit
sweep, the invariant form of their norm test, box closures, the perfectness predicate and
the members a descriptor predicts and the coset classes of a box region
against the oracles in oracles.py,
commutativity of tensor products, conservation of dimension, monotonicity
of box closures in the box, and JSON round trips of traces, monoid specs
and lattice specs."""

import json
from collections import Counter
from itertools import combinations
from math import floor, lcm, prod
from operator import gt, le, mul
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from weightlab import (Box, FinAbGroup, LatticeSpec, MonoidSpec, PerfectDescriptor, Subgroup,
                       bounded_perfect_closure, build_root_datum, character, dominance_leq,
                       dominant_weights_below, enumerate_perfect, expand_character, in_lattice,
                       charcalc, is_perfect_in_box, latticecalc, make_dominant, orbit, orbit_size,
                       perfectmonoid, predicted_members, reflect, root_coordinates,
                       support_regular_weight, tensor_decompose, tensor_multiplicity,
                       verify_classification, w0_antifixed_weight, weyl_dimension,
                       weyl_group_elements, apply_word, enumerate_subgroups)
from weightlab.charcalc import _root_strings, expanded_weight_table
from weightlab.constructions import ConstructionTrace, TraceStep
from weightlab.rootdata import pairing, wadd, wsub
from weightlab.tensor import (_big_and_small, _coefficients, _expanded_table, _form, _klimyk,
                              _sweep)
from weightlab.weyl import _climb, orbit_tree
from conftest import get_datum
from oracles import (bfs_orbit, bfs_weyl_group_elements, box_below_with_depth, brute_tensor,
                     classifier_orbit_size, expanded, fraction_inverse_cartan, kostant_multiplicity,
                     pairwise_is_perfect_in_box, pairwise_perfect_closure, per_root_freudenthal,
                     per_weight_predicted_members, prime_power_invariants, sweep_perfect_closure,
                     table_weyl_order, unique_klimyk, bfs_subgroups)

# every simple type of rank <= 6, and two products
TYPES = ([f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
         + [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(3, 7)]
         + ["E6", "F4", "G2", "A1xA2", "B2xG2"])
# the BFS oracle visits the whole orbit, so keep |W| in the low thousands
SMALL_WEYL = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D3",
              "D4", "D5", "F4", "G2", "A1xA2", "B2xG2"]
# every simple type of rank <= 4, and two products
RANK4 = (["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4",
          "F4", "G2", "A1xA2", "B2xG2"])
# every simple type of rank <= 8, and three products
RANK8 = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
         + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
         + ["E6", "E7", "E8", "F4", "G2", "A1xA2", "B2xG2", "A3xD4"])
# the types above whose Weyl group has at most 2000 elements, and A1xA1
WEYL_2000 = [t for t in RANK8 if table_weyl_order(get_datum(t)) <= 2000] + ["A1xA1"]
# small types whose box closures the sweep oracle recomputes
CLOSURE_TYPES = ["A1", "A2", "B2", "G2", "A1xA1", "A3"]
# RANK8, and three products with repeated factors
INVERSE_TYPES = RANK8 + ["A1xA1", "D4xD4", "A2xA2"]


def box_volume(datum, lam) -> int:
    """Points of the root-coordinate box the oracle walk visits below lam."""
    vol = 1
    for k in root_coordinates(datum, lam):
        vol *= floor(k) + 1
    return vol


def dominant_weights(datum, max_coord: int = 3, max_box: int = 5000):
    """Dominant weights with coordinates <= max_coord, lowered coordinate by
    coordinate in a drawn order until the box below holds at most max_box
    points, so the box oracle stays cheap on every type."""
    def fit(drawn):
        lam, order = list(drawn[0]), drawn[1]
        for i in order:
            while lam[i] and box_volume(datum, lam) > max_box:
                lam[i] -= 1
        return tuple(lam)
    coords = st.tuples(*[st.integers(0, max_coord)] * datum.rank)
    return st.tuples(coords, st.permutations(range(datum.rank))).map(fit)


@pytest.mark.parametrize("type_string", TYPES)
@given(data=st.data())
def test_walk_matches_box_oracle(type_string, data):
    datum = get_datum(type_string)
    lam = data.draw(dominant_weights(datum), label="lam")
    # same weights, same order, and lam's table holds the same root coordinates
    below = box_below_with_depth(datum, lam)
    assert dominant_weights_below(datum, lam) == [w for w, _ in below]
    assert charcalc._interval(datum, lam).seen == dict(below)


def oracle_root_coordinates(datum, lam) -> tuple:
    """C^-1 lam from the Fraction Gauss-Jordan inverse."""
    inverse = fraction_inverse_cartan(datum.cartan)
    return tuple(sum(k * x for k, x in zip(row, lam)) for row in inverse)


@pytest.mark.parametrize("type_string", INVERSE_TYPES)
def test_adjugate_matches_fraction_inverse(type_string):
    datum = get_datum(type_string)
    inverse = fraction_inverse_cartan(datum.cartan)
    assert datum._det == lcm(*(k.denominator for row in inverse for k in row))
    assert datum._np_adjugate.tolist() == [[k * datum._det for k in row] for row in inverse]


@pytest.mark.parametrize("type_string", RANK8 + ["A2xB2", "A3xD5xE6"])
def test_coroot_height_and_exponent_match_roots_and_smith_form(type_string):
    # h - 1 from the root count against the highest coroot walked, and the
    # fraction-free exponent of P/Q against the Smith invariant factors
    datum = get_datum(type_string)
    assert datum._coroot_height == oracles.max_coroot_height(datum)
    assert datum._det == lcm(*datum.cocenter.orders)


@pytest.mark.parametrize("type_string", INVERSE_TYPES)
@given(data=st.data())
def test_root_coordinates_match_fraction_inverse(type_string, data):
    datum = get_datum(type_string)
    lam = data.draw(st.tuples(*[st.integers(-10, 10)] * datum.rank), label="lam")
    assert root_coordinates(datum, lam) == oracle_root_coordinates(datum, lam)


@pytest.mark.parametrize("type_string", INVERSE_TYPES)
@given(data=st.data())
def test_dominance_matches_fraction_inverse(type_string, data):
    # lam - mu is a drawn combination of simple roots, mostly nonnegative,
    # plus a drawn weight that is zero half the time
    datum = get_datum(type_string)
    mu = data.draw(st.tuples(*[st.integers(-3, 3)] * datum.rank), label="mu")
    k = data.draw(st.tuples(*[st.integers(-1, 3)] * datum.rank), label="k")
    noise = data.draw(st.one_of(st.just((0,) * datum.rank),
                                st.tuples(*[st.integers(-1, 1)] * datum.rank)), label="noise")
    lam = tuple(m + e + sum(row[j] * k[j] for j in range(datum.rank))
                for m, e, row in zip(mu, noise, datum.cartan))
    diff = tuple(a - b for a, b in zip(lam, mu))
    expected = all(c.denominator == 1 and c >= 0 for c in oracle_root_coordinates(datum, diff))
    assert dominance_leq(datum, mu, lam) == expected


@pytest.mark.parametrize("type_string, lam", [
    ("E6", (1, 1, 0, 0, 0, 1)), ("F4", (1, 1, 1, 1)), ("A5", (2, 2, 2, 2, 2)),
    ("C6", (0, 1, 0, 0, 0, 1)), ("D6", (1, 0, 0, 1, 0, 1))])
def test_walk_matches_box_oracle_beyond_drawn_boxes(type_string, lam):
    datum = get_datum(type_string)
    below = box_below_with_depth(datum, lam)
    assert dominant_weights_below(datum, lam) == [w for w, _ in below]
    assert charcalc._interval(datum, lam).seen == dict(below)


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_floored_walk_matches_box_oracle(type_string, data):
    # the walk cut at a floor holds exactly the weights of the whole walk no
    # deeper than the floor, in the same order, and cuts only deeper ones
    datum = get_datum(type_string)
    lam = data.draw(dominant_weights(datum), label="lam")
    below = box_below_with_depth(datum, lam)
    deepest = [max(d[j] for _, d in below) for j in range(datum.rank)]
    floor = data.draw(st.tuples(*[st.integers(0, k) for k in deepest]), label="floor")
    seen, cut = {}, {}
    added = charcalc._walk(datum, seen, {lam: (0,) * datum.rank}, floor, cut)
    assert added == [(w, d) for w, d in below if all(map(le, d, floor))]
    assert seen == dict(added)
    assert all(dict(below)[w] == d and any(map(gt, d, floor)) for w, d in cut.items())


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_partial_table_grows_to_the_full_character(type_string, data):
    # a fresh datum, so that the table starts from lam alone, and a second
    # one for the whole character; each extension asks for the depth of a
    # drawn weight below lam, in drawn order
    datum = build_root_datum(type_string)
    lam = data.draw(dominant_weights(datum), label="lam")
    below = dict(box_below_with_depth(datum, lam))
    other = build_root_datum(type_string)
    full = character(other, lam).entries
    assert full == per_root_freudenthal(other, lam)
    part = charcalc._interval(datum, lam)
    floor = (0,) * datum.rank
    for mu in data.draw(st.lists(st.sampled_from(sorted(below)), min_size=2, max_size=3),
                        label="mu"):
        floor = tuple(map(max, floor, below[mu]))
        table = part.extend(datum, below[mu])
        within = [w for w, d in below.items() if all(map(le, d, floor))]
        assert part.floor == floor
        assert part.seen == {w: below[w] for w in within}
        assert table == {w: full[w] for w in within}
    # the character completes the same table, which then keeps no sums
    assert character(datum, lam).entries == full
    assert part.floor is None and part.sums is None and not part.cut and not part.queue
    assert datum.stats["interval_misses"] == 1


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_below_count_bound_is_a_lower_bound(type_string, data):
    datum = get_datum(type_string)
    lam = data.draw(dominant_weights(datum), label="lam")
    assert charcalc._below_count_bound(datum, lam) <= len(dominant_weights_below(datum, lam))


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_below_count_bound_counts_the_coordinate_box(type_string, data):
    # exactly the dominant weights below lam that are coordinatewise <= lam
    datum = get_datum(type_string)
    lam = data.draw(dominant_weights(datum), label="lam")
    assert charcalc._below_count_bound(datum, lam) == sum(
        all(map(le, w, lam)) for w in dominant_weights_below(datum, lam))


def weights_with_zeros(datum, max_dim: int):
    """Dominant weights with coordinates <= 3, a drawn nonempty set of them
    zero (all of them on a rank-1 type), lowered coordinate by coordinate in
    a drawn order until the dimension is at most max_dim."""
    def fit(drawn):
        lam, zeros, order = list(drawn[0]), drawn[1], drawn[2]
        for i in zeros:
            lam[i] = 0
        for i in order:
            while lam[i] and weyl_dimension(datum, tuple(lam)) > max_dim:
                lam[i] -= 1
        return tuple(lam)
    zeros = st.sets(st.integers(0, datum.rank - 1), min_size=1,
                    max_size=max(1, datum.rank - 1))
    return st.tuples(st.tuples(*[st.integers(0, 3)] * datum.rank), zeros,
                     st.permutations(range(datum.rank))).map(fit)


@pytest.mark.parametrize("type_string", RANK8)
@given(data=st.data())
def test_character_matches_per_root_freudenthal(type_string, data):
    # a zero coordinate of lam, or of any mu below it, is where the strings
    # of a stabilizer orbit are grouped
    datum = get_datum(type_string)
    lam = data.draw(weights_with_zeros(datum, 10 ** 5), label="lam")
    assert character(datum, lam).entries == per_root_freudenthal(datum, lam)


# types with long root strings through lam, each with its coordinate cap:
# where the recursion closes most strings by a stored sum
LONG_STRINGS = [("A1", 300), ("A2", 12), ("B2", 12), ("G2", 12)]


@pytest.mark.parametrize("type_string, cap", LONG_STRINGS)
@given(data=st.data())
def test_stored_string_sums_match_per_root_freudenthal(type_string, cap, data):
    # a fresh datum, so that every draw runs the recursion cold
    datum = build_root_datum(type_string)
    lam = data.draw(st.tuples(*[st.integers(0, cap)] * datum.rank), label="lam")
    entries = character(datum, lam).entries
    assert entries == per_root_freudenthal(datum, lam)
    for mu in data.draw(st.lists(st.sampled_from(sorted(entries)), max_size=2), label="mu"):
        assert entries[mu] == kostant_multiplicity(datum, lam, mu)


def string_folds(type_string, lam) -> tuple:
    """A fresh datum, so that the recursion runs, and the (nu, alpha, eta,
    beta) of each string step that character(datum, lam) folds there: nu to
    its dominant representative eta, and alpha, in fundamental coordinates,
    to the root beta whose stored sum at eta the string reads."""
    datum = build_root_datum(type_string)
    fold = charcalc._fold_string
    folds = []

    def record(datum, nu, fund):
        eta, beta = fold(datum, nu, fund)
        folds.append((nu, fund, eta, beta))
        return eta, beta

    with mock.patch.object(charcalc, "_fold_string", record):
        character(datum, lam)
    return datum, folds


def folded_weights(type_string, lam) -> tuple:
    """A fresh datum and the weights nu that character(datum, lam) folds."""
    datum, folds = string_folds(type_string, lam)
    return datum, [nu for nu, *_ in folds]


def assert_folds_stay_in_the_root_cone(type_string, lam):
    # a string stops where mu + k alpha leaves lam - Q+, so every weight it
    # folds lies below lam
    datum, folded = folded_weights(type_string, lam)
    if folded:
        diffs = np.array([[a - b for a, b in zip(lam, nu)] for nu in folded], dtype=np.int64)
        assert datum.in_root_cone(diffs).all()


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_string_walks_fold_only_weights_below_lam(type_string, data):
    lam = data.draw(dominant_weights(get_datum(type_string)), label="lam")
    assert_folds_stay_in_the_root_cone(type_string, lam)


@pytest.mark.parametrize("type_string, lam", [("B6", (1, 0, 0, 1, 0, 0)),
                                              ("D5", (2, 2, 3, 2, 0))])
def test_string_walks_fold_only_weights_below_lam_examples(type_string, lam):
    # strings that fold weights, each below lam
    assert folded_weights(type_string, lam)[1]
    assert_folds_stay_in_the_root_cone(type_string, lam)


@pytest.mark.parametrize("type_string, lam, mapped", [("D5", (2, 2, 3, 2, 0), 1692),
                                                      ("E6", (1,) * 6, 1273)])
def test_string_folds_read_the_sum_of_the_stabilizer_representative(type_string, lam, mapped):
    # a string from mu whose step nu = mu + alpha is not a dominant weight
    # walked along alpha reads the sum S_beta(eta): eta the dominant
    # representative of nu, and beta the J-dominant root in the W_J-orbit of
    # w alpha, J the zero coordinates of eta and w the word of
    # make_dominant(nu); beta differs from w alpha at ``mapped`` folds inside
    # the weight system
    datum, folds = string_folds(type_string, lam)
    assert datum.stats["freudenthal_jumped"] > 0
    members = set(dominant_weights_below(datum, lam))
    positive = {alpha.fund for alpha in datum.positive_roots}
    moved = 0
    for nu, fund, eta, beta in folds:
        word = make_dominant(datum, nu).word
        assert apply_word(datum, word, nu) == eta
        zeros = [j for j in range(datum.rank) if eta[j] == 0]
        w_alpha = apply_word(datum, word, fund)
        assert beta in positive and w_alpha in positive
        assert all(beta[j] >= 0 for j in zeros)
        assert beta in w_j_orbit(datum, w_alpha, zeros)
        moved += eta in members and beta != w_alpha
    assert moved == mapped
    assert character(datum, lam).entries == per_root_freudenthal(datum, lam)


def w_j_orbit(datum, fund, nodes) -> set:
    """Orbit of a root, in fundamental coordinates, under the simple
    reflections of ``nodes``, by breadth-first search."""
    seen = {fund}
    frontier = [fund]
    while frontier:
        nxt = []
        for x in frontier:
            for j in nodes:
                y = reflect(datum, j + 1, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


@pytest.mark.parametrize("type_string", RANK8)
def test_root_string_classes_are_stabilizer_orbits(type_string):
    datum = get_datum(type_string)
    positive = {alpha.fund for alpha in datum.positive_roots}
    for zeros in range(1 << datum.rank):
        strings = _root_strings(datum, zeros)
        assert sum(count for *_, count in strings) == len(positive)
        # each count is the number of positive roots in the W_J-orbit of
        # its representative
        nodes = [j for j in range(datum.rank) if zeros >> j & 1]
        for fund, *_, count in strings:
            assert len(w_j_orbit(datum, fund, nodes) & positive) == count


@pytest.mark.parametrize("type_string", RANK8)
@given(data=st.data())
def test_dominant_representative_matches_make_dominant(type_string, data):
    # the one chamber fold: its result is the leftmost-negative oracle's, each
    # reflection is in the first negative coordinate, they replay to it, one
    # per positive coroot pairing negatively with lam, and read backwards
    # they are make_dominant's word
    datum = get_datum(type_string)
    lam = data.draw(st.tuples(*[st.integers(-6, 6)] * datum.rank), label="lam")
    x = list(lam)
    applied = _climb(datum, x)
    assert tuple(x) == oracles.leftmost_dominant(datum, lam)
    y = lam
    for i in applied:
        assert i == min(j for j, c in enumerate(y) if c < 0)
        y = reflect(datum, i + 1, y)
    assert apply_word(datum, [i + 1 for i in reversed(applied)], lam) == tuple(x)
    inverted = sum(sum(map(mul, alpha.coroot, lam)) < 0 for alpha in datum.positive_roots)
    assert len(applied) == inverted
    res = make_dominant(datum, lam)
    assert res.dominant == tuple(x)
    assert res.word == tuple(i + 1 for i in reversed(applied))


@pytest.mark.parametrize("type_string", RANK8)
@given(data=st.data())
def test_batch_fold_matches_climb(type_string, data):
    # the batch fold: looping tensor._sweep takes each column to the dominant
    # representative _climb reaches, with the parity of its reflections
    datum = get_datum(type_string)
    weights = data.draw(st.lists(st.one_of(st.tuples(*[st.integers(-6, 6)] * datum.rank),
                                           st.tuples(*[st.integers(0, 6)] * datum.rank)),
                                 max_size=40), label="weights")
    x = np.array(weights, dtype=np.int64).reshape(-1, datum.rank).T.copy()
    odd = np.zeros(len(weights), dtype=bool)
    while _sweep(datum, x, odd):
        pass
    for lam, col, parity in zip(weights, x.T.tolist(), odd.tolist()):
        y = list(lam)
        applied = _climb(datum, y)
        assert col == y
        assert parity == len(applied) % 2


@pytest.mark.parametrize("type_string", RANK8)
def test_batch_fold_leaves_a_dominant_array_alone(type_string):
    datum = get_datum(type_string)
    empty = np.zeros((datum.rank, 0), dtype=np.int64)
    assert not _sweep(datum, empty, np.zeros(0, dtype=bool))
    x = np.array([[0] * datum.rank, [1] * datum.rank, list(range(datum.rank))],
                 dtype=np.int8).T.copy()
    odd = np.array([False, True, False])
    before = x.copy()
    assert not _sweep(datum, x, odd)
    assert np.array_equal(x, before) and odd.tolist() == [False, True, False]


@pytest.mark.parametrize("type_string", RANK8)
@given(data=st.data())
def test_fold_under_stabilizer_nodes_reaches_its_w_j_orbit(type_string, data):
    # the fold under the zeros J of a dominant weight takes a positive root
    # to a J-dominant positive root in its W_J-orbit
    datum = get_datum(type_string)
    eta = data.draw(st.tuples(*[st.integers(0, 1)] * datum.rank), label="eta")
    alpha = data.draw(st.sampled_from(datum.positive_roots), label="alpha")
    zeros = [j for j in range(datum.rank) if eta[j] == 0]
    b = list(alpha.fund)
    _climb(datum, b, zeros)
    assert all(b[j] >= 0 for j in zeros)
    assert tuple(b) in w_j_orbit(datum, alpha.fund, zeros)
    assert tuple(b) in {root.fund for root in datum.positive_roots}


@pytest.mark.parametrize("type_string", SMALL_WEYL)
@given(data=st.data())
def test_orbit_matches_bfs_oracle(type_string, data):
    datum = get_datum(type_string)
    lam = data.draw(st.tuples(*[st.integers(-3, 3)] * datum.rank), label="lam")
    orb = orbit(datum, lam)
    assert orb == bfs_orbit(datum, lam)
    dominant = [w for w in orb if min(w) >= 0]
    assert len(dominant) == 1
    assert len(orb) == orbit_size(datum, dominant[0])


@pytest.mark.parametrize("type_string", RANK8)
@settings(max_examples=5)
@given(data=st.data())
def test_orbit_size_matches_classifier_on_every_zero_pattern(type_string, data):
    # the orbit size depends only on which coordinates are zero; the drawn
    # values fill the others
    datum = get_datum(type_string)
    values = data.draw(st.tuples(*[st.integers(1, 5)] * datum.rank), label="values")
    for zeros in range(1 << datum.rank):
        lam = tuple(0 if zeros >> i & 1 else v for i, v in enumerate(values))
        assert orbit_size(datum, lam) == classifier_orbit_size(datum, lam)


@pytest.mark.parametrize("type_string", RANK8)
def test_weyl_order_matches_table(type_string):
    datum = get_datum(type_string)
    assert datum.weyl_order == table_weyl_order(datum)


@pytest.mark.parametrize("type_string", WEYL_2000)
def test_weyl_group_elements_match_bfs_oracle(type_string):
    datum = get_datum(type_string)
    assert weyl_group_elements(datum) == bfs_weyl_group_elements(datum)


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_expand_character_matches_bfs_expansion(type_string, data):
    datum = get_datum(type_string)
    lam = data.draw(dominant_weights(datum, max_box=500), label="lam")
    assert expand_character(datum, character(datum, lam)) == expanded(datum, lam)


def decoded_images(datum, free) -> np.ndarray:
    """The coset images of the zero pattern whose free coordinates are
    ``free``, one (cosets, rank) plane per free coordinate."""
    zeros = sum(1 << i for i in range(datum.rank) if i not in free)
    images = charcalc._coset_images(datum, zeros)
    assert images.dtype == np.int64 and images.shape[0] == len(free)
    return images.reshape(len(free), -1, datum.rank)


def fundamental(datum, i) -> tuple:
    return tuple(int(j == i) for j in range(datum.rank))


@pytest.mark.parametrize("type_string", [t for t in RANK8 if "x" not in t] + ["A1xA2"])
def test_coset_images_match_bfs_orbits(type_string):
    datum = get_datum(type_string)
    m = max(max(alpha.coroot) for alpha in datum.positive_roots)
    for i in range(datum.rank):
        # the BFS oracle would take most of a minute on the two largest
        # fundamental orbits of E8, 241,920 and 483,840 points
        if orbit_size(datum, fundamental(datum, i)) > 100_000:
            continue
        (plane,) = decoded_images(datum, [i])
        assert Counter(map(tuple, plane.tolist())) \
            == Counter(bfs_orbit(datum, fundamental(datum, i)))
        assert np.abs(plane).max() <= m
    if datum.rank == 1:
        return
    # one two-coordinate class, the two ends (on A1xA2, one per factor): each
    # plane runs over the orbit of its fundamental weight, every point
    # equally often, and a combination of the planes over the orbit of that
    # combination
    i, j = 0, datum.rank - 1
    planes = decoded_images(datum, [i, j])
    assert np.abs(planes).max() <= m
    for plane, k in zip(planes, (i, j)):
        orb = bfs_orbit(datum, fundamental(datum, k))
        assert Counter(map(tuple, plane.tolist())) \
            == Counter({w: len(plane) // len(orb) for w in orb})
    lam = tuple(int(k == i) + 2 * int(k == j) for k in range(datum.rank))
    assert Counter(map(tuple, (planes[0] + 2 * planes[1]).tolist())) \
        == Counter(bfs_orbit(datum, lam))


@pytest.mark.parametrize("type_string", RANK4 + ["E6"])
@given(data=st.data())
def test_expanded_weight_table_matches_bfs_orbits(type_string, data):
    datum = get_datum(type_string)
    lam = data.draw(dominant_weights(datum, max_box=500), label="lam")
    char = character(datum, lam)
    rows, mults = expanded_weight_table(datum, char)
    assert rows.dtype == mults.dtype == np.int64
    assert rows.shape == (len(mults), datum.rank)
    # the same (row, mult) pairs, each as often, order aside
    assert Counter(zip(map(tuple, rows.tolist()), mults.tolist())) \
        == Counter((v, m) for w, m in char.entries.items() for v in bfs_orbit(datum, w))


@pytest.mark.parametrize("type_string", TYPES)
@given(data=st.data())
def test_character_conserves_dimension(type_string, data):
    datum = get_datum(type_string)
    lam = data.draw(dominant_weights(datum), label="lam")
    char = character(datum, lam)
    assert sum(m * orbit_size(datum, w) for w, m in char.entries.items()) \
        == weyl_dimension(datum, lam)


def dominant_pairs(datum, max_lam: int, max_mu: int, max_dim: int):
    """Pairs (lam, mu) of dominant weights with coordinates <= max_lam and
    <= max_mu, lowered coordinate by coordinate in a drawn order until
    dim lam * dim mu <= max_dim."""
    def fit(drawn):
        lam, mu, order = list(drawn[0]), list(drawn[1]), drawn[2]
        for w, i in order:
            w = mu if w else lam
            while w[i] and weyl_dimension(datum, lam) * weyl_dimension(datum, mu) > max_dim:
                w[i] -= 1
        return tuple(lam), tuple(mu)
    slots = [(w, i) for i in range(datum.rank) for w in (1, 0)]
    return st.tuples(st.tuples(*[st.integers(0, max_lam)] * datum.rank),
                     st.tuples(*[st.integers(0, max_mu)] * datum.rank),
                     st.permutations(slots)).map(fit)


def wall_rows(datum, lam, mu) -> int:
    """Rows of the expanded table of mu that lam + rho moves onto a wall."""
    cols, _ = _expanded_table(datum, mu)
    return int((cols + [[x + 1] for x in lam] == 0).any(axis=0).sum())


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_fold_matches_oracles(type_string, data):
    datum = get_datum(type_string)
    lam, mu = data.draw(dominant_pairs(datum, 2, 2, 400), label="pair")
    fold = _klimyk(datum, lam, mu)
    assert fold == unique_klimyk(datum, lam, mu)
    assert fold == brute_tensor(datum, lam, mu)


# rank 5: mu in {0,1}^5, lam = mu + an offset in [0,2]^5; lam = mu = rho
# needs two or more sweeps on each type
@pytest.mark.parametrize("type_string", ["A5", "B5", "D5"])
@given(mu=st.tuples(*[st.integers(0, 1)] * 5), offset=st.tuples(*[st.integers(0, 2)] * 5))
@example(mu=(1,) * 5, offset=(0,) * 5)
def test_fold_matches_oracles_beyond_rank_4(type_string, mu, offset):
    datum = get_datum(type_string)
    lam = tuple(m + o for m, o in zip(mu, offset))
    fold = _klimyk(datum, lam, mu)
    assert fold == unique_klimyk(datum, lam, mu)
    # the product's weight table costs |weights of lam| * |weights of mu|
    if weyl_dimension(datum, lam) * weyl_dimension(datum, mu) <= 10 ** 5:
        assert fold == brute_tensor(datum, lam, mu)


@pytest.mark.parametrize("type_string", ["A5", "B5", "D5"])
def test_fold_of_rho_with_itself_takes_several_sweeps(type_string):
    datum = build_root_datum(type_string)
    _klimyk(datum, (1,) * 5, (1,) * 5)
    assert datum.stats["fold_sweeps"] >= 2


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_fold_with_many_wall_rows(type_string, data):
    # a small lam against a larger mu puts many rows of mu's table on walls
    datum = get_datum(type_string)
    lam, mu = data.draw(dominant_pairs(datum, 1, 3, 10 ** 5), label="pair")
    assert _klimyk(datum, lam, mu) == unique_klimyk(datum, lam, mu)


@pytest.mark.parametrize("type_string", RANK4)
def test_fold_of_trivial_factor(type_string):
    datum = get_datum(type_string)
    zero = (0,) * datum.rank
    # mu_1 = 1, so s_1(mu) + rho has a zero coordinate
    mu = ((1, 2) + zero)[:datum.rank]
    assert wall_rows(datum, zero, mu) > 0
    assert _klimyk(datum, zero, mu) == unique_klimyk(datum, zero, mu) == {mu: 1}


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_tensor_product_commutes(type_string, data):
    datum = get_datum(type_string)
    lam, mu = data.draw(dominant_pairs(datum, 3, 3, 10 ** 5), label="pair")
    # folding over either factor gives the same decomposition
    assert _klimyk(datum, lam, mu) == _klimyk(datum, mu, lam)
    assert tensor_decompose(datum, lam, mu).summands \
        == tensor_decompose(datum, mu, lam).summands


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_tensor_product_conserves_dimension(type_string, data):
    datum = get_datum(type_string)
    lam, mu = data.draw(dominant_pairs(datum, 4, 4, 10 ** 7), label="pair")
    summands = tensor_decompose(datum, lam, mu).summands
    assert sum(m * weyl_dimension(datum, nu) for nu, m in summands.items()) \
        == weyl_dimension(datum, lam) * weyl_dimension(datum, mu)


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_coefficient_matches_decomposition(type_string, data):
    datum = get_datum(type_string)
    max_dim = data.draw(st.sampled_from([400, 10 ** 4]), label="max_dim")
    lam, mu = data.draw(dominant_pairs(datum, 3, 3, max_dim), label="pair")
    summands = tensor_decompose(datum, lam, mu).summands
    if weyl_dimension(datum, lam) * weyl_dimension(datum, mu) <= 400:
        assert summands == brute_tensor(datum, lam, mu)
    # every dominant nu <= lam + mu: summands, zeros and non-extremal points
    for nu in dominant_weights_below(datum, tuple(a + b for a, b in zip(lam, mu))):
        assert tensor_multiplicity(datum, lam, mu, nu) == summands.get(nu, 0), nu


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_pruned_coefficient_matches_unpruned_oracle(type_string, data):
    datum = get_datum(type_string)
    lam, mu = data.draw(dominant_pairs(datum, 3, 3, 10 ** 4), label="pair")
    top = tuple(a + b for a, b in zip(lam, mu))
    # every dominant nu <= lam + mu, and lam + mu -+ omega_i: the former in
    # another coset on a nontrivial cocenter, the latter not below lam + mu
    nus = list(dominant_weights_below(datum, top))
    shifted = [top[:i] + (top[i] + step,) + top[i + 1:]
               for i in range(datum.rank) for step in (-1, 1) if top[i] + step >= 0]
    assert datum._det == 1 or any(not dominance_leq(datum, nu, top)
                                  and not dominance_leq(datum, top, nu) for nu in shifted)
    for nu in nus + shifted:
        assert tensor_multiplicity(datum, lam, mu, nu) \
            == oracles.unpruned_tensor_multiplicity(datum, lam, mu, nu), nu


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_coefficient_folds_every_weight_and_nothing_outside_the_norm_ball(type_string, data):
    datum = get_datum(type_string)
    lam, mu = data.draw(dominant_pairs(datum, 3, 3, 10 ** 4), label="pair")
    top = tuple(a + b for a, b in zip(lam, mu))
    nu = data.draw(st.sampled_from(dominant_weights_below(datum, top)), label="nu")
    folds = datum.stats["coefficient_points"]
    tensor_multiplicity(datum, lam, mu, nu)
    folds = datum.stats["coefficient_points"] - folds
    # each point x of W(nu + rho) with x - lam - rho a weight of L(mu) is
    # walked and folded; a point outside |x - lam - rho| <= |mu| is not folded
    weights = expanded(datum, mu)
    ys = [tuple(a - b - 1 for a, b in zip(x, lam))
          for x in bfs_orbit(datum, tuple(c + 1 for c in nu))]
    assert sum(y in weights for y in ys) <= folds \
        <= sum(pairing(datum, y, y) <= pairing(datum, mu, mu) for y in ys)


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_orbit_tree_yields_the_points_inside_its_cut_once_each(type_string, data):
    # with the step and slack of a coefficient's norm test, the walk yields
    # exactly the orbit points with t = 2 B(top - x, lam + rho) <= slack;
    # uncut, every point, also of an orbit that meets a wall
    datum = get_datum(type_string)
    lam, mu = data.draw(dominant_pairs(datum, 3, 3, 10 ** 4), label="pair")
    shift = wadd(lam, datum.weyl_vector)
    step = [2 * _form(datum, alpha, shift) for alpha in datum.cartan_columns]

    def slack(top):
        diff = wsub(top, shift)
        return _form(datum, mu, mu) - _form(datum, diff, diff)
    # nu = lam + mu passes the norm test at its top
    tops = [wadd(nu, datum.weyl_vector)
            for nu in dominant_weights_below(datum, wadd(lam, mu))]
    top = data.draw(st.sampled_from([x for x in tops if slack(x) >= 0]), label="top")
    coroots = np.array([alpha.coroot for alpha in datum.positive_roots])
    top_orbit = bfs_orbit(datum, top)
    cases = [(mu, (), bfs_orbit(datum, mu)), (top, (), top_orbit),
             (top, (step, slack(top)), {x for x in top_orbit
                                        if 2 * _form(datum, wsub(top, x), shift) <= slack(top)})]
    for start, cut, points in cases:
        walked = list(orbit_tree(datum, start, *cut))
        assert len(walked) == len(points) and {x for x, _ in walked} == points
        if not cut:
            assert len(walked) == orbit_size(datum, start)
        # the sign is the parity of the positive coroots pairing negatively
        negative = (np.array([x for x, _ in walked]) @ coroots.T < 0).sum(axis=1)
        assert [sign for _, sign in walked] == (1 - 2 * (negative & 1)).tolist()


@pytest.mark.parametrize("type_string", RANK4)
@given(data=st.data())
def test_coefficient_form_is_symmetric_and_invariant(type_string, data):
    # the norm test of tensor_multiplicity reads |x - lam - rho|^2 through B
    datum = get_datum(type_string)
    coords = st.tuples(*[st.integers(-5, 5)] * datum.rank)
    a, b = data.draw(coords, label="a"), data.draw(coords, label="b")
    assert _form(datum, a, b) == _form(datum, b, a) == datum._det * pairing(datum, a, b)
    for i in range(datum.rank):
        s_a, s_b = reflect(datum, i + 1, a), reflect(datum, i + 1, b)
        assert _form(datum, s_a, s_b) == _form(datum, a, b)
        # B(alpha_i, b) = det d_i b_i sets the step by which s_i raises the
        # norm test's t
        alpha = datum.cartan_columns[i]
        assert _form(datum, alpha, b) == datum._det * datum.symmetrizer[i] * b[i]


# the strata of the sweep oracle test, and A1xA2 with generators on one factor
ROW_TEST_STRATA = ([(t, mode, None) for t in CLOSURE_TYPES for mode in ("sc", "adjoint")]
                   + [("A1xA2", mode, k) for mode in ("sc", "adjoint") for k in (1, 2)])


def closure_spec(data, type_string, mode, factor=None):
    """A monoid spec of one or two in-lattice generators from Box(2), all on
    one factor when ``factor`` is given, and a box with bound 2 to 5."""
    datum = get_datum(type_string, mode)
    # box weights are dominant: zero off the factor iff its block holds the sum
    weights = [w for w in Box(2).region(datum) if in_lattice(datum, w)
               and (factor is None or sum(datum.project_factor(w, factor)) == sum(w))]
    gens = data.draw(st.lists(st.sampled_from(weights), min_size=1, max_size=2),
                     label="generators")
    return MonoidSpec(datum, tuple(gens)), Box(data.draw(st.integers(2, 5), label="box"))


@pytest.mark.parametrize("mode", ["sc", "adjoint"])
@pytest.mark.parametrize("type_string", CLOSURE_TYPES)
@given(data=st.data())
def test_closure_matches_sweep_oracle(type_string, mode, data):
    spec, box = closure_spec(data, type_string, mode)
    closure = bounded_perfect_closure(spec, box)
    assert closure == sweep_perfect_closure(spec, box)
    assert is_perfect_in_box(spec.datum, closure, box)


@pytest.mark.parametrize("mode", ["sc", "adjoint"])
@pytest.mark.parametrize("type_string", CLOSURE_TYPES)
@given(data=st.data())
def test_closure_grows_with_the_box(type_string, mode, data):
    # within box B, closure(B + 1) contains the generators and is closed, so
    # it contains the least closed set, closure(B)
    datum = get_datum(type_string, mode)
    in_lattice_weights = [w for w in Box(2).region(datum) if in_lattice(datum, w)]
    gens = data.draw(st.lists(st.sampled_from(in_lattice_weights), min_size=1, max_size=2),
                     label="generators")
    bound = data.draw(st.integers(2, 4), label="box")
    spec = MonoidSpec(datum, tuple(gens))
    box = Box(bound)
    larger = bounded_perfect_closure(spec, Box(bound + 1))
    assert bounded_perfect_closure(spec, box) <= {w for w in larger if w in box}


@pytest.mark.parametrize("type_string, mode, factor", ROW_TEST_STRATA)
@given(data=st.data())
def test_row_test_closure_matches_pairwise_oracle(type_string, mode, factor, data):
    spec, box = closure_spec(data, type_string, mode, factor)
    datum = spec.datum
    before = Counter(datum.stats)
    with mock.patch.object(perfectmonoid, "tensor_decompose", wraps=tensor_decompose) as row:
        closure = bounded_perfect_closure(spec, box)
    stats = Counter(datum.stats) - before
    with mock.patch.object(oracles, "tensor_decompose", wraps=tensor_decompose) as pairwise:
        assert closure == pairwise_perfect_closure(spec, box)
    # the pairs the oracle decomposes are decomposed, settled by coefficients
    # or, with a zero factor, settled outright; the counts account for every pair
    zero = sum(not any(call.args[1]) or not any(call.args[2]) for call in pairwise.call_args_list)
    assert row.call_count == stats["closure_decomposed"]
    assert pairwise.call_count == stats["closure_decomposed"] + stats["closure_coefficients"] + zero
    m = len(closure)
    assert stats["closure_pairs"] == m * (m + 1) // 2
    assert stats["closure_settled"] + stats["closure_rechecked"] + stats["closure_decomposed"] \
        + stats["closure_coefficients"] == stats["closure_pairs"]


@pytest.mark.parametrize("type_string, mode, factor", ROW_TEST_STRATA)
@given(data=st.data())
def test_row_test_chunks_do_not_change_the_closure(type_string, mode, factor, data):
    # a row test split into chunks of a few totals, or of one, gives the
    # same members and counts as the default's single chunk per row, and the
    # pairwise oracle's set
    spec, box = closure_spec(data, type_string, mode, factor)
    elements = data.draw(st.integers(1, 64), label="row test elements")
    results = []
    for limit in (perfectmonoid._ROW_TEST_ELEMENTS, elements):
        datum = build_root_datum(type_string, LatticeSpec(mode))
        with mock.patch.object(perfectmonoid, "_ROW_TEST_ELEMENTS", limit):
            closure = bounded_perfect_closure(MonoidSpec(datum, spec.generators), box)
        results.append((closure, {k: v for k, v in datum.stats.items()
                                  if k.startswith("closure_")}))
    assert results[0] == results[1]
    assert results[1][0] == pairwise_perfect_closure(spec, box)


@pytest.mark.parametrize("type_string, mode, factor", ROW_TEST_STRATA)
@given(data=st.data())
def test_coefficients_find_the_missing_summands_below_a_total(type_string, mode, factor, data):
    # a flagged pair's candidates are the missing box weights below its
    # total; the in-box missing summands are among them, and one batch of
    # coefficients, as the closure asks for it, gives each its multiplicity
    datum = get_datum(type_string, mode)
    box = Box(data.draw(st.integers(2, 4), label="box"))
    region = box.region(datum)
    weights = [w for w in region if in_lattice(datum, w)
               and (factor is None or sum(datum.project_factor(w, factor)) == sum(w))]
    a, b = (data.draw(st.sampled_from(weights), label=name) for name in "ab")
    missing = data.draw(st.one_of(st.just(set(region)), st.sets(st.sampled_from(region))),
                        label="missing")
    total = tuple(x + y for x, y in zip(a, b))
    candidates = sorted(h for h in missing if dominance_leq(datum, h, total))
    summands = tensor_decompose(datum, a, b).summands
    assert {w for w in summands if w in box and w in missing} <= set(candidates)
    assert _coefficients(datum, *_big_and_small(datum, a, b), candidates) \
        == [summands.get(h, 0) for h in candidates]


@pytest.mark.parametrize("type_string, mode, factor", ROW_TEST_STRATA)
@given(data=st.data())
def test_closure_pairs_do_not_depend_on_the_settling_path(type_string, mode, factor, data):
    # every flagged pair by coefficients, or every one by a decomposition:
    # the same members, in the same order, so the same pairs are flagged
    spec, box = closure_spec(data, type_string, mode, factor)
    results = []
    for ratio in (0, 10 ** 9):
        datum = build_root_datum(type_string, LatticeSpec(mode))
        with mock.patch.object(perfectmonoid, "_COEFFICIENT_RATIO", ratio):
            closure = bounded_perfect_closure(MonoidSpec(datum, spec.generators), box)
        s = datum.stats
        results.append((closure, s["closure_settled"], s["closure_rechecked"],
                        s["closure_coefficients"] + s["closure_decomposed"]))
        assert s["closure_decomposed" if ratio == 0 else "closure_coefficients"] == 0
    assert results[0] == results[1]


@pytest.mark.parametrize("type_string, mode, factor", ROW_TEST_STRATA)
@given(data=st.data())
def test_perfectness_matches_pairwise_oracle(type_string, mode, factor, data):
    spec, box = closure_spec(data, type_string, mode, factor)
    datum = spec.datum
    closure = bounded_perfect_closure(spec, box)
    assert is_perfect_in_box(datum, closure, box)
    assert pairwise_is_perfect_in_box(datum, closure, box)
    nonzero = sorted(w for w in closure if any(w))
    if nonzero:
        drop = data.draw(st.sampled_from(nonzero), label="dropped")
        members = closure - {drop}
        assert is_perfect_in_box(datum, members, box) \
            == pairwise_is_perfect_in_box(datum, members, box)


@pytest.mark.parametrize("type_string, mode, factor", ROW_TEST_STRATA)
@given(data=st.data())
def test_closure_stops_only_at_the_prediction(type_string, mode, factor, data):
    # for generators in the lattice, the closure's reach set is the
    # prediction: no member leaves it, and rows are skipped exactly when
    # every predicted weight is a member
    spec, box = closure_spec(data, type_string, mode, factor)
    before = spec.datum.stats["closure_rows_skipped"]
    report = verify_classification(spec, box)
    skipped = spec.datum.stats["closure_rows_skipped"] - before
    assert not report.missing_from_prediction
    assert (skipped > 0) == (not report.unreached_in_box)


@pytest.mark.parametrize("type_string, mode, factor", ROW_TEST_STRATA)
@given(data=st.data())
def test_kept_region_holds_no_closure_state(type_string, mode, factor, data):
    # one datum runs closures at B, B + 1 and B again, the perfectness test
    # and a verify on its kept regions; each matches a fresh datum's result
    # and decomposes as many pairs
    spec, box = closure_spec(data, type_string, mode, factor)
    shared = build_root_datum(type_string, LatticeSpec(mode))

    def check(call):
        before = shared.stats["closure_decomposed"]
        got = call(shared), shared.stats["closure_decomposed"] - before
        fresh = build_root_datum(type_string, LatticeSpec(mode))
        assert got == (call(fresh), fresh.stats["closure_decomposed"])
        return got[0]

    def closure(b):
        return lambda datum: bounded_perfect_closure(MonoidSpec(datum, spec.generators), b)
    members = check(closure(box))
    check(closure(Box(box.bound + 1)))
    check(closure(box))
    check(lambda datum: is_perfect_in_box(datum, members, box))
    check(lambda datum: verify_classification(MonoidSpec(datum, spec.generators), box).to_json())
    assert shared.stats["coset_region_misses"] == 2


# RANK4 under sc and adjoint, and three lattices strictly between Q and P
PREDICTION_LATTICES = ([(t, mode, ()) for t in RANK4 for mode in ("sc", "adjoint")]
                       + [("A1xA1", "subgroup", ((1, 1),)), ("A3", "subgroup", ((2,),)),
                          ("D4", "subgroup", ((1, 1),))])


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("type_string, mode, generators", PREDICTION_LATTICES)
def test_prediction_by_coset_matches_per_weight_oracle(type_string, mode, generators, bound):
    datum = get_datum(type_string, mode, generators)
    factors = range(1, datum.n_factors + 1)
    descs = [desc for size in range(datum.n_factors + 1)
             for support in combinations(factors, size)
             for desc in enumerate_perfect(datum, support)]
    # and the whole cocenter, which only the lattice trims
    descs.append(PerfectDescriptor(frozenset(factors), Subgroup.full(datum.cocenter)))
    for desc in descs:
        assert predicted_members(datum, desc, Box(bound)) \
            == per_weight_predicted_members(datum, desc, Box(bound)), desc


# trivial (G2, F4), cyclic (A3, E6) and non-cyclic (D4, D6, A1xA1, A1xA3) cocenters
COCENTER_TYPES = ["G2", "F4", "A3", "E6", "D4", "D6", "A1xA1", "A1xA3"]


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("mode", ["sc", "adjoint"])
@pytest.mark.parametrize("type_string", COCENTER_TYPES)
@given(data=st.data())
def test_region_classes_match_residue_oracle(type_string, mode, bound, data):
    datum = get_datum(type_string, mode)
    cocenter = datum.cocenter
    elements = np.array(cocenter.elements(), dtype=np.int64)
    assert cocenter.index(elements).tolist() == list(range(cocenter.order))
    region = perfectmonoid._coset_region(datum, Box(bound))
    oracle = oracles.ResidueClasses(datum, Box(bound))
    # two weights share a class iff their residues agree: the labels biject
    labels = set(zip(oracle.cls.tolist(), region.cls.tolist()))
    assert len(labels) == len(set(oracle.cls.tolist())) == len(set(region.cls.tolist()))
    to_region = dict(labels)
    index = st.integers(0, len(region.rows) - 1)
    for a, b in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=8), label="pairs"):
        total = tuple((region.rows[a] + region.rows[b]).tolist())
        cls = cocenter.add_at(int(region.cls[a]), int(region.cls[b]))
        projected = np.array(latticecalc.project_to_cocenter(cocenter, total), dtype=np.int64)
        assert cls == cocenter.index(projected)
        assert cls == to_region[oracle.sum_class(oracle.cls[a], oracle.cls[b])]


def round_trip(obj: dict) -> dict:
    """What a reader gets back from the CLI's JSON output."""
    return json.loads(json.dumps(obj))


# small types whose construction traces stay short
TRACE_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "A1xA2", "B2xG2"]


@pytest.mark.parametrize("type_string", TRACE_TYPES)
@given(data=st.data())
def test_construction_trace_json_round_trip(type_string, data):
    datum = get_datum(type_string)
    lam = data.draw(st.tuples(*[st.integers(0, 3)] * datum.rank).filter(any), label="lam")
    omega = data.draw(st.tuples(*[st.integers(1, 2)] * datum.rank), label="omega")
    for trace in (support_regular_weight(datum, lam),
                  w0_antifixed_weight(datum, omega, (0,) * datum.rank)):
        assert ConstructionTrace.from_json(round_trip(trace.to_json())) == trace


def drawn_step(weight, kind, left, right, word) -> TraceStep:
    """A step of the given kind; a generator carries no indices, a sum no word."""
    if kind == "generator":
        return TraceStep(weight, kind)
    return TraceStep(weight, kind, left=left, right=right, word=word if kind == "prv" else None)


@given(steps=st.lists(st.builds(
    drawn_step, weight=st.lists(st.integers(-10, 10), min_size=1, max_size=4).map(tuple),
    kind=st.sampled_from(["generator", "sum", "prv"]), left=st.integers(0, 20),
    right=st.integers(0, 20), word=st.lists(st.integers(1, 4), max_size=6).map(tuple)),
    min_size=1, max_size=6))
def test_drawn_trace_json_round_trip(steps):
    trace = ConstructionTrace(tuple(steps))
    assert ConstructionTrace.from_json(round_trip(trace.to_json())) == trace


def lattice_specs(datum):
    """The sc and adjoint lattices, and subgroup lattices generated by drawn
    cocenter elements."""
    elements = datum.cocenter.elements()
    subgroup = st.lists(st.sampled_from(elements), max_size=2).map(
        lambda gens: LatticeSpec("subgroup", tuple(gens)))
    return st.one_of(st.sampled_from([LatticeSpec("sc"), LatticeSpec("adjoint")]), subgroup)


@pytest.mark.parametrize("type_string", ["A1", "A3", "B2", "D4", "G2", "A1xA2", "A1xA1"])
@given(data=st.data())
def test_monoid_and_lattice_spec_json_round_trip(type_string, data):
    lattice = data.draw(lattice_specs(get_datum(type_string)), label="lattice")
    assert LatticeSpec.from_json(round_trip(lattice.to_json())) == lattice
    datum = get_datum(type_string, lattice.mode, lattice.generators)
    weights = [w for w in Box(3).region(datum) if in_lattice(datum, w)]
    gens = data.draw(st.lists(st.sampled_from(weights), max_size=3), label="generators")
    spec = MonoidSpec(datum, tuple(gens))
    again = MonoidSpec.from_json(round_trip(spec.to_json()))
    assert str(again.datum.ctype) == type_string
    assert again.datum.lattice == lattice
    assert again.generators == spec.generators
    assert again.to_json() == spec.to_json()


@pytest.mark.parametrize("type_string", INVERSE_TYPES)
def test_cocenter_invariants_match_prime_power_oracle(type_string):
    group = get_datum(type_string).cocenter
    assert group.invariants == prime_power_invariants(group.orders)


@settings(max_examples=200)
@given(orders=st.lists(st.integers(2, 60), max_size=5))
def test_drawn_invariants_match_prime_power_oracle(orders):
    group = FinAbGroup(tuple(orders), (1,) * len(orders), ((0,),) * len(orders))
    assert group.invariants == prime_power_invariants(orders)


# cocenters of order <= 64: RANK4, and products with repeated and mixed factors
SUBGROUP_TYPES = [t for t in RANK4 + ["A1xA1xA1xA1xA1", "D4xD4", "A3xA3", "D6xA3xA1"]
                  if get_datum(t).cocenter.order <= 64]


@pytest.mark.parametrize("type_string", SUBGROUP_TYPES)
def test_hermite_walk_matches_subgroup_bfs(type_string):
    group = get_datum(type_string).cocenter
    every = bfs_subgroups(group)
    assert enumerate_subgroups(group) == every
    # each subgroup as the ambient: its subgroups, as the filter over all picks them
    for ambient in every:
        assert enumerate_subgroups(group, ambient) == [s for s in every if s <= ambient]


@given(orders=st.lists(st.integers(2, 9), max_size=3).filter(lambda o: prod(o) <= 64))
def test_hermite_walk_matches_subgroup_bfs_on_drawn_groups(orders):
    group = FinAbGroup(tuple(orders), (1,) * len(orders), ((0,),) * len(orders))
    every = bfs_subgroups(group)
    assert enumerate_subgroups(group) == every
    ambient = every[len(every) // 2]
    assert enumerate_subgroups(group, ambient) == [s for s in every if s <= ambient]


@pytest.mark.parametrize("type_string", SUBGROUP_TYPES)
@given(data=st.data())
def test_generated_subgroup_matches_bfs_closure(type_string, data):
    group = get_datum(type_string).cocenter
    vector = st.tuples(*(st.integers(-2 * d, 2 * d) for d in group.orders))
    gens = data.draw(st.lists(vector, max_size=4), label="generators")
    members = oracles.bfs_closure(group, gens)
    sub = Subgroup.generated(group, gens)
    assert sub.members == members
    assert sub.order == len(members)
    # equal subgroups have equal rows, however they are generated
    assert Subgroup.generated(group, members) == sub
    assert Subgroup.generated(group, members[-2:] + tuple(reversed(gens))) == sub


@pytest.mark.parametrize("type_string", SUBGROUP_TYPES)
def test_subgroup_order_membership_and_inclusion_match_member_lists(type_string):
    group = get_datum(type_string).cocenter
    every = [set(m) for m in oracles.bfs_subgroup_members(group)]
    subs = bfs_subgroups(group)
    assert len({s.rows for s in subs}) == len(subs)
    elements = group.elements()
    for s, m in zip(subs, every):
        assert s.order == len(m)
        assert [e in s for e in elements] == [e in m for e in elements]
    for s, a in zip(subs, every):
        assert [s <= t for t in subs] == [a <= b for b in every]


@pytest.mark.parametrize("type_string", SUBGROUP_TYPES)
def test_admissible_subgroup_matches_element_listing(type_string):
    cocenter = get_datum(type_string).cocenter
    factors = range(1, get_datum(type_string).n_factors + 1)
    supports = [c for k in range(len(factors) + 1) for c in combinations(factors, k)]
    elements = cocenter.elements()[1:]
    # cyclic lattice subgroups, and each spanned with the last element too
    lattices = ([("sc", ()), ("adjoint", ())] + [("subgroup", (g,)) for g in elements]
                + [("subgroup", (g, elements[-1])) for g in elements[:-1]])
    for mode, gens in lattices:
        datum = get_datum(type_string, mode, gens)
        for support in supports:
            admissible = datum.lattice_subgroup.restrict(support)
            assert admissible.group == cocenter.restrict(support)
            assert admissible.members == oracles.admissible_members(datum, support)
