from fractions import Fraction

import numpy as np
import pytest

from weightlab import (CartanType, Character, LatticeSpec, MonoidSpec, RootDataError,
                       TraceStep, build_root_datum, character, dominant_weights_below, dual_weight,
                       in_lattice, orbit_size, root_coordinates, tensor_decompose,
                       tensor_multiplicity, weyl_dimension)
from weightlab import cli, rootdata
from weightlab.rootdata import pairing, positive_root_count, weight_rows
from conftest import get_datum
from oracles import (closure_positive_roots, closure_root_supports, closure_root_table,
                     closure_walk_table, fraction_inverse_cartan, int_det)

SIMPLE_TYPES = (["A%d" % n for n in range(1, 7)]
                + ["B%d" % n for n in range(2, 7)]
                + ["C%d" % n for n in range(2, 7)]
                + ["D%d" % n for n in range(3, 7)]
                + ["E6", "F4", "G2"])


def test_type_string_round_trip():
    for s in ["A2", "A2xD4", "B2xG2xE6", "A1xA1xA1", "C3xF4"]:
        assert str(CartanType.parse(s)) == s


def test_type_validation_errors():
    for bad in ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "G3", "H4", "", "A2x", "2A"]:
        with pytest.raises(RootDataError):
            CartanType.parse(bad)


def test_positive_root_counts_match_classical_table():
    for ts in SIMPLE_TYPES:
        datum = get_datum(ts)
        family, rank = ts[0], int(ts[1:])
        assert len(datum.positive_roots) == positive_root_count(family, rank)


def test_cartan_matrix_shape():
    for ts in ["A2", "B3", "G2", "A2xD4xG2"]:
        datum = get_datum(ts)
        for i in range(datum.rank):
            assert datum.cartan[i][i] == 2
            for j in range(datum.rank):
                if i != j:
                    assert datum.cartan[i][j] <= 0
        for (s1, e1) in datum.ctype.blocks:
            for (s2, e2) in datum.ctype.blocks:
                if (s1, e1) != (s2, e2):
                    for i in range(s1, e1):
                        for j in range(s2, e2):
                            assert datum.cartan[i][j] == 0


def test_root_coordinate_denominators_divide_cocenter_order():
    import random
    rng = random.Random(9)
    for ts in ["A3", "B3", "D4", "D5", "E6", "A2xA1"]:
        datum = get_datum(ts)
        order = datum.cocenter.order
        for _ in range(40):
            lam = tuple(rng.randrange(-3, 4) for _ in range(datum.rank))
            for k in root_coordinates(datum, lam):
                assert order % k.denominator == 0


def test_positive_roots_have_nonnegative_integer_coordinates():
    for ts in SIMPLE_TYPES:
        datum = get_datum(ts)
        for alpha in datum.positive_roots:
            assert all(c >= 0 for c in alpha.rc)
            assert any(alpha.rc)


def test_largest_exceptional_types_build():
    e7 = get_datum("E7")
    assert len(e7.positive_roots) == 63
    assert e7.cocenter.orders == (2,)
    e8 = get_datum("E8")
    assert len(e8.positive_roots) == 120
    assert e8.cocenter.order == 1


def test_product_datum_a1xa1():
    datum = get_datum("A1xA1")
    assert datum.cartan == ((2, 0), (0, 2))
    assert len(datum.positive_roots) == 2


def test_example_counts():
    assert len(get_datum("A2").positive_roots) == 3
    assert len(get_datum("G2").positive_roots) == 6


def test_root_coordinates_paper_values():
    a2 = get_datum("A2")
    assert root_coordinates(a2, (1, 0)) == (Fraction(2, 3), Fraction(1, 3))
    e6 = get_datum("E6")
    assert root_coordinates(e6, (0, 1, 0, 0, 0, 0)) == (1, 2, 2, 3, 2, 1)
    assert root_coordinates(a2, (0, 0)) == (0, 0)


def test_e6_fundamental_weight_table():
    # classical expansions of the E6 fundamental weights on the simple roots
    e6 = get_datum("E6")
    third = lambda *xs: tuple(Fraction(x, 3) for x in xs)
    expected = {
        1: third(4, 3, 5, 6, 4, 2),
        2: (1, 2, 2, 3, 2, 1),
        3: third(5, 6, 10, 12, 8, 4),
        4: (2, 3, 4, 6, 4, 2),
        5: third(4, 6, 8, 12, 10, 5),
        6: third(2, 3, 4, 6, 5, 4),
    }
    for i, rc in expected.items():
        omega = tuple(1 if j == i - 1 else 0 for j in range(6))
        assert root_coordinates(e6, omega) == rc, i


def test_a_type_fundamental_weight_formula():
    # omega_i = (1/(n+1)) (n-i+1, 2(n-i+1), ..., i(n-i+1), i(n-i), ..., 2i, i)
    for n in range(2, 6):
        datum = get_datum(f"A{n}")
        for i in range(1, n + 1):
            omega = tuple(1 if j == i - 1 else 0 for j in range(n))
            expected = tuple(
                Fraction(min(j, i) * (n + 1 - max(j, i)), n + 1)
                for j in range(1, n + 1))
            assert root_coordinates(datum, omega) == expected, (n, i)


def test_d5_fundamental_weight_table():
    d5 = get_datum("D5")
    expected = {
        1: (1, 1, 1, Fraction(1, 2), Fraction(1, 2)),
        2: (1, 2, 2, 1, 1),
        3: (1, 2, 3, Fraction(3, 2), Fraction(3, 2)),
        4: (Fraction(1, 2), 1, Fraction(3, 2), Fraction(5, 4), Fraction(3, 4)),
        5: (Fraction(1, 2), 1, Fraction(3, 2), Fraction(3, 4), Fraction(5, 4)),
    }
    for i, rc in expected.items():
        omega = tuple(1 if j == i - 1 else 0 for j in range(5))
        assert root_coordinates(d5, omega) == rc, i


def test_root_coordinates_invert_cartan(rng_types=("A3", "B3", "C2", "D4", "G2", "A2xB2")):
    import random
    rng = random.Random(1)
    for ts in rng_types:
        datum = get_datum(ts)
        for _ in range(100):
            lam = tuple(rng.randrange(-4, 5) for _ in range(datum.rank))
            rc = root_coordinates(datum, lam)
            back = tuple(sum(datum.cartan[i][j] * rc[j] for j in range(datum.rank))
                         for i in range(datum.rank))
            assert back == lam


def test_weyl_vector_root_coordinates_positive():
    for ts in SIMPLE_TYPES:
        datum = get_datum(ts)
        assert all(k > 0 for k in root_coordinates(datum, datum.weyl_vector))


def test_pairing_symmetric_and_short_roots_normalized():
    for ts in ["A2", "B2", "C3", "G2", "F4", "D4"]:
        datum = get_datum(ts)
        norms = [pairing(datum, a.fund, a.fund) for a in datum.positive_roots]
        assert min(norms) == 2
        w1 = datum.cartan_columns[0]
        w2 = datum.cartan_columns[-1]
        assert pairing(datum, w1, w2) == pairing(datum, w2, w1)


def test_pairing_refuses_a_second_weight_of_the_wrong_length_or_type():
    # zip would truncate (1,) and (1, 0, 7), and 1.5 would give a float
    a2 = get_datum("A2")
    for mu in [(1,), (1, 0, 7)]:
        with pytest.raises(RootDataError, match="expected rank 2"):
            pairing(a2, (1, 0), mu)
    with pytest.raises(RootDataError, match="not an int"):
        pairing(a2, (1, 0), (1.5, 0))


def test_in_lattice_modes():
    a1 = get_datum("A1", "adjoint")
    assert not in_lattice(a1, (1,))
    assert in_lattice(a1, (2,))
    a2 = get_datum("A2", "adjoint")
    assert in_lattice(a2, (1, 1))
    assert not in_lattice(a2, (1, 0))
    sc = get_datum("A2")
    assert in_lattice(sc, (1, 0)) and in_lattice(sc, (0, 1))


def test_subgroup_lattice_mode():
    # index-2 lattice of A3: preimage of {0, 2} in Z/4
    datum = build_root_datum("A3", LatticeSpec("subgroup", ((2,),)))
    assert in_lattice(datum, (0, 1, 0))
    assert not in_lattice(datum, (1, 0, 0))
    assert in_lattice(datum, (1, 0, 1))


def test_lattice_chain_consistency():
    # root-lattice weights belong to every lattice; every lattice sits in P
    import random
    rng = random.Random(10)
    lattices = [LatticeSpec("sc"), LatticeSpec("adjoint"),
                LatticeSpec("subgroup", ((2,),))]
    data = [build_root_datum("A3", spec) for spec in lattices]
    for _ in range(40):
        rc = tuple(rng.randrange(-2, 3) for _ in range(3))
        in_q = tuple(sum(data[0].cartan[i][j] * rc[j] for j in range(3))
                     for i in range(3))
        for datum in data:
            assert in_lattice(datum, in_q)
    for _ in range(40):
        lam = tuple(rng.randrange(-2, 3) for _ in range(3))
        for datum in data:
            if in_lattice(datum, lam):
                assert in_lattice(data[0], lam)  # sc accepts everything


def test_bad_subgroup_generator_arity():
    # A2 has a cyclic cocenter, A1xA3 one with two coordinates
    for type_string, generator in [("A2", (1, 0)), ("A1xA3", (1,))]:
        with pytest.raises(RootDataError, match="is not a tuple of"):
            build_root_datum(type_string, LatticeSpec("subgroup", (generator,)))


@pytest.mark.parametrize("value", [2.0, 1.5, True, "1"])
def test_lattice_spec_refuses_a_generator_coordinate_that_is_not_an_int(value):
    # 2.0 used to build the float member (2.0,), and 1.5 fail with a bare AssertionError
    with pytest.raises(RootDataError, match="^lattice generators must be tuples of integers"):
        LatticeSpec("subgroup", ((value,),))


def test_lattice_spec_json_round_trip():
    for spec in [LatticeSpec("sc"), LatticeSpec("adjoint"), LatticeSpec("subgroup", ((2,),)),
                 LatticeSpec("subgroup", ((1, 1), (0, 1)))]:
        assert LatticeSpec.from_json(spec.to_json()) == spec
    assert LatticeSpec.from_json({}) == LatticeSpec("sc")


@pytest.mark.parametrize("obj", [
    {"mode": "subgroup", "generators": [2]},         # a generator that is no list
    {"mode": "subgroup", "generators": [[1.5]]},     # not to be truncated to [[1]]
    {"mode": "subgroup", "generators": [[True]]},    # not to be read as [[1]]
    {"mode": "subgroup", "generators": [["1"]]},
    {"mode": "subgroup", "generators": [[None]]},
    {"mode": "subgroup", "generators": 2},
    {"mode": "subgroup", "generators": "12"},
    {"mode": "subgroup", "generators": {"0": [1]}},
    [["subgroup"]],
    "sc",
])
def test_lattice_spec_from_json_rejects_malformed(obj):
    with pytest.raises(RootDataError):
        LatticeSpec.from_json(obj)


# readers of weights from outside the library, each given a bad input
READERS = {
    "check_weight": lambda obj: get_datum("A2").check_weight(obj),
    "MonoidSpec.from_json": lambda obj: MonoidSpec.from_json({"type": "A2", "generators": obj}),
    "TraceStep.from_json": TraceStep.from_json,
}


@pytest.mark.parametrize("reader, obj", [
    ("check_weight", (1.5, True)),                  # not to be truncated to (1, 1)
    ("check_weight", (1, 2.0)),
    ("check_weight", (False, 0)),
    ("check_weight", ("1", 0)),
    ("MonoidSpec.from_json", [[1.5, True]]),        # not to be read as ((1, 1),)
    ("MonoidSpec.from_json", [3]),                  # a generator that is no list
    ("MonoidSpec.from_json", [[1, None]]),
    ("MonoidSpec.from_json", 3),
    ("TraceStep.from_json", {"weight": [1.5, 1], "kind": "generator"}),
    ("TraceStep.from_json", {"weight": [True, 1], "kind": "generator"}),
    ("TraceStep.from_json", {"weight": 3, "kind": "generator"}),
    ("TraceStep.from_json", {"weight": [2, 2], "kind": "sum", "left": "0", "right": 0}),
    ("TraceStep.from_json", {"weight": [2, 2], "kind": "sum", "left": 0, "right": 0.0}),
    ("TraceStep.from_json", {"weight": [2, 2], "kind": "prv", "left": 0, "right": 0,
                             "word": [1.0]}),
    ("TraceStep.from_json", {"weight": [2, 2], "kind": "prv", "left": 0, "right": True,
                             "word": [1]}),
])
def test_readers_refuse_what_is_not_an_int(reader, obj):
    with pytest.raises(RootDataError):
        READERS[reader](obj)


# entry points that take a dominant weight w, each refusing through
# RootDatum.check_dominant
DOMINANT_ENTRY_POINTS = {
    "check_dominant": lambda d, w: d.check_dominant(w),
    "character": character,
    "dominant_weights_below": dominant_weights_below,
    "weyl_dimension": weyl_dimension,
    "tensor_decompose-lhs": lambda d, w: tensor_decompose(d, w, (1, 0)),
    "tensor_decompose-rhs": lambda d, w: tensor_decompose(d, (1, 0), w),
    "tensor_multiplicity-lam": lambda d, w: tensor_multiplicity(d, w, (1, 0), (1, 1)),
    "tensor_multiplicity-mu": lambda d, w: tensor_multiplicity(d, (1, 0), w, (1, 1)),
    "tensor_multiplicity-nu": lambda d, w: tensor_multiplicity(d, (1, 0), (0, 1), w),
    "orbit_size": orbit_size,
    "dual_weight": dual_weight,
    "MonoidSpec": lambda d, w: MonoidSpec(d, (w,)),
    "Character": lambda d, w: Character(d, {w: 1}),
}


@pytest.mark.parametrize("entry", DOMINANT_ENTRY_POINTS)
def test_entry_points_share_the_dominance_refusal(entry):
    datum = get_datum("A2")
    with pytest.raises(ValueError, match="^expected a dominant weight, got \\(-1, 2\\)$"):
        DOMINANT_ENTRY_POINTS[entry](datum, (-1, 2))
    # a coordinate that is not an int is refused before its sign is read
    for bad in ((-1, True), (-1, 1.5)):
        with pytest.raises(RootDataError, match="not an int"):
            DOMINANT_ENTRY_POINTS[entry](datum, bad)


def test_readers_accept_plain_ints():
    assert get_datum("A2").check_weight([1, 2]) == (1, 2)
    assert MonoidSpec.from_json({"type": "A2", "generators": [[1, 0]]}).generators == ((1, 0),)
    step = TraceStep.from_json({"weight": [2, 2], "kind": "prv", "left": 0, "right": 0,
                                "word": [1]})
    assert step == TraceStep((2, 2), "prv", left=0, word=(1,), right=0)


@pytest.mark.parametrize("read, obj", [
    (MonoidSpec.from_json, [1]),                    # not a JSON object
    (MonoidSpec.from_json, {}),                     # no type
    (MonoidSpec.from_json, {"type": 3}),
    (MonoidSpec.from_json, {"type": None}),
    (build_root_datum, 3),
    (build_root_datum, ["A2"]),
])
def test_type_readers_refuse_what_is_not_a_type_string(read, obj):
    with pytest.raises(RootDataError):
        read(obj)


def test_weight_length_validation():
    datum = get_datum("A2")
    with pytest.raises(RootDataError):
        root_coordinates(datum, (1, 0, 0))


RANK_8_TYPES = (["A%d" % n for n in range(1, 9)]
                + ["B%d" % n for n in range(2, 9)]
                + ["C%d" % n for n in range(2, 9)]
                + ["D%d" % n for n in range(3, 9)]
                + ["E6", "E7", "E8", "F4", "G2", "A2xA2", "A1xB3xG2", "D4xG2"])


@pytest.mark.parametrize("type_string", RANK_8_TYPES)
def test_root_walk_matches_closure_oracle(type_string):
    # same fund, rc, coroot and height, in the same order, and the same
    # per-root tables; the tables are read first, from the walk's records
    datum = build_root_datum(type_string)
    assert datum._walk_table == closure_walk_table(datum)
    assert datum.root_supports == closure_root_supports(datum)
    assert datum._root_table == closure_root_table(datum)
    assert datum.positive_roots == closure_positive_roots(datum)


@pytest.mark.parametrize("type_string, weight", [("E6", "1,0,0,0,0,1"),
                                                 ("D5", "2,1,0,1,0"),
                                                 ("A8", "1,0,0,0,0,0,0,0")])
def test_character_never_eliminates_cartan(monkeypatch, capsys, type_string, weight):
    # nor builds a PositiveRoot: the walk and the strings read the records
    built = []
    monkeypatch.setattr(cli, "build_root_datum",
                        lambda *a: built.append(build_root_datum(*a)) or built[-1])
    assert cli.run(["character", "--type", type_string, "--weight", weight]) == 0
    capsys.readouterr()
    (datum,) = built
    assert "_smith" not in vars(datum)
    assert "cocenter" not in vars(datum)
    assert "_adjugate" not in vars(datum) and "_det" not in vars(datum)
    assert "positive_roots" not in vars(datum)
    if type_string == "A8":
        # omega_1 has one dominant weight, so no root string is walked
        assert "_root_table" not in vars(datum)


@pytest.mark.parametrize("argv", [
    ["construct", "--type", "D5", "--check"],
    ["construct", "--type", "D7", "--check"],
    ["construct", "--type", "A3", "--omega", "2,1,2", "--check"],
    ["enumerate", "--type", "A1xA1xD4"],
    ["classify", "--type", "A60", "--generators", ",".join(["1"] + ["0"] * 59)],
])
def test_verbs_that_read_no_roots_build_none(monkeypatch, capsys, argv):
    # the chain check, enumerate and classify read neither a root nor |W|
    def no_roots(datum):
        raise AssertionError(f"{datum} built its positive roots")
    monkeypatch.setattr(rootdata, "_generate_positive_roots", no_roots)
    assert cli.run(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("type_string", ["A3", "D4", "E6", "A1xB3xG2"])
@pytest.mark.parametrize("mode", ["sc", "adjoint"])
def test_lazy_lattice_and_coordinates_match_eager_reads(type_string, mode):
    # a datum read in the order the eager build used (lattice subgroup first)
    # and one read the other way round give the same values
    eager = build_root_datum(type_string, LatticeSpec(mode))
    eager_subgroup = eager.lattice_subgroup
    lazy = build_root_datum(type_string, LatticeSpec(mode))
    assert "cocenter" not in vars(lazy) and "_det" not in vars(lazy)
    lam = tuple(range(1, lazy.rank + 1))
    assert root_coordinates(lazy, lam) == root_coordinates(eager, lam)
    inverse = fraction_inverse_cartan(lazy.cartan)
    assert root_coordinates(lazy, lam) == tuple(
        sum(k * x for k, x in zip(row, lam)) for row in inverse)
    assert lazy.lattice_subgroup.members == eager_subgroup.members
    order = abs(int_det([list(row) for row in lazy.cartan]))
    assert len(eager_subgroup.members) == (order if mode == "sc" else 1)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_weight_rows_reads_every_width_at_its_limits(dtype):
    # the struct code follows the item size: int64 read as 4 bytes would
    # split each value beyond +-2^31 and halve the row
    info = np.iinfo(dtype)
    values = [info.min, info.max, -1, 0, 1]
    if dtype == np.int64:
        values += [2 ** 31, -2 ** 31 - 1, 4 * 10 ** 18]
    a = np.array([values, values[::-1]], dtype=dtype)
    rows = weight_rows(a)
    assert rows == [tuple(values), tuple(values[::-1])]
    assert all(type(x) is int for row in rows for x in row)


def test_weight_rows_reads_any_layout():
    a = np.arange(-12, 12, dtype=np.int64).reshape(4, 6)
    for view in (a, a[:0], a[1:2], a.T, a[[3, 0, 3]], a[:, ::2], a.T[[5, 1]]):
        rows = weight_rows(view)
        assert rows == [tuple(r) for r in view.tolist()]
        assert all(type(row) is tuple for row in rows)
