"""Property tests on hypothesis-drawn weights: the dominant-weight walk and
the orbit walk against the oracles in oracles.py, orbit sizes, and
conservation of dimension."""

from math import floor

import pytest
from hypothesis import given, strategies as st

from weightlab import character, orbit, orbit_size, root_coordinates, weyl_dimension
from weightlab.charcalc import _below_with_depth
from conftest import get_datum
from oracles import bfs_orbit, box_below_with_depth

# every simple type of rank <= 6, and two products
TYPES = ([f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
         + [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(3, 7)]
         + ["E6", "F4", "G2", "A1xA2", "B2xG2"])
# the BFS oracle visits the whole orbit, so keep |W| in the low thousands
SMALL_WEYL = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D3",
              "D4", "D5", "F4", "G2", "A1xA2", "B2xG2"]


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
    # same weights, same root coordinates, same order
    assert _below_with_depth(datum, lam) == box_below_with_depth(datum, lam)


@pytest.mark.parametrize("type_string, lam", [
    ("E6", (1, 1, 0, 0, 0, 1)), ("F4", (1, 1, 1, 1)), ("A5", (2, 2, 2, 2, 2)),
    ("C6", (0, 1, 0, 0, 0, 1)), ("D6", (1, 0, 0, 1, 0, 1))])
def test_walk_matches_box_oracle_beyond_drawn_boxes(type_string, lam):
    datum = get_datum(type_string)
    assert _below_with_depth(datum, lam) == box_below_with_depth(datum, lam)


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


@pytest.mark.parametrize("type_string", TYPES)
@given(data=st.data())
def test_character_conserves_dimension(type_string, data):
    datum = get_datum(type_string)
    lam = data.draw(dominant_weights(datum), label="lam")
    char = character(datum, lam)
    assert sum(m * orbit_size(datum, w) for w, m in char.entries.items()) \
        == weyl_dimension(datum, lam)
