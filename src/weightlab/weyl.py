"""Weyl group actions: simple reflections, dominant representatives, the
longest element, duality, the dominance partial order and orbits.

Weyl words are tuples of 1-based simple-reflection indices; a word acts by
composition with the rightmost letter applied first.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .rootdata import RootDataError, RootDatum, Weight, parabolic_order, wneg, wsub

WeylWord = tuple[int, ...]

# largest Weyl group whose elements weyl_group_elements lists
MAX_WEYL_ELEMENTS = 100000


class DominantResult(NamedTuple):
    dominant: Weight
    word: WeylWord
    regular: bool


def reflect(datum: RootDatum, i: int, lam: Weight) -> Weight:
    """Simple reflection s_i(lam) = lam - <lam, alpha_i^vee> alpha_i (1-based i).
    A letter that is not an int is refused with ``RootDataError``, as a
    weight coordinate is, and an int out of range with ``IndexError``."""
    lam = datum.check_weight(lam)
    # bool is a subclass of int, and a float would index nothing
    if type(i) is not int:
        raise RootDataError(f"reflection index {i!r} is not an int")
    if not 1 <= i <= datum.rank:
        raise IndexError(f"reflection index {i} out of range 1..{datum.rank}")
    c = lam[i - 1]
    if c == 0:
        return lam
    col = datum.cartan_columns[i - 1]
    return tuple(x - c * a for x, a in zip(lam, col))


def apply_word(datum: RootDatum, word, lam: Weight) -> Weight:
    """Apply a Weyl word; the last letter acts first.  lam is checked
    once, so the empty word refuses what a letter would."""
    lam = datum.check_weight(lam)
    for i in reversed(tuple(word)):
        lam = reflect(datum, i, lam)
    return lam


def make_dominant(datum: RootDatum, lam: Weight) -> DominantResult:
    """Unique dominant W-orbit representative, found by :func:`_climb`, with
    the word that takes lam there.  ``regular`` is False iff the
    representative lies on a wall (has a zero coordinate)."""
    x = list(datum.check_weight(lam))
    word = tuple(i + 1 for i in reversed(_climb(datum, x)))
    return DominantResult(tuple(x), word, all(c > 0 for c in x))


def _climb(datum: RootDatum, x: list, nodes=None) -> list[int]:
    """Fold the list ``x`` in place into the chamber of the simple
    reflections of ``nodes`` (all of them by default), reflecting each time
    in its first negative coordinate among ``nodes``; return the 0-based
    indices of the reflections made, in order.  Over all nodes each step is
    a step up the tree :func:`orbit_tree` walks, so the fold ends at the
    dominant representative after l(w) steps, the number of positive coroots
    that pair negatively with x, and the word read backwards is the shortest
    w with w x dominant.  s_i moves only coordinate i, to its negative, and
    the neighbours of i."""
    cols = datum.cartan_columns
    neighbors = datum.neighbors
    if nodes is None:
        nodes = range(len(x))
    applied = []
    while True:
        for i in nodes:
            c = x[i]
            if c < 0:
                break
        else:
            return applied
        applied.append(i)
        x[i] = -c
        col = cols[i]
        for j in neighbors[i]:
            x[j] -= c * col[j]


def w0_action(datum: RootDatum, lam: Weight) -> Weight:
    """Action of the longest element, realized as the linear extension of
    w0(omega_i) = -omega_tau(i), tau = ``RootDatum.diagram_involution``, which
    reads the duality off the dominant representative of -omega_i."""
    lam = datum.check_weight(lam)
    tau = datum.diagram_involution
    return tuple(-lam[tau[i]] for i in range(datum.rank))


def dual_weight(datum: RootDatum, lam: Weight) -> Weight:
    """Highest weight of the dual module, -w0 lam; an involution on dominants."""
    return wneg(w0_action(datum, datum.check_dominant(lam)))


def dominance_leq(datum: RootDatum, mu: Weight, lam: Weight) -> bool:
    """mu <= lam iff lam - mu is a nonnegative integer combination of simple
    roots, by :meth:`RootDatum.in_root_cone`.  Refused with ``ValueError``
    when det C^-1 (lam - mu) could leave int64."""
    diff = wsub(datum.check_weight(lam), datum.check_weight(mu))
    if max(map(abs, diff)) * datum._adjugate_row_sum > np.iinfo(np.int64).max:
        raise ValueError(f"dominance of {mu} and {lam} is out of int64 range")
    return bool(datum.in_root_cone(np.array([diff], dtype=np.int64))[0])


def orbit_tree(datum: RootDatum, top: Weight, step=None, slack: int = 0):
    """Yield (x, sign) once for each point x of the W-orbit of a dominant
    ``top``, with sign = (-1)^depth, the parity of the positive coroots that
    pair negatively with x: each step down adds one.

    The points form the tree that :func:`_climb` folds up, the one chamber
    fold behind :func:`make_dominant`, tensor coefficients and the string
    steps of ``charcalc``: the parent of a non-dominant x is s_f(x) for the
    first negative coordinate f of x.
    Read downwards from ``top``, x has the child s_i(x) iff x_i > 0 and
    s_i(x) has no negative coordinate before i, so no visited set is needed.
    The first negative coordinate f of x is the i that made it (f = rank at
    ``top``).  For i < f the child always qualifies; for i > f it can only if
    s_i changes coordinate f, that is if f is a neighbour of i in the Dynkin
    diagram.  Each point carries t, 0 at ``top`` and raised by x_i step[i]
    when s_i reflects x; with step >= 0 a child with t > ``slack`` is cut
    with its whole subtree.  Without ``step`` nothing is cut.  The walk
    streams: its memory is one stack.
    """
    rank = datum.rank
    cols = datum.cartan_columns
    neighbors = datum.neighbors
    if step is None:
        step, slack = (0,) * rank, 0
    stack = [(top, rank, 0, 1)]
    while stack:
        x, f, t, sign = stack.pop()
        yield x, sign
        for i in range(rank):
            c = x[i]
            if c > 0 and (i < f or cols[i][f]):
                u = t + c * step[i]
                if u > slack:
                    continue
                # s_i(x) = x - c alpha_i moves only coordinate i and its neighbours
                y = list(x)
                y[i] = -c
                col = cols[i]
                for j in neighbors[i]:
                    y[j] -= c * col[j]
                if i < f or min(y[:i]) >= 0:
                    stack.append((tuple(y), i, u, -sign))


def orbit(datum: RootDatum, lam: Weight) -> frozenset[Weight]:
    """Full W-orbit of a weight, walked by :func:`orbit_tree` from its
    dominant representative.  Refused with ``ValueError``, before the walk,
    when it has more than ``charcalc.MAX_EXPANDED_ROWS`` points, more than
    any weight table holds."""
    from .charcalc import MAX_EXPANDED_ROWS  # charcalc imports this module
    top = make_dominant(datum, lam).dominant
    # no orbit has more than |W| points, so a smaller W needs no count
    size = orbit_size(datum, top) if datum.weyl_order > MAX_EXPANDED_ROWS else 0
    if size > MAX_EXPANDED_ROWS:
        raise ValueError(f"orbit of {size} points exceeds bound {MAX_EXPANDED_ROWS}")
    return frozenset(x for x, _ in orbit_tree(datum, top))


def orbit_size(datum: RootDatum, lam: Weight) -> int:
    """|W . lam| for dominant lam: |W| / |W_J| with J the zero coordinates
    of lam, whose stabilizer is the parabolic subgroup W_J."""
    lam = datum.check_dominant(lam)
    stab = parabolic_order(datum, sum(1 << i for i, x in enumerate(lam) if x == 0))
    assert datum.weyl_order % stab == 0
    return datum.weyl_order // stab


def weyl_group_elements(datum: RootDatum) -> list[WeylWord]:
    """One word per Weyl group element: the word :func:`make_dominant`
    records for each point of the orbit of the Weyl vector, which is regular,
    so its points and W are in bijection.  Meant for small groups."""
    if datum.weyl_order > MAX_WEYL_ELEMENTS:
        raise ValueError(
            f"Weyl group of order {datum.weyl_order} exceeds bound {MAX_WEYL_ELEMENTS}")
    return sorted((make_dominant(datum, x).word for x in orbit(datum, datum.weyl_vector)),
                  key=lambda w: (len(w), w))
