"""Tensor product decomposition, single tensor coefficients, PRV components
and structural checks.

The decomposition is a Brauer-Klimyk fold over the expanded weight system of
the smaller factor.  Each weight nu gives x = nu + lam + rho.  A sweep
reflects, for each i in turn, every row with x_i < 0 in place, and negates
the multiplicity of every row it reflected an odd number of times; any
order of reflections in negative coordinates takes a weight to its
dominant representative, a regular one in exactly l(w) steps, so the sign
is (-1)^l(w).  A reflection keeps a row in its W-orbit, and a row whose
orbit meets a wall contributes nothing, so the rows with a zero coordinate
are dropped once, after the last sweep, when each row is its dominant
representative.  The rows left, minus rho, are ordered once with
``np.lexsort``; a group of equal rows starts wherever one coordinate,
gathered on its own in that order, changes, and each group's
multiplicities are summed with ``np.add.reduceat``.  Only the first row of
each summand is gathered whole.

A single coefficient, the multiplicity of L(nu) in L(lam) (x) L(mu), is the
same alternating sum read from the other side (Racah-Speiser): one term per
point of the regular orbit W(nu + rho).  It walks that orbit as a tree in
Python ints and cuts every subtree that lies too far from lam + rho, by the
invariant form, to meet a weight of L(mu), so it visits only the points
inside that norm ball, a part of the |W| points, and folds each one.  It is
what a PRV chain check asks for, and what a box closure asks for each
candidate of a pair, in one batch that shares what lam and mu fix.

Multiplicities are int64.  The fold's coordinates run in the narrowest
signed dtype that holds their bound (``_fold_dtype``): int8 or int16 for
small weights, which the sweeps touch fastest.  The expanded table is kept
transposed, one coordinate per array row, in the narrowest signed dtype
that holds its entries, so a fold starts from one addition.
``_fold_dtype`` and ``_check_coefficient`` refuse, before anything is
allocated, inputs for which a coordinate, a product or a running total
could leave int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .charcalc import (_interval, _weyl_dimension, character, expanded_weight_table,
                       expand_character)
from .rootdata import RootDatum, Weight, memoized, wadd, wsub
from .weyl import _dominant_representative, apply_word, make_dominant

INT64_MAX = np.iinfo(np.int64).max


class DominanceRegimeError(ValueError):
    """Raised when the all-shifts-dominant hypothesis fails."""


@dataclass(frozen=True)
class TensorDecomposition:
    datum: RootDatum = field(repr=False)
    lhs: Weight
    rhs: Weight
    summands: dict[Weight, int]

    def support(self) -> frozenset[Weight]:
        return frozenset(self.summands)

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self.summands.items())

    def to_json(self) -> dict:
        return {"lhs": list(self.lhs), "rhs": list(self.rhs),
                "summands": [{"weight": list(w), "mult": m}
                             for w, m in self.sorted_items()]}


def tensor_decompose(datum: RootDatum, lam: Weight, mu: Weight) -> TensorDecomposition:
    """Decompose L(lam) (x) L(mu) into irreducibles with exact multiplicities."""
    lam, mu = datum.check_dominant(lam), datum.check_dominant(mu)
    return TensorDecomposition(datum, lam, mu, _klimyk(datum, *_big_and_small(datum, lam, mu)))


def _big_and_small(datum: RootDatum, lam: Weight, mu: Weight) -> tuple[Weight, Weight]:
    """The two factors, the one of smaller Weyl dimension last: the fold
    runs over its table, and a coefficient reads its partial table.  On a tie
    the lexicographically larger is last, in either order."""
    big, small = sorted((lam, mu), key=lambda w: (-_weyl_dimension(datum, w), w))
    return big, small


# (largest value, dtype), narrowest first
_FOLD_DTYPES = tuple((np.iinfo(t).max, np.dtype(t))
                     for t in (np.int8, np.int16, np.int32, np.int64))


@memoized
def _expanded_table(datum: RootDatum, mu: Weight):
    """(cols, mults) for the expanded weights of L(mu): cols[i] holds
    coordinate i of every weight, C-contiguous, in the narrowest signed
    dtype that holds the table; mults is int64.  Both are read-only."""
    rows, mults = expanded_weight_table(datum, character(datum, mu))
    top = int(np.abs(rows).max(initial=0))
    cols = rows.T.astype(next(dtype for bound, dtype in _FOLD_DTYPES if top <= bound),
                         order="C")
    cols.flags.writeable = mults.flags.writeable = False
    return cols, mults


def _fold_dtype(datum: RootDatum, lam: Weight, mu: Weight) -> np.dtype:
    """The narrowest signed dtype in which the fold of lam and mu is exact;
    refuse a fold whose arithmetic could leave int64.

    Every coordinate the fold meets is <x, beta^vee> for x = nu + lam + rho,
    nu a weight of L(mu) and beta^vee a coroot, so it is at most h (max lam
    + max mu + 1) in absolute value, with h the height of the highest
    coroot; a reflection multiplies it by a Cartan entry first.  An entry
    of mu's expanded table is at most h max mu, so the table's dtype is
    never wider than this one.  Running totals are at most dim L(mu), the
    sum of the table's multiplicities, and stay int64.
    """
    bound = datum._cartan_entry * datum._coroot_height * (max(lam) + max(mu) + 1)
    if bound > INT64_MAX or _weyl_dimension(datum, mu) > INT64_MAX:
        raise ValueError(
            f"tensor product of {lam} and {mu} is out of int64 range for the fold")
    return next(dtype for top, dtype in _FOLD_DTYPES if bound <= top)


def _klimyk(datum: RootDatum, lam: Weight, mu: Weight) -> dict[Weight, int]:
    dtype = _fold_dtype(datum, lam, mu)
    cols, mults = _expanded_table(datum, mu)
    # column k of x is table row k shifted by lam + rho; x[i] holds
    # coordinate i of every row, contiguous.  The table's dtype is never
    # wider than the fold's, and x and signs are new arrays, so the cached
    # table is never written
    x = cols + np.array(wadd(lam, datum.weyl_vector), dtype=dtype)[:, None]
    signs = mults.copy()
    sweeps = 0
    while (x < 0).any():
        _sweep(datum, x, signs)
        sweeps += 1
    datum.stats["fold_rows"] += len(signs)
    datum.stats["fold_sweeps"] += sweeps
    # every row is its dominant representative now; one on a wall adds nothing
    regular = (x != 0).all(axis=0)
    x, signs = x.compress(regular, axis=1), signs.compress(regular)
    dom = x - 1  # subtract rho
    # nonnegative now; the narrowest dtype that holds them sorts fastest
    dom = dom.astype(np.min_scalar_type(dom.max()))
    order = np.lexsort(dom[::-1])
    # a group of equal columns starts wherever some coordinate changes along
    # the sorted order; one 1-D gather per coordinate, none of dom as a whole
    changed = np.zeros(len(order), dtype=bool)
    changed[0] = True
    for row in dom:
        r = row[order]
        changed[1:] |= r[1:] != r[:-1]
    starts = np.flatnonzero(changed)
    totals = np.add.reduceat(signs[order], starts)
    assert (totals >= 0).all(), "negative accumulated tensor multiplicity"
    kept = totals > 0
    # zip(*rows) reads each summand column of dom as one weight tuple
    return dict(zip(zip(*dom[:, order[starts[kept]]].tolist()), totals[kept].tolist()))


def _sweep(datum: RootDatum, x: np.ndarray, signs: np.ndarray) -> None:
    """One sweep over i = 1..rank: reflect in place every column of x (one
    coordinate per array row) with x_i < 0.  Whether a column was reflected
    an odd number of times is kept as one boolean per column, and signs is
    negated once, where it is set, at the end of the sweep.  The arithmetic
    runs in the dtype of x."""
    cols = datum._np_cartan_cols.astype(x.dtype, copy=False)  # cols[:, i] = alpha_i
    odd = np.zeros(x.shape[1], dtype=bool)
    for i in range(datum.rank):
        # s_i x = x - x_i alpha_i on the columns with x_i < 0
        neg = x[i] < 0
        odd ^= neg
        x -= cols[:, i, None] * (x[i] * neg)
    np.negative(signs, out=signs, where=odd)


def _check_coefficient(datum: RootDatum, lam: Weight, mu: Weight, nu: Weight) -> None:
    """Refuse a coefficient whose numbers could leave int64.  The walk runs
    in Python ints, so nothing wraps; the int64 bound is kept as the
    documented input range of ``tensor_multiplicity``.

    Let h be the height of the highest coroot, so |<x, beta^vee>| <= h max|x_i|
    for every coroot beta^vee, and let M = h (max lam + max mu + max nu + 2).
    - Orbit points: a coordinate of w(nu + rho) is its pairing with a coroot,
      at most h (max nu + 1) <= M.  Its pairing with a positive coroot is
      sum_k c_k x_k with c_k >= 0 and sum_k c_k <= h, so every partial sum
      is at most h M.
    - Fold: a W-image of y = w(nu + rho) - (lam + rho) is
      w'w(nu + rho) - w'(lam + rho), so its coordinates are at most
      h (max nu + 1) + h (max lam + 1) = M - h max mu; a reflection
      multiplies one by a Cartan entry first.
    - Root classes: the top's class test compares det C^-1 (nu - lam) with
      det C^-1 mu, and a fold's dominance test det C^-1 p with det C^-1 mu;
      the coordinates of nu - lam, mu and p are at most max nu + max lam,
      max mu and M - h max mu, each <= M.  So all have partial sums at
      most a M, with a the largest absolute row sum of det C^-1.
    So max(h, largest Cartan entry, a) * M bounds every number met.
    """
    height = datum._coroot_height
    bound = height * (max(lam) + max(mu) + max(nu) + 2)
    if max(height, datum._cartan_entry, datum._adjugate_row_sum) * bound > INT64_MAX:
        raise ValueError(f"coefficient of {nu} in {lam} (x) {mu} is out of int64 range")


def _form(datum: RootDatum, a: Weight, b: Weight) -> int:
    """B(a, b) = sum_i a_i (det C^-1 b)_i d_i = det (a, b), the invariant form
    of ``rootdata.pairing`` scaled to an integer, with det = ``datum._det``
    and d the symmetrizer; B(alpha_i, b) = det d_i b_i."""
    adjugate = datum._np_adjugate.tolist()
    return sum(x * sum(map(mul, row, b)) * d for x, row, d in zip(a, adjugate, datum.symmetrizer))


def tensor_multiplicity(datum: RootDatum, lam: Weight, mu: Weight, nu: Weight) -> int:
    """Multiplicity of L(nu) in L(lam) (x) L(mu), by the Racah-Speiser form
    of the Brauer-Klimyk formula (Humphreys, *Introduction to Lie Algebras*,
    section 24):

        c = sum over w in W of eps(w) m_mu(w(nu + rho) - lam - rho).

    The sum walks the tree that :func:`weyl.orbit` walks down from the
    dominant nu + rho, which is regular, so eps(w) = (-1)^depth.  Every
    weight y of L(mu) has B(y, y) <= B(mu, mu), for the integer
    invariant form B = ``_form``.  With s = lam + rho and B(x, x) constant
    on the orbit, B(x - s, x - s) = B(nu + rho - s, nu + rho - s) + t with
    t = 2 B(nu + rho - x, s), so only a point with t <= B(mu, mu) -
    B(nu + rho - s, nu + rho - s) can count (the norm test).  Each entry
    carries t, which s_i raises by 2 det d_i x_i s_i > 0, so t grows
    strictly down the tree from 0 at the top, and a child that fails the
    test is cut with its whole subtree.  The sum is 0 without a walk when
    the top fails the test, and when det C^-1 (nu - lam - mu) is not
    divisible by det: W acts trivially on P/Q, so then no point minus s
    lies in the root class of mu.  Every point walked passes and is folded,
    minus s, to its dominant representative p, which carries a
    multiplicity only if p <= mu: 1 when p = mu, otherwise m_mu(p), which
    reads only the dominant weights between p and mu.  It is read from
    mu's partial table (``charcalc._interval``), kept on the datum and
    extended down to the depth of mu - p on the first p it lacks.  The
    points walked are counted as ``coefficient_points`` in ``datum.stats``,
    and again as ``coefficient_folds``.  There is no bound on |W|: the
    walk's memory is one stack.  Its cost is every orbit point inside the
    norm ball, which no bound limits (one E8 coefficient with lam, mu in
    {0,1}^8 walks 565,826), plus the partial table it reads, whose weights
    ``charcalc.MAX_DOMINANT_WEIGHTS`` bounds.  Refused with ``ValueError``
    outside the documented int64 range (see ``_check_coefficient``).
    """
    return _coefficients(datum, lam, mu, (nu,))[0]


def _coefficients(datum: RootDatum, lam: Weight, mu: Weight, nus) -> list[int]:
    """``tensor_multiplicity(datum, lam, mu, nu)`` for each nu of ``nus``.
    What lam and mu fix is done once: the checks, the shift and the steps
    of t, B(mu, mu), det C^-1 mu, which the class test and the dominance
    test compare against, and the fetch of mu's partial table.  When a walk
    visits a point or two, as for the candidates of a box closure, that is
    most of the cost.  A folded p != mu is a weight of L(mu) iff the table
    holds it once its floor is as deep as mu - p: the top's class test puts
    p in mu's class, and every dominant weight below mu in that class has
    positive multiplicity.  So a p the table holds is read at once, and
    only one it lacks runs the dominance test p <= mu, which, when it
    holds, extends the table to the depth of mu - p."""
    lam, mu = datum.check_dominant(lam), datum.check_dominant(mu)
    nus = [datum.check_dominant(nu) for nu in nus]
    for nu in nus:
        _check_coefficient(datum, lam, mu, nu)
    det, rank = datum._det, datum.rank
    adjugate = datum._np_adjugate.tolist()
    cols, neighbors = datum.cartan_columns, datum.neighbors
    shift = wadd(lam, datum.weyl_vector)
    step = [2 * det * a * b for a, b in zip(datum.symmetrizer, shift)]
    mu_adj = [sum(map(mul, row, mu)) for row in adjugate]
    mu_norm = _form(datum, mu, mu)
    # mu's partial table, fetched on the first point that folds below mu
    part, table = None, {}
    out = []
    points = 0
    for nu in nus:
        top = wadd(nu, datum.weyl_vector)
        diff = wsub(top, shift)
        diff_adj = [sum(map(mul, row, diff)) for row in adjugate]
        # the norm test B(x - shift, x - shift) <= B(mu, mu) reads t <= slack
        # for t = 2 B(top - x, shift), as B(x, x) = B(top, top) on the orbit;
        # s_i raises t by c * step[i].  B(diff, diff) as ``_form`` sums it
        slack = mu_norm - sum(x * y * d for x, y, d in zip(diff, diff_adj, datum.symmetrizer))
        if slack < 0 or any((y - m) % det for y, m in zip(diff_adj, mu_adj)):
            out.append(0)
            continue
        total = 0
        # (point, index of its first negative coordinate, t, sign)
        stack = [(top, rank, 0, 1)]
        while stack:
            x, f, t, sign = stack.pop()
            points += 1
            p = _dominant_representative(datum, wsub(x, shift))
            if p == mu:
                total += sign
            elif p in table:
                total += sign * table[p]
            else:
                # p lies in mu's class, so det C^-1 (mu - p) = det * depth
                gap = [m - sum(map(mul, row, p)) for row, m in zip(adjugate, mu_adj)]
                if min(gap) >= 0:
                    if part is None:
                        part = _interval(datum, mu)
                    table = part.extend(datum, [g // det for g in gap])
                    total += sign * table[p]
            for i in range(rank):
                c = x[i]
                if c > 0 and (i < f or cols[i][f]):
                    u = t + c * step[i]
                    if u > slack:
                        continue  # t only grows below, so no point there passes
                    # s_i(x) = x - c alpha_i moves only coordinate i and its neighbours
                    y = list(x)
                    y[i] = -c
                    col = cols[i]
                    for j in neighbors[i]:
                        y[j] -= c * col[j]
                    if i < f or min(y[:i]) >= 0:
                        stack.append((tuple(y), i, u, -sign))
        assert total >= 0, "negative tensor coefficient"
        out.append(total)
    datum.stats["coefficient_points"] += points
    datum.stats["coefficient_folds"] += points
    return out


def prv_component(datum: RootDatum, lam: Weight, mu: Weight, word) -> Weight:
    """Dominant representative of lam + w(mu); always a summand of the
    tensor product (exercised as a tested invariant, not assumed here)."""
    shifted = apply_word(datum, word, datum.check_weight(mu))
    return make_dominant(datum, wadd(datum.check_weight(lam), shifted)).dominant


def stable_multiplicity_check(datum: RootDatum, lam: Weight, mu: Weight) -> bool:
    """In the regime where lam + mu' is dominant for every weight mu' of
    L(mu), the decomposition must be exactly {lam + mu': n_mu'(mu)}.  A
    non-dominant lam or mu is refused as input; ``DominanceRegimeError``
    means dominant factors outside the regime."""
    lam, mu = datum.check_dominant(lam), datum.check_dominant(mu)
    expanded = expand_character(datum, character(datum, mu))
    predicted: dict[Weight, int] = {}
    for mu_p, n in expanded.items():
        shifted = wadd(lam, mu_p)
        if any(x < 0 for x in shifted):
            raise DominanceRegimeError(
                f"lam + {mu_p} = {shifted} is not dominant; regime does not apply")
        predicted[shifted] = predicted.get(shifted, 0) + n
    actual = tensor_decompose(datum, lam, mu).summands
    return actual == predicted
