"""Tensor product decomposition, single tensor coefficients, PRV components
and structural checks.

The decomposition is a Brauer-Klimyk fold over the expanded weight system
of the smaller factor.  Each weight nu gives x = nu + lam + rho.  A sweep
(``_sweep``, the one batch chamber fold) reflects, for each i in turn,
every row with x_i < 0 in place, which moves only x_i and its Dynkin
neighbours, and flips the row's parity; sweeps repeat until one reflects
nothing.  Any order of reflections in negative coordinates takes a weight to
its dominant representative, a regular one in exactly l(w) steps, so the
sign is (-1)^l(w).  A reflection keeps a row in its W-orbit, and a row whose
orbit meets a wall contributes nothing, so the rows with a zero coordinate
are dropped once, after the last sweep, when each row is its dominant
representative, and the multiplicities of the rows left are negated by
their parity in one product.  The rows left, minus rho, are packed into one
or two sort keys (``_packed_keys``: runs of coordinates read as mixed-radix
digits of one 8- or 16-bit key) and ordered once with ``np.lexsort``; a
group of equal rows starts wherever one key, gathered on its own in that
order, changes, and each group's multiplicities are summed with
``np.add.reduceat``.  Only the first row of each summand is gathered, as
one row of an array that ``rootdata.weight_rows`` reads back as weight
tuples in one ``struct`` unpack, and the summands come out in
lexicographic order.

A single coefficient, the multiplicity of L(nu) in L(lam) (x) L(mu), is the
same alternating sum read from the other side (Racah-Speiser): one term per
point of the regular orbit W(nu + rho).  It walks that orbit with
``weyl.orbit_tree``, cut wherever it lies too far from lam + rho, by the
invariant form, to meet a weight of L(mu), so it visits only the points
inside that norm ball, a part of the |W| points, and folds each one: a
walk of a few points by ``weyl._climb``, a longer one in batches of
``_sweep``.  It is what a PRV chain check asks for, and what a box closure
asks for each candidate of a pair, in one batch that shares what lam and
mu fix.

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
from itertools import islice
from math import prod
from operator import add, mul, sub

import numpy as np

from .charcalc import (_interval, _weyl_dimension, character, expanded_weight_table,
                       expand_character)
from .rootdata import RootDatum, Weight, memoized, wadd, weight_rows, wsub
from .weyl import _climb, apply_word, orbit_tree

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
    """The summands of L(lam) (x) L(mu), in lexicographic order, by the
    fold over mu's expanded table that the module docstring describes, read
    back by one ``weight_rows``; the sweeps are counted in ``fold_sweeps``
    and the rows in ``fold_rows``."""
    dtype = _fold_dtype(datum, lam, mu)
    cols, mults = _expanded_table(datum, mu)
    # column k of x is table row k shifted by lam + rho; x[i] holds
    # coordinate i of every row, contiguous.  The table's dtype is never
    # wider than the fold's, and x is a new array, so the cached table is
    # never written
    x = cols + np.array(wadd(lam, datum.weyl_vector), dtype=dtype)[:, None]
    odd = np.zeros(x.shape[1], dtype=bool)
    sweeps = 0
    while _sweep(datum, x, odd):
        sweeps += 1
    datum.stats["fold_rows"] += len(odd)
    datum.stats["fold_sweeps"] += sweeps
    # every row is its dominant representative now; one on a wall, its least
    # coordinate 0, adds nothing
    regular = np.flatnonzero(x.min(axis=0) > 0)
    x = x.take(regular, axis=1)
    # a row reflected an odd number of times counts its multiplicity negated;
    # the bool parity read as int8 makes this one in-place int64 product (a
    # masked np.negative is several times slower)
    signs = mults.take(regular)
    if sweeps:
        signs *= 1 - 2 * odd.take(regular).view(np.int8)
    dom = x - 1  # subtract rho; nonnegative now
    keys = _packed_keys(dom)
    order = np.lexsort(keys[::-1])
    # a group of equal columns starts wherever some key changes along the
    # sorted order; one 1-D gather per key, none of dom as a whole
    changed = np.zeros(len(order), dtype=bool)
    changed[0] = True
    for key in keys:
        k = key[order]
        changed[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(changed)
    totals = np.add.reduceat(signs[order], starts)
    assert (totals >= 0).all(), "negative accumulated tensor multiplicity"
    kept = totals > 0
    return dict(zip(weight_rows(dom.T[order[starts[kept]]]), totals[kept].tolist()))


def _packed_keys(dom: np.ndarray) -> list[np.ndarray]:
    """Sort keys for the nonnegative columns of dom, the first key most
    significant: runs of consecutive coordinates packed mixed-radix, each
    coordinate i a digit of radix max(dom[i]) + 1, into one unsigned key
    while the product of the radices stays below 2^16 (uint8 below 2^8).
    Two columns are equal iff all their keys are, and the keys order them
    as their coordinates do, lexicographically.  ``np.lexsort`` sorts keys
    of at most 16 bits by radix, so a few such keys sort faster than one
    per coordinate; a coordinate wider than 16 bits is a key of its own.
    A key's dtype holds the product itself, so each radix fits it too."""
    radices = [top + 1 for top in dom.max(axis=1).tolist()]
    runs, size = [], 1 << 16  # coordinate 0 opens the first run
    for i, radix in enumerate(radices):
        if size * radix < 1 << 16:
            runs[-1].append(i)
            size *= radix
        else:
            runs.append([i])
            size = radix
    digits = dom.view(f"u{dom.itemsize}")  # the same nonnegative values
    keys = []
    for run in runs:
        key = digits[run[0]].astype(np.min_scalar_type(prod(radices[i] for i in run)))
        for i in run[1:]:
            key *= radices[i]
            key += digits[i]
        keys.append(key)
    return keys


def _sweep(datum: RootDatum, x: np.ndarray, odd: np.ndarray | None = None) -> bool:
    """One sweep over i = 1..rank: reflect in place every column of x (one
    coordinate per array row) with x_i < 0, and return whether any column
    was reflected.  s_i x = x - x_i alpha_i sets x_i to |x_i| and moves only
    the Dynkin neighbours j of i, by -C[j][i] x_i; an array with no
    negative entry costs one scan, as does a coordinate with none, which
    keeps the last sweep and small arrays cheap.  ``odd``, one boolean per
    column when given, is flipped at every reflection of its column.  The
    arithmetic runs in the dtype of x.

    Each reflection is in a negative coordinate, so it inverts one positive
    coroot that pairs negatively with the column: sweeping until none is
    reflected takes each column to the dominant representative
    ``weyl._climb`` reaches, in as many reflections, so ``odd`` ends as the
    parity of l(w) for a regular column."""
    if x.min(initial=0) == 0:
        return False
    # some column has a negative entry, so the sweep reflects it, at that
    # coordinate or before
    cartan, neighbors = datum.cartan, datum.neighbors
    rows = list(x)  # views: an in-place update of rows[j] writes x[j]
    for i, xi in enumerate(rows):
        if xi.min(initial=0) == 0:
            continue
        neg = xi < 0
        np.abs(xi, out=xi)
        t = xi * neg  # -x_i where x_i < 0, else 0
        for j in neighbors[i]:
            # x_j -= C[j][i] x_i, and -C[j][i] is 1, 2 or 3
            c = -cartan[j][i]
            rows[j] -= t if c == 1 else c * t
        if odd is not None:
            odd ^= neg
    return True


# A coefficient walk is folded in batches of at most _BATCH_MAX points, so
# its memory stays bounded, and a batch of at most _CLIMB_MAX points point by
# point by weyl._climb.  On the walks of verify E8 omega4 box 1 and E7 omega7
# box 2 (2-core host), a numpy batch cost 0.1-0.3 ms however short: walks of
# 17-32 points took 124-139 us by _climb against 198-260 us as a batch,
# walks of 33-64 points 269-286 us against 253-338 us, and walks of 65-128
# points 532-637 us against 244-339 us.  For the 719,043 points of E8
# c(rho, rho; rho), batches of 2^10, 2^12, 2^14 and 2^16 points took 7.5,
# 5.9, 5.7 and 5.8 s CPU, at 75, 76, 82 and 112 MB peak RSS.
_CLIMB_MAX = 32
_BATCH_MAX = 1 << 12


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
    adjugate = datum._adjugate
    return sum(x * sum(map(mul, row, b)) * d for x, row, d in zip(a, adjugate, datum.symmetrizer))


def tensor_multiplicity(datum: RootDatum, lam: Weight, mu: Weight, nu: Weight) -> int:
    """Multiplicity of L(nu) in L(lam) (x) L(mu), by the Racah-Speiser form
    of the Brauer-Klimyk formula (Humphreys, *Introduction to Lie Algebras*,
    section 24):

        c = sum over w in W of eps(w) m_mu(w(nu + rho) - lam - rho).

    The sum walks the orbit of the dominant nu + rho with
    :func:`weyl.orbit_tree`; nu + rho is regular, so eps(w) is its sign.
    Every weight y of L(mu) has B(y, y) <= B(mu, mu), for the integer
    invariant form B = ``_form``.  With s = lam + rho and B(x, x) constant
    on the orbit, B(x - s, x - s) = B(nu + rho - s, nu + rho - s) + t with
    t = 2 B(nu + rho - x, s), so only a point with t <= B(mu, mu) -
    B(nu + rho - s, nu + rho - s) can count (the norm test).  s_i raises t
    by x_i step_i with step_i = 2 B(alpha_i, s) = 2 det d_i s_i > 0, the
    walk's step, so it cuts every subtree that fails the test and walks
    only points that pass.  The sum is 0 without a walk when the top fails
    the test, and when det C^-1 (nu - lam - mu) is not divisible by det: W
    acts trivially on P/Q, so then no point minus s lies in the root class
    of mu.  Every point walked passes and is folded, minus s, to its
    dominant representative p, which carries a multiplicity only if p <= mu:
    m_mu(p), which reads only the dominant weights between p and mu.  It is
    read from mu's table (``charcalc._interval``), kept on the datum and
    extended down to the depth of mu - p on the first p it lacks.  The
    points walked, all folded, are ``coefficient_points`` in
    ``datum.stats``.  There is no bound on |W|: the walk's memory is one
    stack and one batch of at most ``_BATCH_MAX`` points.  Its cost is every
    orbit point inside the norm ball, which no bound limits (one E8
    coefficient with lam, mu in {0,1}^8 walks 565,826),
    plus the part of the table it reads, whose weights
    ``charcalc.MAX_DOMINANT_WEIGHTS`` bounds.  Refused with ``ValueError``
    for a weight that is not dominant and outside the documented int64 range
    (see ``_check_coefficient``); both checks run here, once, before
    :func:`_coefficients`, which trusts its caller.
    """
    lam, mu, nu = (datum.check_dominant(w) for w in (lam, mu, nu))
    _check_coefficient(datum, lam, mu, nu)
    return _coefficients(datum, lam, mu, (nu,))[0]


def _coefficients(datum: RootDatum, lam: Weight, mu: Weight, nus) -> list[int]:
    """``tensor_multiplicity(datum, lam, mu, nu)`` for each nu of ``nus``,
    unchecked: every weight is a dominant tuple of ints and each triple
    passes ``_check_coefficient``.  ``tensor_multiplicity`` checks its input
    before it calls this; a box closure calls it directly, as its candidates
    and factors are dominant box weights, and any three weights of a box
    the region cap admits pass the int64 guard (see ``_CosetRegion``).
    What lam and mu fix is done once: the shift and the steps of t,
    B(mu, mu), det C^-1 mu, which the class test and the dominance test
    compare against, and the fetch of mu's partial table.  When a walk
    visits a point or two, as for the candidates of a box closure, that is
    most of the cost.  A folded p is a weight of L(mu) iff the table holds
    it once its floor is as deep as mu - p: the top's class test puts p in
    mu's class, and every dominant weight below mu in that class has
    positive multiplicity.  So each p is one lookup, in {mu: 1} until a p
    below mu fetches mu's table; only a p it lacks runs the dominance test
    p <= mu, which, when it holds, extends the table to the depth of mu - p.
    Each walk is folded in batches of at most ``_BATCH_MAX`` points
    (``_fold_points``): a batch of more than ``_CLIMB_MAX`` points by
    ``_sweep`` as one int64 array, and a shorter one, as a PRV check's one
    or two points, by ``weyl._climb``."""
    det, adjugate = datum._det, datum._adjugate
    shift = wadd(lam, datum.weyl_vector)
    step = [2 * det * a * b for a, b in zip(datum.symmetrizer, shift)]
    mu_adj = [sum(map(mul, row, mu)) for row in adjugate]
    mu_norm = _form(datum, mu, mu)
    # mu's partial table, fetched on the first point that folds below mu
    part, table = None, {mu: 1}
    out = []
    points = 0
    for nu in nus:
        top = wadd(nu, datum.weyl_vector)
        diff = wsub(top, shift)
        diff_adj = [sum(map(mul, row, diff)) for row in adjugate]
        # the norm test reads t <= slack; B(diff, diff) as ``_form`` sums it
        slack = mu_norm - sum(x * y * d for x, y, d in zip(diff, diff_adj, datum.symmetrizer))
        if slack < 0 or any((y - m) % det for y, m in zip(diff_adj, mu_adj)):
            out.append(0)
            continue
        total = 0
        walk = orbit_tree(datum, top, step, slack)
        batch = list(islice(walk, _BATCH_MAX))
        while batch:
            points += len(batch)
            for p, (_, sign) in zip(_fold_points(datum, batch, shift), batch):
                n = table.get(p)
                if n is None:
                    # p lies in mu's class, so det C^-1 (mu - p) = det * depth
                    gap = [m - sum(map(mul, row, p)) for row, m in zip(adjugate, mu_adj)]
                    if min(gap) < 0:
                        continue
                    if part is None:
                        part = _interval(datum, mu)
                    table = part.extend(datum, [g // det for g in gap])
                    n = table[p]
                total += sign * n
            # a short batch ends the walk
            batch = list(islice(walk, _BATCH_MAX)) if len(batch) == _BATCH_MAX else None
        assert total >= 0, "negative tensor coefficient"
        out.append(total)
    datum.stats["coefficient_points"] += points
    return out


def _fold_points(datum: RootDatum, batch: list, shift: Weight):
    """The dominant representative of x - shift for each (x, sign) of
    ``batch``, in order: by ``weyl._climb`` point by point for a batch of at
    most ``_CLIMB_MAX`` points, else by ``_sweep`` over one int64 array
    read back by one ``weight_rows``.  ``_check_coefficient`` bounds every
    coordinate the fold meets, times a Cartan entry, within int64."""
    if len(batch) <= _CLIMB_MAX:
        out = []
        for x, _ in batch:
            p = list(map(sub, x, shift))
            _climb(datum, p)
            out.append(tuple(p))
        return out
    x = np.subtract(np.array([x for x, _ in batch], dtype=np.int64).T,
                    np.array(shift, dtype=np.int64)[:, None], order="C")
    while _sweep(datum, x):
        pass
    return weight_rows(x.T)


def prv_component(datum: RootDatum, lam: Weight, mu: Weight, word) -> Weight:
    """Dominant representative of lam + w(mu), folded by ``weyl._climb``;
    always a summand of the tensor product (exercised as a tested
    invariant, not assumed here)."""
    shifted = apply_word(datum, word, mu)
    x = list(map(add, datum.check_weight(lam), shifted))
    _climb(datum, x)
    return tuple(x)


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
