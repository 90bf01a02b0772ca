"""Weight systems with exact multiplicities and dimensions.

The character of an irreducible module is stored on dominant weights only;
the full weight system is the union of their W-orbits and is expanded
explicitly only where needed (tensor decomposition, brute-force checks).
The expansion walks one orbit per zero pattern J among the dominant weights
(per simple factor), that of one weight encoding the free coordinates, which
gives w omega_i for every coset w W_J and free i; the rows of a pattern are
then one integer product of its weights with those images.  Each highest
weight has one multiplicity table, kept on the datum and extended downward
on demand (``_interval``): a tensor coefficient reads it down to a weight,
``dominant_weights_below`` and ``character`` to the bottom.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from math import gcd, prod
from operator import add, gt, le, mul, sub

import numpy as np

from .rootdata import RootDataError, RootDatum, Weight, memoized, parabolic_order, weight_rows
from .weyl import _climb, orbit

# most rows an expanded weight table may hold: its row count, the sum of the
# orbit sizes of the character's dominant weights, is checked before any
# orbit is walked
MAX_EXPANDED_ROWS = 10 ** 6
# most dominant weights the walk below a highest weight may reach, checked
# after each level, before any multiplicity is computed
MAX_DOMINANT_WEIGHTS = 10 ** 5


@dataclass(frozen=True)
class Character:
    """Finite map dominant weight -> multiplicity for one module (or any
    W-invariant multiplicity function given on dominant representatives)."""

    datum: RootDatum = field(repr=False)
    entries: dict[Weight, int]

    def __post_init__(self):
        for w, m in self.entries.items():
            self.datum.check_dominant(w)
            # bool is a subclass of int, and a float would make dimension() a float
            if type(m) is not int:
                raise RootDataError(f"multiplicity {m!r} at {w} is not an int")
            if m < 1:
                raise ValueError(f"multiplicity {m} at {w} must be positive")

    def dimension(self) -> int:
        """sum of m |W / W_J| over the entries, J the zero coordinates of
        the weight: one ``parabolic_order`` per zero pattern."""
        by_zeros = defaultdict(int)
        for w, m in self.entries.items():
            by_zeros[sum(1 << i for i, x in enumerate(w) if x == 0)] += m
        order = self.datum.weyl_order
        return sum(m * (order // parabolic_order(self.datum, z)) for z, m in by_zeros.items())

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self.entries.items())

    def to_json(self) -> list[dict]:
        return [{"weight": list(w), "mult": m} for w, m in self.sorted_items()]


def dominant_weights_below(datum: RootDatum, lam: Weight) -> list[Weight]:
    """All dominant mu with mu <= lam and lam - mu in the root lattice,
    sorted by decreasing height then lexicographically: lam's table, walked."""
    return [w for _, w in sorted((sum(d), w) for w, d in _walked(datum, lam).seen.items())]


def _below_count_bound(datum: RootDatum, lam: Weight) -> int:
    """A lower bound on the dominant weights below a dominant lam, read off
    lam alone: the number of dominant nu with nu_i <= lam_i for every i and
    nu in lam's class of P/Q.  Each lies below lam, as lam - nu = sum_i
    (lam_i - nu_i) omega_i is in Q and C^-1 >= 0.  The count runs over the
    coordinates with one state per class met so far, the class of nu being
    det C^-1 nu mod det: nu_i adds nu_i times column i of det C^-1, which
    repeats with period e_i, the order of omega_i in P/Q, so the values of
    nu_i fall into e_i residues, each taken by a known count of them."""
    det = datum._det
    adjugate = datum._adjugate
    counts = {(0,) * datum.rank: 1}
    for x, col in zip(lam, zip(*adjugate)):
        e = det // gcd(det, *col)
        nxt = defaultdict(int)
        for r in range(min(e, x + 1)):
            n = (x - r) // e + 1  # values of nu_i that are r mod e
            for cls, k in counts.items():
                nxt[tuple((a + r * c) % det for a, c in zip(cls, col))] += k * n
        counts = nxt
    return counts.get(tuple(sum(map(mul, row, lam)) % det for row in adjugate), 0)


def _walked(datum: RootDatum, lam: Weight) -> _Interval:
    """lam's table, walked to the bottom; refused with ``ValueError`` before
    any walk when ``_below_count_bound`` exceeds ``MAX_DOMINANT_WEIGHTS``,
    read only when prod_i (lam_i + 1), which it never exceeds, does, so an
    ordinary character never eliminates C."""
    lam = datum.check_dominant(lam)
    if (prod(x + 1 for x in lam) > MAX_DOMINANT_WEIGHTS
            and _below_count_bound(datum, lam) > MAX_DOMINANT_WEIGHTS):
        raise ValueError(f"more than {MAX_DOMINANT_WEIGHTS} dominant weights below {lam}")
    table = _interval(datum, lam)
    table.walk(datum, None)
    return table


def _walk(datum: RootDatum, seen: dict, start: dict, floor,
          cut: dict) -> list[tuple[Weight, tuple[int, ...]]]:
    """Add the dominant weights of ``start`` to ``seen`` and walk down from
    them, adding each dominant weight reached; both map a weight mu to the
    root coordinates of lam - mu, its depth, with lam the first key of
    ``seen``.  Returns the (weight, depth) pairs added, sorted by total
    depth, then by weight.

    Walks dominant weights only: from each dominant mu subtract every
    positive root alpha and keep mu - alpha when it is dominant, one level
    deeper by alpha's root coordinates.  mu - alpha is dominant iff
    mu_j >= alpha_j on alpha's positive fundamental coordinates, usually one
    or two, so those are tested before mu - alpha is built.  The walk is
    complete by Stembridge, *The partial order of dominant weights* (Adv.
    Math. 136, 1998): when one dominant weight covers another in dominance
    order, the two differ by a positive root, so every dominant mu <= lam is
    reached from lam through dominant weights, each deeper than the last in
    every coordinate.  So a walk cut at a depth ``floor`` (None: uncut) reaches
    every dominant weight whose depth is at most ``floor``: a weight it
    reaches deeper than that is put in ``cut`` instead, from where a lower
    floor resumes the walk.  Refused with ``ValueError``, ``seen`` as it
    was, once it holds more than ``MAX_DOMINANT_WEIGHTS`` weights.
    """
    roots = datum._walk_table
    seen.update(start)
    added: list[Weight] = []
    frontier = list(start)
    while frontier:
        added += frontier
        nxt = []
        for w in frontier:
            depth = seen[w]
            for fund, rc, positive in roots:
                for j, f in positive:
                    if w[j] < f:
                        break
                else:
                    nw = tuple(map(sub, w, fund))
                    if nw not in seen:
                        nd = tuple(map(add, depth, rc))
                        if floor is not None and any(map(gt, nd, floor)):
                            cut[nw] = nd
                        else:
                            seen[nw] = nd
                            nxt.append(nw)
        if len(seen) > MAX_DOMINANT_WEIGHTS:
            lam = next(iter(seen))
            for w in added + nxt:
                del seen[w]
            raise ValueError(f"more than {MAX_DOMINANT_WEIGHTS} dominant weights below {lam}")
        frontier = nxt
    return sorted(((w, seen[w]) for w in added), key=lambda item: (sum(item[1]), item[0]))


@memoized
def _root_strings(datum: RootDatum, zeros: int) -> list:
    """The root strings the recursion walks from a dominant mu whose zero
    coordinates are the bitmask ``zeros``: one (fund, pair, coords, count)
    per J-dominant positive root alpha, with pair . nu = (alpha, nu), coords
    the (j, rc_j) over alpha's support and count the positive roots it
    stands for.  Each is read from the per-root table ``datum._root_table``
    by bitmask tests: alpha is J-dominant when none of its negative
    coordinates lies in J, its stabilizer in W_J is the parabolic subgroup
    on its zero coordinates in J, and its orbit lies in Phi_J when its
    support does."""
    order = parabolic_order(datum, zeros)
    strings = []
    for fund, pair, negative, zero, support, coords in datum._root_table:
        if negative & zeros:
            continue
        count = order // parabolic_order(datum, zero & zeros)
        if support & ~zeros == 0:
            # the orbit lies in Phi_J and holds -beta with each beta
            assert count % 2 == 0
            count //= 2
        strings.append((fund, pair, coords, count))
    return strings


def character(datum: RootDatum, lam: Weight) -> Character:
    """Weight system of the irreducible module with highest weight lam,
    multiplicities by the Freudenthal recursion in exact integers,

        ((lam+rho, lam+rho) - (mu+rho, mu+rho)) m(mu) = 2 sum_{alpha > 0} S_alpha,
        S_alpha = sum_{k >= 1} (mu + k alpha, alpha) m(mu + k alpha),

    in the orbit-sum form of Moody and Patera, *Fast recursion formula for
    weight multiplicities* (Bull. AMS 7, 1982), which walks one root string
    per orbit of the stabilizer of mu.

    Let J be the zero coordinates of the dominant mu, so that the parabolic
    subgroup W_J fixes mu.  The multiplicities are W-invariant, so for w in
    W_J, S_{w alpha} = S_alpha.  W_J permutes Phi+ minus Phi_J+.  For alpha
    in Phi_J, (mu, alpha) = 0 and s_alpha maps mu + k alpha to mu - k alpha,
    so S_{-alpha} = S_alpha and the sum over Phi_J+ is half the sum over
    Phi_J.  Both sets are unions of W_J-orbits, and the closed J-chamber is a
    fundamental domain for W_J, so each orbit holds exactly one J-dominant
    root: a positive alpha with <alpha, alpha_j^vee> >= 0 for every j in J.
    Its stabilizer in W_J is the parabolic subgroup on the j in J with
    <alpha, alpha_j^vee> = 0, so the sum over Phi+ is

        sum over J-dominant alpha > 0 of |W_J| / |W_{J cap zeros(alpha)}| S_alpha,

    halved when the support of alpha lies inside J.  A regular mu walks
    every positive root once.  Each string takes one step, to
    nu = mu + alpha, and reads S_alpha(nu) as the stored sum of the folded
    root at the dominant representative of nu; see ``_freudenthal``.
    """
    return Character(datum, _walked(datum, lam).extend(datum, None))


def _freudenthal(datum: RootDatum, lam: Weight, members, table: dict, sums: defaultdict,
                 new: list) -> None:
    """Fill ``table`` with the multiplicity in L(lam) of each (mu, depth) of
    ``new``, taken in order, by the recursion of ``character``, with each
    string sum built from the sums of the strings above it,

        S_alpha(mu) = (mu + alpha, alpha) m(mu + alpha) + S_alpha(mu + alpha).

    ``members`` holds the weights the walk below lam reached, and ``table``
    already holds every one that lies above a weight of ``new``.

    Each string takes one step, to nu = mu + alpha, and reads S_alpha(nu)
    from ``sums``, which holds the sum S_alpha(mu) of every string walked
    from a dominant mu.  For a dominant nu along an alpha it walked, that
    is S_alpha(nu) itself.  Otherwise let eta = w nu be the dominant
    representative of nu: S_alpha(nu) = S_{w alpha}(eta), as the
    multiplicities and the form are W-invariant, and for u in the
    stabilizer W_J of eta, S_{w alpha}(eta) = S_{u w alpha}(eta).  So the
    sum is that of the one J-dominant root beta in the W_J-orbit of
    w alpha, which eta walked and stored (``_fold_string``); it is 0 when
    eta = lam.  beta is positive: <nu, alpha^vee> = <mu, alpha^vee> + 2
    > 0, and the fold w inverts only positive roots that pair negatively
    with nu (Humphreys, *Introduction to Lie Algebras*, section 10.3).
    The weights are taken highest first, and eta lies above nu, so above
    the mu being computed: every sum read is stored and complete.

    Every weight nu of L(lam) has lam - nu in the root cone Q+.  With
    lam - mu = sum_j depth_j alpha_j, mu + alpha keeps that only when
    depth_j >= rc_j(alpha) for every j in the support of alpha; a string
    without that step adds nothing, and neither does one whose nu is below
    lam while its dominant representative is not, as nu then lies outside
    the weight system.  Each weight a string reads lies above mu, no
    deeper than mu in any coordinate: a walk cut at a depth floor holds it
    whenever it holds mu, and the recursion over such a walk reads only
    weights it computed.  So a table extended to a lower floor keeps its
    entries and its string sums, and runs on the new weights alone
    (``_interval``).  ``datum.stats`` counts the strings
    (``freudenthal_strings``), their steps (``freudenthal_steps``), the
    strings closed by the stored sum of a dominant nu along alpha
    (``freudenthal_reused``) and those closed by the sum of the folded root
    (``freudenthal_jumped``).
    """
    sym = datum.symmetrizer
    walked = steps = reused = jumped = 0
    for mu, depth in new:
        # denominator (lam+rho, lam+rho) - (mu+rho, mu+rho) = (lam+mu+2rho, lam-mu)
        mid = tuple(a + b + 2 for a, b in zip(lam, mu))
        denom = sum(k * d * f for k, d, f in zip(depth, sym, mid))
        if not denom:  # mu = lam, the one weight at depth 0
            table[mu] = 1
            continue
        strings = _root_strings(datum, sum(1 << i for i, x in enumerate(mu) if x == 0))
        walked += len(strings)
        total = 0
        for fund, pair, coords, count in strings:
            along = sums[fund]
            string = 0
            for j, r in coords:
                if depth[j] < r:
                    break  # lam - mu - alpha is not in the root cone
            else:
                nu = tuple(map(add, mu, fund))
                steps += 1
                # only dominant weights are keys of ``along``
                rest = along.get(nu)
                if rest is None:
                    eta, beta = _fold_string(datum, nu, fund)
                else:
                    eta = nu
                n = table.get(eta)
                if n is not None:
                    string = n * sum(map(mul, pair, nu))
                    if rest is not None:
                        string += rest
                        reused += 1
                    else:
                        if eta != lam:
                            string += sums[beta][eta]
                        jumped += 1
                elif eta in members:
                    raise AssertionError("multiplicity requested before computed")
                # otherwise nu left the weight system, and so did the string,
                # which is contiguous
            along[mu] = string
            total += count * string
        num = 2 * total
        assert num % denom == 0
        mult = num // denom
        # every dominant weight below lam in the same coset carries positive
        # multiplicity, so a zero here would mean a recursion bug
        assert mult > 0
        table[mu] = mult
    datum.stats["freudenthal_strings"] += walked
    datum.stats["freudenthal_steps"] += steps
    datum.stats["freudenthal_reused"] += reused
    datum.stats["freudenthal_jumped"] += jumped


def _fold_string(datum: RootDatum, nu: Weight, fund: Weight) -> tuple[Weight, Weight]:
    """(eta, beta) with S_alpha(nu) = S_beta(eta) for a weight nu and a
    positive root alpha, given by its fundamental coordinates ``fund``, with
    <nu, alpha^vee> > 0: eta = w nu is the dominant representative of nu and
    beta the J-dominant root in the W_J-orbit of w alpha, J the zero
    coordinates of eta, so beta is the root that ``_root_strings`` walks
    from eta and ``sums[beta][eta]`` stores the sum.  ``weyl._climb`` folds
    nu, and its reflections are replayed on alpha.  The fold inverts only
    positive roots that pair negatively with nu, so w alpha is positive;
    the same fold under the nodes of J then takes w alpha to beta: each s_j
    for j in J fixes eta and, applied where beta_j < 0, raises beta, which
    stays positive."""
    cols = datum.cartan_columns
    neighbors = datum.neighbors
    x = list(nu)
    b = list(fund)
    for i in _climb(datum, x):
        c = b[i]
        b[i] = -c
        col = cols[i]
        for j in neighbors[i]:
            b[j] -= c * col[j]
    if 0 in x:
        _climb(datum, b, [j for j, v in enumerate(x) if not v])
    return tuple(x), tuple(b)


@dataclass
class _Interval:
    """The multiplicities of L(``lam``) on the dominant weights mu below lam
    whose depth, the root coordinates of lam - mu, is at most ``floor`` in
    every coordinate (all once it is None): ``seen`` maps them to their
    depths and ``table``, bar the ``queue`` walked but not computed, to
    their multiplicities.  ``cut`` holds the weights reached past the
    floor (lam, before any walk), ``sums`` the string sums until complete."""

    lam: Weight
    floor: tuple[int, ...] | None
    seen: dict[Weight, tuple[int, ...]]
    cut: dict[Weight, tuple[int, ...]]
    table: dict[Weight, int]
    sums: defaultdict | None
    queue: list[tuple[Weight, tuple[int, ...]]] = field(default_factory=list)

    def walk(self, datum: RootDatum, depth) -> None:
        """Resume the walk from the weights of ``cut`` within the floor that
        covers the old one and ``depth``, or all of them when ``depth`` is
        None, and queue the weights added.  Refused with ``ValueError``, the
        table as it was, past ``MAX_DOMINANT_WEIGHTS`` weights."""
        if self.floor is None or depth is not None and all(map(le, depth, self.floor)):
            return
        floor = None if depth is None else tuple(map(max, self.floor, depth))
        grown = {w: d for w, d in self.cut.items() if floor is None or all(map(le, d, floor))}
        self.queue += _walk(datum, self.seen, grown, floor, self.cut)
        self.cut = {w: d for w, d in self.cut.items() if w not in grown}
        self.floor = floor

    def extend(self, datum: RootDatum, depth) -> dict[Weight, int]:
        """The table, walked as ``walk`` does and computed on its queue in
        order: a weight above a queued one is no deeper in any coordinate,
        so an earlier walk or the same one, sorted by total depth, took it
        first.  Each run is counted as ``interval_extensions``."""
        self.walk(datum, depth)
        if self.queue:
            _freudenthal(datum, self.lam, self.seen, self.table, self.sums, self.queue)
            self.queue = []
            datum.stats["interval_extensions"] += 1
        if self.floor is None:
            self.sums = None
        return self.table


@memoized
def _interval(datum: RootDatum, lam: Weight) -> _Interval:
    """The table of a checked lam, kept on the datum and extended downward
    on demand: the multiplicities of L(lam) between a depth floor and lam,
    which is all that m_lam(p) reads, or all of them.  It starts unwalked,
    its floor below every depth and lam alone cut at depth 0, so its first
    walk, like every later one, resumes from ``cut``."""
    return _Interval(lam, (-1,) * datum.rank, {}, {lam: (0,) * datum.rank}, {}, defaultdict(dict))


def weyl_dimension(datum: RootDatum, lam: Weight) -> int:
    """dim of the irreducible module with highest weight lam (Weyl formula)."""
    return _weyl_dimension(datum, datum.check_dominant(lam))


@memoized
def _weyl_dimension(datum: RootDatum, lam: Weight) -> int:
    num = 1
    den = 1
    for alpha in datum.positive_roots:
        num *= sum(c * (x + 1) for c, x in zip(alpha.coroot, lam))
        den *= sum(alpha.coroot)
    assert num % den == 0
    return num // den


def expand_character(datum: RootDatum, char: Character) -> dict[Weight, int]:
    """Full W-invariant multiplicity map underlying a character."""
    rows, mults = expanded_weight_table(datum, char)
    return dict(zip(weight_rows(rows), mults.tolist()))


def expanded_weight_table(datum: RootDatum, char: Character):
    """Numpy form of the expanded weight system: (rows, mults) arrays.

    A dominant lam with zero coordinates J has stabilizer W_J, and its orbit
    is w lam = sum_i lam_i w omega_i over the cosets w W_J.  The weights of
    one zero pattern J are therefore expanded together, by one integer
    product of their free coordinates with ``_coset_images`` per simple
    factor; on a product the orbit is the product of the factors' orbits,
    each row the sum of one point per factor.  Rows come one orbit after
    another, the orbits grouped by zero pattern, in no particular order
    within an orbit.  Refused with ``ValueError`` before any orbit is walked
    when the table would hold more than ``MAX_EXPANDED_ROWS`` rows, or when
    a coordinate could leave int64: each is <lam, beta^vee> for a coroot
    beta^vee, at most the height of the highest coroot times max lam.
    """
    patterns = defaultdict(list)
    for k, w in enumerate(char.entries):
        patterns[sum(1 << i for i, x in enumerate(w) if x == 0)].append(k)
    order = datum.weyl_order
    size = sum(len(at) * (order // parabolic_order(datum, z)) for z, at in patterns.items())
    if size > MAX_EXPANDED_ROWS:
        raise ValueError(f"expanded weight system of {size} weights exceeds bound "
                         f"{MAX_EXPANDED_ROWS}")
    rank = datum.rank
    if not size:
        return np.empty((0, rank), dtype=np.int64), np.empty(0, dtype=np.int64)
    if max(map(max, char.entries)) * datum._coroot_height > np.iinfo(np.int64).max:
        raise ValueError("expanded weight system is out of int64 range")
    lams = np.array(list(char.entries), dtype=np.int64)
    mults = np.fromiter(char.entries.values(), dtype=np.int64, count=len(lams))
    full = (1 << rank) - 1
    rows, reps = [], []
    for zeros, at in patterns.items():
        group = lams[at]
        # the orbit is the product of the orbits on the simple factors; a
        # factor's images are zero off its coordinates, so the rows are the
        # sums of one point per factor
        table = np.zeros((len(at), 1, rank), dtype=np.int64)
        for start, end in datum.ctype.blocks:
            factor_zeros = zeros | (full ^ ((1 << end) - (1 << start)))
            if factor_zeros == full:
                continue
            free = [i for i in range(start, end) if not zeros >> i & 1]
            part = group[:, free] @ _coset_images(datum, factor_zeros)
            table = (table[:, :, None] + part.reshape(len(at), 1, -1, rank)).reshape(
                len(at), -1, rank)
        rows.append(table.reshape(-1, rank))
        reps.append(np.repeat(mults[at], table.shape[1]))
    return np.concatenate(rows), np.concatenate(reps)


@memoized
def _coset_images(datum: RootDatum, zeros: int) -> np.ndarray:
    """w omega_i for every coset w W_J and every free coordinate i, J the
    zero coordinates in the bitmask ``zeros``: a (k, n * rank) int64 matrix,
    k the free coordinates in increasing order and n = |W / W_J|, whose row
    p holds the images of omega_{i_p}, one coset after another.

    Coordinate j of w omega_i is <omega_i, w^-1 alpha_j^vee>, a coefficient
    of a coroot, so it lies in [-m_i, m_i], m_i the largest coefficient of
    alpha_i^vee in a positive coroot.  The free coordinates are encoded in
    one weight e, e_{i_p} = K_1 ... K_{p-1} with K_p = 2 m_{i_p} + 1 and 0
    on J.  Its stabilizer is W_J, so ``orbit(datum, e)`` has one point per
    coset, sum_p e_{i_p} w omega_{i_p}, and the k balanced digit planes are
    read off it.  The walk runs in Python ints; refused with ``ValueError``
    before it when a point could leave int64.
    """
    rank = datum.rank
    free = [i for i in range(rank) if not zeros >> i & 1]
    tops = [max(alpha.coroot[i] for alpha in datum.positive_roots) for i in free]
    e = [0] * rank
    place = 1
    for i, m in zip(free, tops):
        e[i] = place
        place *= 2 * m + 1
    if place > np.iinfo(np.int64).max:
        raise ValueError(f"coset images of {len(free)} free coordinates are out of int64 range")
    points = orbit(datum, tuple(e))
    x = np.fromiter(chain.from_iterable(points), dtype=np.int64, count=len(points) * rank)
    images = np.empty((len(free), x.size), dtype=np.int64)
    for p, m in enumerate(tops):
        # x + m = (2m + 1) q + r with 0 <= r <= 2m: digit r - m, the rest q
        x, r = np.divmod(x + m, 2 * m + 1)
        images[p] = r - m
    assert not x.any()
    images.flags.writeable = False
    return images
