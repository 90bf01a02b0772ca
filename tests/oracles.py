"""Independent oracles used to check the library's fast paths.

Everything here deliberately avoids the code paths under test: multiplicities
come from a Kostant-style alternating sum over the whole Weyl group with a
brute-force vector partition count, tensor products from multiplying
weight systems expanded by BFS orbits and stripping highest weights, the dominant
weights below a highest weight from a walk over the whole root-coordinate
box, orbits and Weyl group elements from breadth-first searches over simple
reflections, orbit sizes from the Dynkin shape of each stabilizer and the
classical table of Weyl group orders, positive roots from the earlier
closure of the simple roots under every simple reflection (positives kept),
determinants from cofactor expansion,
the inverse Cartan matrix from Gauss-Jordan over Fractions, multiplicities
also from the earlier Freudenthal recursion (one root string per positive
root),
the Brauer-Klimyk fold from its earlier implementation
(leftmost-negative reflection rounds, then ``np.unique`` over rows), single
tensor coefficients from the earlier unpruned sweep over every point of the
orbit of nu + rho, and
box closures from the earlier sweep-until-stable loop and from the earlier
one-pass loop that tests each pair alone against a frozenset envelope, and
the members a perfect descriptor predicts from the earlier loop that
projects every box weight to the cocenter, and the coset classes of a box
from the earlier residues of its adjugate coordinates mod det.  The
Freudenthal oracle folds weights by leftmost-negative reflections, apart
from the library's fold.  The invariant factors of a finite abelian group
come from the earlier prime-power bookkeeping, and the subgroups of a
cocenter from the earlier breadth-first search, which spans each subgroup
found with each element outside it and drops the copies by member tuple.
A subgroup's members come from the earlier breadth-first closure under its
generators, and the admissible subgroup of a support from the earlier
element-by-element restriction of the lattice subgroup's members.
Root-string saturation of a weight set is checked here too; the library
does not need it.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, floor

import numpy as np

from weightlab import (apply_word, character, dominant_weights_below, in_lattice, latticecalc,
                       orbit, reflect, root_coordinates, weyl)
from weightlab.charcalc import expanded_weight_table
from weightlab.perfectmonoid import Box
from weightlab.rootdata import PositiveRoot, RootDatum, Weight, wadd, wsub
from weightlab.tensor import _check_coefficient, tensor_decompose


def cg_closed_form(a: int, b: int) -> dict[tuple[int], int]:
    """Rank-1 tensor decomposition in closed form."""
    return {(k,): 1 for k in range(abs(a - b), a + b + 1, 2)}


def height(datum, w) -> Fraction:
    return sum(root_coordinates(datum, w))


def kostant_partition(datum, vec: tuple[int, ...]) -> int:
    """Number of ways to write a root-coordinate vector as a nonnegative
    integer combination of positive roots."""
    roots = tuple(r.rc for r in datum.positive_roots)

    @lru_cache(maxsize=None)
    def count(i: int, rest: tuple[int, ...]) -> int:
        if all(x == 0 for x in rest):
            return 1
        if i == len(roots):
            return 0
        total = 0
        cur = rest
        while all(x >= 0 for x in cur):
            total += count(i + 1, cur)
            cur = tuple(x - r for x, r in zip(cur, roots[i]))
        return total

    return count(0, vec)


def word_sign(word) -> int:
    """eps(w) of the element a reduced word stands for: (-1)^length."""
    return -1 if len(tuple(word)) % 2 else 1


def kostant_multiplicity(datum, lam, mu) -> int:
    """Weight multiplicity n_mu(lam) as an alternating sum over W."""
    rho = datum.weyl_vector
    total = 0
    for word in bfs_weyl_group_elements(datum):
        shifted = wsub(apply_word(datum, word, wadd(lam, rho)), wadd(mu, rho))
        rc = root_coordinates(datum, shifted)
        if any(k.denominator != 1 or k < 0 for k in rc):
            continue
        total += word_sign(word) * kostant_partition(datum, tuple(int(k) for k in rc))
    return total


def expanded(datum, lam) -> dict:
    """Full weight system of L(lam), each dominant weight's orbit by BFS."""
    return {v: m for w, m in character(datum, lam).entries.items()
            for v in bfs_orbit(datum, w)}


def brute_tensor(datum, lam, mu) -> dict:
    """Multiply expanded weight systems, then strip highest weights."""
    left = expanded(datum, lam)
    right = expanded(datum, mu)
    product = defaultdict(int)
    for w1, m1 in left.items():
        for w2, m2 in right.items():
            product[wadd(w1, w2)] += m1 * m2
    result = {}
    while product:
        top = max(product, key=lambda w: (height(datum, w), w))
        assert all(x >= 0 for x in top), f"stripping hit non-dominant top {top}"
        mult = product[top]
        assert mult > 0
        result[top] = mult
        for w, m in expanded(datum, top).items():
            product[w] -= mult * m
            assert product[w] >= 0
            if product[w] == 0:
                del product[w]
    return result


def per_root_freudenthal(datum, lam) -> dict[Weight, int]:
    """Dominant weight -> multiplicity of L(lam) by the Freudenthal
    recursion with one root string per positive root for every mu."""
    lam = datum.check_weight(lam)
    below = dominant_weights_below(datum, lam)
    table: dict[Weight, int] = {lam: 1}
    dom_set = set(below)
    sym = datum.symmetrizer
    # per positive root: its fundamental coordinates, the vector v with
    # v . nu = (alpha, nu), and (alpha, alpha) = v . alpha
    strings = []
    for alpha in datum.positive_roots:
        pair = tuple(r * d for r, d in zip(alpha.rc, sym))
        strings.append((alpha.fund, pair, sum(p * a for p, a in zip(pair, alpha.fund))))
    dominant_of: dict[Weight, Weight] = {}
    for mu in below[1:]:
        depth = root_coordinates(datum, wsub(lam, mu))
        assert all(k.denominator == 1 for k in depth)
        depth = tuple(map(int, depth))
        # denominator (lam+rho, lam+rho) - (mu+rho, mu+rho) = (lam+mu+2rho, lam-mu)
        mid = tuple(a + b + 2 for a, b in zip(lam, mu))
        denom = sum(k * d * f for k, d, f in zip(depth, sym, mid))
        assert denom > 0
        total = 0
        for fund, pair, norm in strings:
            # nu runs over mu + k alpha, k >= 1, with prod = (alpha, nu)
            nu = mu
            prod = sum(p * x for p, x in zip(pair, mu))
            while True:
                nu = tuple(x + a for x, a in zip(nu, fund))
                prod += norm
                nu_dom = dominant_of.get(nu)
                if nu_dom is None:
                    nu_dom = dominant_of[nu] = leftmost_dominant(datum, nu)
                n = table.get(nu_dom)
                if n is None:
                    if nu_dom not in dom_set:
                        break  # left the weight system; the string is contiguous
                    raise AssertionError("multiplicity requested before computed")
                total += n * prod
        num = 2 * total
        assert num % denom == 0
        mult = num // denom
        # every dominant weight below lam in the same coset carries positive
        # multiplicity, so a zero here would mean a recursion bug
        assert mult > 0
        table[mu] = mult
    return table


def random_dominant(rng, rank: int, max_coord: int):
    return tuple(rng.randrange(max_coord + 1) for _ in range(rank))


def box_below_with_depth(datum, lam):
    """Dominant weights below lam, each with the root coordinates of lam - mu.

    BFS subtracting simple roots; a branch is pruned once some root
    coordinate of lam - mu exceeds that of lam, which cannot happen on the
    way to a dominant weight (the inverse Cartan matrix is entrywise >= 0 on
    each factor).
    """
    lam = datum.check_weight(lam)
    if any(x < 0 for x in lam):
        raise ValueError(f"expected a dominant weight, got {lam}")
    bound = [floor(k) for k in root_coordinates(datum, lam)]
    rank = datum.rank
    cols = datum.cartan_columns
    zero_depth = (0,) * rank
    seen = {lam: zero_depth}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            depth = seen[w]
            for i in range(rank):
                if depth[i] + 1 > bound[i]:
                    continue
                nw = tuple(x - c for x, c in zip(w, cols[i]))
                if nw in seen:
                    continue
                nd = tuple(d + (1 if j == i else 0) for j, d in enumerate(depth))
                seen[nw] = nd
                nxt.append(nw)
        frontier = nxt
    out = [(w, d) for w, d in seen.items() if all(x >= 0 for x in w)]
    out.sort(key=lambda item: (sum(item[1]), item[0]))
    return out


def bfs_orbit(datum, lam) -> frozenset:
    """Full W-orbit of a weight (exponential in rank; small data only)."""
    lam = datum.check_weight(lam)
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, datum.rank + 1):
                r = reflect(datum, i, w)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return frozenset(seen)


def unique_klimyk(datum, lam, mu) -> dict:
    """Brauer-Klimyk fold of L(lam) (x) L(mu) over the expanded weights of mu,
    as weightlab computed it before the sort-based fold.  It reads the int64
    table ``expanded_weight_table`` builds, not the fold's cached one."""
    rows, mults = expanded_weight_table(datum, character(datum, mu))
    shift = np.array(wadd(lam, datum.weyl_vector), dtype=np.int64)
    xi = rows + shift[None, :]
    dom, signs = batch_make_dominant(datum, xi)
    regular = (dom > 0).all(axis=1)
    dom = dom[regular] - 1  # subtract rho
    contrib = signs[regular] * mults[regular]
    uniq, inverse = np.unique(dom, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).reshape(-1)
    totals = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(totals, inverse, contrib)
    out: dict = {}
    for row, total in zip(uniq.tolist(), totals.tolist()):
        assert total >= 0, "negative accumulated tensor multiplicity"
        if total:
            out[tuple(row)] = total
    return out


def unpruned_tensor_multiplicity(datum: RootDatum, lam: Weight, mu: Weight, nu: Weight) -> int:
    """Multiplicity of L(nu) in L(lam) (x) L(mu), by the Racah-Speiser form
    of the Brauer-Klimyk formula (Humphreys, *Introduction to Lie Algebras*,
    section 24):

        c = sum over w in W of eps(w) m_mu(w(nu + rho) - lam - rho).

    nu + rho is regular, so its orbit has |W| points, and eps(w) is the
    parity of the number of positive coroots that pair negatively with
    w(nu + rho).  Every point minus lam + rho is folded into the dominant
    chamber by ``batch_make_dominant``; only points whose dominant
    representative p satisfies p <= mu carry a multiplicity.  It is 1 when
    p = mu, and otherwise is read from ``character(datum, mu)``.  It builds
    the whole orbit, so it refuses, with ``ValueError``, |W| >
    ``weyl.MAX_WEYL_ELEMENTS`` itself, which the library's coefficient does
    not; ``_check_coefficient`` refuses inputs where int64 could overflow.
    """
    lam, mu, nu = (datum.check_weight(w) for w in (lam, mu, nu))
    if min(lam + mu + nu) < 0:
        raise ValueError("tensor coefficient needs dominant weights")
    if datum.weyl_order > weyl.MAX_WEYL_ELEMENTS:
        raise ValueError(f"Weyl group of order {datum.weyl_order} exceeds bound "
                         f"{weyl.MAX_WEYL_ELEMENTS}")
    _check_coefficient(datum, lam, mu, nu)
    points = np.array(list(orbit(datum, wadd(nu, datum.weyl_vector))), dtype=np.int64)
    coroots = np.array([alpha.coroot for alpha in datum.positive_roots], dtype=np.int64)
    signs = 1 - 2 * ((points @ coroots.T < 0).sum(axis=1) & 1)
    shift = np.array(wadd(lam, datum.weyl_vector), dtype=np.int64)
    y, _ = batch_make_dominant(datum, points - shift)  # its signs are unused
    kept = np.flatnonzero(datum.in_root_cone(np.array(mu, dtype=np.int64) - y))
    total = 0
    for p, sign in zip(map(tuple, y[kept].tolist()), signs[kept].tolist()):
        total += sign * (1 if p == mu else character(datum, mu).entries[p])
    assert total >= 0, "negative tensor coefficient"
    return total


def batch_make_dominant(datum, arr: np.ndarray):
    """Vectorized make_dominant for an (N, rank) int array.

    Returns (dominant rows, signs) where sign = (-1)^(number of reflections).
    Rows are modified in place.
    """
    cols = np.array(datum.cartan, dtype=np.int64)  # cols[:, i] = alpha_i
    sign = np.ones(len(arr), dtype=np.int64)
    active = np.arange(len(arr))
    while len(active):
        sub = arr[active]
        negmask = sub < 0
        has_neg = negmask.any(axis=1)
        active = active[has_neg]
        if not len(active):
            break
        sub = arr[active]
        first = (sub < 0).argmax(axis=1)
        for i in np.unique(first):
            rows = active[first == i]
            coef = arr[rows, i]
            arr[rows] -= coef[:, None] * cols[:, i][None, :]
            sign[rows] = -sign[rows]
    return arr, sign


def leftmost_dominant(datum, lam) -> Weight:
    """Dominant representative by reflections in the leftmost negative
    coordinate, one weight at a time: the scalar form of batch_make_dominant."""
    x = list(lam)
    while (i := next((i for i, c in enumerate(x) if c < 0), None)) is not None:
        c = x[i]
        x = [v - c * a for v, a in zip(x, datum.cartan_columns[i])]
    return tuple(x)


def bfs_weyl_group_elements(datum, max_order: int = 100000):
    """One word per Weyl group element, by BFS on the orbit of the Weyl
    vector.  Guarded by max_order; meant for small groups."""
    if datum.weyl_order > max_order:
        raise ValueError(f"Weyl group of order {datum.weyl_order} exceeds bound {max_order}")
    rho = datum.weyl_vector
    words = {rho: ()}
    frontier = [rho]
    while frontier:
        nxt = []
        for w in frontier:
            base = words[w]
            for i in range(1, datum.rank + 1):
                r = reflect(datum, i, w)
                if r not in words:
                    # s_i applied after the word reaching w
                    words[r] = (i,) + base
                    nxt.append(r)
        frontier = nxt
    assert len(words) == datum.weyl_order
    return sorted(words.values(), key=lambda w: (len(w), w))


_EXCEPTIONAL_WEYL_ORDER = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                           ("F", 4): 1152, ("G", 2): 12}


def weyl_group_order(family: str, rank: int) -> int:
    """Order of the Weyl group of a simple type, from the classical table."""
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return _EXCEPTIONAL_WEYL_ORDER[(family, rank)]


def minus_one_type(family: str, rank: int) -> bool:
    """Whether w0 = -1 on a simple type, from the classical table."""
    if family in ("B", "C", "F", "G"):
        return True
    if family == "A":
        return rank == 1
    if family == "D":
        return rank % 2 == 0
    return family == "E" and rank in (7, 8)


def table_weyl_order(datum) -> int:
    order = 1
    for family, r in datum.ctype.factors:
        order *= weyl_group_order(family, r)
    return order


def classifier_orbit_size(datum, lam) -> int:
    """|W . lam| for dominant lam, via the parabolic stabilizer W_J, J = zeros,
    each component of J classified by its Dynkin shape."""
    lam = datum.check_weight(lam)
    if any(x < 0 for x in lam):
        raise ValueError("orbit_size expects a dominant weight")
    zero_nodes = [i for i, x in enumerate(lam) if x == 0]
    stab = 1
    for comp in _connected_components(datum, zero_nodes):
        stab *= _component_weyl_order(datum, comp)
    order = table_weyl_order(datum)
    assert order % stab == 0
    return order // stab


def _connected_components(datum, nodes) -> list[list[int]]:
    nodes = set(nodes)
    comps = []
    while nodes:
        start = min(nodes)
        comp, stack = [], [start]
        nodes.discard(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in datum.neighbors[v]:
                if u in nodes:
                    nodes.discard(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def _component_weyl_order(datum, comp: list[int]) -> int:
    """Weyl order of an irreducible induced subdiagram, classified by shape."""
    n = len(comp)
    if n == 1:
        return 2
    inside = set(comp)
    deg = {i: sum(1 for j in datum.neighbors[i] if j in inside) for i in comp}
    bonds = [(i, j) for i in comp for j in comp
             if i < j and datum.cartan[i][j] * datum.cartan[j][i] > 1]
    triple = any(datum.cartan[i][j] * datum.cartan[j][i] == 3 for i, j in bonds)
    if triple:
        return weyl_group_order("G", 2)
    if bonds:
        i, j = bonds[0]
        if deg[i] == 1 or deg[j] == 1:
            return weyl_group_order("B", n)
        return weyl_group_order("F", 4)
    branch = [i for i in comp if deg[i] == 3]
    if not branch:
        return weyl_group_order("A", n)
    arms = sorted(_arm_lengths(datum, branch[0], inside))
    if arms[0] == 1 and arms[1] == 1:
        return weyl_group_order("D", n)
    return weyl_group_order("E", n)


def _arm_lengths(datum, center: int, inside: set[int]) -> list[int]:
    lengths = []
    for start in datum.neighbors[center]:
        if start not in inside:
            continue
        length, prev, cur = 1, center, start
        while True:
            nxt = [u for u in datum.neighbors[cur] if u in inside and u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return lengths


def closure_positive_roots(datum) -> tuple[PositiveRoot, ...]:
    """Closure of the simple roots under simple reflections, positives kept,
    sorted by (height, root coordinates): weightlab's root generator before
    the upward walk."""
    rank = datum.rank
    cols = datum.cartan_columns
    seen: dict[Weight, tuple[int, ...]] = {}
    frontier: list[Weight] = []
    for j in range(rank):
        rc = tuple(1 if i == j else 0 for i in range(rank))
        seen[cols[j]] = rc
        frontier.append(cols[j])
    while frontier:
        nxt = []
        for fund in frontier:
            rc = seen[fund]
            for i in range(rank):
                c = fund[i]
                if c == 0:
                    continue
                rfund = tuple(f - c * cols[i][t] for t, f in enumerate(fund))
                if rfund in seen:
                    continue
                rrc = tuple(r - c * (1 if t == i else 0) for t, r in enumerate(rc))
                seen[rfund] = rrc
                nxt.append(rfund)
        frontier = nxt
    roots = []
    for fund, rc in seen.items():
        if all(c >= 0 for c in rc) and any(rc):
            norm = sum(r * d * f for r, d, f in zip(rc, datum.symmetrizer, fund))
            coroot = []
            for r, d in zip(rc, datum.symmetrizer):
                num = 2 * r * d
                assert num % norm == 0
                coroot.append(num // norm)
            roots.append(PositiveRoot(fund, rc, tuple(coroot), sum(rc)))
    roots.sort(key=lambda r: (r.height, r.rc))
    return tuple(roots)


def closure_walk_table(datum) -> tuple:
    """``RootDatum._walk_table`` read off the closure's roots: (fund, rc,
    positive) per root, positive the (j, fund_j) with fund_j > 0."""
    return tuple((alpha.fund, alpha.rc, tuple((j, f) for j, f in enumerate(alpha.fund) if f > 0))
                 for alpha in closure_positive_roots(datum))


def closure_root_supports(datum) -> tuple:
    """``RootDatum.root_supports`` read off the closure's roots: (support
    bitmask, height) per root."""
    return tuple((sum(1 << i for i, k in enumerate(alpha.rc) if k), alpha.height)
                 for alpha in closure_positive_roots(datum))


def closure_root_table(datum) -> tuple:
    """``RootDatum._root_table`` read off the closure's roots: (fund, pair,
    negative, zero, support, coords) per root."""
    table = []
    for alpha in closure_positive_roots(datum):
        negative = sum(1 << j for j, f in enumerate(alpha.fund) if f < 0)
        zero = sum(1 << j for j, f in enumerate(alpha.fund) if f == 0)
        support = sum(1 << j for j, r in enumerate(alpha.rc) if r)
        pair = tuple(r * d for r, d in zip(alpha.rc, datum.symmetrizer))
        table.append((alpha.fund, pair, negative, zero, support,
                      tuple((j, r) for j, r in enumerate(alpha.rc) if r)))
    return tuple(table)


def max_coroot_height(datum) -> int:
    """Height of the highest coroot: the largest sum of coroot coordinates
    over the positive roots the datum walks."""
    return max(sum(alpha.coroot) for alpha in datum.positive_roots)


def int_det(matrix) -> int:
    """Exact determinant by fraction-free expansion (small matrices only)."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * int_det(minor)
    return total


def fraction_inverse_cartan(cartan) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse by Gauss-Jordan over Fractions."""
    n = len(cartan)
    aug = [[Fraction(cartan[i][j]) for j in range(n)]
           + [Fraction(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class _BoxEnvelope:
    """In-box dominant weights below a given Cartan weight in its coset --
    the superset every tensor summand must land in.  Vectorized over the box
    with exact integer arithmetic (:meth:`RootDatum.in_root_cone`)."""

    def __init__(self, datum: RootDatum, box: Box):
        self.datum = datum
        self.box = box
        self.region = box.region(datum)
        self._rows = np.array(self.region, dtype=np.int64)
        self._cache: dict[Weight, frozenset[Weight]] = {}

    def below(self, total: Weight) -> frozenset[Weight]:
        cached = self._cache.get(total)
        if cached is None:
            diff = np.asarray(total, dtype=np.int64)[None, :] - self._rows
            mask = self.datum.in_root_cone(diff)
            cached = frozenset(self.region[i] for i in np.nonzero(mask)[0])
            self._cache[total] = cached
        return cached


def _pair_adds(envelope: _BoxEnvelope, members, a: Weight, b: Weight) -> list[Weight]:
    """In-box summands of L(a) (x) L(b) missing from ``members``, sorted, as
    the closure adds them.  When the envelope below a + b lies in
    ``members``, no summand can be missing and the pair is not decomposed."""
    if envelope.below(wadd(a, b)) <= members:
        return []
    box = envelope.box
    return sorted(w for w in tensor_decompose(envelope.datum, a, b).support()
                  if w in box and w not in members)


def pairwise_perfect_closure(spec, box: Box) -> set[Weight]:
    """Box closure as weightlab computed it before the row test, one pair
    at a time.  Least fixed point, inside the box, of adding sums and all tensor
    summands of pairs.  This is the box truncation of the true closure:
    elements of the true closure outside the box are never represented, so
    the result is a lower bound whose quality grows with the bound."""
    datum = spec.datum
    for g in spec.generators:
        if g not in box:
            raise ValueError(f"generator {g} lies outside the box (bound {box.bound})")
    order = sorted({(0,) * datum.rank, *spec.generators})
    members = set(order)
    envelope = _BoxEnvelope(datum, box)
    # each pair is settled once, when its later member b is reached; members
    # only grow, so a pair that adds nothing then never will
    for j, b in enumerate(order):
        for a in order[:j + 1]:
            adds = _pair_adds(envelope, members, a, b)
            members.update(adds)
            order.extend(adds)
    return members


def sweep_perfect_closure(spec, box) -> set:
    """Box closure as weightlab computed it before the one-pass loop: sweeps
    over every pair of members, sorted by total height, skipping pairs
    already processed, until a sweep adds nothing."""
    datum = spec.datum
    for g in spec.generators:
        if g not in box:
            raise ValueError(f"generator {g} lies outside the box (bound {box.bound})")
    members: set[Weight] = {(0,) * datum.rank, *spec.generators}
    processed: set[tuple[Weight, Weight]] = set()
    envelope = _BoxEnvelope(datum, box)
    while True:
        before = len(members)
        pairs = sorted(combinations_with_replacement(sorted(members), 2),
                       key=lambda p: (sum(p[0]) + sum(p[1]), p))
        for pair in pairs:
            if pair in processed:
                continue
            processed.add(pair)
            # membership only grows, so a pair that adds nothing now never will
            members.update(_pair_adds(envelope, members, *pair))
        if len(members) == before:
            break
    return members


def pairwise_is_perfect_in_box(datum, members, box: Box) -> bool:
    """Whether no pair of members, each tested alone against the frozenset
    envelope, has an in-box summand outside the set."""
    envelope = _BoxEnvelope(datum, box)
    return not any(_pair_adds(envelope, members, a, b)
                   for a, b in combinations_with_replacement(sorted(members), 2))


def per_weight_predicted_members(datum, desc, box: Box) -> set[Weight]:
    """Predicted members as weightlab computed them before the per-coset
    table: every box weight projected to the cocenter on its own."""
    cocenter = datum.cocenter
    support = desc.support
    out = set()
    off_support = [k for k in range(1, datum.n_factors + 1) if k not in support]
    for lam in box.region(datum):
        if any(any(datum.project_factor(lam, k)) for k in off_support):
            continue
        if not in_lattice(datum, lam):
            continue
        cls = cocenter.restrict_element(
            latticecalc.project_to_cocenter(cocenter, lam), support)
        if cls in desc.subgroup:
            out.add(lam)
    return out


class ResidueClasses:
    """Coset classes of a box's weights as weightlab computed them before it
    read them from the cocenter: one class per distinct residue mod det of
    the adjugate coordinates det * C^-1 lam, numbered in sorted residue
    order, and the class of a total from the sum of two residues.  Every
    class of P/Q holds a weight with coordinates 0 or 1 (0 or a sum of
    minuscule weights), so the class of every total occurs in the box."""

    def __init__(self, datum, box: Box):
        rows = np.array(box.region(datum), dtype=np.int64).reshape(-1, datum.rank)
        self.det = datum._det
        self.residues, cls = np.unique(rows @ datum._np_adjugate.T % self.det, axis=0,
                                       return_inverse=True)
        self.cls = cls.reshape(-1)
        self.class_of = {tuple(r): c for c, r in enumerate(self.residues.tolist())}

    def sum_class(self, ca: int, cb: int) -> int:
        """The class of a total of weights of classes ca and cb."""
        r = (self.residues[ca] + self.residues[cb]) % self.det
        return self.class_of[tuple(r.tolist())]


def is_saturated_weight_set(datum, weights) -> bool:
    """Root-string saturation: for every lam in the set, every root alpha and
    0 <= i <= <lam, alpha^vee>, lam - i alpha stays in the set."""
    ws = {datum.check_weight(w) for w in weights}
    for lam in ws:
        for alpha in datum.positive_roots:
            for a_fund, a_coroot in ((alpha.fund, alpha.coroot),
                                     (tuple(-x for x in alpha.fund),
                                      tuple(-x for x in alpha.coroot))):
                height = sum(c * x for c, x in zip(a_coroot, lam))
                for i in range(height + 1):
                    probe = tuple(x - i * a for x, a in zip(lam, a_fund))
                    if probe not in ws:
                        return False
    return True


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power_invariants(orders) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of Z/orders[0] x ...: the largest
    power of each prime goes to the last factor, the next to the one
    before, and so on."""
    primes: dict[int, list[int]] = {}
    for d in orders:
        for p, e in _factorize(d).items():
            primes.setdefault(p, []).append(e)
    depth = max((len(v) for v in primes.values()), default=0)
    chain = []
    for slot in range(depth):
        d = 1
        for p, exps in primes.items():
            exps_sorted = sorted(exps, reverse=True)
            if slot < len(exps_sorted):
                d *= p ** exps_sorted[slot]
        chain.append(d)
    return tuple(sorted(chain))


def bfs_closure(group: latticecalc.FinAbGroup, generators) -> tuple[tuple[int, ...], ...]:
    """The sorted members of the subgroup the generators span: the earlier
    breadth-first closure of 0 under adding each generator."""
    gens = [tuple(x % d for x, d in zip(g, group.orders)) for g in generators]
    closure = {group.zero()}
    frontier = [group.zero()]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = group.add(a, g)
                if b not in closure:
                    closure.add(b)
                    nxt.append(b)
        frontier = nxt
    return tuple(sorted(closure))


@lru_cache(maxsize=None)
def bfs_subgroup_members(group: latticecalc.FinAbGroup) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The member tuple of every subgroup once, ordered by order and then
    members: each subgroup found is spanned with every element outside it,
    level by level, and the copies are dropped by their member tuples."""
    elements = group.elements()
    trivial = bfs_closure(group, ())
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for have in frontier:
            have_set = set(have)
            for g in elements:
                if g not in have_set:
                    bigger = bfs_closure(group, have + (g,))
                    if bigger not in found:
                        found.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return tuple(sorted(found, key=lambda m: (len(m), m)))


def bfs_subgroups(group: latticecalc.FinAbGroup) -> list[latticecalc.Subgroup]:
    """The subgroups of :func:`bfs_subgroup_members`, in its order, each as
    the library's subgroup spanned by its members."""
    return [latticecalc.Subgroup.generated(group, m) for m in bfs_subgroup_members(group)]


def admissible_members(datum: RootDatum, support) -> tuple[tuple[int, ...], ...]:
    """The sorted classes of the lattice subgroup that vanish off the given
    factors, restricted to them: the earlier element-by-element listing,
    the lattice subgroup's members taken from its breadth-first closure."""
    cocenter, mode = datum.cocenter, datum.lattice.mode
    gens = (cocenter.elements() if mode == "sc" else () if mode == "adjoint"
            else datum.lattice.generators)
    off = frozenset(range(1, datum.n_factors + 1)) - frozenset(support)
    return tuple(sorted({cocenter.restrict_element(h, support)
                         for h in bfs_closure(cocenter, gens)
                         if all(x == 0 for x in cocenter.restrict_element(h, off))}))
