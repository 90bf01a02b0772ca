"""Finite abelian arithmetic for the cocenter P/Q and its subgroups.

The cocenter is presented factor by factor from the Smith normal form of
each Cartan block; coordinates with unit modulus are dropped.  The center of
the simply connected group is identified with the dual of P/Q: subgroups of
the center are stored as subgroups on the dual side and probed through the
perfect pairing sum(x_i y_i / d_i) mod 1.  A subgroup is kept as its
reduced Hermite rows: its order, membership, inclusion, equality and
restriction to a support are read from them, and its elements are listed
only for output.  Subgroups are enumerated by their Hermite normal forms,
each once, under a budget on the elements they list in all.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod

import numpy as np

from .rootdata import RootDataError, RootDatum, Weight

# most elements the subgroups enumerate_subgroups lists may hold in all
MAX_SUBGROUP_ELEMENTS = 10 ** 6


def smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (S, U, V) with S = U * matrix * V diagonal, d_i | d_{i+1},
    and U, V unimodular.  Integer row/column reduction."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    m = len(a[0]) if n else 0
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_op(i, j, k):  # row_i += k * row_j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, k):  # col_i += k * col_j
        for row in a:
            row[i] += k * row[j]
        for row in v:
            row[i] += k * row[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n, m):
        # pivot: nonzero entry of least absolute value in the remaining block
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        if a[t][t] < 0:
            row_neg(t)
        dirty = False
        for i in range(t + 1, n):
            if a[i][t]:
                row_op(i, t, -(a[i][t] // a[t][t]))
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, m):
            if a[t][j]:
                col_op(j, t, -(a[t][j] // a[t][t]))
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        # force divisibility of the remaining block by the pivot
        stuck = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t]:
                    stuck = i
                    break
            if stuck is not None:
                break
        if stuck is not None:
            row_op(t, stuck, 1)
            continue
        t += 1
    s = a
    return s, u, v


@dataclass(frozen=True)
class FinAbGroup:
    """Cocenter P/Q in factor-blocked coordinates.

    ``orders[c]`` is the modulus of coordinate c, ``coord_factor[c]`` the
    1-based simple factor it belongs to, and ``proj_rows[c]`` the integer row
    with p(lam)[c] = (proj_rows[c] . lam) mod orders[c].
    """

    orders: tuple[int, ...]
    coord_factor: tuple[int, ...]
    proj_rows: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def order(self) -> int:
        return prod(self.orders) if self.orders else 1

    @property
    def invariants(self) -> tuple[int, ...]:
        """Moduli rewritten as a divisibility chain d1 | d2 | ... (display
        form): the nonunit diagonal of the Smith form of diag(orders)."""
        n = len(self.orders)
        s, _, _ = smith_normal_form([[d if i == j else 0 for j, d in enumerate(self.orders)]
                                     for i in range(n)])
        return tuple(s[i][i] for i in range(n) if s[i][i] != 1)

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def add(self, a, b) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.add, a, b), self.orders))

    def elements(self) -> list[tuple[int, ...]]:
        return [tuple(e) for e in product(*(range(d) for d in self.orders))]

    def index(self, coords) -> np.ndarray:
        """Position in ``elements()`` of classes given along the last axis of
        an int64 array, reduced mod ``orders``: mixed radix in ``orders``, the
        last coordinate fastest, as ``elements()`` lists them.  The trivial
        group has no coordinates and puts every class at 0."""
        out = np.zeros(coords.shape[:-1], dtype=np.int64)
        for c, d in enumerate(self.orders):
            out = out * d + coords[..., c] % d
        return out

    def add_at(self, i: int, j: int) -> int:
        """Position in ``elements()`` of the sum of the elements at positions
        i and j, digit by digit in the mixed radix of :meth:`index`."""
        out, scale = 0, 1
        for d in reversed(self.orders):
            out += (i % d + j % d) % d * scale
            i, j, scale = i // d, j // d, scale * d
        return out

    def pairing(self, a, b) -> Fraction:
        """Perfect pairing with the dual group, valued in Q/Z (as [0,1))."""
        total = sum(Fraction(x * y, d) for x, y, d in zip(a, b, self.orders))
        return total % 1

    def restrict(self, factors) -> "FinAbGroup":
        """Subgroup of coordinates supported on the given 1-based factors."""
        factors = set(factors)
        keep = [c for c, k in enumerate(self.coord_factor) if k in factors]
        return FinAbGroup(tuple(self.orders[c] for c in keep),
                          tuple(self.coord_factor[c] for c in keep),
                          tuple(self.proj_rows[c] for c in keep))

    def restrict_element(self, a, factors) -> tuple[int, ...]:
        factors = set(factors)
        return tuple(a[c] for c, k in enumerate(self.coord_factor) if k in factors)


def fundamental_group(datum: RootDatum) -> FinAbGroup:
    """P/Q of the simply connected cover, from the per-factor Smith normal
    forms the datum keeps: coordinate i of a factor is row i of its U modulo
    its invariant factor d_i."""
    orders: list[int] = []
    coord_factor: list[int] = []
    proj_rows: list[tuple[int, ...]] = []
    for k, ((start, end), (diagonal, u, _)) in enumerate(
            zip(datum.ctype.blocks, datum._smith), start=1):
        for d, urow in zip(diagonal, u):
            assert d > 0
            if d == 1:
                continue
            row = [0] * datum.rank
            row[start:end] = urow
            orders.append(d)
            coord_factor.append(k)
            proj_rows.append(tuple(row))
    group = FinAbGroup(tuple(orders), tuple(coord_factor), tuple(proj_rows))
    # sanity: simple roots project to zero
    for j in range(datum.rank):
        assert all(x == 0 for x in project_to_cocenter(group, datum.cartan_columns[j]))
    return group


def project_to_cocenter(group: FinAbGroup, lam: Weight) -> tuple[int, ...]:
    """Class of a weight in the cocenter; additive, kills the root lattice.
    A coordinate that is not a plain int, or a length other than the
    projection rows', is refused (``RootDataError``)."""
    if not all(type(x) is int for x in lam) or any(len(r) != len(lam) for r in group.proj_rows):
        raise RootDataError(f"weight {lam!r} is not a weight of the cocenter's rank in ints")
    return tuple(sum(r * x for r, x in zip(row, lam)) % d
                 for row, d in zip(group.proj_rows, group.orders))


def _hermite(orders, vectors) -> tuple[tuple[int, ...], ...]:
    """Reduced Hermite rows of the subgroup of ⊕ Z/d_i the vectors generate,
    d = ``orders`` (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4.2).  Row i is zero before i; its pivot h_i divides d_i, and
    h_i = d_i where the subgroup adds nothing at i; its entry j after i lies
    in [0, h_j).  Equal subgroups have equal rows.

    Column i merges d_i·e_i and every pooled vector into the pivot row by
    Euclid's algorithm on coordinate i; the remainders, zero at i, stay in
    the pool for the later columns.  Euclid's steps are unimodular, so the
    remainders span every vector of the lattice that is zero at i, among
    them (d_i/h_i)·row - d_i·e_i.  Entries are kept reduced mod d, and the
    rows above are reduced at i by the new row."""
    pool, rows = [[x % d for x, d in zip(v, orders)] for v in vectors], []
    for i, d in enumerate(orders):
        pivot = [d * (k == i) for k in range(len(orders))]
        for k, v in enumerate(pool):
            while v[i]:
                pivot, v = v, [(x - pivot[i] // v[i] * y) % e for x, y, e in zip(pivot, v, orders)]
            pool[k] = v
        # a row d_k·e_k is 0 at i, so its pivot d_k is never taken mod d_k
        rows = [[(x - r[i] // pivot[i] * y) % e for x, y, e in zip(r, pivot, orders)]
                if r[i] >= pivot[i] else r for r in rows] + [pivot]
    return tuple(map(tuple, rows))


def _reduces(orders, rows, element) -> bool:
    """Whether ``element``, zero mod ``orders`` before the last len(rows)
    coordinates, reduces to 0 mod ``orders`` by echelon rows whose pivots
    sit on those coordinates, first row first."""
    v = [x % d for x, d in zip(element, orders)]
    for j, r in enumerate(rows, len(orders) - len(rows)):
        q, rest = divmod(v[j], r[j])
        if rest:
            return False
        if q:
            v = [(x - q * y) % d for x, y, d in zip(v, r, orders)]
    return True


@dataclass(frozen=True)
class Subgroup:
    """Subgroup given by its reduced Hermite rows (see :func:`_hermite`), one
    per coordinate; its elements are listed only on demand."""

    group: FinAbGroup
    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def generated(group: FinAbGroup, generators) -> "Subgroup":
        """The subgroup the generators span; each must be a tuple of plain
        ints of the group's arity (``RootDataError``)."""
        n, generators = len(group.orders), tuple(generators)
        for g in generators:
            if not (type(g) is tuple and len(g) == n and all(type(x) is int for x in g)):
                raise RootDataError(f"subgroup generator {g!r} is not a tuple of {n} ints")
        return Subgroup(group, _hermite(group.orders, generators))

    @staticmethod
    def full(group: FinAbGroup) -> "Subgroup":
        return Subgroup(group, tuple(map(tuple, np.eye(len(group.orders), dtype=int).tolist())))

    @property
    def order(self) -> int:
        return prod(d // r[i] for i, (r, d) in enumerate(zip(self.rows, self.group.orders)))

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """The sorted elements: each sum_i x_i·row_i with 0 <= x_i < d_i/h_i,
        which lists every element once."""
        out = [self.group.zero()]
        for i, (r, d) in enumerate(zip(self.rows, self.group.orders)):
            if r[i] < d:
                steps = [[x * y for y in r] for x in range(d // r[i])]
                out = [self.group.add(a, step) for step in steps for a in out]
        return tuple(sorted(out))

    def __contains__(self, element) -> bool:
        return len(element) == len(self.rows) and _reduces(self.group.orders, self.rows, element)

    def __le__(self, other: "Subgroup") -> bool:
        return all(r in other for r in self.rows)

    def restrict(self, factors) -> "Subgroup":
        """The elements that vanish off the given 1-based factors, restricted
        to them: the rows, with the factors' coordinates placed last, whose
        pivot lies on those coordinates."""
        kept = [k in factors for k in self.group.coord_factor]
        perm, off = sorted(range(len(kept)), key=kept.__getitem__), kept.count(False)
        rows = _hermite([self.group.orders[c] for c in perm],
                        [[r[c] for c in perm] for r in self.rows])
        return Subgroup(self.group.restrict(factors), tuple(r[off:] for r in rows[off:]))

    def to_json(self) -> dict:
        """The members, and under "invariants" the coordinate moduli
        ``group.orders`` (A2xA1: [3, 2]), not ``group.invariants`` ((6,))."""
        return {"invariants": list(self.group.orders),
                "elements": [list(e) for e in self.members]}


def enumerate_subgroups(group: FinAbGroup, ambient: Subgroup | None = None) -> list[Subgroup]:
    """Every subgroup exactly once, or every subgroup of ``ambient`` when it
    is given, ordered by order, then members.

    A subgroup is the image of a lattice L with diag(d)·Z^n ⊆ L ⊆ L_A, where
    d = ``orders`` and L_A is the preimage of ``ambient`` (Z^n when none is
    given).  L_A has an echelon basis b, the ambient's Hermite rows: b_i is
    zero before coordinate i, and its i-th coordinate g_i is the least that
    a vector of L_A zero before i has there.  In that basis L has
    exactly one Hermite normal form (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4.2): row i of L is
    (h_i/g_i)·b_i + sum_{j>i} x_j·b_j, with g_i | h_i | d_i and
    0 <= x_j < h_j/g_j.  The walk builds these rows from the last up and
    keeps a row when d_i·e_i lies in the span of the row and the rows below
    it, so only subgroups of the ambient are walked, each once.  A form's
    subgroup has prod d_i/h_i elements; once the forms found would list
    more than MAX_SUBGROUP_ELEMENTS elements in all, the walk refuses with
    ``ValueError``, before any element is listed."""
    orders, n = group.orders, len(group.orders)
    basis = (Subgroup.full(group) if ambient is None else ambient).rows
    forms, listed = [], 0

    def walk(i: int, rows: tuple, size: int) -> None:
        nonlocal listed
        if i < 0:
            listed += size
            if listed > MAX_SUBGROUP_ELEMENTS:
                raise ValueError(f"the subgroups list more than {MAX_SUBGROUP_ELEMENTS} elements")
            forms.append(rows)
            return
        # row i is (h_i/g_i)·b_i + sum_{j>i} x_j·b_j, for each h_i and each x
        d, b = orders[i], basis[i]
        cands = [tuple(h // b[i] * p for p in b) for h in range(b[i], d + 1, b[i]) if d % h == 0]
        for j, (r, bj) in enumerate(zip(rows, basis[i + 1:]), i + 1):
            cands = [tuple(p + x * q for p, q in zip(c, bj))
                     for c in cands for x in range(r[j] // bj[j])]
        for row in cands:
            # (d/h_i)·row - d·e_i, reduced by the rows below, which span
            # every d_j·e_j with j > i
            if _reduces(orders, rows, [d // row[i] * y for y in row]):
                walk(i - 1, (row,) + rows, size * (d // row[i]))

    walk(n - 1, (), 1)
    return sorted((Subgroup(group, _hermite(orders, rows)) for rows in forms),
                  key=lambda s: (s.order, s.members))


def quotient_subgroups(group: FinAbGroup, zprime: Subgroup) -> list[Subgroup]:
    """Subgroups containing zprime; these biject with subgroups of the quotient."""
    return [s for s in enumerate_subgroups(group) if zprime <= s]


def weight_kills_subgroup(group: FinAbGroup, lam: Weight, dual_subgroup: Subgroup) -> bool:
    """Whether lam restricts trivially to a subgroup of the center; the
    subgroup is given in dual coordinates and probed by the pairing."""
    cls = project_to_cocenter(group, lam)
    return all(group.pairing(cls, r) == 0 for r in dual_subgroup.rows)


def annihilator(group: FinAbGroup, dual_subgroup: Subgroup) -> Subgroup:
    """Elements pairing trivially with every member of a dual-side subgroup,
    so with its rows, the pairing being bilinear."""
    return Subgroup.generated(group, [a for a in group.elements()
                                      if all(group.pairing(a, r) == 0 for r in dual_subgroup.rows)])
