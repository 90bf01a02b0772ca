"""Finite abelian arithmetic for the cocenter P/Q and its subgroups.

The cocenter is presented factor by factor from the Smith normal form of
each Cartan block; coordinates with unit modulus are dropped.  The center of
the simply connected group is identified with the dual of P/Q: subgroups of
the center are stored as subgroups on the dual side and probed through the
perfect pairing sum(x_i y_i / d_i) mod 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np

from .rootdata import RootDatum, Weight

# largest group whose subgroups enumerate_subgroups lists
MAX_SUBGROUP_ORDER = 256


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
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def reduce(self, a) -> tuple[int, ...]:
        return tuple(x % d for x, d in zip(a, self.orders))

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
        keep = [c for c, k in enumerate(self.coord_factor) if k in set(factors)]
        return FinAbGroup(tuple(self.orders[c] for c in keep),
                          tuple(self.coord_factor[c] for c in keep),
                          tuple(self.proj_rows[c] for c in keep))

    def restrict_element(self, a, factors) -> tuple[int, ...]:
        keep = [c for c, k in enumerate(self.coord_factor) if k in set(factors)]
        return tuple(a[c] for c in keep)


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
    """Class of a weight in the cocenter; additive, kills the root lattice."""
    return tuple(sum(r * x for r, x in zip(row, lam)) % d
                 for row, d in zip(group.proj_rows, group.orders))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup given by its full sorted element list."""

    group: FinAbGroup
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        elems = frozenset(self.members)
        assert self.group.zero() in elems
        for a in elems:
            assert self.group.neg(a) in elems
        assert self.group.order % len(elems) == 0
        object.__setattr__(self, "_member_set", elems)

    @staticmethod
    def generated(group: FinAbGroup, generators) -> "Subgroup":
        gens = [group.reduce(g) for g in generators]
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
        return Subgroup(group, tuple(sorted(closure)))

    @staticmethod
    def full(group: FinAbGroup) -> "Subgroup":
        return Subgroup(group, tuple(sorted(group.elements())))

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, element) -> bool:
        return tuple(element) in self._member_set

    def __le__(self, other: "Subgroup") -> bool:
        return self._member_set <= other._member_set

    def to_json(self) -> dict:
        """The members, and under "invariants" the coordinate moduli
        ``group.orders`` (A2xA1: [3, 2]), not ``group.invariants`` ((6,))."""
        return {"invariants": list(self.group.orders),
                "elements": [list(e) for e in self.members]}


def enumerate_subgroups(group: FinAbGroup) -> list[Subgroup]:
    """Every subgroup exactly once, canonically ordered."""
    if group.order > MAX_SUBGROUP_ORDER:
        raise ValueError(f"group of order {group.order} exceeds bound {MAX_SUBGROUP_ORDER}")
    elements = group.elements()
    found: dict[tuple, Subgroup] = {}
    trivial = Subgroup.generated(group, ())
    found[trivial.members] = trivial
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            have = set(sub.members)
            for g in elements:
                if g in have:
                    continue
                bigger = Subgroup.generated(group, tuple(have) + (g,))
                if bigger.members not in found:
                    found[bigger.members] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.members))


def quotient_subgroups(group: FinAbGroup, zprime: Subgroup) -> list[Subgroup]:
    """Subgroups containing zprime; these biject with subgroups of the quotient."""
    return [s for s in enumerate_subgroups(group) if zprime <= s]


def weight_kills_subgroup(group: FinAbGroup, lam: Weight, dual_subgroup: Subgroup) -> bool:
    """Whether lam restricts trivially to a subgroup of the center; the
    subgroup is given in dual coordinates and probed by the pairing."""
    cls = project_to_cocenter(group, lam)
    return all(group.pairing(cls, h) == 0 for h in dual_subgroup.members)


def annihilator(group: FinAbGroup, dual_subgroup: Subgroup) -> Subgroup:
    """Elements pairing trivially with every member of a dual-side subgroup."""
    members = [a for a in group.elements()
               if all(group.pairing(a, h) == 0 for h in dual_subgroup.members)]
    return Subgroup(group, tuple(sorted(members)))
