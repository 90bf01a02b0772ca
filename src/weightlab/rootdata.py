"""Cartan types, root data and weight-lattice membership.

A weight is a plain tuple of ints: the fundamental-weight coordinates of the
simply connected cover, concatenated over simple factors.  All arithmetic is
exact -- ints for weights, ``fractions.Fraction`` for root coordinates.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

Weight = tuple[int, ...]

_FACTOR_RE = re.compile(r"^([A-G])([0-9]+)$")

# Positive-root counts of the exceptional types; checked against the roots built.
_EXCEPTIONAL_ROOT_COUNT = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
                           ("F", 4): 24, ("G", 2): 6}


class RootDataError(ValueError):
    """Invalid Cartan type, lattice or weight input."""


def positive_root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    return _EXCEPTIONAL_ROOT_COUNT[(family, rank)]


@dataclass(frozen=True)
class CartanType:
    """Ordered product of simple factors, e.g. A2xD4xE6."""

    factors: tuple[tuple[str, int], ...]

    @staticmethod
    def parse(type_string: str) -> "CartanType":
        factors = []
        for part in type_string.strip().split("x"):
            m = _FACTOR_RE.match(part.strip())
            if not m:
                raise RootDataError(f"cannot parse Cartan factor {part!r}")
            family, rank = m.group(1), int(m.group(2))
            _validate_factor(family, rank)
            factors.append((family, rank))
        if not factors:
            raise RootDataError("empty Cartan type")
        return CartanType(tuple(factors))

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.factors)

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Half-open coordinate ranges (start, end) of each factor."""
        out, pos = [], 0
        for _, r in self.factors:
            out.append((pos, pos + r))
            pos += r
        return tuple(out)

    def __str__(self) -> str:
        return "x".join(f"{f}{r}" for f, r in self.factors)


def _validate_factor(family: str, rank: int) -> None:
    if family == "A" and rank >= 1:
        return
    if family in ("B", "C") and rank >= 2:
        return
    if family == "D" and rank >= 3:
        return
    if family == "E" and rank in (6, 7, 8):
        return
    if family == "F" and rank == 4:
        return
    if family == "G" and rank == 2:
        return
    raise RootDataError(f"rank {rank} out of range for family {family}")


def _cartan_block(family: str, rank: int) -> list[list[int]]:
    """Cartan matrix C[i][j] = <alpha_j, alpha_i^vee>, Bourbaki numbering."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if family in ("A", "B", "C"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if family == "B":
            a[rank - 1][rank - 2] = -2  # short last node
        elif family == "C":
            a[rank - 2][rank - 1] = -2  # long last node
    elif family == "D":
        for i in range(rank - 3):
            bond(i, i + 1)
        bond(rank - 3, rank - 2)
        bond(rank - 3, rank - 1)
    elif family == "E":
        bond(0, 2)
        bond(2, 3)
        bond(3, 4)
        bond(4, 5)
        if rank >= 7:
            bond(5, 6)
        if rank == 8:
            bond(6, 7)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        bond(2, 3)
        a[1][2] = -1
        a[2][1] = -2
    elif family == "G":
        a[0][1] = -3
        a[1][0] = -1
    return a


def _symmetrizer_block(family: str, rank: int) -> list[int]:
    """d_i with (alpha_i, alpha_i) = 2 d_i, short roots normalized to length 2."""
    if family == "B":
        return [2] * (rank - 1) + [1]
    if family == "C":
        return [1] * (rank - 1) + [2]
    if family == "F":
        return [2, 2, 1, 1]
    if family == "G":
        return [1, 3]
    return [1] * rank


def is_int_list(value) -> bool:
    """Whether a JSON value is a list of plain ints; bool is a subclass of
    int, so true would pass as 1, and int() would truncate 1.5."""
    return isinstance(value, list) and all(type(x) is int for x in value)


@dataclass(frozen=True)
class LatticeSpec:
    """Character lattice between Q and P.

    mode "sc" is the full weight lattice P, "adjoint" the root lattice Q, and
    "subgroup" the preimage of the cocenter subgroup generated by
    ``generators`` (coordinate tuples in the cocenter presentation).
    """

    mode: str = "sc"
    generators: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.mode not in ("sc", "adjoint", "subgroup"):
            raise RootDataError(f"unknown lattice mode {self.mode!r}")

    def to_json(self) -> dict:
        out = {"mode": self.mode}
        if self.mode == "subgroup":
            out["generators"] = [list(g) for g in self.generators]
        return out

    @staticmethod
    def from_json(obj: dict) -> "LatticeSpec":
        if not isinstance(obj, dict):
            raise RootDataError(f"lattice spec must be a JSON object, got {obj!r}")
        gens = obj.get("generators", [])
        if not (isinstance(gens, list) and all(is_int_list(g) for g in gens)):
            raise RootDataError(f"lattice generators must be lists of integers, got {gens!r}")
        return LatticeSpec(obj.get("mode", "sc"), tuple(tuple(g) for g in gens))


@dataclass(frozen=True)
class PositiveRoot:
    fund: Weight            # fundamental coordinates
    rc: tuple[int, ...]     # coordinates on the simple roots
    coroot: tuple[int, ...]  # <mu, alpha^vee> = sum coroot[i] * mu[i]
    height: int


class RootDatum:
    """Immutable root datum of a semisimple group with a chosen lattice.

    Built once via :func:`build_root_datum`; caches (characters, tensor
    products, dominant cones) are filled lazily and never invalidated.
    """

    def __init__(self, ctype: CartanType, lattice: LatticeSpec):
        self.ctype = ctype
        self.rank = ctype.rank
        self.lattice = lattice
        cartan = []
        symmetrizer = []
        for (family, r), (start, _) in zip(ctype.factors, ctype.blocks):
            block = _cartan_block(family, r)
            for i in range(r):
                row = [0] * self.rank
                row[start:start + r] = block[i]
                cartan.append(row)
            symmetrizer.extend(_symmetrizer_block(family, r))
        self.cartan = tuple(tuple(row) for row in cartan)
        self.symmetrizer = tuple(symmetrizer)
        for i in range(self.rank):
            for j in range(self.rank):
                assert symmetrizer[i] * cartan[i][j] == symmetrizer[j] * cartan[j][i]
        self.cartan_columns = tuple(
            tuple(cartan[i][j] for i in range(self.rank)) for j in range(self.rank))
        self._np_cartan_cols = np.array(self.cartan, dtype=np.int64)  # [:, j] = alpha_j
        self.inverse_cartan = _invert_exact(self.cartan)
        # det * C^-1 as an integer matrix, det the least common denominator
        # of C^-1: lam has root coordinates (adjugate @ lam) / det
        self._det = lcm(*(entry.denominator for row in self.inverse_cartan for entry in row))
        self._np_adjugate = np.array(
            [[int(entry * self._det) for entry in row] for row in self.inverse_cartan],
            dtype=np.int64)
        self.weyl_vector: Weight = (1,) * self.rank
        self.positive_roots = _generate_positive_roots(self)
        expected = sum(positive_root_count(f, r) for f, r in ctype.factors)
        assert len(self.positive_roots) == expected
        # (support bitmask over the simple roots, height) of each positive root
        self.root_supports = tuple(
            (sum(1 << i for i, k in enumerate(alpha.rc) if k), alpha.height)
            for alpha in self.positive_roots)
        self.weyl_order = parabolic_order(self, (1 << self.rank) - 1)
        # adjacency of the Dynkin diagram (global coordinates)
        self.neighbors = tuple(
            tuple(j for j in range(self.rank) if j != i and self.cartan[i][j] != 0)
            for i in range(self.rank))
        self._cocenter = None
        self._lattice_subgroup = None
        self._diagram_involution = None
        self._char_cache: dict = {}
        self._dim_cache: dict = {}
        self._below_cache: dict = {}
        self._tensor_cache: dict = {}
        self._table_cache: dict = {}
        # work counts of bounded_perfect_closure and is_perfect_in_box:
        # closure_pairs, each counted once as closure_settled (by the row
        # test), closure_rechecked (flagged, then settled) or closure_decomposed
        self.stats: Counter = Counter()

    # -- factor bookkeeping -------------------------------------------------

    @property
    def n_factors(self) -> int:
        return len(self.ctype.factors)

    def factor_block(self, k: int) -> tuple[int, int]:
        """Coordinate range of factor k (1-based)."""
        return self.ctype.blocks[k - 1]

    def factor_of_node(self, i: int) -> int:
        """1-based factor index of node i (0-based coordinate)."""
        for k, (start, end) in enumerate(self.ctype.blocks, start=1):
            if start <= i < end:
                return k
        raise RootDataError(f"node {i} out of range")

    def project_factor(self, lam: Weight, k: int) -> Weight:
        start, end = self.factor_block(k)
        return lam[start:end]

    # -- lattice ------------------------------------------------------------

    @property
    def cocenter(self):
        if self._cocenter is None:
            from . import latticecalc
            self._cocenter = latticecalc.fundamental_group(self)
        return self._cocenter

    @property
    def lattice_subgroup(self):
        """The cocenter subgroup whose preimage is the chosen lattice."""
        if self._lattice_subgroup is None:
            from . import latticecalc
            group = self.cocenter
            if self.lattice.mode == "sc":
                sub = latticecalc.Subgroup.full(group)
            elif self.lattice.mode == "adjoint":
                sub = latticecalc.Subgroup.generated(group, ())
            else:
                for g in self.lattice.generators:
                    if len(g) != len(group.orders):
                        raise RootDataError(
                            "lattice subgroup generator has wrong arity for the cocenter")
                sub = latticecalc.Subgroup.generated(group, self.lattice.generators)
            self._lattice_subgroup = sub
        return self._lattice_subgroup

    def check_weight(self, lam) -> Weight:
        lam = tuple(lam)
        if len(lam) != self.rank:
            raise RootDataError(
                f"weight {lam} has length {len(lam)}, expected rank {self.rank}")
        for x in lam:
            # int() would truncate 1.5, and bool is a subclass of int
            if type(x) is not int:
                raise RootDataError(f"weight {lam} has a coordinate {x!r} that is not an int")
        return lam

    def in_root_cone(self, diffs: np.ndarray) -> np.ndarray:
        """Mask of the rows of an (N, rank) int64 array that are nonnegative
        integer combinations of simple roots, exactly: lam >= mu iff
        lam - mu is such a row."""
        coords = diffs @ self._np_adjugate.T
        return (coords >= 0).all(axis=1) & (coords % self._det == 0).all(axis=1)

    def __repr__(self):
        return f"RootDatum({self.ctype}, {self.lattice.mode})"


def _invert_exact(cartan) -> tuple[tuple[Fraction, ...], ...]:
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


def _generate_positive_roots(datum: RootDatum) -> tuple[PositiveRoot, ...]:
    """Closure of the simple roots under simple reflections, positives kept."""
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


def parabolic_order(datum: RootDatum, nodes: int) -> int:
    """Order of the parabolic subgroup W_J, J the simple roots in the
    bitmask ``nodes``, by Kostant's height formula: the product of
    (ht + 1) / ht over the positive roots supported in J."""
    num = den = 1
    for support, height in datum.root_supports:
        if support & ~nodes == 0:
            num *= height + 1
            den *= height
    order, rest = divmod(num, den)
    assert rest == 0
    return order


def build_root_datum(type_string: str, lattice: LatticeSpec | None = None) -> RootDatum:
    """Build the root datum for a type string like "A2xD4" and a lattice choice."""
    ctype = CartanType.parse(type_string)
    datum = RootDatum(ctype, lattice or LatticeSpec())
    # force lattice validation up front so bad subgroups fail here
    datum.lattice_subgroup
    return datum


# -- weight helpers ---------------------------------------------------------

def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wscale(n: int, a: Weight) -> Weight:
    return tuple(n * x for x in a)


def wzero(rank: int) -> Weight:
    return (0,) * rank


def is_dominant(lam: Weight) -> bool:
    return all(x >= 0 for x in lam)


def root_coordinates(datum: RootDatum, lam: Weight) -> tuple[Fraction, ...]:
    """Exact coefficients k with lam = sum k_i alpha_i, i.e. C k = lam."""
    lam = datum.check_weight(lam)
    inv = datum.inverse_cartan
    return tuple(sum(inv[i][j] * lam[j] for j in range(datum.rank))
                 for i in range(datum.rank))


def pairing(datum: RootDatum, lam: Weight, mu: Weight):
    """Invariant form (lam, mu), short roots of each factor at length 2."""
    rc = root_coordinates(datum, lam)
    return sum(r * d * m for r, d, m in zip(rc, datum.symmetrizer, mu))


def in_lattice(datum: RootDatum, lam: Weight) -> bool:
    """Whether lam lies in the datum's chosen character lattice."""
    lam = datum.check_weight(lam)
    if datum.lattice.mode == "sc":
        return True
    from . import latticecalc
    cls = latticecalc.project_to_cocenter(datum.cocenter, lam)
    return cls in datum.lattice_subgroup
