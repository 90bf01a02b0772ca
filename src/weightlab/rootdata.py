"""Cartan types, root data and weight-lattice membership.

A weight is a plain tuple of ints: the fundamental-weight coordinates of the
simply connected cover, concatenated over simple factors.  All arithmetic is
exact -- ints for weights, ``fractions.Fraction`` for root coordinates.

A datum is built with its Cartan matrix, its symmetrizer and the Dynkin
neighbours alone.  Everything else is computed on first read and kept,
never invalidated: a value of the datum alone as a ``cached_property``, a
value per key by :func:`memoized`.  So a verb builds only what it reads: the
positive roots and the Weyl group order (Kostant's formula over them) on
their first read, which a construction check, ``enumerate`` and
``classify`` never make.  One walk up from the simple roots makes a record
per root, (fund, rc, positive, support, height); the dominant walk's table
and the root supports are projections of it, the Freudenthal strings'
table is one more pass on their first read, and the ``PositiveRoot``s,
each with its coroot, are made from it only when ``positive_roots`` is
read, which a weight system never does.  The integer matrix
det C^-1, and root coordinates read from it as Fractions over det, come
from one fraction-free Gauss-Jordan pass over each simple factor (Bareiss);
the cocenter P/Q comes from a Smith normal form of each factor, which
nothing else reads.  Weight systems ask for det C^-1 only past a size guard,
for a highest weight whose coordinates alone promise more dominant weights
below it than the walk bound allows, so a datum that only computes
ordinary characters never eliminates C.  The lattice subgroup is checked at
build time only for a ``subgroup`` lattice, the one mode whose input can be
invalid.
"""

from __future__ import annotations

import re
import struct
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, wraps
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

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
        if not isinstance(type_string, str):
            raise RootDataError(f"Cartan type must be a string, got {type_string!r}")
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
        if not (type(self.generators) is tuple and all(
                type(g) is tuple and all(type(x) is int for x in g) for g in self.generators)):
            raise RootDataError(
                f"lattice generators must be tuples of integers, got {self.generators!r}")

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

    Built once via :func:`build_root_datum`, from its Cartan matrix alone.
    Derived values are computed on first read and kept on it, never
    invalidated: per datum as ``cached_property``s (the root walk's
    records and the per-root tables read off them, the ``PositiveRoot``s
    with their coroots, the Weyl group order, det C^-1 by a fraction-free
    pass, the Smith form that serves the cocenter only), per key
    (characters, dominant cones, expanded weight tables) in ``memo``.
    Tensor decompositions are not kept."""

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
        self.weyl_vector: Weight = (1,) * self.rank
        # adjacency of the Dynkin diagram (global coordinates)
        self.neighbors = tuple(
            tuple(j for j in range(self.rank) if j != i and self.cartan[i][j] != 0)
            for i in range(self.rank))
        # scales of the int64 guards in tensor and weyl: the height of the
        # highest coroot, h - 1 with h = 2 |Phi+| / rank the Coxeter number
        # of a simple factor (Humphreys, Reflection Groups and Coxeter
        # Groups, 3.18; the dual factor has the same h), and the largest
        # absolute Cartan entry
        self._coroot_height = max(2 * positive_root_count(f, r) // r - 1
                                  for f, r in ctype.factors)
        self._cartan_entry = max(abs(a) for row in cartan for a in row)
        # values of the memoized functions: memo[name][key]
        self.memo: defaultdict[str, dict] = defaultdict(dict)
        # work counts, as ``--stats`` prints them; the README's --stats
        # paragraph lists every key
        self.stats: Counter = Counter()

    # -- roots and the Weyl group order, built on first read ----------------

    @cached_property
    def _root_records(self) -> tuple:
        """(fund, rc, positive, support, height) per positive root, from the
        one walk ``_generate_positive_roots``."""
        return _generate_positive_roots(self)

    @cached_property
    def positive_roots(self) -> tuple[PositiveRoot, ...]:
        """The records as ``PositiveRoot``s, each with its coroot:
        coroot_j = 2 rc_j d_j / (beta, beta), where
        (beta, beta) = sum_j rc_j d_j fund_j, an exact division.  A root of
        norm 2 has coroot rc_j d_j, and when every d_j is 1 (every factor
        simply laced) every root has norm 2 and coroot rc."""
        simply_laced = max(self.symmetrizer) == 1
        roots = []
        for fund, rc, _, _, height in self._root_records:
            coroot = rc
            if not simply_laced:
                coroot = weighted = tuple(map(mul, rc, self.symmetrizer))
                half = sum(map(mul, weighted, fund)) // 2
                if half > 1:
                    coroot = tuple([x // half for x in weighted])
                    # quotients of nonnegative ints, floored: equal sums mean exact ones
                    assert sum(coroot) * half == sum(weighted)
            roots.append(PositiveRoot(fund, rc, coroot, height))
        return tuple(roots)

    @cached_property
    def root_supports(self) -> tuple[tuple[int, int], ...]:
        """(support bitmask over the simple roots, height) of each positive root."""
        return tuple((support, height) for _, _, _, support, height in self._root_records)

    @cached_property
    def weyl_order(self) -> int:
        return parabolic_order(self, (1 << self.rank) - 1)

    # -- elimination of C, done on first read ------------------------------

    @cached_property
    def _smith(self) -> list:
        """One Smith form S = U C V per factor, kept as (diagonal, U): the
        cocenter reads the U rows, and nothing else reads it."""
        from . import latticecalc
        out = []
        for start, end in self.ctype.blocks:
            s, u, _ = latticecalc.smith_normal_form(
                [row[start:end] for row in self.cartan[start:end]])
            out.append((tuple(s[i][i] for i in range(end - start)), u))
        return out

    @cached_property
    def _bareiss(self) -> list:
        """(det C_k, adj C_k) per simple factor C_k, by one fraction-free
        Gauss-Jordan pass over [C_k | I] (Bareiss, Math. Comp. 22, 1968):
        step k replaces every other row r by (p r - r[k] row_k) / p', p the
        pivot and p' the one before, a division that is exact.  After step
        k the first k + 1 columns read p I, so the pass ends at
        [det I | adj].  Every leading principal minor of a finite-type
        Cartan matrix is positive, so no pivot is 0 and none is swapped."""
        out = []
        for start, end in self.ctype.blocks:
            n = end - start
            m = [list(row[start:end]) + [int(i == j) for j in range(n)]
                 for i, row in enumerate(self.cartan[start:end])]
            prev = 1
            for k, pivot_row in enumerate(m):
                p = pivot_row[k]
                assert p > 0
                for i, row in enumerate(m):
                    if i != k:
                        c = row[k]
                        m[i] = [(p * x - c * y) // prev for x, y in zip(row, pivot_row)]
                prev = p
            out.append((prev, [row[n:] for row in m]))
        return out

    @cached_property
    def _det(self) -> int:
        """The exponent of P/Q, the least common denominator of C^-1: the
        lcm over the factors of det C_k / gcd(det C_k, entries of adj C_k)."""
        return lcm(*(d // gcd(d, *(x for row in adj for x in row)) for d, adj in self._bareiss))

    @cached_property
    def _adjugate(self) -> tuple[tuple[int, ...], ...]:
        """det * C^-1 as rows of Python ints: lam has root coordinates
        (adjugate lam) / det.  Its block on factor k is adj C_k det / det C_k,
        an exact division, as det C_k^-1 is integral."""
        det = self._det
        adjugate = [[0] * self.rank for _ in range(self.rank)]
        for (start, end), (d, adj) in zip(self.ctype.blocks, self._bareiss):
            for i, row in enumerate(adj, start):
                adjugate[i][start:end] = [x * det // d for x in row]
        return tuple(map(tuple, adjugate))

    @cached_property
    def _np_adjugate(self) -> np.ndarray:
        """``_adjugate`` as int64, for the numpy callers; built from Python
        ints, so an entry beyond int64 raises here."""
        return np.array(self._adjugate, dtype=np.int64)

    @cached_property
    def _adjugate_row_sum(self) -> int:
        """The largest absolute row sum of det C^-1, a scale of the int64
        guards in tensor and weyl."""
        return max(sum(map(abs, row)) for row in self._adjugate)

    # -- per-root values of the Freudenthal strings --------------------------

    @cached_property
    def _root_table(self) -> tuple:
        """Per positive root alpha, what the Freudenthal strings of
        ``charcalc`` read, as (fund, pair, negative, zero, support, coords):
        pair . nu = (alpha, nu); negative, zero and support are the bitmasks
        of the negative and the zero fundamental coordinates and of the
        simple roots in alpha; coords lists (j, rc_j) over the support.
        Built apart from the walk, on the first string read: a character
        with one dominant weight reads none."""
        table = []
        for fund, rc, _, support, _ in self._root_records:
            negative = zero = 0
            for j, f in enumerate(fund):
                if f < 0:
                    negative |= 1 << j
                elif not f:
                    zero |= 1 << j
            pair = tuple(map(mul, rc, self.symmetrizer))
            table.append((fund, pair, negative, zero, support,
                          tuple([(j, r) for j, r in enumerate(rc) if r])))
        return tuple(table)

    @cached_property
    def _walk_table(self) -> tuple:
        """Per positive root alpha, what the dominant walk of ``charcalc``
        reads, as (fund, rc, positive): positive lists (j, fund_j) over the
        positive fundamental coordinates of alpha."""
        return tuple((fund, rc, positive) for fund, rc, positive, _, _ in self._root_records)

    # -- factor bookkeeping -------------------------------------------------

    @property
    def n_factors(self) -> int:
        return len(self.ctype.factors)

    def factor_block(self, k: int) -> tuple[int, int]:
        """Coordinate range of factor k (1-based)."""
        return self.ctype.blocks[k - 1]

    def project_factor(self, lam: Weight, k: int) -> Weight:
        start, end = self.factor_block(k)
        return lam[start:end]

    # -- lattice ------------------------------------------------------------

    @cached_property
    def cocenter(self):
        from . import latticecalc
        return latticecalc.fundamental_group(self)

    @cached_property
    def lattice_subgroup(self):
        """The cocenter subgroup whose preimage is the chosen lattice."""
        from . import latticecalc
        group = self.cocenter
        if self.lattice.mode == "sc":
            return latticecalc.Subgroup.full(group)
        if self.lattice.mode == "adjoint":
            return latticecalc.Subgroup.generated(group, ())
        return latticecalc.Subgroup.generated(group, self.lattice.generators)

    @cached_property
    def diagram_involution(self) -> tuple[int, ...]:
        """The permutation tau of the nodes with w0(omega_i) = -omega_tau(i),
        read off the dominant representative of -omega_i."""
        from .weyl import _climb
        tau = []
        for i in range(self.rank):
            dual = [-1 if j == i else 0 for j in range(self.rank)]
            _climb(self, dual)
            nonzero = [j for j, x in enumerate(dual) if x]
            assert len(nonzero) == 1 and dual[nonzero[0]] == 1
            tau.append(nonzero[0])
        return tuple(tau)

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

    def check_dominant(self, lam) -> Weight:
        """lam as a checked weight, refused unless dominant; the public entry
        points call this before a memoized function sees lam as a key."""
        lam = self.check_weight(lam)
        if any(x < 0 for x in lam):
            raise ValueError(f"expected a dominant weight, got {lam}")
        return lam

    def in_root_cone(self, diffs: np.ndarray) -> np.ndarray:
        """Mask of the rows of an (N, rank) int64 array that are nonnegative
        integer combinations of simple roots, exactly: lam >= mu iff
        lam - mu is such a row."""
        coords = diffs @ self._np_adjugate.T
        return (coords >= 0).all(axis=1) & (coords % self._det == 0).all(axis=1)

    def __repr__(self):
        return f"RootDatum({self.ctype}, {self.lattice.mode})"


def _generate_positive_roots(datum: RootDatum) -> tuple:
    """Walk up from the simple roots.  s_i is applied to a positive root beta
    only when c = <beta, alpha_i^vee> < 0, which gives the higher positive
    root beta - c alpha_i; every non-simple positive root gamma has an i
    with <gamma, alpha_i^vee> > 0 and s_i gamma positive and lower, so the
    walk reaches it from s_i gamma.  As in ``weyl._climb``, s_i sets
    coordinate i to -c and moves only the Dynkin neighbours of i.  Each
    root carries its root coordinates rc, its support bitmask and its
    height through the walk, and s_i moves only rc_i, bit i and the height.
    The scan of beta's coordinates for a negative c also collects the
    positive ones, (j, fund_j).  Returns one record
    (fund, rc, positive, support, height) per root, sorted by
    (height, rc); no record carries a coroot, which ``positive_roots``
    derives on its first read."""
    rank = datum.rank
    cols, neighbors = datum.cartan_columns, datum.neighbors
    # fund -> (rc, support, height), for every root reached
    seen: dict[Weight, tuple[tuple[int, ...], int, int]] = {}
    frontier: list[Weight] = []
    for j in range(rank):
        seen[cols[j]] = (tuple(1 if i == j else 0 for i in range(rank)), 1 << j, 1)
        frontier.append(cols[j])
    records = []
    while frontier:
        nxt = []
        for fund in frontier:
            rc, support, height = seen[fund]
            positive = []
            for i, c in enumerate(fund):
                if not c:
                    continue
                if c > 0:
                    positive.append((i, c))
                    continue
                f = list(fund)
                f[i] = -c
                col = cols[i]
                for j in neighbors[i]:
                    f[j] -= c * col[j]
                rfund = tuple(f)
                if rfund in seen:
                    continue
                seen[rfund] = (rc[:i] + (rc[i] - c,) + rc[i + 1:], support | 1 << i, height - c)
                nxt.append(rfund)
            records.append((fund, rc, tuple(positive), support, height))
        frontier = nxt
    assert len(records) == sum(positive_root_count(f, r) for f, r in datum.ctype.factors)
    records.sort(key=lambda r: (r[4], r[1]))
    return tuple(records)


def memoized(fn):
    """Keep fn(datum, key) in datum.memo[name], name being fn's name without
    leading underscores, and count each call as <name>_hits or
    <name>_misses in datum.stats.  fn never returns None, which marks a
    miss.  Keys are not checked (1.0 == 1 hashes alike): callers validate."""
    name = fn.__name__.lstrip("_")
    hits, misses = name + "_hits", name + "_misses"

    @wraps(fn)
    def wrapper(datum: RootDatum, key):
        memo = datum.memo[name]
        value = memo.get(key)
        if value is None:
            value = memo[key] = fn(datum, key)
            datum.stats[misses] += 1
        else:
            datum.stats[hits] += 1
        return value
    return wrapper


@memoized
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
    if datum.lattice.mode == "subgroup":
        # the one lattice mode whose input can be invalid: validate its
        # generators here, so a bad subgroup fails at build time
        datum.lattice_subgroup
    return datum


# -- weight helpers ---------------------------------------------------------

def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(map(add, a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    return tuple(map(sub, a, b))


# struct codes of the signed integers, by width in bytes; dtype.char would
# give "l" for int64, which "=" reads as 4 bytes
_INT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def weight_rows(a: np.ndarray) -> list[Weight]:
    """The rows of a 2-D signed-int array as weight tuples of Python ints,
    by one ``struct.iter_unpack`` over its bytes in native order."""
    a = np.ascontiguousarray(a)
    return list(struct.iter_unpack(f"={a.shape[1]}{_INT_CODES[a.itemsize]}", a))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wzero(rank: int) -> Weight:
    return (0,) * rank


def root_coordinates(datum: RootDatum, lam: Weight) -> tuple[Fraction, ...]:
    """Exact coefficients k with lam = sum k_i alpha_i, i.e. C k = lam."""
    lam = datum.check_weight(lam)
    return tuple(Fraction(sum(a * x for a, x in zip(row, lam)), datum._det)
                 for row in datum._adjugate)


def pairing(datum: RootDatum, lam: Weight, mu: Weight):
    """Invariant form (lam, mu), short roots of each factor at length 2."""
    rc = root_coordinates(datum, lam)
    return sum(r * d * m for r, d, m in zip(rc, datum.symmetrizer, datum.check_weight(mu)))


def in_lattice(datum: RootDatum, lam: Weight) -> bool:
    """Whether lam lies in the datum's chosen character lattice."""
    lam = datum.check_weight(lam)
    if datum.lattice.mode == "sc":
        return True
    from . import latticecalc
    cls = latticecalc.project_to_cocenter(datum.cocenter, lam)
    return cls in datum.lattice_subgroup
