"""Perfect submonoids of dominant weights: box-truncated closures, the
symbolic classification by component support plus a cocenter subgroup, and
the saturation predicate that separates the two notions of closure.

A submonoid is perfect when it contains every highest weight of every
tensor product of its members.  Such monoids are infinite; all set-level
computation here is truncated to a finite coordinate box, while the
classification side is exact and symbolic.

The closure settles its pairs a row at a time.  The box is held in
adjugate coordinates, det * C^-1 lam, grouped by their class in the
cocenter P/Q; this region is read-only and kept once per datum and box.
The closure can only reach its reach set: the box weights that vanish on
every simple factor where all starting members vanish and whose class lies
in the subgroup of P/Q their classes generate, the box part of the perfect
submonoid the paper's classification assigns to them.  Its own state is a
mask of the weights of the reach set not yet members, their count, and
the list of members' region indices.  When a member b is reached, its row
is grouped by the class of a: for a fixed b, the class of a + b is a
bijection of the class of a, so each group's totals share one class, found
once per group by adding the positions of the two classes in P/Q's mixed
radix.  One numpy test per group with open (missing) weights compares its
totals a + b, formed only then, componentwise with those weights, read
from the mask; a pair with nothing missing below its total cannot add a
member and is settled, and so is every pair with 0.  Once the reach set
is full, no pair can add a member, and the rows left are skipped and
their pairs counted as settled.  The
pairs the test flags are tested again, in order, against the members of
that moment; the missing weights below the total of a pair still flagged
are its candidates.  Each candidate is asked whether it is a summand, and
those that are join the members in region order, on either branch: when
the smaller factor's Weyl dimension is more than ``_COEFFICIENT_RATIO``
times the number of candidates, by one tensor coefficient per candidate
(Humphreys, section 24), which walks a few orbit points; otherwise by a
lookup in the pair's decomposition.  A set is perfect in the box when its
closure adds nothing.  The prediction from a descriptor reads the same
region and decides the lattice and the subgroup once per element of P/Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import latticecalc
from .rootdata import (LatticeSpec, RootDataError, RootDatum, Weight, build_root_datum,
                       in_lattice, is_int_list, memoized, weight_rows)
from .charcalc import _weyl_dimension
from .tensor import _big_and_small, _coefficients, tensor_decompose

# most weights Box.region lists; refused before anything is allocated
MAX_REGION = 10 ** 6


@dataclass(frozen=True)
class Box:
    """Dominant weights with every fundamental coordinate at most ``bound``."""

    bound: int

    def __post_init__(self):
        if type(self.bound) is not int or self.bound < 1:
            raise ValueError(f"box bound must be a positive integer, got {self.bound!r}")

    def __contains__(self, lam: Weight) -> bool:
        return all(0 <= x <= self.bound for x in lam)

    def region(self, datum: RootDatum) -> list[Weight]:
        size = (self.bound + 1) ** datum.rank
        if size > MAX_REGION:
            raise ValueError(f"box bound {self.bound} on rank {datum.rank} spans {size} "
                             f"weights, more than {MAX_REGION}")
        return [tuple(w) for w in product(range(self.bound + 1), repeat=datum.rank)]


@dataclass(frozen=True)
class MonoidSpec:
    """Generating data: dominant weights inside the datum's lattice."""

    datum: RootDatum = field(repr=False)
    generators: tuple[Weight, ...]

    def __post_init__(self):
        gens = tuple(self.datum.check_dominant(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if not in_lattice(self.datum, g):
                raise ValueError(f"generator {g} is outside the chosen lattice")

    def to_json(self) -> dict:
        return {"type": str(self.datum.ctype),
                "lattice": self.datum.lattice.to_json(),
                "generators": [list(g) for g in self.generators]}

    @staticmethod
    def from_json(obj: dict) -> "MonoidSpec":
        if not isinstance(obj, dict):
            raise RootDataError(f"monoid spec must be a JSON object, got {obj!r}")
        datum = build_root_datum(obj.get("type"), LatticeSpec.from_json(obj.get("lattice", {})))
        gens = obj.get("generators", [])
        if not (isinstance(gens, list) and all(is_int_list(g) for g in gens)):
            raise RootDataError(f"generators must be lists of integers, got {gens!r}")
        return MonoidSpec(datum, tuple(tuple(g) for g in gens))


@dataclass(frozen=True)
class PerfectDescriptor:
    """Symbolic description of a perfect submonoid: the supported factors
    and a subgroup of the cocenter restricted to them."""

    support: frozenset[int]
    subgroup: latticecalc.Subgroup

    def to_json(self) -> dict:
        return {"support": sorted(self.support), "subgroup": self.subgroup.to_json()}


def component_support(spec: MonoidSpec) -> frozenset[int]:
    """1-based indices of the simple factors where some generator is nonzero."""
    return _support(spec.datum, spec.generators)


def _support(datum: RootDatum, weights) -> frozenset[int]:
    return frozenset(k for k in range(1, datum.n_factors + 1)
                     if any(any(datum.project_factor(g, k)) for g in weights))


def classify(spec: MonoidSpec) -> PerfectDescriptor:
    """Descriptor of the full (untruncated) perfect closure of the generating
    data: support plus the cocenter subgroup generated by the classes."""
    return _descriptor(spec.datum, spec.generators)


def _descriptor(datum: RootDatum, weights) -> PerfectDescriptor:
    support = _support(datum, weights)
    group = datum.cocenter.restrict(support)
    classes = {datum.cocenter.restrict_element(
        latticecalc.project_to_cocenter(datum.cocenter, g), support) for g in weights}
    return PerfectDescriptor(support, latticecalc.Subgroup.generated(group, classes))


def predicted_members(datum: RootDatum, desc: PerfectDescriptor, box: Box) -> set[Weight]:
    """In-box members of the perfect submonoid a descriptor denotes: dominant,
    supported on the descriptor's factors, in the lattice, class in the
    subgroup.  The last two depend on the coset of Q alone, so they are
    decided once per element of the cocenter P/Q."""
    region = _coset_region(datum, box)
    lattice = np.array([c in datum.lattice_subgroup for c in datum.cocenter.elements()])
    keep = lattice[region.cls] & _in_descriptor(datum, desc, region)
    return set(weight_rows(region.rows[keep]))


def _in_descriptor(datum: RootDatum, desc: PerfectDescriptor, region: _CosetRegion) -> np.ndarray:
    """Per weight of the region, whether it vanishes off the descriptor's
    support and its class lies in the descriptor's subgroup, decided once
    per element of P/Q; the lattice is not asked."""
    cocenter = datum.cocenter
    admitted = np.array([cocenter.restrict_element(c, desc.support) in desc.subgroup
                         for c in cocenter.elements()])
    off_support = [i for k in range(1, datum.n_factors + 1) if k not in desc.support
                   for i in range(*datum.factor_block(k))]
    return admitted[region.cls] & (region.rows[:, off_support] == 0).all(axis=1)


class _CosetRegion:
    """The box's dominant weights, as ``rows`` in the box's lexicographic
    order and in adjugate coordinates ``adj``, det * C^-1 lam (the
    coordinates :meth:`RootDatum.in_root_cone` tests).  Read-only: one
    region per datum and box is kept by :func:`_coset_region`.

    Each weight's coset class ``cls`` is its class in the cocenter P/Q, as a
    position in ``cocenter.elements()``; ``class_rows`` lists the weights of
    each class, empty for a class the box misses.  mu lies below a total t
    exactly when both have the same class and adj(mu) <= adj(t)
    componentwise.  Memory is O(box + |P/Q|), and |P/Q| = det C <= 2^rank is
    at most the box's size.  A closure adds O(box) for its mask and member
    list; class sums are computed as they are needed, and nothing is kept
    per pair of classes.

    The coordinates stay inside int64.  A box within ``MAX_REGION`` has
    2^rank <= (bound + 1)^rank <= 10^6, so rank <= 19 and bound < 10^6.
    det divides det C, the product of the simple factors' determinants, each
    at most r + 1 <= 2^r for rank r, so det <= 2^rank <= 10^6.  C^-1 is
    nonnegative with row sums at most 189 up to rank 19 (C19), so a total of
    two box weights, coordinates at most 2 * bound, has adjugate coordinates
    at most det * 189 * 2 * bound < 2 * 10^6 * 10^6 * 189 < 2^63.  The rows
    of ``cocenter.proj_rows`` have entries at most 38 up to rank 19 (D19),
    so the class coordinates stay far smaller.  Any three box weights also
    pass ``tensor._check_coefficient``, whose bound is max(h, Cartan entry,
    a) * h * (3 * bound + 2), with h <= 37 the height of the highest coroot
    up to rank 19 (B19, C19) and a <= 189 * det the largest row sum of
    det C^-1: at most 189 * 10^6 * 37 * (3 * 10^6 + 2) < 2^63.  So the
    closure's coefficient batches are asked for unchecked.
    """

    def __init__(self, datum: RootDatum, box: Box):
        cocenter = datum.cocenter
        self.rows = np.array(box.region(datum), dtype=np.int64).reshape(-1, datum.rank)
        self.adj = self.rows @ datum._np_adjugate.T
        proj = np.array(cocenter.proj_rows, dtype=np.int64).reshape(-1, datum.rank)
        self.cls = cocenter.index(self.rows @ proj.T)
        by_class = np.argsort(self.cls, kind="stable")
        sizes = np.bincount(self.cls, minlength=cocenter.order)
        self.class_rows = tuple(np.split(by_class, np.cumsum(sizes)[:-1]))
        for a in (self.rows, self.adj, self.cls, *self.class_rows):
            a.flags.writeable = False


@memoized
def _coset_region(datum: RootDatum, box: Box) -> _CosetRegion:
    return _CosetRegion(datum, box)


# most elements one comparison in a row test holds: totals x missing x rank
_ROW_TEST_ELEMENTS = 1 << 22


# a flagged pair is settled by one coefficient per candidate when the
# smaller factor's Weyl dimension is more than this many times the number of
# candidates, and decomposed otherwise.  At 0 the closure benchmark's seeds
# 1-3 run within noise of 4, with the same output; 4 stays for perfbench's
# tracer test, whose A1 box-4 verify must decompose (tensor.fold time > 0,
# pairs_decomposed > 0)
_COEFFICIENT_RATIO = 4


def _dominates_any(totals: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """Per total, whether some row of ``missing`` is componentwise <= it."""
    step = max(1, _ROW_TEST_ELEMENTS // missing.size)
    out = np.empty(len(totals), dtype=bool)
    for s in range(0, len(totals), step):
        chunk = totals[s:s + step, None, :]
        out[s:s + step] = (missing[None, :, :] <= chunk).all(axis=2).any(axis=1)
    return out


def _settle_pairs(datum: RootDatum, box: Box, members) -> set[Weight]:
    """The closure of a member set: one pass over its pairs, a row per later
    member b (see the module docstring), in which the in-box summands of
    each flagged pair join the members.  Members only grow, so a pair the
    row test settles stays settled.  ``members`` holds 0, which is at
    region index 0 and so first in the member list.

    Only the reach set R of the given members is ever missing: the box
    weights vanishing on every simple factor where all of them vanish,
    whose class lies in the subgroup of P/Q their classes generate.  A sum
    a + b and every summand of L(a) (x) L(b) lie in a + b - Q+, so they
    have the class of a + b, and on a factor where a and b vanish the
    product is trivial, so they vanish there too: members never leave R.
    A box weight outside R is never below a total in its class, so leaving
    it out of the mask flags the same pairs.  Once every weight of R is a
    member, the pairs of the rows left cannot add one; they are counted as
    settled, and their rows as ``closure_rows_skipped``."""
    region = _coset_region(datum, box)
    adj, cls, cocenter = region.adj, region.cls, datum.cocenter
    strides = (box.bound + 1) ** np.arange(datum.rank - 1, -1, -1)
    missing = _in_descriptor(datum, _descriptor(datum, members), region)
    at = np.empty(len(region.rows), dtype=np.int64)   # region index of each member
    n = len(members)
    at[:n] = np.sort(np.array(list(members), dtype=np.int64).reshape(n, -1) @ strides)
    missing[at[:n]] = False
    left = int(missing.sum())  # weights of R not yet members

    def open_rows(t: int) -> np.ndarray:
        c = region.class_rows[t]
        return c[missing[c]]

    def row_test(row: np.ndarray, b: int) -> np.ndarray:
        """Per member in ``row`` (region indices), whether its total with the
        member at region index b has a missing weight below it.  The class of
        a + b is a bijection of the class of a, so the row is grouped by the
        class of a, and totals are formed only for a class with open weights."""
        row_cls, d = cls[row], int(cls[b])
        flagged = np.zeros(len(row), dtype=bool)
        for c in set(row_cls.tolist()):
            below = adj[open_rows(cocenter.add_at(c, d))]
            if len(below):
                sel = row_cls == c
                flagged[sel] = _dominates_any(adj[row[sel]] + adj[b], below)
        return flagged

    stats = datum.stats
    j = 0
    while j < n and left:
        b = at[j]
        # at[0] is the zero weight, and L(a) (x) L(0) = L(a) adds nothing
        flagged = (1 + np.flatnonzero(row_test(at[1:j + 1], b))).tolist()
        stats["closure_pairs"] += j + 1
        stats["closure_settled"] += j + 1 - len(flagged)
        for k in flagged:
            # the missing weights below the total of the pair
            below = open_rows(cocenter.add_at(int(cls[at[k]]), int(cls[b])))
            below = below[(adj[below] <= adj[at[k]] + adj[b]).all(axis=1)]
            if not len(below):  # members grew since the row test
                stats["closure_rechecked"] += 1
                continue
            lam, mu = (tuple(w) for w in region.rows[[at[k], b]].tolist())
            weights = list(map(tuple, region.rows[below].tolist()))
            big, small = _big_and_small(datum, lam, mu)
            if _weyl_dimension(datum, small) > _COEFFICIENT_RATIO * len(below):
                stats["closure_coefficients"] += 1
                joins = [c > 0 for c in _coefficients(datum, big, small, weights)]
            else:
                stats["closure_decomposed"] += 1
                summands = tensor_decompose(datum, lam, mu).summands
                joins = [w in summands for w in weights]
            new = below[joins]
            if len(new):
                missing[new] = False
                left -= len(new)
            at[n:n + len(new)] = new
            n += len(new)
        j += 1
    # R is full: the pairs of rows j..n-1 have nothing missing below them
    rest = (n * (n + 1) - j * (j + 1)) // 2
    stats["closure_pairs"] += rest
    stats["closure_settled"] += rest
    stats["closure_rows_skipped"] += n - j
    return set(weight_rows(region.rows[at[:n]]))


def _box_members(datum: RootDatum, weights, box: Box) -> set[Weight]:
    """The set of checked weights, refused unless each lies in the box."""
    members = {datum.check_weight(w) for w in weights}
    for w in members:
        if w not in box:
            raise ValueError(f"weight {w} lies outside the box (bound {box.bound})")
    return members


def bounded_perfect_closure(spec: MonoidSpec, box: Box) -> set[Weight]:
    """Least fixed point, inside the box, of adding sums and all tensor
    summands of pairs.  This is the box truncation of the true closure:
    elements of the true closure outside the box are never represented, so
    the result is a lower bound whose quality grows with the bound.  Each
    pair is settled once: by the row test (or a zero factor), by its
    recheck, by coefficients or by a decomposition; the counts land in
    ``datum.stats``."""
    datum = spec.datum
    members = _box_members(datum, spec.generators, box)
    return _settle_pairs(datum, box, members | {(0,) * datum.rank})


def is_perfect_in_box(datum: RootDatum, members, box: Box) -> bool:
    """Whether a finite set is closed, inside the box, under sums and under
    taking all tensor summands of pairs: whether its closure adds nothing."""
    members = _box_members(datum, members, box)
    if (0,) * datum.rank not in members:
        raise ValueError("a perfect submonoid must contain 0")
    return len(_settle_pairs(datum, box, members)) == len(members)


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of comparing a box closure against its symbolic prediction.

    ``missing_from_prediction`` nonempty is a hard failure (the closure must
    always be contained in the prediction); ``unreached_in_box`` nonempty is
    inconclusive, shrinking as the box grows.
    """

    equal: bool
    missing_from_prediction: tuple[Weight, ...]
    unreached_in_box: tuple[Weight, ...]
    descriptor: PerfectDescriptor
    box: Box

    def to_json(self) -> dict:
        return {"equal": self.equal,
                "missing_from_prediction": [list(w) for w in self.missing_from_prediction],
                "unreached_in_box": [list(w) for w in self.unreached_in_box],
                "descriptor": self.descriptor.to_json(),
                "box": self.box.bound}


def verify_classification(spec: MonoidSpec, box: Box) -> ClassificationReport:
    """Run both sides: the bounded closure and the descriptor's prediction."""
    closure = bounded_perfect_closure(spec, box)
    desc = classify(spec)
    predicted = predicted_members(spec.datum, desc, box)
    missing = tuple(sorted(closure - predicted))
    unreached = tuple(sorted(predicted - closure))
    return ClassificationReport(
        equal=not missing and not unreached,
        missing_from_prediction=missing,
        unreached_in_box=unreached,
        descriptor=desc,
        box=box)


def enumerate_perfect(datum: RootDatum, support) -> list[PerfectDescriptor]:
    """All perfect submonoids with the given component support, one
    descriptor per admissible cocenter subgroup (those whose classes the
    lattice contains); a factor index must be an int (``RootDataError``)."""
    support = tuple(support)
    for k in support:  # before a set merges True with 1, or 1.0 with 1
        if type(k) is not int:
            raise RootDataError(f"factor index {k!r} is not an int")
        if not 1 <= k <= datum.n_factors:
            raise ValueError(f"factor index {k} out of range")
    support = frozenset(support)
    admissible = datum.lattice_subgroup.restrict(support)
    return [PerfectDescriptor(support, s)
            for s in latticecalc.enumerate_subgroups(admissible.group, admissible)]


def is_saturated_monoid(datum: RootDatum, members, box: Box) -> bool:
    """Divisibility saturation: within the box, n * lam in the set for some
    n > 1 forces lam in the set.  Distinct from root-string saturation."""
    members = _box_members(datum, members, box)
    # the lattice's dominant weights are the perfect submonoid of its subgroup
    lattice = PerfectDescriptor(frozenset(range(1, datum.n_factors + 1)), datum.lattice_subgroup)
    for lam in predicted_members(datum, lattice, box) - {(0,) * datum.rank}:
        top = max(lam)
        for n in range(2, box.bound // top + 1):
            scaled = tuple(n * x for x in lam)
            if scaled in members and lam not in members:
                return False
    return True
