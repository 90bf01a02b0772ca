"""Perfect submonoids of dominant weights: box-truncated closures, the
symbolic classification by component support plus a cocenter subgroup, and
the saturation predicate that separates the two notions of closure.

A submonoid is perfect when it contains every highest weight of every
tensor product of its members.  Such monoids are infinite; all set-level
computation here is truncated to a finite coordinate box, while the
classification side is exact and symbolic.

The closure settles its pairs a row at a time.  The box is held in
adjugate coordinates, det * C^-1 lam, grouped by their class in the
cocenter P/Q; this region is read-only and kept once per datum and box,
and the closure's own state is a mask of the weights not yet members and
the list of members' region indices.  When a member b is reached, one numpy
test compares every total a + b of its row with the missing weights of the
total's class, componentwise; a pair with nothing missing below its total
cannot add a member and is settled.  The pairs the test flags are tested
again, in order, against the members of that moment, and only those still
flagged are decomposed.  A set is perfect in the box when its closure adds
nothing.  The prediction from a descriptor reads the same region and
decides the lattice and the subgroup once per element of P/Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import latticecalc
from .rootdata import (LatticeSpec, RootDataError, RootDatum, Weight, build_root_datum,
                       in_lattice, is_int_list, memoized)
from .tensor import tensor_decompose

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
    datum = spec.datum
    return frozenset(k for k in range(1, datum.n_factors + 1)
                     if any(any(datum.project_factor(g, k)) for g in spec.generators))


def classify(spec: MonoidSpec) -> PerfectDescriptor:
    """Descriptor of the full (untruncated) perfect closure of the generating
    data: support plus the cocenter subgroup generated by the classes."""
    datum = spec.datum
    support = component_support(spec)
    group = datum.cocenter.restrict(support)
    classes = [datum.cocenter.restrict_element(
        latticecalc.project_to_cocenter(datum.cocenter, g), support)
        for g in spec.generators]
    return PerfectDescriptor(support, latticecalc.Subgroup.generated(group, classes))


def predicted_members(datum: RootDatum, desc: PerfectDescriptor, box: Box) -> set[Weight]:
    """In-box members of the perfect submonoid a descriptor denotes: dominant,
    supported on the descriptor's factors, in the lattice, class in the
    subgroup.  The last two depend on the coset of Q alone, so they are
    decided once per element of the cocenter P/Q."""
    region = _coset_region(datum, box)
    cocenter = datum.cocenter
    admitted = np.array([c in datum.lattice_subgroup and
                         cocenter.restrict_element(c, desc.support) in desc.subgroup
                         for c in cocenter.elements()])
    off_support = [i for k in range(1, datum.n_factors + 1) if k not in desc.support
                   for i in range(*datum.factor_block(k))]
    keep = admitted[region.cls] & (region.rows[:, off_support] == 0).all(axis=1)
    return set(map(tuple, region.rows[keep].tolist()))


class _CosetRegion:
    """The box's dominant weights, as ``rows`` in the box's lexicographic
    order and in adjugate coordinates ``adj``, det * C^-1 lam (the
    coordinates :meth:`RootDatum.in_root_cone` tests).  Read-only: one
    region per datum and box is kept by :func:`_coset_region`.

    Each weight's coset class ``cls`` is its class in the cocenter P/Q, as
    a position in ``cocenter.elements()``, whose coordinates are the rows
    of ``classes``; ``class_rows`` lists the weights of each class, empty
    for a class the box misses.  mu lies below a total t exactly when both
    have the same class and adj(mu) <= adj(t) componentwise.  Memory is
    O(box + |P/Q|), and |P/Q| = det C <= 2^rank is at most the box's size.

    The coordinates stay inside int64.  A box within ``MAX_REGION`` has
    2^rank <= (bound + 1)^rank <= 10^6, so rank <= 19 and bound < 10^6.
    det divides det C, the product of the simple factors' determinants, each
    at most r + 1 <= 2^r for rank r, so det <= 2^rank <= 10^6.  C^-1 is
    nonnegative with row sums at most 189 up to rank 19 (C19), so a total of
    two box weights, coordinates at most 2 * bound, has adjugate coordinates
    at most det * 189 * 2 * bound < 2 * 10^6 * 10^6 * 189 < 2^63.  The rows
    of ``cocenter.proj_rows`` have entries at most 38 up to rank 19 (D19),
    so the class coordinates stay far smaller.
    """

    def __init__(self, datum: RootDatum, box: Box):
        cocenter = datum.cocenter
        self.rows = np.array(box.region(datum), dtype=np.int64).reshape(-1, datum.rank)
        self.adj = self.rows @ datum._np_adjugate.T
        proj = np.array(cocenter.proj_rows, dtype=np.int64).reshape(-1, datum.rank)
        self.cls = cocenter.index(self.rows @ proj.T)
        self.classes = np.array(cocenter.elements(), dtype=np.int64).reshape(cocenter.order, -1)
        by_class = np.argsort(self.cls, kind="stable")
        sizes = np.bincount(self.cls, minlength=cocenter.order)
        self.class_rows = tuple(np.split(by_class, np.cumsum(sizes)[:-1]))
        for a in (self.rows, self.adj, self.cls, self.classes, *self.class_rows):
            a.flags.writeable = False


@memoized
def _coset_region(datum: RootDatum, box: Box) -> _CosetRegion:
    return _CosetRegion(datum, box)


# most elements one comparison in a row test holds: totals x missing x rank
_ROW_TEST_ELEMENTS = 1 << 22


def _dominates_any(totals: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """Per total, whether some row of ``missing`` is componentwise <= it."""
    step = max(1, _ROW_TEST_ELEMENTS // missing.size)
    return np.concatenate([
        (missing[None, :, :] <= totals[s:s + step, None, :]).all(axis=2).any(axis=1)
        for s in range(0, len(totals), step)])


def _settle_pairs(datum: RootDatum, box: Box, members) -> set[Weight]:
    """The closure of a member set: one pass over its pairs, a row per later
    member b (see the module docstring), in which the in-box summands of
    each decomposed pair join the members.  Members only grow, so a pair
    the row test settles stays settled."""
    region = _coset_region(datum, box)
    adj, cls, cocenter = region.adj, region.cls, datum.cocenter
    strides = (box.bound + 1) ** np.arange(datum.rank - 1, -1, -1)
    missing = np.ones(len(region.rows), dtype=bool)
    at = np.empty(len(region.rows), dtype=np.int64)   # region index of each member
    n = len(members)
    at[:n] = np.sort(np.array(list(members), dtype=np.int64).reshape(n, -1) @ strides)
    missing[at[:n]] = False

    def row_test(row: np.ndarray, b: int) -> np.ndarray:
        """Per member in ``row`` (region indices), whether its total with the
        member at region index b has a missing weight below it."""
        totals = adj[row] + adj[b]
        targets = cocenter.index(region.classes[cls[row]] + region.classes[cls[b]])
        flagged = np.zeros(len(row), dtype=bool)
        for t in set(targets.tolist()):
            c = region.class_rows[t]
            below = adj[c[missing[c]]]
            if len(below):
                sel = targets == t
                flagged[sel] = _dominates_any(totals[sel], below)
        return flagged

    stats = datum.stats
    j = 0
    while j < n:
        b = at[j]
        flagged = np.flatnonzero(row_test(at[:j + 1], b)).tolist()
        stats["closure_pairs"] += j + 1
        stats["closure_settled"] += j + 1 - len(flagged)
        grown = n
        for k in flagged:
            # untouched since the row test, the pair still fails it
            if n > grown and not row_test(at[k:k + 1], b)[0]:
                stats["closure_rechecked"] += 1
                continue
            stats["closure_decomposed"] += 1
            lam, mu = (tuple(w) for w in region.rows[[at[k], b]].tolist())
            summands = np.array(list(tensor_decompose(datum, lam, mu).support()), dtype=np.int64)
            new = summands[(summands <= box.bound).all(axis=1)] @ strides
            new = new[missing[new]]
            missing[new] = False
            at[n:n + len(new)] = new
            n += len(new)
        j += 1
    return set(map(tuple, region.rows[at[:n]].tolist()))


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
    pair is settled once, by the row test or its recheck, or decomposed;
    the counts land in ``datum.stats``."""
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
    chosen lattice actually contains)."""
    support = frozenset(support)
    for k in support:
        if not 1 <= k <= datum.n_factors:
            raise ValueError(f"factor index {k} out of range")
    cocenter = datum.cocenter
    restricted = cocenter.restrict(support)
    lattice_classes = {
        cocenter.restrict_element(h, support)
        for h in datum.lattice_subgroup.members
        if all(x == 0 for x in cocenter.restrict_element(
            h, frozenset(range(1, datum.n_factors + 1)) - support))}
    admissible = latticecalc.Subgroup(restricted, tuple(sorted(lattice_classes)))
    subs = latticecalc.enumerate_subgroups(restricted)
    return [PerfectDescriptor(support, s) for s in subs if s <= admissible]


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
