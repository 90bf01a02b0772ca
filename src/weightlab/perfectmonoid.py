"""Perfect submonoids of dominant weights: box-truncated closures, the
symbolic classification by component support plus a cocenter subgroup, and
the saturation predicate that separates the two notions of closure.

A submonoid is perfect when it contains every highest weight of every
tensor product of its members.  Such monoids are infinite; all set-level
computation here is truncated to a finite coordinate box, while the
classification side is exact and symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product

import numpy as np

from . import latticecalc
from .rootdata import (LatticeSpec, RootDataError, RootDatum, Weight, build_root_datum,
                       in_lattice, is_int_list, wadd)
from .tensor import tensor_decompose

# most weights Box.region lists; refused before anything is allocated
MAX_REGION = 10 ** 6


@dataclass(frozen=True)
class Box:
    """Dominant weights with every fundamental coordinate at most ``bound``."""

    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("box bound must be a positive integer")

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
        gens = tuple(self.datum.check_weight(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if any(x < 0 for x in g):
                raise ValueError(f"generator {g} is not dominant")
            if not in_lattice(self.datum, g):
                raise ValueError(f"generator {g} is outside the chosen lattice")

    def to_json(self) -> dict:
        return {"type": str(self.datum.ctype),
                "lattice": self.datum.lattice.to_json(),
                "generators": [list(g) for g in self.generators]}

    @staticmethod
    def from_json(obj: dict) -> "MonoidSpec":
        datum = build_root_datum(obj["type"], LatticeSpec.from_json(obj.get("lattice", {})))
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
    out = set()
    for g in spec.generators:
        for k in range(1, datum.n_factors + 1):
            if any(spec.datum.project_factor(g, k)):
                out.add(k)
    return frozenset(out)


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
    supported on the descriptor's factors, in the lattice, class in the subgroup."""
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
    """In-box summands of L(a) (x) L(b) missing from ``members``.  When the
    envelope below a + b lies in ``members``, no summand can be missing and
    the pair is not decomposed."""
    if envelope.below(wadd(a, b)) <= members:
        return []
    box = envelope.box
    return [w for w in tensor_decompose(envelope.datum, a, b).support()
            if w in box and w not in members]


def bounded_perfect_closure(spec: MonoidSpec, box: Box) -> set[Weight]:
    """Least fixed point, inside the box, of adding sums and all tensor
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


def is_perfect_in_box(datum: RootDatum, members, box: Box) -> bool:
    """Whether a finite set is closed, inside the box, under sums and under
    taking all tensor summands of pairs."""
    members = {datum.check_weight(w) for w in members}
    if (0,) * datum.rank not in members:
        raise ValueError("a perfect submonoid must contain 0")
    for w in members:
        if w not in box:
            raise ValueError(f"member {w} lies outside the box")
    envelope = _BoxEnvelope(datum, box)
    return not any(_pair_adds(envelope, members, a, b)
                   for a, b in combinations_with_replacement(sorted(members), 2))


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
    members = {datum.check_weight(w) for w in members}
    for w in members:
        if w not in box:
            raise ValueError(f"member {w} lies outside the box")
    for lam in box.region(datum):
        if not in_lattice(datum, lam) or not any(lam):
            continue
        top = max(lam)
        for n in range(2, box.bound // top + 1):
            scaled = tuple(n * x for x in lam)
            if scaled in members and lam not in members:
                return False
    return True
