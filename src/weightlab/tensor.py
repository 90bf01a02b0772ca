"""Tensor product decomposition, PRV components and structural checks.

The decomposition is a Brauer-Klimyk fold over the expanded weight system of
the smaller factor.  Each weight nu gives x = nu + lam + rho.  Rows with a
zero coordinate lie on a wall; every W-image of such a row lies on a wall
too, so it contributes nothing and is dropped before any reflection and
again after each sweep.  A sweep reflects, for each i in turn, every row
with x_i < 0 in place and negates its multiplicity; any order of reflections
in negative coordinates takes a regular weight to its dominant
representative in exactly l(w) steps, so the sign is (-1)^l(w).  The rows
left, minus rho, are sorted once with ``np.lexsort`` and equal rows are
summed with ``np.add.reduceat``.

All of this is int64.  ``_check_int64`` refuses, before anything is
allocated, a pair for which a coordinate or a running total could leave
int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charcalc import character, expanded_weight_table, expand_character, weyl_dimension
from .rootdata import RootDatum, Weight, wadd
from .weyl import apply_word, make_dominant

INT64_MAX = np.iinfo(np.int64).max


class TensorBudgetError(RuntimeError):
    """Raised when a decomposition would exceed the allowed expanded size."""


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


def tensor_decompose(datum: RootDatum, lam: Weight, mu: Weight,
                     max_expanded: int | None = None) -> TensorDecomposition:
    """Decompose L(lam) (x) L(mu) into irreducibles with exact multiplicities."""
    lam = datum.check_weight(lam)
    mu = datum.check_weight(mu)
    if any(x < 0 for x in lam) or any(x < 0 for x in mu):
        raise ValueError("tensor factors must be dominant")
    key = (lam, mu) if lam <= mu else (mu, lam)
    big, small = key
    if weyl_dimension(datum, big) < weyl_dimension(datum, small):
        big, small = small, big
    # checked before the cache, so a tighter budget holds for cached pairs too
    if max_expanded is not None and weyl_dimension(datum, small) > max_expanded:
        raise TensorBudgetError(
            f"expanded weight system of {small} has size "
            f"{weyl_dimension(datum, small)} > budget {max_expanded}")
    summands = datum._tensor_cache.get(key)
    if summands is None:
        summands = _klimyk(datum, big, small)
        datum._tensor_cache[key] = summands
    return TensorDecomposition(datum, lam, mu, dict(summands))


def _expanded_table(datum: RootDatum, mu: Weight):
    table = datum._table_cache.get(mu)
    if table is None:
        table = expanded_weight_table(datum, character(datum, mu))
        datum._table_cache[mu] = table
    return table


def _check_int64(datum: RootDatum, lam: Weight, mu: Weight) -> None:
    """Refuse a fold whose int64 arithmetic could overflow.

    Every coordinate the fold meets is <x, beta^vee> for x = nu + lam + rho,
    nu a weight of L(mu) and beta^vee a coroot, so it is at most h (max lam
    + max mu + 1) in absolute value, with h the height of the highest
    coroot; a reflection multiplies it by a Cartan entry first.  Running
    totals are at most dim L(mu), the sum of the table's multiplicities.
    """
    height = max(sum(alpha.coroot) for alpha in datum.positive_roots)
    entry = max(abs(a) for row in datum.cartan for a in row)
    coord = height * (max(lam) + max(mu) + 1)
    if entry * coord > INT64_MAX or weyl_dimension(datum, mu) > INT64_MAX:
        raise ValueError(
            f"tensor product of {lam} and {mu} is out of int64 range for the fold")


def _klimyk(datum: RootDatum, lam: Weight, mu: Weight) -> dict[Weight, int]:
    _check_int64(datum, lam, mu)
    rows, mults = _expanded_table(datum, mu)
    # column k of x is table row k shifted by lam + rho; x[i] holds
    # coordinate i of every row, contiguous
    shift = np.array(wadd(lam, datum.weyl_vector), dtype=np.int64)
    x = np.ascontiguousarray(rows.T) + shift[:, None]
    cols = datum._np_cartan_cols  # cols[:, i] = alpha_i
    while True:
        # compress copies, so the cached table is never written
        regular = (x != 0).all(axis=0)
        x, mults = x.compress(regular, axis=1), mults.compress(regular)
        if not (x < 0).any():
            break
        for i in range(datum.rank):
            # s_i x = x - x_i alpha_i on the rows with x_i < 0
            c = np.minimum(x[i], 0)
            x -= cols[:, i, None] * c
            np.negative(mults, out=mults, where=c < 0)
    dom = x - 1  # subtract rho
    # nonnegative now; the narrowest dtype that holds them sorts fastest
    dom = dom.astype(np.min_scalar_type(dom.max()))
    order = np.lexsort(dom[::-1])
    dom, mults = dom[:, order], mults[order]
    changed = (dom[:, 1:] != dom[:, :-1]).any(axis=0)
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    totals = np.add.reduceat(mults, starts)
    assert (totals >= 0).all(), "negative accumulated tensor multiplicity"
    kept = totals > 0
    return dict(zip(map(tuple, dom[:, starts[kept]].T.tolist()), totals[kept].tolist()))


def x_support(datum: RootDatum, lam: Weight, mu: Weight,
              max_expanded: int | None = None) -> frozenset[Weight]:
    """Highest weights of the irreducible summands of L(lam) (x) L(mu)."""
    return tensor_decompose(datum, lam, mu, max_expanded).support()


def prv_component(datum: RootDatum, lam: Weight, mu: Weight, word) -> Weight:
    """Dominant representative of lam + w(mu); always a summand of the
    tensor product (exercised as a tested invariant, not assumed here)."""
    shifted = apply_word(datum, word, datum.check_weight(mu))
    return make_dominant(datum, wadd(datum.check_weight(lam), shifted)).dominant


def stable_multiplicity_check(datum: RootDatum, lam: Weight, mu: Weight) -> bool:
    """In the regime where lam + mu' is dominant for every weight mu' of
    L(mu), the decomposition must be exactly {lam + mu': n_mu'(mu)}."""
    lam = datum.check_weight(lam)
    mu = datum.check_weight(mu)
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
