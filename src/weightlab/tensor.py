"""Tensor product decomposition, PRV components and structural checks.

The decomposition iterates the expanded weight system of the smaller factor
and folds each shifted weight to the dominant chamber with its sign
(Brauer-Klimyk); accumulation is exact in machine integers because totals
are bounded by the expanded size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charcalc import character, expanded_weight_table, expand_character, weyl_dimension
from .rootdata import RootDatum, Weight, wadd
from .weyl import _batch_make_dominant, apply_word, make_dominant


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
    cached = datum._tensor_cache.get(key)
    if cached is None:
        summands = _klimyk(datum, big, small)
        cached = (summands,)
        datum._tensor_cache[key] = cached
    return TensorDecomposition(datum, lam, mu, dict(cached[0]))


def _expanded_table(datum: RootDatum, mu: Weight):
    table = datum._table_cache.get(mu)
    if table is None:
        table = expanded_weight_table(datum, character(datum, mu))
        datum._table_cache[mu] = table
    return table


def _klimyk(datum: RootDatum, lam: Weight, mu: Weight) -> dict[Weight, int]:
    rows, mults = _expanded_table(datum, mu)
    shift = np.array(wadd(lam, datum.weyl_vector), dtype=np.int64)
    xi = rows + shift[None, :]
    dom, signs = _batch_make_dominant(datum, xi)
    regular = (dom > 0).all(axis=1)
    dom = dom[regular] - 1  # subtract rho
    contrib = signs[regular] * mults[regular]
    uniq, inverse = np.unique(dom, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).reshape(-1)
    totals = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(totals, inverse, contrib)
    out: dict[Weight, int] = {}
    for row, total in zip(uniq.tolist(), totals.tolist()):
        assert total >= 0, "negative accumulated tensor multiplicity"
        if total:
            out[tuple(row)] = total
    return out


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
