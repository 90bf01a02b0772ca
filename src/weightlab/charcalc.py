"""Weight systems with exact multiplicities and dimensions.

The character of an irreducible module is stored on dominant weights only;
the full weight system is the union of their W-orbits and is expanded
explicitly only where needed (tensor decomposition, brute-force checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rootdata import RootDatum, Weight
from .weyl import _dominant_representative, orbit, orbit_size


@dataclass(frozen=True)
class Character:
    """Finite map dominant weight -> multiplicity for one module (or any
    W-invariant multiplicity function given on dominant representatives)."""

    datum: RootDatum = field(repr=False)
    entries: dict[Weight, int]

    def __post_init__(self):
        for w, m in self.entries.items():
            if any(x < 0 for x in w):
                raise ValueError(f"character key {w} is not dominant")
            if m < 1:
                raise ValueError(f"multiplicity {m} at {w} must be positive")

    def dimension(self) -> int:
        return sum(m * orbit_size(self.datum, w) for w, m in self.entries.items())

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self.entries.items())

    def to_json(self) -> list[dict]:
        return [{"weight": list(w), "mult": m} for w, m in self.sorted_items()]


def dominant_weights_below(datum: RootDatum, lam: Weight) -> list[Weight]:
    """All dominant mu with mu <= lam and lam - mu in the root lattice,
    sorted by decreasing height then lexicographically."""
    return [w for w, _ in _below_with_depth(datum, lam)]


def _below_with_depth(datum: RootDatum, lam: Weight) -> list[tuple[Weight, tuple[int, ...]]]:
    """Dominant weights below lam, each with the root coordinates of lam - mu.

    Walks dominant weights only: from each dominant mu subtract every
    positive root alpha and keep mu - alpha when it is dominant, one level
    deeper by alpha's root coordinates.  The walk is complete by Stembridge,
    *The partial order of dominant weights* (Adv. Math. 136, 1998): when one
    dominant weight covers another in dominance order, the two differ by a
    positive root, so every dominant mu <= lam is reached from lam through
    dominant weights.  Sorted by total depth (decreasing height of mu), then
    by weight.
    """
    lam = datum.check_weight(lam)
    if any(x < 0 for x in lam):
        raise ValueError(f"expected a dominant weight, got {lam}")
    key = lam
    cached = datum._below_cache.get(key)
    if cached is not None:
        return cached
    roots = [(alpha.fund, alpha.rc) for alpha in datum.positive_roots]
    seen: dict[Weight, tuple[int, ...]] = {lam: (0,) * datum.rank}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            depth = seen[w]
            for fund, rc in roots:
                nw = tuple(x - a for x, a in zip(w, fund))
                if min(nw) < 0 or nw in seen:
                    continue
                seen[nw] = tuple(d + r for d, r in zip(depth, rc))
                nxt.append(nw)
        frontier = nxt
    out = sorted(seen.items(), key=lambda item: (sum(item[1]), item[0]))
    datum._below_cache[key] = out
    return out


def character(datum: RootDatum, lam: Weight) -> Character:
    """Weight system of the irreducible module with highest weight lam,
    multiplicities by the Freudenthal recursion in exact integers."""
    lam = datum.check_weight(lam)
    cached = datum._char_cache.get(lam)
    if cached is not None:
        return cached
    if any(x < 0 for x in lam):
        raise ValueError(f"expected a dominant weight, got {lam}")
    below = _below_with_depth(datum, lam)
    table: dict[Weight, int] = {lam: 1}
    dom_set = {w for w, _ in below}
    sym = datum.symmetrizer
    # per positive root: its fundamental coordinates, the vector v with
    # v . nu = (alpha, nu), and (alpha, alpha) = v . alpha
    strings = []
    for alpha in datum.positive_roots:
        pair = tuple(r * d for r, d in zip(alpha.rc, sym))
        strings.append((alpha.fund, pair, sum(p * a for p, a in zip(pair, alpha.fund))))
    dominant_of: dict[Weight, Weight] = {}
    for mu, depth in below[1:]:
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
                    nu_dom = dominant_of[nu] = _dominant_representative(datum, nu)
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
    char = Character(datum, table)
    datum._char_cache[lam] = char
    return char


def weyl_dimension(datum: RootDatum, lam: Weight) -> int:
    """dim of the irreducible module with highest weight lam (Weyl formula)."""
    lam = datum.check_weight(lam)
    cached = datum._dim_cache.get(lam)
    if cached is not None:
        return cached
    if any(x < 0 for x in lam):
        raise ValueError(f"expected a dominant weight, got {lam}")
    num = 1
    den = 1
    for alpha in datum.positive_roots:
        num *= sum(c * (x + 1) for c, x in zip(alpha.coroot, lam))
        den *= sum(alpha.coroot)
    assert num % den == 0
    dim = num // den
    datum._dim_cache[lam] = dim
    return dim


def expand_character(datum: RootDatum, char: Character) -> dict[Weight, int]:
    """Full W-invariant multiplicity map underlying a character."""
    rows, mults = expanded_weight_table(datum, char)
    return dict(zip(map(tuple, rows.tolist()), mults.tolist()))


def expanded_weight_table(datum: RootDatum, char: Character):
    """Numpy form of the expanded weight system: (rows, mults) arrays, one
    orbit after another in no particular order within an orbit."""
    orbits = [orbit(datum, w) for w in char.entries]
    rows = np.array([v for orb in orbits for v in orb], dtype=np.int64)
    mults = np.repeat(np.array(list(char.entries.values()), dtype=np.int64),
                      [len(orb) for orb in orbits])
    return rows, mults


def is_saturated_weight_set(datum: RootDatum, weights) -> bool:
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
