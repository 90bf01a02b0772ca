"""Executable constructions inside perfect submonoids: support growth,
support-regular weights, per-type sequences whose final weight is negated by
the longest element, product-group assembly, and chain verification.

Every construction emits a replayable trace: each step is a generator, a
literal sum of two earlier steps, or a PRV step -- the dominant
representative of (earlier step) + w(earlier step), which is always a
summand of the corresponding tensor product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charcalc import character, expand_character
from .rootdata import (RootDataError, RootDatum, Weight, is_int_list, wadd, wneg,
                       wzero)
from .tensor import _check_coefficient, _coefficients, prv_component
# unused here; the perfbench tracer wraps constructions.tensor_decompose by name
from .tensor import tensor_decompose  # noqa: F401
from .weyl import w0_action


class ConstructionError(ValueError):
    """A construction precondition failed or a recipe left the dominant cone."""


@dataclass(frozen=True)
class TraceStep:
    weight: Weight
    kind: str                      # "generator" | "sum" | "prv"
    left: int | None = None
    word: tuple[int, ...] | None = None
    right: int | None = None

    def to_json(self) -> dict:
        out = {"weight": list(self.weight), "kind": self.kind}
        if self.kind in ("sum", "prv"):
            out["left"] = self.left
            out["right"] = self.right
        if self.kind == "prv":
            out["word"] = list(self.word)
        return out

    @staticmethod
    def from_json(obj: dict) -> "TraceStep":
        if not isinstance(obj, dict):
            raise RootDataError(f"malformed trace step {obj!r}")
        weight, kind, word = obj.get("weight"), obj.get("kind"), obj.get("word")
        left, right = obj.get("left"), obj.get("right")
        if not is_int_list(weight) or not isinstance(kind, str) \
                or not (word is None or is_int_list(word)) \
                or any(i is not None and type(i) is not int for i in (left, right)):
            raise RootDataError(f"malformed trace step {obj!r}")
        return TraceStep(tuple(weight), kind, left=left,
                         word=None if word is None else tuple(word), right=right)


@dataclass(frozen=True)
class ConstructionTrace:
    steps: tuple[TraceStep, ...]

    @property
    def final(self) -> Weight:
        return self.steps[-1].weight

    def to_json(self) -> dict:
        return {"steps": [s.to_json() for s in self.steps],
                "final": list(self.final)}

    @staticmethod
    def from_json(obj: dict) -> "ConstructionTrace":
        steps = obj.get("steps") if isinstance(obj, dict) else None
        if not (isinstance(steps, list) and steps):
            raise RootDataError(f"a trace is a dict with a nonempty list of steps, got {obj!r}")
        return ConstructionTrace(tuple(TraceStep.from_json(s) for s in steps))


class _TraceBuilder:
    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.steps: list[TraceStep] = []

    def weight(self, idx: int) -> Weight:
        return self.steps[idx].weight

    def _append(self, step: TraceStep) -> int:
        if any(x < 0 for x in step.weight):
            raise ConstructionError(
                f"construction step {len(self.steps)} left the dominant cone: {step.weight}")
        self.steps.append(step)
        return len(self.steps) - 1

    def generator(self, w: Weight) -> int:
        return self._append(TraceStep(self.datum.check_weight(w), "generator"))

    def sum(self, i: int, j: int) -> int:
        w = wadd(self.weight(i), self.weight(j))
        return self._append(TraceStep(w, "sum", left=i, right=j))

    def prv(self, i: int, word, j: int) -> int:
        word = tuple(word)
        w = prv_component(self.datum, self.weight(i), self.weight(j), word)
        return self._append(TraceStep(w, "prv", left=i, word=word, right=j))

    def build(self) -> ConstructionTrace:
        return ConstructionTrace(tuple(self.steps))


def _node_support(lam: Weight) -> set[int]:
    return {i for i, x in enumerate(lam) if x > 0}


def _growth_node(datum: RootDatum, lam: Weight) -> int | None:
    """Smallest supported node adjacent to an unsupported node (0-based),
    or None when every supported factor is fully supported."""
    supp = _node_support(lam)
    for j in sorted(supp):
        if any(i not in supp for i in datum.neighbors[j]):
            return j
    return None


def support_growing_step(datum: RootDatum, lam: Weight) -> Weight:
    """One support-growth move: mu = 2 lam + s_j(lam) for the smallest
    supported node j adjacent to an unsupported one.  mu is dominant with
    strictly larger support."""
    lam = datum.check_weight(lam)
    if any(x < 0 for x in lam) or not any(lam):
        raise ConstructionError("support growth needs a nonzero dominant weight")
    j = _growth_node(datum, lam)
    if j is None:
        raise ConstructionError(
            "support is already full on every supported factor")
    col = datum.cartan_columns[j]
    mu = tuple(3 * x - lam[j] * c for x, c in zip(lam, col))
    assert all(x >= 0 for x in mu)
    assert _node_support(mu) > _node_support(lam)
    return mu


def support_regular_weight(datum: RootDatum, lam: Weight) -> ConstructionTrace:
    """Iterate support growth until the weight is regular on every factor it
    touches; the trace realizes each move as double-then-reflect."""
    lam = datum.check_weight(lam)
    if any(x < 0 for x in lam):
        raise ConstructionError("expected a dominant weight")
    builder = _TraceBuilder(datum)
    cur = builder.generator(lam)
    while True:
        j = _growth_node(datum, builder.weight(cur))
        if j is None:
            break
        doubled = builder.sum(cur, cur)
        cur = builder.prv(doubled, (j + 1,), cur)
    return builder.build()


def _factor_data(datum: RootDatum, factor: int):
    if type(factor) is not int:
        raise RootDataError(f"factor index {factor!r} is not an int")
    if not 1 <= factor <= datum.n_factors:
        raise ConstructionError(
            f"factor index {factor} out of range 1..{datum.n_factors}")
    family, frank = datum.ctype.factors[factor - 1]
    start, _ = datum.factor_block(factor)
    return family, frank, start


def factor_antifixed_sequence(datum: RootDatum, factor: int, omega: Weight) -> ConstructionTrace:
    """Sequence of dominant weights starting at a factor-regular omega whose
    final member nu satisfies w0(nu) = -nu, built from sums and PRV steps
    following the per-type recipe."""
    omega = datum.check_weight(omega)
    _, frank, start = _factor_data(datum, factor)
    if not all(x > 0 for x in datum.project_factor(omega, factor)):
        raise ConstructionError(
            f"weight {omega} is not regular on factor {factor}")
    if any(omega[i] for i in range(datum.rank) if not start <= i < start + frank):
        raise ConstructionError(
            f"weight {omega} is supported outside factor {factor}")
    return w0_antifixed_weight(datum, omega, wzero(datum.rank))


def _append_factor_recipe(builder: _TraceBuilder, family: str, frank: int,
                          start: int, base: int) -> int:
    """Extend the trace from step ``base`` (regular on the factor) to a step
    negated by the factor's longest element; returns the final index."""
    # w0 = -1 on the factor exactly when the diagram involution fixes its nodes
    tau = builder.datum.diagram_involution
    if all(tau[i] == i for i in range(start, start + frank)):
        return base
    if family == "E":
        return _recipe_e6(builder, start, base)
    if family == "A":
        return _recipe_a(builder, frank, start, base)
    if family == "D":
        return _recipe_d_odd(builder, frank, start, base)
    raise AssertionError(f"unhandled factor type {family}{frank}")


def _recipe_e6(builder: _TraceBuilder, start: int, base: int) -> int:
    # node i on this factor is global letter start + i
    def g(i):
        return start + i

    nu1 = builder.prv(base, (g(6),), base)
    nu2 = builder.prv(nu1, (g(5),), nu1)
    nu3 = builder.prv(nu2, (g(6), g(5)), nu1)
    nu4 = builder.prv(nu3, (g(1),), nu3)
    nu5 = builder.prv(nu4, (g(3),), nu4)
    return builder.prv(nu5, (g(1), g(3)), nu4)


def _recipe_d_odd(builder: _TraceBuilder, frank: int, start: int, base: int) -> int:
    def g(i):
        return start + i

    nu1 = builder.prv(base, (g(frank),), base)
    return builder.prv(nu1, (g(frank - 1),), nu1)


def _recipe_a(builder: _TraceBuilder, n: int, start: int, base: int) -> int:
    """Double staircase collapsing a regular weight onto the two end
    fundamental weights, then the symmetric combination."""
    def g(i):
        return start + i

    def staircase(mirror: bool) -> int:
        # letters 1..n, mirrored for the second staircase
        def lt(i):
            return g(n + 1 - i) if mirror else g(i)

        cur = base
        for i in range(1, n):
            prev = cur
            for m in range(2, i + 2):
                word = tuple(lt(t) for t in range(i - m + 2, i + 1))
                cur = builder.prv(cur, word, prev)
        return cur

    zeta_idx = staircase(False)
    theta_idx = staircase(True)
    zeta_block = builder.weight(zeta_idx)[start:start + n]
    theta_block = builder.weight(theta_idx)[start:start + n]
    a = zeta_block[-1]
    b = theta_block[0]
    assert a > 0 and all(x == 0 for x in zeta_block[:-1])
    assert b > 0 and all(x == 0 for x in theta_block[1:])
    left = zeta_idx
    for _ in range(2, b + 1):
        left = builder.sum(left, zeta_idx)
    right = theta_idx
    for _ in range(2, a + 1):
        right = builder.sum(right, theta_idx)
    return builder.sum(left, right)


def w0_antifixed_weight(datum: RootDatum, omega: Weight, mu: Weight) -> ConstructionTrace:
    """Assemble, factor by factor, a weight eta with w0(eta) = -eta starting
    from a weight regular on its whole component support; when mu is nonzero
    the trace also carries the shifted copy mu + (each step), every one of
    which must stay dominant."""
    omega = datum.check_weight(omega)
    mu = datum.check_weight(mu)
    if any(x < 0 for x in omega) or any(x < 0 for x in mu):
        raise ConstructionError("expected dominant weights")
    support = [k for k in range(1, datum.n_factors + 1)
               if any(datum.project_factor(omega, k))]
    for k in support:
        if not all(x > 0 for x in datum.project_factor(omega, k)):
            raise ConstructionError(
                f"weight {omega} is not regular on its supported factor {k}")
    for k in range(1, datum.n_factors + 1):
        if k not in support and any(datum.project_factor(mu, k)):
            raise ConstructionError(
                f"shift {mu} is supported outside the component support {support}")
    builder = _TraceBuilder(datum)
    cur = builder.generator(omega)
    for k in support:
        family, frank, start = _factor_data(datum, k)
        block = datum.project_factor(builder.weight(cur), k)
        if not all(x > 0 for x in block):
            raise ConstructionError(
                f"assembly lost regularity on factor {k} at {builder.weight(cur)}")
        cur = _append_factor_recipe(builder, family, frank, start, cur)
    main_steps = list(enumerate(builder.steps))
    if any(mu):
        shadow: dict[int, int] = {}
        for idx, step in main_steps:
            if step.kind == "generator":
                shadow[idx] = builder.generator(wadd(mu, step.weight))
            elif step.kind == "sum":
                shadow[idx] = builder.sum(shadow[step.left], step.right)
            else:
                shadow[idx] = builder.prv(shadow[step.left], step.word, step.right)
            assert builder.weight(shadow[idx]) == wadd(mu, step.weight)
    eta = builder.weight(cur)
    if w0_action(datum, eta) != wneg(eta):
        raise ConstructionError(f"assembled weight {eta} is not negated by w0")
    return builder.build()


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    prv_steps: int
    tensor_checked: int
    failures: tuple[str, ...]


def check_prv_chain(datum: RootDatum, trace: ConstructionTrace) -> ChainReport:
    """Replay a trace exactly: sums literal, PRV weights recomputed, and each
    PRV step confirmed as a tensor summand of its parents.

    The confirmation is one coefficient, as ``tensor_multiplicity`` reads
    it, which walks the part of one regular orbit that lies high enough and
    folds only the points of it that pass a norm test, at any rank, so every
    PRV step whose replay matches is checked (``tensor_checked``); the steps
    confirmed are counted as ``prv_confirmed`` in ``datum.stats``.  Each
    weight is checked dominant once, at its own step, so a coefficient runs
    only the int64 guard, ``tensor._check_coefficient``, before
    ``tensor._coefficients``.  A step with a malformed or non-dominant
    weight, kind, parent index or word raises ``ValueError`` naming the
    step.
    """
    failures: list[str] = []
    prv_steps = 0
    tensor_checked = 0
    weights: list[Weight] = []  # each step's weight, checked
    for idx, step in enumerate(trace.steps):
        try:
            weights.append(datum.check_dominant(step.weight))
        except ValueError as exc:
            raise ValueError(f"step {idx}: {exc}") from None
        if step.kind == "generator":
            continue
        if step.kind not in ("sum", "prv"):
            raise ValueError(f"step {idx}: unknown kind {step.kind!r}")
        if step.left not in range(idx) or step.right not in range(idx):
            raise ValueError(f"step {idx}: malformed parent indices")
        lw, rw = weights[step.left], weights[step.right]
        if step.kind == "sum":
            if step.weight != wadd(lw, rw):
                failures.append(f"step {idx}: recorded sum {step.weight} != {wadd(lw, rw)}")
            continue
        if step.word is None or any(type(i) is not int or not 1 <= i <= datum.rank
                                    for i in step.word):
            raise ValueError(f"step {idx}: prv word {step.word} is not a word in 1..{datum.rank}")
        prv_steps += 1
        expected = prv_component(datum, lw, rw, step.word)
        if step.weight != expected:
            failures.append(f"step {idx}: recorded weight {step.weight} != replay {expected}")
            continue
        tensor_checked += 1
        _check_coefficient(datum, lw, rw, expected)
        if _coefficients(datum, lw, rw, (expected,))[0]:
            datum.stats["prv_confirmed"] += 1
        else:
            failures.append(
                f"step {idx}: {step.weight} is not a summand of {lw} (x) {rw}")
    return ChainReport(not failures, prv_steps, tensor_checked, tuple(failures))


def smallest_dominating_multiple(datum: RootDatum, lam: Weight, omega: Weight) -> int:
    """Least positive m with mu + m * omega dominant for every weight mu of
    the module with highest weight lam.  omega must be dominant."""
    omega = datum.check_dominant(omega)
    expanded = expand_character(datum, character(datum, lam))
    m = 1
    for mu in expanded:
        for x, o in zip(mu, omega):
            if x >= 0:
                continue
            if o == 0:
                raise ConstructionError(
                    f"no multiple of {omega} dominates {mu}: zero coordinate")
            m = max(m, (-x + o - 1) // o)
    return m
