"""The four workloads: seeded task lists, task execution and correctness gates.

Every task is either one in-process CLI call (``weightlab.cli.run``) or one
library ``tensor_decompose`` call.  Functions are looked up on their modules
at call time, so the traced run sees the wrapped versions.

Seeded inputs are drawn by stratified sampling: the candidates of each
stratum are sorted by a cost proxy, cut into equal slices, and the seed picks
one candidate per slice.  Different seeds give different inputs with nearly
the same cost distribution, which keeps run-to-run spreads small.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import weightlab.cli
import weightlab.rootdata
import weightlab.tensor
from weightlab.charcalc import weyl_dimension
from weightlab.perfectmonoid import MonoidSpec, classify
from weightlab.weyl import orbit_size

from perfbench import DEFAULT_SEED


@dataclass(frozen=True)
class Task:
    key: str                       # identity of the input; digests are keyed by it
    argv: tuple[str, ...] = ()     # CLI arguments (CLI-driven workloads)
    family: str = ""               # tensor-family: which warm datum
    lam: tuple[int, ...] = ()      # tensor-family: the larger factor


@dataclass
class Plan:
    """A workload's generated inputs plus the root data its tasks reuse."""

    name: str
    seed: int
    tasks: list[Task]
    gate_data: dict = field(default_factory=dict)   # type string -> datum, for gates
    warm: dict = field(default_factory=dict)        # tensor-family: family -> datum


@dataclass
class Outcome:
    status: int          # CLI exit code (0 for library tasks)
    output: str          # CLI stdout, or the canonical JSON of sorted summands
    payload: object      # parsed output for the gate


def _fmt(weight) -> str:
    return ",".join(str(x) for x in weight)


def _build(type_string: str, lattice: str = "sc"):
    return weightlab.rootdata.build_root_datum(
        type_string, weightlab.rootdata.LatticeSpec(lattice))


def stratified_pick(candidates: list, k: int, rng: random.Random, cost=None) -> list:
    """k candidates, one from each of k equal slices of the list sorted by
    ``cost``; distinct whenever k <= len(candidates)."""
    ordered = sorted(candidates, key=cost) if cost else list(candidates)
    n = len(ordered)
    if k > n:
        raise ValueError(f"cannot pick {k} distinct inputs from {n} candidates")
    bounds = [round(i * n / k) for i in range(k + 1)]
    return [ordered[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def _cycled(items: list, count: int, rng: random.Random) -> list:
    """``count`` items from seeded permutations, cycled: each item appears
    floor or ceil of count/len times."""
    out = []
    while len(out) < count:
        perm = list(items)
        rng.shuffle(perm)
        out.extend(perm[:count - len(out)])
    return out


# -- chain: construction traces checked step by step -------------------------

CHAIN_HEAVY = ("D5", "A4", "A2xA2")            # from rho, each a few seconds
# regular omega in {1,2}^rank, and how many chains of each type: multiples
# of the number of omegas, so every omega runs equally often and the seed
# sets the order.  The counts put the median and the 90th percentile inside
# dense groups of similar task times, not at the gap between two groups.
CHAIN_SMALL = {"A2": 88, "A1xA2": 88, "D3": 64, "A3": 64}


def _chain_plan(seed: int) -> Plan:
    rng = random.Random(seed)
    tasks = [Task(f"chain|{t}|rho", ("construct", "--type", t, "--check"))
             for t in CHAIN_HEAVY]
    for t, count in CHAIN_SMALL.items():
        rank = weightlab.rootdata.CartanType.parse(t).rank
        omegas = [_fmt(w) for w in product((1, 2), repeat=rank)]
        for omega in _cycled(omegas, count, rng):
            tasks.append(Task(f"chain|{t}|{omega}",
                              ("construct", "--type", t, "--omega", omega, "--check")))
    rng.shuffle(tasks)
    return Plan("chain", seed, tasks)


def _chain_gate(plan: Plan, task: Task, out: Outcome) -> str | None:
    check = out.payload["check"]
    if not check["ok"]:
        return f"chain check failed: {check['failures'][:2]}"
    if check["tensor_checked"] != check["prv_steps"]:
        return f"only {check['tensor_checked']} of {check['prv_steps']} PRV steps confirmed"
    return None


# -- character: weight systems, walk-heavy and recursion-heavy ----------------

CHARACTER_HEAVY = (("D5", "2,2,3,2,0"), ("F4", "1,1,1,1"), ("B5", "1,1,1,1,1"),
                   ("G2", "20,20"), ("B3", "6,6,6"))
# per-type coordinate caps for the seeded weights; a weight is kept only if
# its dimension is at most CHARACTER_DIM_CAP, which bounds every task's cost
CHARACTER_CAPS = {"A1": 12, "A2": 6, "A3": 4, "A4": 2, "A5": 2, "A6": 1,
                  "B2": 6, "B3": 3, "B4": 2, "B5": 1, "B6": 1,
                  "C2": 6, "C3": 3, "C4": 2, "C5": 1, "C6": 1,
                  "D4": 2, "D5": 1, "D6": 1, "E6": 1, "F4": 1, "G2": 6}
CHARACTER_DIM_CAP = 10000
CHARACTER_PER_TYPE = 16


def _character_plan(seed: int) -> Plan:
    rng = random.Random(seed)
    gate_data = {t: _build(t) for t in CHARACTER_CAPS}
    tasks = [Task(f"character|{t}|{w}", ("character", "--type", t, "--weight", w))
             for t, w in CHARACTER_HEAVY]
    for t, cap in CHARACTER_CAPS.items():
        datum = gate_data[t]
        dims = {w: weyl_dimension(datum, w)
                for w in product(range(cap + 1), repeat=datum.rank) if any(w)}
        candidates = [w for w, d in dims.items() if d <= CHARACTER_DIM_CAP]
        k = min(CHARACTER_PER_TYPE, len(candidates))
        for w in stratified_pick(candidates, k, rng, cost=lambda w: (dims[w], w)):
            tasks.append(Task(f"character|{t}|{_fmt(w)}",
                              ("character", "--type", t, "--weight", _fmt(w))))
    rng.shuffle(tasks)
    return Plan("character", seed, tasks, gate_data=gate_data)


def _character_gate(plan: Plan, task: Task, out: Outcome) -> str | None:
    t = task.argv[task.argv.index("--type") + 1]
    datum = plan.gate_data.get(t) or _build(t)
    lam = tuple(out.payload["weight"])
    total = sum(e["mult"] * orbit_size(datum, tuple(e["weight"]))
                for e in out.payload["entries"])
    if total != weyl_dimension(datum, lam):
        return f"sum m*orbit_size = {total} != weyl_dimension {weyl_dimension(datum, lam)}"
    return None


# -- closure: box-truncated perfect closures against their prediction ---------

# (type, box, tasks per lattice); both lattices are used for each
CLOSURE_STRATA = (("A1", 8, 4), ("A2", 6, 6), ("B2", 7, 6), ("G2", 5, 6),
                  ("A1xA1", 6, 6), ("A1xA2", 4, 6), ("A3", 6, 2), ("A3", 4, 6),
                  ("B3", 3, 6), ("C3", 3, 6), ("A4", 3, 2), ("D4", 3, 2))
CLOSURE_LATTICES = ("sc", "adjoint")
CLOSURE_GEN_MAX = 2


def _descriptor(datum, gens):
    desc = classify(MonoidSpec(datum, gens))
    return tuple(sorted(desc.support)), desc.subgroup.members


def _closure_plan(seed: int) -> Plan:
    """Task slots cycle through every monoid a single small generator can
    generate (support plus cocenter subgroup), so a slot's closure is fixed;
    the seed draws the one or two generators that generate it."""
    rng = random.Random(seed)
    tasks = []
    for t, box, count in CLOSURE_STRATA:
        for lattice in CLOSURE_LATTICES:
            datum = _build(t, lattice)
            singles = [w for w in product(range(CLOSURE_GEN_MAX + 1), repeat=datum.rank)
                       if any(w) and weightlab.rootdata.in_lattice(datum, w)]
            targets = sorted({_descriptor(datum, (w,)) for w in singles})
            for slot in range(count):
                target = targets[slot % len(targets)]
                while True:   # ends: a single generator reaches every target
                    gens = tuple(sorted({rng.choice(singles) for _ in range(rng.randint(1, 2))}))
                    if _descriptor(datum, gens) == target:
                        break
                text = ";".join(_fmt(g) for g in gens)
                argv = ("verify", "--type", t, "--lattice", lattice,
                        "--generators", text, "--box", str(box))
                tasks.append(Task(f"closure|{t}|{lattice}|{text}|{box}", argv))
    rng.shuffle(tasks)
    return Plan("closure", seed, tasks)


def _closure_gate(plan: Plan, task: Task, out: Outcome) -> str | None:
    if out.payload["missing_from_prediction"]:
        return f"closure outside prediction: {out.payload['missing_from_prediction'][:3]}"
    return None


# -- tensor-family: many folds against one warm expanded table per family -----

TENSOR_FAMILIES = {"A5": (2, 2, 2, 2, 2), "B4": (2, 2, 2, 2)}
TENSOR_PER_FAMILY = 50
TENSOR_OFFSET_MAX = 2


def _tensor_plan(seed: int) -> Plan:
    rng = random.Random(seed)
    tasks = []
    for fam, mu in TENSOR_FAMILIES.items():
        offsets = [o for o in product(range(TENSOR_OFFSET_MAX + 1), repeat=len(mu)) if any(o)]
        for off in stratified_pick(offsets, TENSOR_PER_FAMILY, rng,
                                   cost=lambda o: (sum(o), o)):
            lam = tuple(m + o for m, o in zip(mu, off))
            tasks.append(Task(f"tensor|{fam}|{_fmt(lam)}|{_fmt(mu)}", family=fam, lam=lam))
    rng.shuffle(tasks)
    return Plan("tensor-family", seed, tasks,
                gate_data={fam: _build(fam) for fam in TENSOR_FAMILIES},
                warm=dict.fromkeys(TENSOR_FAMILIES))


def weyl_dimensions(datum, weights: list) -> list[int]:
    """Weyl's dimension formula for many weights at once; the gate's own
    implementation, independent of the library's."""
    coroots = np.array([a.coroot for a in datum.positive_roots], dtype=np.int64)
    den = math.prod(sum(a.coroot) for a in datum.positive_roots)
    shifted = np.asarray(weights, dtype=np.int64).reshape(-1, datum.rank) + 1
    return [math.prod(row) // den for row in (shifted @ coroots.T).tolist()]


def _tensor_gate(plan: Plan, task: Task, out: Outcome) -> str | None:
    datum = plan.gate_data[task.family]
    mu = TENSOR_FAMILIES[task.family]
    total = sum(m * d for (_, m), d in
                zip(out.payload, weyl_dimensions(datum, [w for w, _ in out.payload])))
    dim_lam, dim_mu = weyl_dimensions(datum, [task.lam, mu])
    if total != dim_lam * dim_mu:
        return f"sum m*dim = {total} != dim(lam)*dim(mu) = {dim_lam * dim_mu}"
    return None


def prepare(plan: Plan) -> None:
    """Build the root data the tasks reuse: fresh and cold before each pass,
    so that every pass does the same work."""
    plan.warm = {fam: _build(fam) for fam in plan.warm}


# -- execution ---------------------------------------------------------------

def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = weightlab.cli.run(list(argv))
    return status, buf.getvalue()


def execute(plan: Plan, task: Task) -> Outcome:
    """Run one task; the caller times this call."""
    if task.argv:
        status, text = run_cli(task.argv)
        return Outcome(status, text, None)
    dec = weightlab.tensor.tensor_decompose(plan.warm[task.family], task.lam,
                                            TENSOR_FAMILIES[task.family])
    return Outcome(0, "", dec)


def finish(out: Outcome) -> Outcome:
    """Canonical output and parsed payload, made outside the timed call."""
    if out.payload is not None:   # library task: canonical sorted summands
        items = [[list(w), m] for w, m in out.payload.sorted_items()]
        return Outcome(out.status, json.dumps(items, separators=(",", ":")), items)
    payload = json.loads(out.output) if out.status in (0, 1) and out.output else None
    return Outcome(out.status, out.output, payload)


def digest(out: Outcome) -> str:
    return hashlib.sha256(out.output.encode()).hexdigest()


def check(plan: Plan, task: Task, out: Outcome, digests: dict | None) -> str | None:
    """None if the task's output passes its workload's gate, else the reason.

    The invariant gate runs at every seed.  A task whose key has a recorded
    digest must match it; at the default seed every key must be recorded.
    """
    if out.status != 0:
        return f"exit {out.status}"
    if out.payload is None:
        return "no output"
    reason = GATES[plan.name](plan, task, out)
    if reason is None and digests is not None:
        recorded = digests.get(task.key)
        if recorded is None:
            if plan.seed == DEFAULT_SEED:
                reason = "no recorded digest at the default seed"
        elif recorded != digest(out):
            reason = "output digest differs from the recorded one"
    return reason


PLANS = {"chain": _chain_plan, "character": _character_plan,
         "closure": _closure_plan, "tensor-family": _tensor_plan}
GATES = {"chain": _chain_gate, "character": _character_gate,
         "closure": _closure_gate, "tensor-family": _tensor_gate}


def make_plan(name: str, seed: int) -> Plan:
    return PLANS[name](seed)
