"""Command line interface.

Verbs map one-to-one onto library operations; every report is deterministic
for fixed inputs and seed (sorted serializations throughout).  Exit codes:
0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import __version__
from .charcalc import character
from .constructions import (ConstructionError, check_prv_chain,
                            factor_antifixed_sequence, w0_antifixed_weight)
from .perfectmonoid import (Box, MonoidSpec, bounded_perfect_closure, classify,
                            enumerate_perfect, verify_classification)
from .rootdata import LatticeSpec, RootDataError, build_root_datum, wzero
from .tensor import prv_component, tensor_decompose, x_support
from .weyl import weyl_group_elements

DEFAULT_BOX = 4
DEFAULT_LATTICE = "sc"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_weight(text: str) -> tuple[int, ...]:
    cleaned = text.replace("|", ",").strip()
    if not cleaned:
        return ()
    try:
        return tuple(int(part) for part in cleaned.split(","))
    except ValueError as exc:
        raise UsageError(f"malformed weight {text!r}: {exc}") from None


def _parse_weights(text: str) -> tuple[tuple[int, ...], ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_weight(part) for part in text.split(";") if part.strip())


def _parse_lattice(text: str) -> LatticeSpec:
    text = text.strip()
    if text.startswith("{"):
        try:
            return LatticeSpec.from_json(json.loads(text))
        except (json.JSONDecodeError, RootDataError) as exc:
            raise UsageError(f"bad lattice spec: {exc}") from None
    if text in ("sc", "adjoint"):
        return LatticeSpec(text)
    raise UsageError(f"lattice must be 'sc', 'adjoint' or a JSON object, got {text!r}")


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        _emit_text(payload)


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _emit_text(item, indent + 1)
        else:
            print(f"{pad}{key}: {_fmt(value)}")


def _fmt(value):
    if isinstance(value, list):
        return "[" + " ".join(str(_fmt(v)) for v in value) + "]"
    return value


def _params(args, **extra) -> dict:
    out = {"type": args.type, "lattice": _parse_lattice(args.lattice).to_json()}
    out.update(extra)
    return out


def _build(args):
    return build_root_datum(args.type, _parse_lattice(args.lattice))


def _add_common(sub):
    sub.add_argument("--type", required=True, help="Cartan type string, e.g. A2xD4")
    sub.add_argument("--lattice", default=DEFAULT_LATTICE,
                     help="sc | adjoint | JSON lattice spec (default sc)")


def build_parser() -> _Parser:
    parser = _Parser(prog="weightlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("decompose", help="tensor product decomposition")
    _add_common(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = subs.add_parser("character", help="weight system with multiplicities")
    _add_common(p)
    p.add_argument("--weight", required=True)

    p = subs.add_parser("closure", help="box-truncated perfect closure")
    _add_common(p)
    p.add_argument("--generators", required=True, help="';'-separated weights")
    p.add_argument("--box", type=int, default=DEFAULT_BOX)

    p = subs.add_parser("classify", help="symbolic descriptor of the closure")
    _add_common(p)
    p.add_argument("--generators", required=True)

    p = subs.add_parser("enumerate", help="all perfect submonoids with a support")
    _add_common(p)
    p.add_argument("--support", default="all", help="'all' or 1-based factor list")

    p = subs.add_parser("verify", help="closure vs prediction on a box")
    _add_common(p)
    p.add_argument("--generators", required=True)
    p.add_argument("--box", type=int, default=DEFAULT_BOX)

    p = subs.add_parser("construct", help="antifixed-weight construction trace")
    _add_common(p)
    p.add_argument("--omega", default="", help="starting weight (default: all ones)")
    p.add_argument("--mu", default="", help="optional dominant shift")
    p.add_argument("--factor", type=int, default=0,
                   help="run the single-factor recipe on this 1-based factor")
    p.add_argument("--check", action="store_true", help="replay and verify the chain")

    p = subs.add_parser("prv-check", help="randomized summand-membership property run")
    _add_common(p)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-coord", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_decompose(args) -> int:
    datum = _build(args)
    dec = tensor_decompose(datum, _parse_weight(args.lhs), _parse_weight(args.rhs))
    _emit(args, {"params": _params(args), **dec.to_json()})
    return 0


def _cmd_character(args) -> int:
    datum = _build(args)
    char = character(datum, _parse_weight(args.weight))
    _emit(args, {"params": _params(args), "weight": list(_parse_weight(args.weight)),
                 "entries": char.to_json(), "dimension": char.dimension()})
    return 0


def _cmd_closure(args) -> int:
    datum = _build(args)
    spec = MonoidSpec(datum, _parse_weights(args.generators))
    members = bounded_perfect_closure(spec, Box(args.box))
    _emit(args, {"params": _params(args, box=args.box), "spec": spec.to_json(),
                 "members": [list(w) for w in sorted(members)]})
    return 0


def _cmd_classify(args) -> int:
    datum = _build(args)
    spec = MonoidSpec(datum, _parse_weights(args.generators))
    desc = classify(spec)
    _emit(args, {"params": _params(args), "spec": spec.to_json(),
                 "descriptor": desc.to_json()})
    return 0


def _cmd_enumerate(args) -> int:
    datum = _build(args)
    if args.support == "all":
        support = range(1, datum.n_factors + 1)
    else:
        support = [int(x) for x in args.support.split(",") if x.strip()]
    descriptors = enumerate_perfect(datum, support)
    _emit(args, {"params": _params(args, support=sorted(support)),
                 "count": len(descriptors),
                 "descriptors": [d.to_json() for d in descriptors]})
    return 0


def _cmd_verify(args) -> int:
    datum = _build(args)
    spec = MonoidSpec(datum, _parse_weights(args.generators))
    report = verify_classification(spec, Box(args.box))
    _emit(args, {"params": _params(args, box=args.box), "spec": spec.to_json(),
                 **report.to_json()})
    return 0 if not report.missing_from_prediction else 1


def _cmd_construct(args) -> int:
    datum = _build(args)
    omega = _parse_weight(args.omega) if args.omega else (1,) * datum.rank
    mu = _parse_weight(args.mu) if args.mu else wzero(datum.rank)
    if args.factor:
        trace = factor_antifixed_sequence(datum, args.factor, omega)
    else:
        trace = w0_antifixed_weight(datum, omega, mu)
    payload = {"params": _params(args), **trace.to_json()}
    status = 0
    if args.check:
        report = check_prv_chain(datum, trace)
        payload["check"] = {"ok": report.ok, "prv_steps": report.prv_steps,
                            "tensor_checked": report.tensor_checked,
                            "failures": list(report.failures)}
        status = 0 if report.ok else 1
    _emit(args, payload)
    return status


def _cmd_prv_check(args) -> int:
    datum = _build(args)
    rng = random.Random(args.seed)
    words = weyl_group_elements(datum) if datum.weyl_order <= 1000 else None
    failures = []
    for _ in range(args.count):
        lam = tuple(rng.randrange(args.max_coord + 1) for _ in range(datum.rank))
        mu = tuple(rng.randrange(args.max_coord + 1) for _ in range(datum.rank))
        if words is not None:
            word = rng.choice(words)
        else:
            word = tuple(rng.randrange(1, datum.rank + 1)
                         for _ in range(rng.randrange(0, 3 * datum.rank)))
        candidate = prv_component(datum, lam, mu, word)
        if candidate not in x_support(datum, lam, mu):
            failures.append({"lhs": list(lam), "rhs": list(mu), "word": list(word),
                             "component": list(candidate)})
    _emit(args, {"params": _params(args, seed=args.seed, count=args.count,
                                   max_coord=args.max_coord),
                 "checked": args.count, "failures": failures})
    return 0 if not failures else 1


_COMMANDS = {
    "decompose": _cmd_decompose,
    "character": _cmd_character,
    "closure": _cmd_closure,
    "classify": _cmd_classify,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "construct": _cmd_construct,
    "prv-check": _cmd_prv_check,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.verb](args)
    except UsageError as exc:
        print(json.dumps({"error": str(exc), "kind": "usage"}), file=sys.stderr)
        return 2
    except (RootDataError, ConstructionError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "kind": "input"}), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
