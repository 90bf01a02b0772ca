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
from .tensor import prv_component, tensor_decompose, tensor_multiplicity
from .weyl import weyl_group_elements

DEFAULT_BOX = 4
DEFAULT_LATTICE = "sc"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# argparse ``type=`` converters.  argparse passes a UsageError through
# unchanged, so its message reaches stderr as written here.

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


def _optional_weight(text: str) -> tuple[int, ...] | None:
    """An empty option value means the verb's default weight."""
    return _parse_weight(text) if text else None


def _parse_support(text: str) -> tuple[int, ...] | None:
    """'all' (None) or the sorted distinct factors of a comma-separated list."""
    if text.strip() == "all":
        return None
    try:
        return tuple(sorted({int(part) for part in text.split(",") if part.strip()}))
    except ValueError:
        raise UsageError(
            f"--support must be 'all' or a comma-separated factor list, got {text!r}") from None


def _int_at_least(low: int):
    """A count or bound of at least ``low``; argparse reports the
    ArgumentTypeError as a usage error that names the option."""
    def convert(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return convert


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


# Each verb maps (args, datum) to (payload, exit status).  A payload's
# "params" holds the verb's own parameters; ``run`` adds type and lattice.

def _decompose(args, datum):
    return tensor_decompose(datum, args.lhs, args.rhs).to_json(), 0


def _character(args, datum):
    char = character(datum, args.weight)
    return {"weight": list(args.weight), "entries": char.to_json(),
            "dimension": char.dimension()}, 0


def _closure(args, datum):
    spec = MonoidSpec(datum, args.generators)
    members = bounded_perfect_closure(spec, Box(args.box))
    return {"params": {"box": args.box}, "spec": spec.to_json(),
            "members": [list(w) for w in sorted(members)]}, 0


def _classify(args, datum):
    spec = MonoidSpec(datum, args.generators)
    return {"spec": spec.to_json(), "descriptor": classify(spec).to_json()}, 0


def _enumerate(args, datum):
    support = range(1, datum.n_factors + 1) if args.support is None else args.support
    descriptors = enumerate_perfect(datum, support)
    return {"params": {"support": list(support)}, "count": len(descriptors),
            "descriptors": [d.to_json() for d in descriptors]}, 0


def _verify(args, datum):
    spec = MonoidSpec(datum, args.generators)
    report = verify_classification(spec, Box(args.box))
    return ({"params": {"box": args.box}, "spec": spec.to_json(), **report.to_json()},
            0 if not report.missing_from_prediction else 1)


def _construct(args, datum):
    if args.factor is not None and args.mu is not None:
        raise UsageError("--mu does not combine with --factor, whose recipe takes no shift")
    omega = args.omega if args.omega is not None else tuple(
        int(args.factor is None or k == args.factor)
        for k, (_, r) in enumerate(datum.ctype.factors, 1) for _ in range(r))
    if args.factor is not None:
        trace = factor_antifixed_sequence(datum, args.factor, omega)
    else:
        mu = args.mu if args.mu is not None else wzero(datum.rank)
        trace = w0_antifixed_weight(datum, omega, mu)
    payload = trace.to_json()
    if not args.check:
        return payload, 0
    report = check_prv_chain(datum, trace)
    payload["check"] = {"ok": report.ok, "prv_steps": report.prv_steps,
                        "tensor_checked": report.tensor_checked,
                        "failures": list(report.failures)}
    return payload, 0 if report.ok else 1


def _prv_check(args, datum):
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
        if not tensor_multiplicity(datum, lam, mu, candidate):
            failures.append({"lhs": list(lam), "rhs": list(mu), "word": list(word),
                             "component": list(candidate)})
    params = {"seed": args.seed, "count": args.count, "max_coord": args.max_coord}
    return ({"params": params, "checked": args.count, "failures": failures},
            0 if not failures else 1)


def build_parser() -> _Parser:
    parser = _Parser(prog="weightlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--stats", action="store_true",
                        help="after the verb, write the datum's work counts to stderr "
                             "as one JSON line")
    subs = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, summary):
        p = subs.add_parser(name, help=summary)
        p.add_argument("--type", required=True, help="Cartan type string, e.g. A2xD4")
        p.add_argument("--lattice", type=_parse_lattice, default=DEFAULT_LATTICE,
                       help="sc | adjoint | JSON lattice spec (default sc)")
        p.set_defaults(handler=handler)
        return p

    p = verb("decompose", _decompose, "tensor product decomposition")
    p.add_argument("--lhs", type=_parse_weight, required=True)
    p.add_argument("--rhs", type=_parse_weight, required=True)

    p = verb("character", _character, "weight system with multiplicities")
    p.add_argument("--weight", type=_parse_weight, required=True)

    p = verb("closure", _closure, "box-truncated perfect closure")
    p.add_argument("--generators", type=_parse_weights, required=True,
                   help="';'-separated weights")
    p.add_argument("--box", type=_int_at_least(1), default=DEFAULT_BOX)

    p = verb("classify", _classify, "symbolic descriptor of the closure")
    p.add_argument("--generators", type=_parse_weights, required=True)

    p = verb("enumerate", _enumerate, "all perfect submonoids with a support")
    p.add_argument("--support", type=_parse_support, default="all",
                   help="'all' or 1-based factor list")

    p = verb("verify", _verify, "closure vs prediction on a box")
    p.add_argument("--generators", type=_parse_weights, required=True)
    p.add_argument("--box", type=_int_at_least(1), default=DEFAULT_BOX)

    p = verb("construct", _construct, "antifixed-weight construction trace")
    p.add_argument("--omega", type=_optional_weight,
                   help="starting weight (default: ones, on factor K alone with --factor K)")
    p.add_argument("--mu", type=_optional_weight, help="optional dominant shift (no --factor)")
    p.add_argument("--factor", type=int,
                   help="run the single-factor recipe on this 1-based factor")
    p.add_argument("--check", action="store_true", help="replay and verify the chain")

    p = verb("prv-check", _prv_check, "randomized summand-membership property run")
    p.add_argument("--count", type=_int_at_least(0), default=100)
    p.add_argument("--max-coord", type=_int_at_least(0), default=4)
    p.add_argument("--seed", type=int, default=0)
    return parser


_PARSER = build_parser()


def run(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
        datum = build_root_datum(args.type, args.lattice)
        payload, status = args.handler(args, datum)
    except UsageError as exc:
        print(json.dumps({"error": str(exc), "kind": "usage"}), file=sys.stderr)
        return 2
    except (RootDataError, ConstructionError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "kind": "input"}), file=sys.stderr)
        return 2
    params = {"type": args.type, "lattice": args.lattice.to_json()}
    _emit(args, {**payload, "params": {**params, **payload.get("params", {})}})
    if args.stats:
        print(json.dumps(datum.stats, sort_keys=True), file=sys.stderr)
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
