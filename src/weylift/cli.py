"""Command-line interface: JSON in, JSON report out.

Every run prints one report object: schema tag, the command, a digest
of the loaded inputs and determining flags, the result, verification
flags, and timing.  With the same seed the report is byte-identical
except for the timing field.  Exit codes: 0 success, 2 verification
failure, 1 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .approx import approximate
from .charp import phi_p
from .endo import bracket_violations, jacobian_is_unit, truncated_inverse
from .errors import ExpansionBoundExceeded, ExprSyntaxError, UnknownGenerator, WeyliftError
from .fields import Field
from .flavors import BracketFlavor
from .grammar import element_to_text, parse_element
from .poly import Poly, poisson_bracket
from .serialize import (
    SCHEMA,
    digest,
    dump_json,
    endo_from_json,
    endo_to_json,
    load_json,
    word_from_json,
    word_to_json,
)
from .singlift import hn_scan, lift
from .tame import evaluate, invert_word, random_tame
from .weyl import WeylElt, weyl_commutator


class UsageError(Exception):
    """Bad flags or unreadable input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_field(text, accepted="a prime"):
    """Field("Fp", p) from a flag value, or a usage error naming what is accepted."""
    try:
        return Field("Fp", int(text))
    except (ValueError, WeyliftError) as exc:
        raise UsageError(f"expected {accepted}, got {text!r}: {exc}") from exc


def _int_at_least(floor):
    """argparse type for an int flag no smaller than floor."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"expected an integer >= {floor}, got {value}")
        return value

    return parse


def _parse_field(text):
    if text in (None, "Q", "q"):
        return Field("Q")
    return _finite_field(text, "Q or a prime")


def _parse_primes(text):
    return tuple(_finite_field(p).p for p in text.split(",") if p)


def _load(path, loader):
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return doc, loader(doc)
    except (WeyliftError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad document {path}: {exc}") from exc


def _maybe_out(args, payload):
    if getattr(args, "out", None):
        dump_json(payload, args.out)


# ------------------------------------------------------------- handlers


def _cmd_check(args):
    doc, endo = _load(args.endo, endo_from_json)
    if args.side and args.side != endo.side:
        raise UsageError(f"endo is side {endo.side}, not {args.side}")
    inputs = {"endo": doc}
    ok = not bracket_violations(endo)
    if endo.side == "P":
        result = {"symplecto": ok}
        if ok:
            result["jacobian"] = endo.field.format_raw(jacobian_is_unit(endo))
    else:
        result = {"weyl": ok}
    return inputs, result, {"checked": True}, ok


def _cmd_compose(args):
    doc_a, a = _load(args.inputs[0], endo_from_json)
    doc_b, b = _load(args.inputs[1], endo_from_json)
    out = a.compose(b)
    payload = endo_to_json(out)
    _maybe_out(args, payload)
    return {"a": doc_a, "b": doc_b}, {"endo": payload}, {}, True


def _cmd_invert(args):
    doc, loaded = _load(
        args.endo, lambda d: word_from_json(d) if "gens" in d else endo_from_json(d)
    )
    if "gens" in doc:
        payload = word_to_json(invert_word(loaded))
        _maybe_out(args, payload)
        return {"word": doc}, {"word": payload}, {"exact": True}, True
    endo = loaded
    if args.order is None:
        raise UsageError("--order is required to invert an endomorphism")
    inv = truncated_inverse(endo, args.order)
    payload = endo_to_json(inv)
    _maybe_out(args, payload)
    verification = {"order": args.order, "two_sided": True}
    return {"endo": doc, "order": args.order}, {"endo": payload}, verification, True


def _cmd_approximate(args):
    doc, endo = _load(args.endo, endo_from_json)
    word, report = approximate(endo, args.order, tie_break=args.tie_break)
    payload = word_to_json(word)
    _maybe_out(args, payload)
    inputs = {"endo": doc, "order": args.order, "tie_break": args.tie_break}
    verification = {
        "residual_height": report["residual_height"],
        "stages": report["stages"],
    }
    height = report["residual_height"]
    ok = height is None or height >= args.order
    return inputs, {"word": payload, "report": report}, verification, ok


def _cmd_phi_p(args):
    doc, endo = _load(args.endo, endo_from_json)
    field = _finite_field(args.prime)
    if endo.field.char not in (0, args.prime):
        raise UsageError(
            f"endo field has characteristic {endo.field.p}, not {args.prime}"
        )
    center = phi_p(endo, field)
    payload = endo_to_json(center)
    _maybe_out(args, payload)
    ok = not bracket_violations(center)
    result = {
        "endo": payload,
        "images": [element_to_text(img, "P") for img in center.images],
    }
    return {"endo": doc, "prime": args.prime}, result, {"symplecto": ok}, ok


def _cmd_lift(args):
    doc, endo = _load(args.endo, endo_from_json)
    if args.order < 2:
        raise UsageError(f"lift needs --order 2 or more, got {args.order}")
    primes = _parse_primes(args.primes) if args.primes else ()
    lifted, certificate = lift(endo, args.order, primes)
    payload = endo_to_json(lifted)
    _maybe_out(args, payload)
    inputs = {"endo": doc, "order": args.order, "primes": list(primes)}
    result = {"endo": payload, "certificate": certificate}
    return inputs, result, certificate, bool(certificate["pass"])


def _cmd_singscan(args):
    doc, endo = _load(args.endo, endo_from_json)
    if args.samples and args.seed is None:
        raise UsageError("--seed is required when sampling random curves")
    verdict = hn_scan(endo, args.order, args.samples, args.seed or 0)
    if verdict.consistent:
        result = {"verdict": "ConsistentWithHN"}
    else:
        result = {"verdict": "PoleWitness", "curve": list(verdict.curve.weights)}
        if verdict.reduction:
            result["reduction"] = list(verdict.reduction)
    inputs = {
        "endo": doc,
        "order": args.order,
        "samples": args.samples,
        "seed": args.seed,
    }
    return inputs, result, {"order": args.order}, True


def _cmd_bracket(args):
    field = _parse_field(args.field)
    flavor = BracketFlavor(args.flavor, args.n)
    cls = WeylElt if args.side == "W" else Poly
    try:
        a = parse_element(args.exprs[0], field, flavor, args.side, cls)
        b = parse_element(args.exprs[1], field, flavor, args.side, cls)
    except (ExprSyntaxError, UnknownGenerator) as exc:
        raise UsageError(str(exc)) from exc
    except ExpansionBoundExceeded as exc:
        raise UsageError(f"ExpansionBoundExceeded: {exc}") from exc
    out = weyl_commutator(a, b) if args.side == "W" else poisson_bracket(a, b)
    inputs = {
        "a": args.exprs[0],
        "b": args.exprs[1],
        "side": args.side,
        "flavor": args.flavor,
        "n": args.n,
        "field": field.to_json(),
    }
    return inputs, {"bracket": element_to_text(out, args.side)}, {}, True


def _cmd_corpus(args):
    if args.seed is None:
        raise UsageError("--seed is required")
    field = Field("Q")
    flavor = BracketFlavor("standard", args.n)
    items = []
    for i in range(args.count):
        word = random_tame(args.n, args.length, args.maxdeg, args.seed + i)
        endo = evaluate(word, "P", flavor, field)
        items.append({"word": word_to_json(word), "endo": endo_to_json(endo)})
    payload = {"items": items}
    _maybe_out(args, payload)
    inputs = {
        "seed": args.seed,
        "count": args.count,
        "n": args.n,
        "length": args.length,
        "maxdeg": args.maxdeg,
    }
    return inputs, payload, {"count": len(items)}, True


# ------------------------------------------------------------ dispatcher


def build_parser():
    parser = _Parser(prog="weylift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("check", _cmd_check, help="verify bracket preservation of an endo")
    p.add_argument("--endo", "--in", dest="endo", required=True)
    p.add_argument("--side", choices=("P", "W"))

    p = add("compose", _cmd_compose, help="compose two endos (first after second)")
    p.add_argument("inputs", nargs=2, metavar="ENDO")
    p.add_argument("--out")

    p = add("invert", _cmd_invert, help="invert a word exactly or an endo truncated")
    p.add_argument("--endo", "--in", dest="endo", required=True)
    p.add_argument("--order", type=_int_at_least(1))
    p.add_argument("--out")

    p = add("approximate", _cmd_approximate, help="staged tame approximation")
    p.add_argument("--endo", "--in", dest="endo", required=True)
    p.add_argument("--order", type=_int_at_least(1), required=True)
    p.add_argument("--tie-break", choices=("lex", "alt"), default="lex")
    p.add_argument("--out")

    p = add("phi-p", _cmd_phi_p, help="fixed-prime center morphism")
    p.add_argument("--endo", "--in", dest="endo", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--out")

    p = add("lift", _cmd_lift, help="ordered-side lift with certificate")
    p.add_argument("--endo", "--in", dest="endo", required=True)
    p.add_argument("--order", type=_int_at_least(1), required=True)
    p.add_argument("--primes")
    p.add_argument("--out")

    p = add("singscan", _cmd_singscan, help="pole scan under diagonal curves")
    p.add_argument("--endo", "--in", dest="endo", required=True)
    p.add_argument("--order", type=_int_at_least(1), required=True)
    p.add_argument("--samples", type=_int_at_least(0), default=0)
    p.add_argument("--seed", type=int)

    p = add("bracket", _cmd_bracket, help="bracket or commutator of expressions")
    p.add_argument("exprs", nargs=2, metavar="EXPR")
    p.add_argument("--side", choices=("P", "W"), default="P")
    p.add_argument("--flavor", choices=("standard", "haug", "skew"), default="standard")
    p.add_argument("--n", type=_int_at_least(1), default=1)
    p.add_argument("--field", default="Q", help="Q or a prime p for F_p")

    p = add("corpus", _cmd_corpus, help="reproducible random word corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_int_at_least(0), default=8)
    p.add_argument("--n", type=_int_at_least(1), default=1)
    p.add_argument("--length", type=_int_at_least(0), default=3)
    p.add_argument("--maxdeg", type=_int_at_least(2), default=2)
    p.add_argument("--out")

    return parser


def run_command(argv):
    """Execute one command; returns (report, exit_code)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        return {"schema": SCHEMA, "error": {"usage": str(exc)}}, 1
    start = time.perf_counter()
    try:
        inputs, result, verification, ok = args.fn(args)
    except UsageError as exc:
        return {"schema": SCHEMA, "error": {"usage": str(exc)}}, 1
    except WeyliftError as exc:
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        return report, 2
    elapsed = int((time.perf_counter() - start) * 1000)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs_digest": digest(inputs),
        "result": result,
        "verification": verification,
        "timing_ms": elapsed,
    }
    return report, 0 if ok else 2


def main(argv=None):
    report, code = run_command(sys.argv[1:] if argv is None else argv)
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
