"""Command-line front end.

Commands: classify, sequence, algebra {rm|quat|cm} {classify|fix},
examples [name], table --kind {quaternion|cm}, search-small --eps p/q.

Exit codes: 0 on success, 2 on structural/validation errors (the error
class name goes to standard error), 1 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import algebras, behavior
from .algebras import (
    CMElement,
    CMFieldDesc,
    QuaternionElement,
    RealQuadElement,
    builtin_examples,
    cm_classify,
    cm_fix,
    find_small_eigenvalue_parameter,
    periodic_eigenvalue_table,
    quat_classify,
    quat_fix,
    quat_one_root_periodicity_criterion,
    quaternion_element,
    rm_classify,
    rm_fix,
)
from .endomorphisms import (
    AnalyticRep,
    RationalRep,
    _fix_iterates,
    char_poly_rational,
)
from .errors import TorusFixError
from .polynomials import IntPolynomial, parse_poly, serialize_poly
from .unitcircle import CharPolyQuartic


class InputFormatError(Exception):
    """Malformed command-line or JSON input (exit code 1)."""


# -- inline and JSON parsing ----------------------------------------------------


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"not a rational number: {text!r}") from exc


def _format_fraction(q: Fraction) -> str:
    return str(q)  # Fraction prints "p/q", or "p" when integral


def _parse_analytic_entry(text: str) -> tuple[Fraction, Fraction]:
    parts = str(text).split(",")
    if len(parts) == 1:
        return _fraction(parts[0]), Fraction(0)
    if len(parts) == 2:
        return _fraction(parts[0]), _fraction(parts[1])
    raise InputFormatError(f"analytic entry must be 'u' or 'u,v': {text!r}")


def parse_analytic_inline(text: str, field: int) -> AnalyticRep:
    """Row-major 'u,v' pairs separated by ';' with u + v*sqrt(field)."""
    entries = [_parse_analytic_entry(cell) for cell in text.split(";")]
    if len(entries) != 4:
        raise InputFormatError("analytic matrix needs 4 ';'-separated entries")
    return AnalyticRep(field, [entries[:2], entries[2:]])


def parse_matrix_inline(text: str) -> RationalRep:
    rows = text.split(";")
    if len(rows) != 4:
        raise InputFormatError("rational matrix needs 4 ';'-separated rows")
    try:
        matrix = [[int(x) for x in row.split(",")] for row in rows]
        return RationalRep(matrix)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def _parse_poly_checked(text: str) -> IntPolynomial:
    if not isinstance(text, str):
        raise InputFormatError(f"polynomial must be a string such as '1,-1,1', got {text!r}")
    try:
        return parse_poly(text)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def _element_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise InputFormatError(f"algebra element must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    try:
        if kind == "real_quad":
            return RealQuadElement(doc["d"], doc["a"], doc["b"])
        if kind == "quaternion":
            a, b, c, d = (_fraction(x) for x in doc["coeffs"])
            return quaternion_element(
                _fraction(doc["alpha"]), _fraction(doc["beta"]), a, b, c, d
            )
        if kind == "cm":
            field = CMFieldDesc(_parse_poly_checked(doc["g"]))
            return CMElement(field, [_fraction(x) for x in doc["coords"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad {kind} element: {exc}") from exc
    raise InputFormatError(f"unknown algebra kind: {kind!r}")


def parse_input(document: str):
    """JSON document -> endomorphism input or algebra element; the command
    that uses it validates the quartic's structure in its own pass."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError("top-level JSON object required")
    kind = doc.get("kind")
    try:
        if kind == "char_poly":
            e = CharPolyQuartic(_parse_poly_checked(doc["poly"]))
        elif kind == "rational_rep":
            e = RationalRep(doc["matrix"])
        elif kind == "analytic_rep":
            entries = [
                [_parse_analytic_entry(cell) for cell in row]
                for row in doc["matrix"]
            ]
            e = AnalyticRep(doc["field"], entries)
        elif kind == "algebra":
            e = _element_from_dict(doc["element"])
        elif kind in ("real_quad", "quaternion", "cm"):
            e = _element_from_dict(doc)
        else:
            raise InputFormatError(f"unknown input kind: {kind!r}")
    except InputFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad {kind} document: {exc}") from exc
    return e


def serialize(e) -> dict:
    """Inverse of parse_input on the supported input types."""
    if isinstance(e, CharPolyQuartic):
        return {"kind": "char_poly", "poly": serialize_poly(e.poly)}
    if isinstance(e, RationalRep):
        return {"kind": "rational_rep", "matrix": [list(r) for r in e.matrix]}
    if isinstance(e, AnalyticRep):
        return {
            "kind": "analytic_rep",
            "field": e.field_param,
            "matrix": [
                [f"{_format_fraction(c.u)},{_format_fraction(c.v)}" for c in row]
                for row in e.matrix
            ],
        }
    if isinstance(e, RealQuadElement):
        return {"kind": "real_quad", "d": e.d, "a": e.a, "b": e.b}
    if isinstance(e, QuaternionElement):
        return {
            "kind": "quaternion",
            "alpha": _format_fraction(e.algebra.alpha),
            "beta": _format_fraction(e.algebra.beta),
            "coeffs": [_format_fraction(c) for c in (e.a, e.b, e.c, e.d)],
        }
    if isinstance(e, CMElement):
        return {
            "kind": "cm",
            "g": serialize_poly(e.field.defining_poly),
            "coords": [_format_fraction(c) for c in e.coords],
        }
    raise TypeError(f"cannot serialize {e!r}")


def _input_from_args(args) -> object:
    chosen = [
        name
        for name, val in (
            ("--charpoly", args.charpoly),
            ("--matrix", args.matrix),
            ("--analytic", args.analytic),
            ("--input", args.input),
        )
        if val is not None
    ]
    if len(chosen) != 1:
        raise InputFormatError(
            "exactly one of --charpoly, --matrix, --analytic, --input required"
        )
    if args.charpoly is not None:
        return CharPolyQuartic(_parse_poly_checked(args.charpoly))
    if args.matrix is not None:
        return parse_matrix_inline(args.matrix)
    if args.analytic is not None:
        field = args.field if args.field is not None else 1
        return parse_analytic_inline(args.analytic, field)
    text = sys.stdin.read() if args.input == "-" else args.input
    return parse_input(text)


# -- report rendering -----------------------------------------------------------


def _print_report(report: behavior.BehaviorReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict()))
        return
    print(f"verdict: {report.verdict}")
    eig = report.eigen
    print(
        "eigenvalue census: "
        f"{eig.n_zero} zero, {eig.n_less} inside, {eig.n_on} on, "
        f"{eig.n_more} outside the unit circle"
    )
    if eig.unity_orders:
        print(f"root-of-unity orders: {sorted(eig.unity_orders)}")
    if report.growth_base is not None:
        print(f"growth base: {report.growth_base}")
    if report.period is not None:
        print(f"period: {report.period}")
        print(f"cycle: {list(report.cycle)}")
    if report.r is not None:
        print(f"zero exactly when n = 0 (mod {report.r})")


# -- subcommand implementations ---------------------------------------------------


def _cmd_classify(args) -> int:
    e = _input_from_args(args)
    _print_report(behavior.classify(e), args.json)
    return 0


def _cmd_sequence(args) -> int:
    # the bytes of print(list) and json.dumps; each value is converted as it
    # comes, so one past the int-to-str limit stops the generation there
    body = ", ".join(map(str, _fix_iterates(_input_from_args(args), args.n_max)))
    print(f'{{"fix": [{body}]}}' if args.json else f"[{body}]")
    return 0


_ALGEBRA_OPS = {
    "rm": (RealQuadElement, rm_classify, rm_fix),
    "quat": (QuaternionElement, quat_classify, quat_fix),
    "cm": (CMElement, cm_classify, cm_fix),
}


def _cmd_algebra(args) -> int:
    cls, classify_op, fix_op = _ALGEBRA_OPS[args.family]
    text = sys.stdin.read() if args.element == "-" else args.element
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from exc
    x = _element_from_dict(doc)
    if not isinstance(x, cls):
        raise InputFormatError(
            f"element kind {doc.get('kind')!r} does not match family {args.family!r}"
        )
    if args.action == "fix":
        value = fix_op(x, args.n_max)
        print(json.dumps({"n": args.n_max, "fix": value}) if args.json else value)
        return 0
    report = classify_op(x)
    if args.family == "quat" and not args.json:
        sat = quat_one_root_periodicity_criterion(x)
        print(f"one-root periodicity criterion: {'satisfied' if sat else 'unsatisfied'}")
    _print_report(report, args.json)
    return 0


def _cmd_examples(args) -> int:
    named = builtin_examples()
    if args.name is None:
        if args.json:
            print(json.dumps(sorted(named)))
        else:
            for name in sorted(named):
                print(name)
        return 0
    if args.name not in named:
        raise InputFormatError(
            f"unknown example {args.name!r}; choices: {', '.join(sorted(named))}"
        )
    e = named[args.name]
    p = char_poly_rational(e)
    report = behavior.classify(e)
    if args.json:
        print(json.dumps({
            "name": args.name,
            "input": serialize(e),
            "char_poly": serialize_poly(p.poly),
            "report": report.to_dict(),
        }))
        return 0
    print(f"{args.name}: char poly {p}")
    _print_report(report, as_json=False)
    return 0


def _cmd_table(args) -> int:
    polys = periodic_eigenvalue_table(args.kind)
    if args.json:
        print(json.dumps([serialize_poly(p) for p in polys]))
    else:
        for p in polys:
            print(serialize_poly(p))
    return 0


def _cmd_search_small(args) -> int:
    eps = _fraction(args.eps)
    try:
        a = find_small_eigenvalue_parameter(eps)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    print(json.dumps({"eps": str(eps), "a": a}) if args.json else a)
    return 0


# -- argument parsing -------------------------------------------------------------


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--charpoly", help="ascending coefficients 'c0,c1,c2,c3,c4'")
    sub.add_argument("--matrix", help="4x4 integer matrix, rows ';'-separated")
    sub.add_argument(
        "--analytic",
        help="2x2 matrix of 'u,v' entries (u+v*sqrt(m)), ';'-separated row-major",
    )
    sub.add_argument("--field", type=int, help="square-free m for --analytic")
    sub.add_argument("--input", help="JSON input document, or '-' for stdin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusfix",
        description="Exact fixed-point counts and growth classification for "
        "endomorphisms of two-dimensional complex tori.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide B1/B2/B3 with a certificate")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sequence", help="fix(f^n) for n = 1..n_max")
    _add_input_flags(p)
    p.add_argument("-n", "--n-max", dest="n_max", type=int, required=True)
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("algebra", help="operate on simple-surface algebra elements")
    p.add_argument("family", choices=("rm", "quat", "cm"))
    p.add_argument("action", choices=("classify", "fix"))
    p.add_argument("--element", required=True, help="element JSON, or '-' for stdin")
    p.add_argument("-n", "--n-max", dest="n_max", type=int, default=1)
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("examples", help="list or inspect built-in examples")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("table", help="minimal polynomials of periodic eigenvalues")
    p.add_argument("--kind", choices=("quaternion", "cm"), required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "search-small", help="least a with a root of t^4+at^2+t+1 of modulus < eps"
    )
    p.add_argument("--eps", required=True, help="rational threshold p/q in (0, 1]")
    p.set_defaults(func=_cmd_search_small)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TorusFixError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
