"""The benchmark's operations.  An op is one public torusfix call or one
in-process CLI command.  Each op knows the canonical form of its output
(digested for the default seed) and checks its output against an
independent oracle; both happen after the op, outside the timed region."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import torusfix as tf
import torusfix.behavior
import torusfix.cli

import exact

WRONG = "wrong"
ERROR = "error"
TIMEOUT = "timeout"


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def _feed(h, obj) -> None:
    # Integers go through to_bytes: str() of a value over 4300 digits raises.
    if obj is None or isinstance(obj, bool):
        h.update(repr(obj).encode())
    elif isinstance(obj, int):
        h.update(b"i%d:" % ((obj.bit_length() + 8) // 8))
        h.update(obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True))
    elif isinstance(obj, Fraction):
        h.update(b"q")
        _feed(h, obj.numerator)
        _feed(h, obj.denominator)
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"s%d:" % len(data) + data)
    elif isinstance(obj, (list, tuple)):
        h.update(b"l%d:" % len(obj))
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


class Op:
    """Base op.  ``roots`` gives the four eigenvalues (mpmath, lazily) and
    ``poly`` the integer char poly, for the oracle and the composition."""

    limit = 2.0
    known = None  # the reason a listed known defect fails with, if any
    roots = None
    poly = None

    def __init__(self, label: str):
        self.label = label
        self.expected = None

    def run(self):
        raise NotImplementedError

    def finish(self, result):
        """(canonical output or None, small payload kept for the check)."""
        return result, result

    def check(self, payload):
        """None if the output is right, else (WRONG or ERROR, detail)."""
        raise NotImplementedError

    def fix_bits(self, payload) -> int:
        return 0

    def oracle_report(self):
        if self.expected is None and self.roots is not None:
            import oracles

            self.expected = oracles.expected_report(self.roots(oracles.MP))
        return self.expected

    def int_poly(self):
        if self.poly is None and self.roots is not None:
            import oracles

            self.poly = oracles.int_poly_from_roots(self.roots(oracles.MP))
        return self.poly


def report_fields(report) -> dict:
    eig = report.eigen
    return {
        "verdict": report.verdict,
        "n_zero": eig.n_zero, "n_less": eig.n_less, "n_on": eig.n_on, "n_more": eig.n_more,
        "orders": list(eig.unity_orders),
        "outside_sq": [(iv.lo, iv.hi) for iv in eig.outside_moduli],
        "growth": None if report.growth_base is None else (
            report.growth_base.lo, report.growth_base.hi),
        "period": report.period,
        "cycle": None if report.cycle is None else list(report.cycle),
        "r": report.r,
    }


def canonical_report(f: dict):
    return (f["verdict"], f["n_zero"], f["n_less"], f["n_on"], f["n_more"], f["orders"],
            f["growth"], f["period"], f["cycle"], f["r"])


def _compare(op, fields):
    import oracles

    return oracles.compare_report(op.oracle_report(), fields)


class Classify(Op):
    """classify / rm_classify / quat_classify / cm_classify on one input."""

    def __init__(self, label, fn, arg, roots, poly):
        super().__init__(label)
        self.fn, self.arg, self.roots, self.poly = fn, arg, roots, poly

    def run(self):
        return getattr(tf, self.fn)(self.arg)

    def finish(self, report):
        fields = report_fields(report)
        return canonical_report(fields), fields

    def check(self, fields):
        why = _compare(self, fields)
        return None if why is None else (WRONG, why)

    def fix_bits(self, fields):
        return max((abs(v).bit_length() for v in fields["cycle"] or ()), default=0)


class Sequence(Op):
    """fix_sequence(arg, n_max); spot values are checked by det(I - X^n)."""

    limit = 20.0

    def __init__(self, label, arg, n_max, matrix, roots, poly, spots, golden=None):
        super().__init__(label)
        self.arg, self.n_max, self.matrix = arg, n_max, matrix
        self.roots, self.poly, self.golden = roots, poly, golden
        self.spots = sorted({n for n in spots if 1 <= n <= n_max})

    def run(self):
        return tf.fix_sequence(self.arg, self.n_max)

    def finish(self, seq):
        spots = {n: seq[n - 1] for n in self.spots if n <= len(seq)}
        return seq, (len(seq), spots, max(abs(v).bit_length() for v in seq))

    def check(self, payload):
        length, spots, _ = payload
        if length != self.n_max:
            return WRONG, f"{length} values for n_max {self.n_max}"
        if self.golden is not None and [spots[n] for n in sorted(spots)] != self.golden:
            return WRONG, f"differs from the golden {self.golden}"
        for n, value in spots.items():
            if value != exact.fix_by_det(self.matrix, n):
                return WRONG, f"fix(f^{n}) differs from det(I - X^{n})"
        return None

    def fix_bits(self, payload):
        return payload[2]


class Fix(Op):
    """One fixed-point count at a large n: fix_count, rm_fix, quat_fix, cm_fix."""

    def __init__(self, label, fn, arg, n, matrix, roots, poly):
        super().__init__(label)
        self.fn, self.arg, self.n, self.matrix = fn, arg, n, matrix
        self.roots, self.poly = roots, poly

    def run(self):
        return getattr(tf, self.fn)(self.arg, self.n)

    def check(self, value):
        x = self.matrix or exact.companion(self.int_poly())
        if value != exact.fix_by_det(x, self.n):
            return WRONG, f"fix(f^{self.n}) differs from det(I - X^n)"
        return None

    def fix_bits(self, value):
        return abs(value).bit_length()


class B3Pattern(Op):
    """verify_b3_pattern on a quartic built as (cyclotomic) x (off-circle)."""

    limit = 20.0

    def __init__(self, label, arg, report, n_max, roots, poly):
        super().__init__(label)
        self.arg, self.report, self.n_max = arg, report, n_max
        self.roots, self.poly = roots, poly

    def run(self):
        return tf.behavior.verify_b3_pattern(self.arg, self.report, self.n_max)

    def check(self, ok):
        return None if ok is True else (WRONG, f"pattern check returned {ok!r}")


# Expected outcome of an input the CLI must reject with either error exit.
REJECTED = (None, None)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tf.cli.main(argv)
    text = err.getvalue()
    return rc, out.getvalue(), text.split(":", 1)[0] if text else ""


class Cli(Op):
    """One CLI command; ``expect`` is (exit code, stderr prefix) and
    ``check_out`` checks standard output of a successful command."""

    def __init__(self, label, argv, check_out=None, expect=(0, ""), limit=2.0,
                 known=None, roots=None, poly=None):
        super().__init__(label)
        self.argv, self.check_out, self.expect = argv, check_out, expect
        self.limit, self.known, self.roots, self.poly = limit, known, roots, poly
        self.bits = 0  # largest fixed-point count printed, set by check_out

    def run(self):
        return run_cli(self.argv)

    def finish(self, result):
        rc, out, err = result
        return (None if self.known else (rc, out, err)), (rc, out, err)

    def check(self, payload):
        rc, out, err = payload
        if self.expect == REJECTED:
            return None if rc and not out else (WRONG, f"exit {rc} with output {out[:60]!r}")
        if (rc, err) != self.expect:
            if self.expect[0] == 0:
                return ERROR, f"exit {rc} {err}"
            return WRONG, f"exit {rc} {err!r} with output {out[:60]!r}, expected {self.expect}"
        if self.check_out is None:
            return None
        try:
            why = self.check_out(self, out)
        except (ValueError, KeyError, IndexError) as exc:
            why = f"unparsable output: {exc}"
        return None if why is None else (WRONG, why)

    def fix_bits(self, payload):
        return self.bits


# -- output parsers for CLI checks ------------------------------------------------


def _interval(text: str):
    lo, hi = text.strip().strip("[]").split(",")
    return Fraction(lo.strip()), Fraction(hi.strip())


def parse_text_report(out: str) -> dict:
    f = {"orders": [], "growth": None, "period": None, "cycle": None, "r": None}
    for line in out.splitlines():
        key, _, val = line.partition(": ")
        if key == "verdict":
            f["verdict"] = val
        elif key == "eigenvalue census":
            counts = [int(part.split()[0]) for part in val.split(", ")]
            f["n_zero"], f["n_less"], f["n_on"], f["n_more"] = counts
        elif key == "root-of-unity orders":
            f["orders"] = json.loads(val)
        elif key == "growth base":
            f["growth"] = _interval(val)
        elif key == "period":
            f["period"] = int(val)
        elif key == "cycle":
            f["cycle"] = json.loads(val)
        elif line.startswith("zero exactly when n = 0 (mod "):
            f["r"] = int(line.rsplit(" ", 1)[1].rstrip(")"))
    return f


def parse_json_report(out: str) -> dict:
    doc = json.loads(out)
    eig = doc["eigen"]
    return {
        "verdict": doc["verdict"],
        "n_zero": eig["n_zero"], "n_less": eig["n_less"], "n_on": eig["n_on"],
        "n_more": eig["n_more"], "orders": eig["unity_orders"],
        "outside_sq": [(Fraction(lo), Fraction(hi)) for lo, hi in eig["outside_moduli_squared"]],
        "growth": None if "growth_base" not in doc else tuple(map(Fraction, doc["growth_base"])),
        "period": doc.get("period"), "cycle": doc.get("cycle"), "r": doc.get("r"),
    }


def check_text_report(op, out):
    return _compare(op, parse_text_report(out))


def check_json_report(op, out):
    return _compare(op, parse_json_report(out))
