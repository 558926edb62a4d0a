"""Differential check: the checkout against another tree, result by result.

    python tools/diff.py                     # against HEAD
    python tools/diff.py --against HEAD^1    # a git revision
    python tools/diff.py --against DIR       # a copy with its own src/
    python tools/diff.py --wide              # adds the 64-384-bit Z[i] stratum

A revision is checked out with ``git worktree`` on a temporary path and
removed afterwards.  Each side runs this file with ``--emit`` in a fresh
interpreter whose PYTHONPATH is that side's ``src``; the corpora are drawn
from fixed seeds with the standard library alone, so both sides see the same
inputs.  Compared, per input: ``classify(...).to_dict()`` JSON (or the
algebra classifier's), and for every quartic ``count_roots_by_modulus`` and
``mahler_measure_interval`` at widths 1/3 and 2^-40, and ``refine_root`` on
each real root of each square-free factor at widths 1/3, 2^-40 and 2^-160;
an exception counts as its class name.  Then the CLI's exit code, stdout and
stderr on a fixed sample: every 25th input through ``classify`` and
``sequence`` (``algebra ... classify`` and ``fix`` for the algebra kinds),
as text and as ``--json``, and ``sequence`` past the 4300-digit int-to-str
limit.  Prints the result count and the first difference; exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = os.path.abspath(__file__)
ROOT = os.path.dirname(os.path.dirname(HERE))
WIDTHS = (Fraction(1, 3), Fraction(1, 2 ** 40))
REFINE_WIDTHS = (Fraction(1, 3), Fraction(1, 2 ** 40), Fraction(1, 2 ** 160))
CLI_EVERY = 25
STR_DIGITS = 4300  # CPython's default int-to-str limit, pinned on both sides

NEG_FIELDS = (-1, -2, -3, -5, -6, -7, -10, -11)
RM_D = (2, 3, 5, 6, 7, 10, 11, 13)
QUAT_SYMBOLS = ((2, 3), (3, 2), (2, -3), (-3, 2), (5, 2), (2, 5), (3, -1), (7, 3))
CM_G = ((1, 1, 1, 1, 1), (1, 0, 0, 0, 1), (1, -1, 1, -1, 1), (1, 0, -1, 0, 1),
        (1, 0, 3, 0, 1), (2, 0, 5, 0, 1), (3, 0, 7, 0, 1), (1, 0, 5, 0, 1))
CYCLOTOMIC = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1),
              6: (1, -1, 1), 8: (1, 0, 0, 0, 1), 10: (1, -1, 1, -1, 1), 12: (1, 0, -1, 0, 1)}
B2_PRODUCTS = ((5,), (8,), (10,), (12,), (3, 3), (3, 4), (3, 6), (4, 4), (4, 6), (6, 6),
               (2, 2, 3), (2, 2, 4), (2, 2, 6), (2, 2, 2, 2), (1, 1, 3), (1, 1, 2, 2))
B3_CIRCLE = ((3,), (4,), (6,), (2, 2))
WIDE_BITS = ((64, 8), (128, 6), (256, 3), (384, 2))


# -- corpora: plain data from fixed seeds ---------------------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def analytic(rng, span, vspan=2, fields=NEG_FIELDS + (1,)):
    m = rng.choice(fields)
    return m, [[(rng.randint(-span, span), rng.randint(-vspan, vspan) if m != 1 else 0)
                for _ in range(2)] for _ in range(2)]


def quadratic(rng, real):
    """(c, b, 1) with b^2 > 4c (real roots) or b^2 < 4c."""
    while True:
        b, c = rng.randint(-9, 9), rng.randint(-12, 12)
        if c and (b * b > 4 * c) == real:
            return [c, b, 1]


def corpus(wide: bool):
    """(label, kind, data): kind is analytic, matrix, rm, quat, cm or quartic."""
    rng = random.Random("torusfix-diff")
    for i in range(800):
        yield f"analytic{i}", "analytic", analytic(rng, 3)
    for i in range(150):
        yield f"analytic-span20-{i}", "analytic", analytic(rng, 20, 20, NEG_FIELDS)
    for i in range(200):
        yield f"matrix{i}", "matrix", [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
    for i in range(200):
        yield f"rm{i}", "rm", (rng.choice(RM_D), rng.randint(-5, 5), rng.randint(-5, 5))
    for i in range(200):
        yield f"quat{i}", "quat", (rng.choice(QUAT_SYMBOLS), [rng.randint(-3, 3) for _ in range(4)])
    for i in range(150):
        yield f"cm{i}", "cm", (rng.choice(CM_G), [rng.randint(-3, 3) for _ in range(4)])
    for i in range(80):
        poly = [1]
        for k in rng.choice(B2_PRODUCTS):
            poly = poly_mul(poly, CYCLOTOMIC[k])
        yield f"b2-{i}", "quartic", poly
    for i in range(150):
        poly = quadratic(rng, rng.random() < 0.25)
        for k in rng.choice(B3_CIRCLE):
            poly = poly_mul(poly, CYCLOTOMIC[k])
        yield f"b3-{i}", "quartic", poly
    for real in (True, False):
        for i in range(100):
            q = quadratic(rng, real)
            yield f"square-{'real' if real else 'complex'}{i}", "quartic", poly_mul(q, q)
    for i in range(100):
        # two conjugate pairs of one modulus sqrt(c): a product of two
        # quadratics with one constant c, or t^4 + b t^3 + a t^2 + b c t + c^2,
        # whose roots are closed under mu -> c / mu
        c, b, a = rng.randint(2, 30), rng.randint(-6, 6), rng.randint(-20, 20)
        if i % 2:
            yield f"equal-moduli{i}", "quartic", [c * c, b * c, a, b, 1]
        else:
            b2 = rng.randint(-6, 6)
            yield f"equal-moduli{i}", "quartic", poly_mul([c, b, 1], [c, b2, 1])
    for i in range(400):
        yield f"monic{i}", "quartic", [rng.randint(-6, 6) for _ in range(4)] + [1]
    if wide:
        for bits, count in WIDE_BITS:
            for i in range(count):
                def entry():
                    return rng.randrange(-(1 << bits), 1 << bits)
                yield f"zi{bits}-{i}", "analytic", (-1, [[(entry(), entry()) for _ in range(2)]
                                                         for _ in range(2)])


def cli_sample():
    """(label, argv): every CLI_EVERY-th input of the default corpus as
    text and as --json, and the sequence whose value 1361 is past the
    int-to-str limit."""
    for i, (label, kind, data) in enumerate(corpus(False)):
        if i % CLI_EVERY:
            continue
        if kind in ("rm", "quat", "cm"):
            if kind == "rm":
                d, a, b = data
                doc = {"kind": "real_quad", "d": d, "a": a, "b": b}
            elif kind == "quat":
                (alpha, beta), c = data
                doc = {"kind": "quaternion", "alpha": str(alpha), "beta": str(beta),
                       "coeffs": [str(x) for x in c]}
            else:
                g, c = data
                doc = {"kind": "cm", "g": ",".join(map(str, g)), "coords": [str(x) for x in c]}
            element = ["--element", json.dumps(doc)]
            commands = {"classify": ["algebra", kind, "classify"] + element,
                        "fix": ["algebra", kind, "fix"] + element + ["-n", "25"]}
        else:
            # one token per option: a value may start with "-"
            if kind == "quartic":
                arg = ["--charpoly=" + ",".join(map(str, data))]
            elif kind == "matrix":
                arg = ["--matrix=" + ";".join(",".join(map(str, row)) for row in data)]
            else:
                m, rows = data
                arg = ["--analytic=" + ";".join(f"{u},{v}" for row in rows for u, v in row),
                       f"--field={m}"]
            commands = {"classify": ["classify"] + arg, "sequence": ["sequence"] + arg + ["-n", "30"]}
        for flags in ([], ["--json"]):
            for name, argv in commands.items():
                yield f"{label}:cli:{' '.join(flags + [name])}", flags + argv
    for flags in ([], ["--json"]):
        yield f"4300-digits:cli:{' '.join(flags + ['sequence'])}", flags + [
            "sequence", "--charpoly", "1439,22,0,10,1", "-n", "2000"]


# -- one side: evaluate the corpus with the torusfix on sys.path ---------------


def emit(wide: bool) -> None:
    import torusfix as tf
    from torusfix.cli import main as cli_main
    from torusfix.polynomials import real_root_isolation, refine_root, squarefree_decomposition

    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(STR_DIGITS)

    def run(fn):
        try:
            return fn()
        except Exception as exc:  # every error class is part of the output
            return {"error": type(exc).__name__}

    def interval(iv):
        return [str(iv.lo), str(iv.hi)]

    def census(c):
        return {"n_zero": c.n_zero, "n_less": c.n_less, "n_on": c.n_on, "n_more": c.n_more,
                "unity_orders": list(c.unity_orders),
                "outside_moduli": [interval(iv) for iv in c.outside_moduli]}

    def refinements(p):
        return [[str(f), [interval(refine_root(f, iv, w)) for w in REFINE_WIDTHS]]
                for f, _ in squarefree_decomposition(p) for iv in real_root_isolation(f)]

    def cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        return [code, out.getvalue(), err.getvalue()]

    cm_fields = {}
    for label, kind, data in corpus(wide):
        quartic = None
        if kind == "analytic":
            x = run(lambda: tf.AnalyticRep(*data))
            results = {"classify": run(lambda: tf.classify(x).to_dict())}
            quartic = run(lambda: tf.char_poly_rational(x))
        elif kind == "matrix":
            x = run(lambda: tf.RationalRep(data))
            results = {"classify": run(lambda: tf.classify(x).to_dict())}
            quartic = run(lambda: tf.char_poly_rational(x))
        elif kind == "rm":
            results = {"classify": run(lambda: tf.rm_classify(tf.RealQuadElement(*data)).to_dict())}
        elif kind == "quat":
            (alpha, beta), c = data
            results = {"classify": run(
                lambda: tf.quat_classify(tf.quaternion_element(alpha, beta, *c)).to_dict())}
        elif kind == "cm":
            g, c = data
            if g not in cm_fields:
                cm_fields[g] = run(lambda: tf.CMFieldDesc(tf.IntPolynomial(g)))
            results = {"classify": run(lambda: tf.cm_classify(tf.CMElement(cm_fields[g], c)).to_dict())}
        else:
            quartic = run(lambda: tf.CharPolyQuartic(tf.IntPolynomial(data)))
            results = {"classify": run(lambda: tf.classify(quartic).to_dict())}
        if isinstance(quartic, tf.CharPolyQuartic):
            for w in WIDTHS:
                results[f"census@{w}"] = run(lambda: census(tf.count_roots_by_modulus(quartic, w)))
                results[f"mahler@{w}"] = run(lambda: interval(tf.mahler_measure_interval(quartic, w)))
            results["refine"] = run(lambda: refinements(quartic.poly))
        for what, value in results.items():
            print(json.dumps([f"{label}:{what}", value], sort_keys=True))
    for label, argv in cli_sample():
        print(json.dumps([label, run(lambda: cli(argv))], sort_keys=True))


# -- comparing two trees ---------------------------------------------------------


def side(tree: str, wide: bool) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, HERE, "--emit"] + (["--wide"] if wide else [])
    return subprocess.Popen(cmd, env=env, cwd=tree, stdout=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen, name: str) -> list[str]:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"{name} side exited with {proc.returncode}")
    return out.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", default="HEAD",
                    help="a directory holding src/torusfix, or a git revision (default HEAD)")
    ap.add_argument("--wide", action="store_true", help="add the 64-384-bit Z[i] stratum")
    ap.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(args.wide)
        return 0

    tmp = None
    other = os.path.abspath(args.against)
    if not os.path.isdir(os.path.join(other, "src", "torusfix")):
        tmp = tempfile.mkdtemp(prefix="torusfix-diff-")
        other = os.path.join(tmp, "tree")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet", other,
                        args.against], check=True)
    try:
        procs = [side(ROOT, args.wide), side(other, args.wide)]
        mine, theirs = collect(procs[0], "checkout"), collect(procs[1], args.against)
    finally:
        if tmp:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", other], check=False)
            shutil.rmtree(tmp, ignore_errors=True)

    print(f"{len(mine)} results (checkout), {len(theirs)} ({args.against})")
    for a, b in zip(mine, theirs):
        if a != b:
            print(f"first difference:\n  checkout: {a}\n  {args.against}: {b}")
            return 1
    if len(mine) != len(theirs):
        print("result counts differ")
        return 1
    print("0 differences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
