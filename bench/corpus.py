"""Seeded inputs for the three workloads.

A run executes blocks 0, 1, 2, ... of one workload; block k is drawn from
``random.Random(f"{workload}:{seed}:{k}")`` with a fixed composition, so the
same seed gives the same ops and every block stresses the same mix.
Inputs are built only from the constructors in ``torusfix.__all__`` and
from exact formulas in this directory; the CLI ops are argv lists.  No
generator calls a torusfix function or reads the test suite.
"""

from __future__ import annotations

import json
import math
import random

import torusfix as tf

import exact
import roots
from ops import (
    ERROR, REJECTED, TIMEOUT, WRONG, B3Pattern, Classify, Cli, Fix, Sequence,
    check_json_report, check_text_report,
)

# Blocks every run executes at least, whatever --seconds says; the tail
# percentile of each workload is fixed so that this many blocks leave at
# least ten samples beyond it.
MIN_BLOCKS = {"classify-mix": 5, "sequence-long": 3, "cli-wide": 3}
# Blocks the traced run (and its untraced twin) executes.
TRACE_BLOCKS = {"classify-mix": 1, "sequence-long": 1, "cli-wide": 1}

NEG_FIELDS = (-1, -2, -3, -5, -6, -7, -10, -11)
RM_D = (2, 3, 5, 6, 7, 10, 11, 13)
SYMBOLS = ((2, 3), (3, 2), (2, -3), (-3, 2), (5, 2), (2, 5), (3, -1), (7, 3))
CM_G = (
    (1, 1, 1, 1, 1), (1, 0, 0, 0, 1), (1, -1, 1, -1, 1), (1, 0, -1, 0, 1),
    (1, 0, 3, 0, 1), (2, 0, 5, 0, 1), (3, 0, 7, 0, 1), (1, 0, 5, 0, 1), (2, 0, 6, 0, 1),
)
# Cyclotomic products of degree 4 whose real roots have even multiplicity.
B2_PRODUCTS = (
    (5,), (8,), (10,), (12,), (3, 3), (3, 4), (3, 6), (4, 4), (4, 6), (6, 6),
    (2, 2, 3), (2, 2, 4), (2, 2, 6), (2, 2, 2, 2), (1, 1, 3), (1, 1, 2, 2),
)
B3_CIRCLE = ((3,), (4,), (6,), (2, 2))
# (lo, hi, entry span) of the growth base of sequence-long's quartics: at
# N = 1000 their last values have about 300, 2000 and 4300-4350 digits.
SEQUENCE_STRATA = ((2, 2.2, 1), (100, 110, 3), (20000, 22000, 8))
FIX_BITS = 25_000

# The four defects reproduced at the seed commit, all in cli-wide: label of
# the op -> the way it fails.  Any other failure fails the run.
KNOWN_FAILURES = {
    "cli.classify.rung41": TIMEOUT,
    "cli.algebra.rm-fix-negative-n": TIMEOUT,
    "cli.algebra.rm-fix-zero-n": WRONG,
    "cli.sequence.4300-digits": ERROR,
}

README_CLASSIFY = (
    "verdict: B2\n"
    "eigenvalue census: 0 zero, 0 inside, 4 on, 0 outside the unit circle\n"
    "root-of-unity orders: [6, 6, 6, 6]\n"
    "period: 6\n"
    "cycle: [1, 9, 16, 9, 1, 0]\n"
)
EXAMPLE_NAMES = ("rotation_e_times_e", "gaussian_i_2i", "rm_sqrt2", "mcmullen_0",
                 "neg_identity", "mult_2")
SEARCH_LADDER = (("1", 0), ("1/2", 5), ("3/10", 12), ("1/10", 101), ("1/60", 3601))


def serialize(p) -> str:
    return ",".join(str(c) for c in p)


def charpoly_arg(p):
    return tf.CharPolyQuartic(tf.IntPolynomial(p))


def first_op(workload: str):
    """The golden op every block of the workload starts with; set-up time
    is measured up to its completion."""
    if workload == "classify-mix":
        rotation = [[(1, 0), (-1, 0)], [(1, 0), (0, 0)]]
        return Classify("classify.rotation", "classify", tf.AnalyticRep(1, rotation),
                        lambda ns: roots.analytic(1, rotation, ns), None)
    if workload == "sequence-long":
        p = [16, -32, 24, -8, 1]
        return Sequence("sequence.golden", charpoly_arg(p), 3, exact.companion(p),
                        None, None, (1, 2, 3), golden=[1, 81, 2401])
    return Cli("cli.classify.readme", ["classify", "--charpoly", "1,-2,3,-2,1"],
               check_out=lambda op, out: None if out == README_CLASSIFY else "README text")


class Corpus:
    """Builds the ops of one block.  CM fields are validated once here,
    before anything is timed."""

    def __init__(self):
        self.cm_fields = {g: tf.CMFieldDesc(tf.IntPolynomial(g)) for g in CM_G}

    def block(self, workload: str, seed: int, index: int) -> list:
        rng = random.Random(f"{workload}:{seed}:{index}")
        build = {
            "classify-mix": self._classify_mix,
            "sequence-long": self._sequence_long,
            "cli-wide": self._cli_wide,
        }[workload]
        return build(rng)

    # -- input families ---------------------------------------------------------

    @staticmethod
    def analytic(rng, span, vspan=2, fields=NEG_FIELDS + (1,)):
        """(m, entries, char poly) of a random analytic 2x2 matrix over the
        order Z[sqrt(m)], excluding the nilpotent ones (char poly t^4)."""
        while True:
            m = rng.choice(fields)
            entries = [
                [(rng.randint(-span, span), rng.randint(-vspan, vspan) if m != 1 else 0)
                 for _ in range(2)]
                for _ in range(2)
            ]
            poly = exact.analytic_char_poly(m, entries)
            if poly != [0, 0, 0, 0, 1]:
                return m, entries, poly

    def analytic_with_growth(self, rng, lo, hi, span):
        """An analytic input over an imaginary quadratic order whose growth
        base lies in [lo, hi], so each stratum costs about the same."""
        while True:
            m, entries, poly = self.analytic(rng, span, span, NEG_FIELDS)
            g = roots.growth_base(roots.analytic(m, entries, roots.FLOAT))
            if lo <= g <= hi:
                return m, entries, poly

    def analytic_with_bits(self, rng, bits, log2_lo, log2_hi):
        """A generic analytic input (two complex pairs) whose char poly has
        `bits`-bit coefficients (+-1) and whose resolvent cubic's constant
        c has log2|c| in [log2_lo, log2_hi): trial division up to sqrt|c|
        is what the coefficient ladder exercises."""
        span = round(2 ** (bits / 4 - 0.5))
        while True:
            m, entries, poly = self.analytic(rng, span, span, NEG_FIELDS)
            c = exact.resolvent_constant(poly)
            size = math.log2(abs(c)) if c else 0.0
            if abs(exact.coeff_bits(poly) - bits) <= 1 and log2_lo <= size < log2_hi:
                return m, entries, poly

    @staticmethod
    def rm(rng):
        """(element, eigenvalues, CLI JSON document) of a real-multiplication
        element; rm, quat and cm share this shape."""
        while True:
            d, a, b = rng.choice(RM_D), rng.randint(-4, 4), rng.randint(-4, 4)
            if a or b:
                return (tf.RealQuadElement(d, a, b), lambda ns: roots.real_quad(d, a, b, ns),
                        {"kind": "real_quad", "d": d, "a": a, "b": b})

    @staticmethod
    def quat(rng):
        """Only elements the classifier must accept: non-zero norm, and no
        eigenvalue +-1 unless the element is +-1."""
        while True:
            alpha, beta = rng.choice(SYMBOLS)
            c = [rng.randint(-3, 3) for _ in range(4)]
            a = c[0]
            norm = a * a - c[1] ** 2 * alpha - c[2] ** 2 * beta + c[3] ** 2 * alpha * beta
            unit = c[1:] == [0, 0, 0] and abs(a) == 1
            if any(c) and norm and (unit or (1 - 2 * a + norm and 1 + 2 * a + norm)):
                break
        doc = {"kind": "quaternion", "alpha": str(alpha), "beta": str(beta),
               "coeffs": [str(v) for v in c]}
        return (tf.quaternion_element(alpha, beta, *c),
                lambda ns: roots.quaternion(alpha, beta, c, ns), doc)

    def cm(self, rng):
        while True:
            g, c = rng.choice(CM_G), [rng.randint(-3, 3) for _ in range(4)]
            if any(c):
                break
        doc = {"kind": "cm", "g": serialize(g), "coords": [str(v) for v in c]}
        return tf.CMElement(self.cm_fields[g], c), lambda ns: roots.cm(g, c, ns), doc

    @staticmethod
    def b2(rng):
        ks = rng.choice(B2_PRODUCTS)
        poly = [1]
        for k in ks:
            poly = exact.poly_mul(poly, exact.CYCLOTOMIC[k])
        return poly, (lambda ns: [mu for k in ks for mu in roots.unity(k, ns)])

    @staticmethod
    def b3(rng, modulus_sq=None):
        """(cyclotomic factor) x (off-circle quadratic); returns r too.
        A given modulus_sq fixes |mu|^2 of the off-circle pair."""
        ks = rng.choice(B3_CIRCLE)
        if modulus_sq or rng.random() < 0.75:
            while True:
                b, c = rng.randint(-4, 4), modulus_sq or rng.randint(2, 9)
                if b * b < 4 * c:
                    break
            quad = [c, b, 1]
        else:
            a = rng.choice((-4, -3, -2, 2, 3, 4))
            quad = [a * a, -2 * a, 1]
        poly = quad
        for k in ks:
            poly = exact.poly_mul(poly, exact.CYCLOTOMIC[k])

        def rts(ns):
            return [mu for k in ks for mu in roots.unity(k, ns)] + roots.quad(quad[1], quad[0], ns)

        return poly, rts, ks[0]

    # -- classify-mix -------------------------------------------------------------

    def _classify_mix(self, rng):
        """Small-coefficient inputs of every kind through the four
        classifiers, plus a constructed B2/B3 stratum (random inputs alone
        are about 98% B1)."""
        ops = []
        for _ in range(60):
            m, ent, poly = self.analytic(rng, 3)
            ops.append(Classify("classify.analytic", "classify", tf.AnalyticRep(m, ent),
                                self._analytic_roots(m, ent), poly))
        for _ in range(20):
            m, ent, poly = self.analytic(rng, 3)
            ops.append(Classify("classify.charpoly", "classify", charpoly_arg(poly),
                                self._analytic_roots(m, ent), poly))
        for _ in range(20):
            m, ent, poly = self.analytic(rng, 2)
            x = exact.conjugated(exact.companion(poly), rng)
            ops.append(Classify("classify.matrix", "classify", tf.RationalRep(x),
                                self._analytic_roots(m, ent), poly))
        for label, fn, make, count in (("classify.rm", "rm_classify", self.rm, 25),
                                       ("classify.quat", "quat_classify", self.quat, 25),
                                       ("classify.cm", "cm_classify", self.cm, 20)):
            for _ in range(count):
                arg, rts, _ = make(rng)
                ops.append(Classify(label, fn, arg, rts, None))
        for _ in range(15):
            poly, rts = self.b2(rng)
            ops.append(Classify("classify.b2", "classify", charpoly_arg(poly), rts, poly))
        for _ in range(14):
            poly, rts, _ = self.b3(rng)
            ops.append(Classify("classify.b3", "classify", charpoly_arg(poly), rts, poly))
        rng.shuffle(ops)
        return [first_op("classify-mix")] + ops

    @staticmethod
    def _analytic_roots(m, entries):
        return lambda ns: roots.analytic(m, entries, ns)

    # -- sequence-long ------------------------------------------------------------

    def _sequence_long(self, rng):
        """The sequence engine on big integers: fix_sequence at N = 1000 on
        quartics from three narrow growth strata (values of about 300, 2000
        and more than 4300 digits), a 4x4 matrix at N = 300, single counts
        at large n and B3 pattern checks."""
        ops = []
        for lo, hi, span in SEQUENCE_STRATA:
            m, ent, poly = self.analytic_with_growth(rng, lo, hi, span)
            ops.append(Sequence("sequence.quartic", charpoly_arg(poly), 1000,
                                exact.companion(poly), self._analytic_roots(m, ent), poly,
                                _spots(rng, 1000)))
        m, ent, poly = self.analytic_with_growth(rng, 4, 4.4, 2)
        x = exact.conjugated(exact.companion(poly), rng)
        ops.append(Sequence("sequence.matrix", tf.RationalRep(x), 300, x,
                            self._analytic_roots(m, ent), poly, _spots(rng, 300)))
        for k in range(2):
            m, ent, poly = self.analytic_with_growth(rng, 3, 64, 3)
            rts = self._analytic_roots(m, ent)
            if k == 0:
                x = exact.conjugated(exact.companion(poly), rng)
                ops.append(Fix("fix.matrix", "fix_count", tf.RationalRep(x),
                               _large_n(rts, FIX_BITS // 5), x, rts, poly))
            ops.append(Fix("fix.quartic", "fix_count", charpoly_arg(poly),
                           _large_n(rts, FIX_BITS), exact.companion(poly), rts, poly))
            for fn, make in (("rm_fix", self.rm), ("quat_fix", self.quat), ("cm_fix", self.cm)):
                arg, rts, _ = _expanding(rng, make)
                ops.append(Fix(f"fix.{fn}", fn, arg, _large_n(rts, FIX_BITS), None, rts, None))
        for _ in range(2):
            poly, rts, order = self.b3(rng, modulus_sq=5)
            ops.append(B3Pattern("sequence.b3-pattern", charpoly_arg(poly), _b3_report(order),
                                 1000, rts, poly))
        rng.shuffle(ops)
        return [first_op("sequence-long")] + ops

    # -- cli-wide -------------------------------------------------------------------

    def _cli_wide(self, rng):
        """A fixed script through torusfix.cli.main: classify on a ladder of
        coefficient sizes, JSON and matrix inputs, the algebra commands at
        large n, sequences, search-small down to eps = 1/60, tables and
        examples, the documented error exits and the four known defects."""
        ops = []
        for label, bits, res_lo, res_hi, count, known in (
            ("cli.classify.rung15", 15, 0, 64, 6, None),
            ("cli.classify.rung27", 27, 39.4, 39.6, 6, None),
            ("cli.classify.rung41", 41, 55, 200, 1, TIMEOUT),
        ):
            for _ in range(count):
                m, ent, poly = self.analytic_with_bits(rng, bits, res_lo, res_hi)
                ops.append(Cli(label, ["classify", f"--charpoly={serialize(poly)}"],
                               check_text_report, known=known,
                               roots=self._analytic_roots(m, ent), poly=poly))
        for _ in range(2):
            m, ent, poly = self.analytic(rng, 3)
            cells = ";".join(f"{u},{v}" for row in ent for u, v in row)
            ops.append(Cli("cli.classify.analytic-json",
                           ["--json", "classify", f"--analytic={cells}", f"--field={m}"],
                           check_json_report, roots=self._analytic_roots(m, ent), poly=poly))
        m, ent, poly = self.analytic(rng, 2)
        x = exact.conjugated(exact.companion(poly), rng)
        ops.append(Cli("cli.classify.matrix",
                       ["classify", "--matrix=" + ";".join(serialize(r) for r in x)],
                       check_text_report, roots=self._analytic_roots(m, ent), poly=poly))
        _, rts, doc = self.quat(rng)
        ops.append(Cli("cli.algebra.quat-classify",
                       ["algebra", "quat", "classify", "--element", json.dumps(doc)],
                       _check_quat_text, roots=rts))
        _, rts, doc = self.cm(rng)
        ops.append(Cli("cli.algebra.cm-classify",
                       ["--json", "algebra", "cm", "classify", "--element", json.dumps(doc)],
                       check_json_report, roots=rts))
        ops.extend(self._cli_fix_ops(rng) + self._cli_fix_ops(rng))
        m, ent, poly = self.analytic_with_growth(rng, 2, 30, 3)
        ops.append(Cli("cli.sequence.json",
                       ["--json", "sequence", f"--charpoly={serialize(poly)}", "-n", "300"],
                       _check_sequence_json(exact.companion(poly), 300, _spots(rng, 300)),
                       limit=20.0, roots=self._analytic_roots(m, ent), poly=poly))
        m, ent, poly = self.analytic(rng, 2)
        x = exact.conjugated(exact.companion(poly), rng)
        ops.append(Cli("cli.sequence.matrix",
                       ["sequence", "--matrix=" + ";".join(serialize(r) for r in x), "-n", "60"],
                       _check_sequence_text(x, 60), limit=20.0,
                       roots=self._analytic_roots(m, ent), poly=poly))
        for eps, a in SEARCH_LADDER:
            ops.append(Cli("cli.search-small", ["search-small", "--eps", eps],
                           _check_search(eps, a), limit=20.0))
        for kind, orders in (("cm", (1, 2, 3, 4, 6, 5, 8, 10, 12)), ("quaternion", (1, 2, 3, 4, 6))):
            ops.append(Cli("cli.table", ["table", "--kind", kind], _check_table(orders)))
        ops.append(Cli("cli.examples", ["examples"], _check_example_names))
        ops.append(Cli("cli.examples", ["examples", "rotation_e_times_e"], _check_example))
        for _ in range(2):
            ops.extend(self._cli_error_ops(rng))
        rm_doc = json.dumps({"kind": "real_quad", "d": 2, "a": 1, "b": 1})
        ops.append(Cli("cli.algebra.rm-fix-negative-n",
                       ["algebra", "rm", "fix", "--element", rm_doc, "-n", "-1"],
                       expect=REJECTED, known=TIMEOUT))
        ops.append(Cli("cli.algebra.rm-fix-zero-n",
                       ["algebra", "rm", "fix", "--element", rm_doc, "-n", "0"],
                       expect=REJECTED, known=WRONG))
        big = [1439, 22, 0, 10, 1]
        ops.append(Cli("cli.sequence.4300-digits",
                       ["sequence", f"--charpoly={serialize(big)}", "-n", "2000"],
                       _check_sequence_text(exact.companion(big), 2000), limit=20.0,
                       known=ERROR, poly=big))
        rng.shuffle(ops)
        return [first_op("cli-wide")] + ops

    def _cli_fix_ops(self, rng):
        """algebra ... fix at large n, sized so that the printed value stays
        under 12000 bits and so under the 4300-digit str limit (the
        sequence op above is the one that pins that defect)."""
        ops = []
        for family, make in (("rm", self.rm), ("quat", self.quat), ("cm", self.cm)):
            _, rts, doc = _expanding(rng, make)
            n = _large_n(rts, 3_000)
            argv = ["algebra", family, "fix", "--element", json.dumps(doc), "-n", str(n)]
            if family == "cm":
                argv.insert(0, "--json")
            ops.append(Cli(f"cli.algebra.{family}-fix", argv, _check_fix_value(n), roots=rts))
        return ops

    @staticmethod
    def _cli_error_ops(rng):
        """Inputs whose documented outcome is an error exit: 1 for malformed
        input, 2 with the error class name for a validation failure."""
        lead = rng.randint(2, 9)
        k = rng.choice((2, 3, 5, 6, 7))
        zero_norm = {"kind": "quaternion", "alpha": "4", "beta": "3",
                     "coeffs": ["2", "1", "0", "0"]}
        cases = (
            ("non-monic", ["classify", f"--charpoly=1,0,0,0,{lead}"], 2,
             "InvalidStructureError"),
            ("odd-real-roots", ["classify", f"--charpoly={-k},0,0,0,1"], 2,
             "InvalidStructureError"),
            ("malformed", ["classify", f"--charpoly={lead},x"], 1, "error"),
            ("no-input", ["classify"], 1, "error"),
            ("over-cap", ["sequence", "--charpoly", "1,0,0,0,1", "-n", "2000000"], 1, "error"),
            ("eps-range", ["search-small", "--eps", f"{lead}/{lead - 1}"], 1, "error"),
            ("zero-norm", ["algebra", "quat", "classify", "--element", json.dumps(zero_norm)],
             2, "ZeroNormError"),
            ("unknown-example", ["examples", f"no_such_{lead}"], 1, "error"),
        )
        return [Cli(f"cli.error.{name}", argv, expect=(rc, err)) for name, argv, rc, err in cases]


def _spots(rng, n_max):
    """Indices of a sequence checked against det(I - X^n)."""
    return (1, 2, 3, n_max // 2, n_max) + tuple(rng.randint(1, n_max) for _ in range(3))


def _radius(rts) -> float:
    return max(abs(mu) for mu in rts(roots.FLOAT))


def _expanding(rng, make):
    """An element from make(rng) with an eigenvalue of modulus >= 1.5."""
    while True:
        element = make(rng)
        if _radius(element[1]) >= 1.5:
            return element


def _large_n(rts, target_bits):
    """n at which t^n mod P has coefficients of about target_bits bits
    (the cost of one count), for a spectral radius of at least 1.5."""
    return int(target_bits / math.log2(_radius(rts)))


def _b3_report(order):
    """The B3 certificate of a quartic built by ``Corpus.b3``: two roots of
    unity of the given order and two roots outside the circle."""
    eigen = tf.EigenvalueClassification(
        n_zero=0, n_less=0, n_on=2, n_more=2, unity_orders=(order, order), outside_moduli=(),
    )
    return tf.BehaviorReport(verdict=tf.B3, eigen=eigen, r=order)


# -- CLI output checks ------------------------------------------------------------------


def _check_quat_text(op, out):
    import oracles

    first, _, rest = out.partition("\n")
    rts = op.roots(oracles.MP)
    sat = abs(abs(rts[0]) - 1) < oracles.ON_CIRCLE_TOL
    want = f"one-root periodicity criterion: {'satisfied' if sat else 'unsatisfied'}"
    if first != want:
        return f"criterion line {first!r}, oracle {want!r}"
    return check_text_report(op, rest)


def _check_fix_value(n):
    def check(op, out):
        text = out.strip()
        value = json.loads(text)["fix"] if text.startswith("{") else int(text)
        op.bits = abs(value).bit_length()
        x = exact.companion(op.int_poly())
        return None if value == exact.fix_by_det(x, n) else f"fix(f^{n}) differs from det"
    return check


def _check_sequence_json(x, n_max, spots):
    def check(op, out):
        seq = json.loads(out)["fix"]
        op.bits = max(abs(v).bit_length() for v in seq)
        if len(seq) != n_max:
            return f"{len(seq)} values for n_max {n_max}"
        bad = [n for n in set(spots) if seq[n - 1] != exact.fix_by_det(x, n)]
        return f"fix(f^n) differs from det at n = {bad}" if bad else None
    return check


def _check_sequence_text(x, n_max):
    def check(op, out):
        seq = json.loads(out)
        op.bits = max(abs(v).bit_length() for v in seq)
        if len(seq) != n_max:
            return f"{len(seq)} values for n_max {n_max}"
        bad = [n for n in (1, 2, 3, n_max) if seq[n - 1] != exact.fix_by_det(x, n)]
        return f"fix(f^n) differs from det at n = {bad}" if bad else None
    return check


def _check_search(eps, golden):
    def check(op, out):
        import mpmath
        import oracles

        a = int(out)
        if a != golden:
            return f"search-small {eps}: {a}, golden {golden}"
        p, q = (int(v) for v in (eps.split("/") + ["1"])[:2])
        bound = mpmath.mpf(p) / q
        if not oracles.min_root_modulus([1, 1, a, 0, 1]) < bound:
            return f"a = {a} has no root below {eps}"
        if a and not oracles.min_root_modulus([1, 1, a - 1, 0, 1]) >= bound:
            return f"a - 1 = {a - 1} already has a root below {eps}"
        return None
    return check


def _check_table(orders):
    want = [serialize(exact.CYCLOTOMIC[k]) for k in orders]

    def check(op, out):
        return None if out.split() == want else "table differs from the cyclotomic list"
    return check


def _check_example_names(op, out):
    return None if out.split() == sorted(EXAMPLE_NAMES) else "example names differ"


def _check_example(op, out):
    first, _, rest = out.partition("\n")
    if not first.startswith("rotation_e_times_e: char poly "):
        return f"header {first!r}"
    return None if rest == README_CLASSIFY else "rotation report differs"
