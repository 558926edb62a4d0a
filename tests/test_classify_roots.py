import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusfix import behavior, polynomials, unitcircle
from torusfix.algebras import RealQuadElement, rm_classify
from torusfix.behavior import classify, mahler_measure_interval, verify_b3_pattern
from torusfix.cli import main
from torusfix.endomorphisms import RationalRep, fix_count, fix_sequence
from torusfix.errors import InvalidStructureError
from torusfix.polynomials import (
    ALLOWED_UNITY_ORDERS,
    ONE,
    IntPolynomial,
    cyclotomic,
    parse_poly,
    square_free_part,
)
from torusfix.unitcircle import (
    CharPolyQuartic,
    _analyze,
    count_roots_by_modulus,
    validate_conjugate_pair_structure,
)

from oracles import SchurCohnDegenerate, schur_cohn_inside
from util import random_analytic_rep, random_valid_quartic


def quartic(text: str) -> CharPolyQuartic:
    return CharPolyQuartic(parse_poly(text))


PHI = {k: cyclotomic(k) for k in ALLOWED_UNITY_ORDERS}

# Building blocks of validated quartics, as (kind, polynomial, per-root
# unity orders): every real root must have even multiplicity, so Phi_1 and
# Phi_2 enter squared.
CIRCLE_QUADRATICS = [("circle", PHI[1].square(), (1, 1)), ("circle", PHI[2].square(), (2, 2))] + [
    ("circle", PHI[k], (k, k)) for k in (3, 4, 6)
]
CIRCLE_QUARTICS = [("circle", PHI[k], (k,) * 4) for k in (5, 8, 10, 12)]
complex_off_circle = st.tuples(st.integers(-6, 6), st.integers(2, 12)).filter(
    lambda bc: bc[0] ** 2 < 4 * bc[1]
).map(lambda bc: ("off", IntPolynomial((bc[1], bc[0], 1)), ()))
real_off_circle_square = st.sampled_from([a for a in range(-9, 10) if abs(a) >= 2]).map(
    lambda a: ("off", IntPolynomial((-a, 1)).square(), ())
)
quadratic_block = st.one_of(
    st.sampled_from(CIRCLE_QUADRATICS),
    complex_off_circle,
    real_off_circle_square,
    st.just(("zero", IntPolynomial((0, 0, 1)), ())),
)


def product(polys) -> IntPolynomial:
    out = ONE
    for p in polys:
        out = out * p
    return out


INVALID_MESSAGE = "cannot be the rational char poly of a torus endomorphism"


class TestStructureValidation:
    # the rule is checked alone by validate_conjugate_pair_structure and
    # inside the analysis pass; both raise the same error
    def test_accepts_conjugate_pairs(self):
        for text in ("4,0,5,0,1", "1,-2,3,-2,1"):
            validate_conjugate_pair_structure(quartic(text))
            _analyze(quartic(text))

    def test_accepts_even_multiplicity_real_roots(self):
        for text in ("16,-32,24,-8,1", "1,-4,2,4,1"):
            validate_conjugate_pair_structure(quartic(text))
            _analyze(quartic(text))

    def test_rejects_simple_real_roots(self):
        # Salem-type quartic: two real reciprocal roots, two on the circle
        for text in ("1,-1,-1,-1,1", "-6,11,-6,0,1", "0,-1,0,0,1", "-2,0,0,0,1"):
            for check in (validate_conjugate_pair_structure, _analyze):
                with pytest.raises(InvalidStructureError, match=f"{text} {INVALID_MESSAGE}"):
                    check(quartic(text))

    def test_non_quartic_rejected(self):
        with pytest.raises(InvalidStructureError):
            CharPolyQuartic(parse_poly("1,1,1"))
        with pytest.raises(InvalidStructureError):
            CharPolyQuartic(parse_poly("1,0,0,0,2"))


def circle_split(P: CharPolyQuartic):
    """(n_zero, unity orders, n_on, n_less, outside |mu|^2 lower ends) from
    the one analysis pass."""
    c = _analyze(P).census(Fraction(1, 2 ** 20))
    return c.n_zero, c.unity_orders, c.n_on, c.n_less, sorted(iv.lo for iv in c.outside_moduli)


class TestUnitCircleFactor:
    def test_all_roots_on_circle(self):
        analysis = _analyze(quartic("1,-2,3,-2,1"))
        assert analysis.orders == (6, 6, 6, 6) and analysis.groups == ()
        assert circle_split(quartic("1,-2,3,-2,1")) == (0, (6, 6, 6, 6), 4, 0, [])

    def test_no_roots_on_circle(self):
        assert circle_split(quartic("16,-32,24,-8,1")) == (0, (), 0, 0, [4] * 4)
        assert circle_split(quartic("1,1,0,0,1"))[:4] == (0, (), 0, 2)

    def test_mixed(self):
        assert circle_split(quartic("4,0,5,0,1")) == (0, (4, 4), 2, 0, [4, 4])
        assert circle_split(quartic("0,0,1,-1,1")) == (2, (6, 6), 2, 0, [])

    @given(st.one_of(
        st.lists(quadratic_block, min_size=2, max_size=2),
        st.sampled_from(CIRCLE_QUARTICS).map(lambda block: [block]),
    ))
    @settings(max_examples=300, deadline=None)
    def test_recovers_constructed_factors(self, blocks):
        P = CharPolyQuartic(product(p for _, p, _ in blocks))
        validate_conjugate_pair_structure(P)
        n_zero = 2 * sum(kind == "zero" for kind, _, _ in blocks)
        orders = tuple(sorted(k for _, _, ks in blocks for k in ks))
        # every off-circle block has two roots outside, of |mu|^2 = p(0)
        outside = sorted(c for kind, p, _ in blocks if kind == "off" for c in [p.coeffs[0]] * 2)
        assert circle_split(P) == (n_zero, orders, len(orders), 0, outside)

    def test_salem_type_straddle_rejected(self, capsys):
        salem = quartic("1,-1,-1,-1,1")
        for call in (count_roots_by_modulus, classify, mahler_measure_interval):
            with pytest.raises(InvalidStructureError, match=INVALID_MESSAGE):
                call(salem)
        assert main(["classify", "--charpoly", "1,-1,-1,-1,1"]) == 2
        assert "InvalidStructureError" in capsys.readouterr().err


class TestRootOfUnityOrders:
    def test_orders(self):
        assert _analyze(CharPolyQuartic(PHI[4] * PHI[6])).orders == (4, 4, 6, 6)
        assert _analyze(CharPolyQuartic(PHI[5])).orders == (5, 5, 5, 5)
        # the pass meets the simple Phi_3 or Phi_4 before the square of Phi_1
        assert _analyze(CharPolyQuartic(PHI[1].square() * PHI[3])).orders == (1, 1, 3, 3)
        assert _analyze(CharPolyQuartic(PHI[1].square() * PHI[4])).orders == (1, 1, 4, 4)

    def test_non_cyclotomic(self):
        golden_sq = parse_poly("-1,-1,1").square()
        assert circle_split(CharPolyQuartic(golden_sq))[:4] == (0, (), 0, 2)

    def test_multiplicities(self):
        assert _analyze(CharPolyQuartic(PHI[6].square())).orders == (6, 6, 6, 6)
        assert circle_split(CharPolyQuartic(PHI[2].square() * parse_poly("9,0,1"))) == \
            (0, (2, 2), 2, 0, [9, 9])


class TestOneDecomposition:
    @pytest.mark.parametrize("e, verdict", [
        (RationalRep([[2 * (i == j) for j in range(4)] for i in range(4)]), "B1"),
        (CharPolyQuartic(PHI[6].square()), "B2"),
        (quartic("4,0,5,0,1"), "B3"),
        (CharPolyQuartic(PHI[1].square() * PHI[4]), "B2"),
    ])
    def test_classify_decomposes_once(self, monkeypatch, e, verdict):
        calls = []
        decompose = unitcircle.squarefree_decomposition
        monkeypatch.setattr(unitcircle, "squarefree_decomposition",
                            lambda p: calls.append(p) or decompose(p))
        assert classify(e).verdict == verdict
        assert len(calls) == 1

    def test_cli_input_decomposes_once(self, monkeypatch, capsys):
        # the JSON input is not validated before the command runs its pass
        calls = []
        decompose = unitcircle.squarefree_decomposition
        monkeypatch.setattr(unitcircle, "squarefree_decomposition",
                            lambda p: calls.append(p) or decompose(p))
        doc = '{"kind": "char_poly", "poly": "4,0,5,0,1"}'
        assert main(["classify", "--input", doc]) == 0
        assert capsys.readouterr().out.startswith("verdict: B3")
        assert len(calls) == 1

    def test_counts_keep_the_cheap_check(self, monkeypatch):
        # fix counts need only the conjugate-pair rule, not the census
        e = quartic("4,0,5,0,1")
        report = classify(e)

        def analysis_ran(P):
            raise AssertionError("the analysis pass ran")

        monkeypatch.setattr(behavior, "_analyze", analysis_ran)
        monkeypatch.setattr(unitcircle, "_analyze", analysis_ran)
        assert fix_count(e, 4) == 0 and fix_sequence(e, 4)[3] == 0
        assert verify_b3_pattern(e, report, 40)
        with pytest.raises(InvalidStructureError, match=INVALID_MESSAGE):
            fix_count(quartic("1,-1,-1,-1,1"), 1)


class TestOneChain:
    """The Sturm chain is the one remainder sequence run on a polynomial: it
    gives the gcd with the derivative, and a square-free polynomial's
    rational search and isolation share it."""

    @pytest.mark.parametrize("make, chains", [
        # 50 analytic inputs: for most, the decomposition's chain of P, the
        # conjugate-pair count on P and one chain of the resolvent cubic
        (lambda: [classify(random_analytic_rep(rng)) for rng in [random.Random(5)] for _ in range(50)],
         151),
        (lambda: [rm_classify(RealQuadElement(*x)) for x in
                  [(2, -1, 1), (5, 0, 1), (2, 3, 0), (2, 1, 0), (3, 2, 1), (13, 1, 2)]], 21),
        # (t - 2)^2 Phi_4: two levels of the decomposition, the count on
        # Phi_4 and one chain for t - 2, whose root search shares it
        (lambda: [classify(quartic("4,-4,5,-4,1"))], 4),
    ], ids=["analytic", "rm", "b3"])
    def test_remainder_sequences_per_classify(self, monkeypatch, make, chains):
        calls = []
        chain = polynomials.sturm_chain
        monkeypatch.setattr(polynomials, "sturm_chain", lambda p: calls.append(p) or chain(p))
        assert all(r.verdict in ("B1", "B2", "B3") for r in make())
        assert len(calls) == chains


class TestSchurCohn:
    def test_known_counts(self):
        assert schur_cohn_inside([2, -1]) == 0  # root 2
        assert schur_cohn_inside([-1, 2]) == 1  # root 1/2
        assert schur_cohn_inside([4, 0, 1]) == 0  # roots +-2i

    def test_against_numpy(self):
        rng = random.Random(123)
        checked = 0
        while checked < 300:
            deg = rng.choice([1, 2, 3, 4])
            coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice([1, 2, 3])]
            if coeffs[0] == 0:
                coeffs[0] = 1
            mods = np.abs(np.roots(list(reversed(coeffs))))
            if np.any(np.abs(mods - 1) < 1e-7):
                continue
            try:
                got = schur_cohn_inside(coeffs)
            except SchurCohnDegenerate:
                continue
            assert got == int(np.sum(mods < 1)), coeffs
            checked += 1


class TestCensus:
    def test_all_on_circle(self):
        c = count_roots_by_modulus(quartic("1,-2,3,-2,1"))
        assert (c.n_zero, c.n_less, c.n_on, c.n_more) == (0, 0, 4, 0)
        assert c.unity_orders == (6, 6, 6, 6)

    def test_mixed_orders_and_growth(self):
        c = count_roots_by_modulus(quartic("4,0,5,0,1"))
        assert (c.n_zero, c.n_less, c.n_on, c.n_more) == (0, 0, 2, 2)
        assert c.unity_orders == (4, 4)
        for iv in c.outside_moduli:
            assert iv.lo == iv.hi == 4  # |2i|^2

    def test_all_outside(self):
        c = count_roots_by_modulus(quartic("16,-32,24,-8,1"))
        assert (c.n_zero, c.n_less, c.n_on, c.n_more) == (0, 0, 0, 4)

    def test_split_moduli(self):
        c = count_roots_by_modulus(quartic("1,1,0,0,1"))
        assert (c.n_zero, c.n_less, c.n_on, c.n_more) == (0, 2, 0, 2)

    def test_zero_eigenvalues(self):
        c = count_roots_by_modulus(quartic("0,0,1,-1,1"))
        assert c.n_zero == 2 and c.n_on == 2

    def test_equal_moduli_irrational(self):
        # t^4 - 10t^2 + 75: both conjugate pairs share modulus 75^(1/4)
        c = count_roots_by_modulus(quartic("75,0,-10,0,1"))
        assert (c.n_zero, c.n_less, c.n_on, c.n_more) == (0, 0, 0, 4)
        for iv in c.outside_moduli:
            assert iv.lo ** 2 <= 75 <= iv.hi ** 2

    @pytest.mark.parametrize("text, modulus_sq", [
        ("25,0,6,0,1", 5),     # (t^2 + 2t + 5)(t^2 - 2t + 5): u* = 10
        ("9,-3,4,-1,1", 3),    # (t^2 + t + 3)(t^2 - 2t + 3): u* = 6
    ])
    def test_equal_moduli_rational(self, text, modulus_sq):
        c = count_roots_by_modulus(quartic(text))
        assert (c.n_zero, c.n_less, c.n_on, c.n_more) == (0, 0, 0, 4)
        assert all(iv.lo == iv.hi == modulus_sq for iv in c.outside_moduli)

    def test_rational_u_star_beside_the_equal_moduli_factor(self):
        # (t^2 + 4)(t^2 + 9): the resolvent (y - 13)(y^2 - 144) has the
        # equal-moduli factor y^2 - 4 c0, but u* = 13 and the moduli differ
        c = count_roots_by_modulus(quartic("36,0,13,0,1"))
        assert sorted(iv.lo for iv in c.outside_moduli) == [4, 4, 9, 9]
        assert all(iv.lo == iv.hi for iv in c.outside_moduli)

    @pytest.mark.parametrize("text, width", [
        ("3,1,5,2,1", Fraction(0)),
        ("3,1,5,2,1", Fraction(-1, 4)),
        ("1,-6,11,-6,1", Fraction(0)),  # (t^2 - 3t + 1)^2
        ("2,0,0,0,1", Fraction(0)),
    ])
    def test_non_positive_width_rejected(self, text, width):
        # no enclosure reaches a width <= 0: the refinement would never end
        with pytest.raises(ValueError, match="width must be positive"):
            count_roots_by_modulus(quartic(text), width)

    def test_census_sums_to_four_randomized(self):
        rng = random.Random(7)
        for _ in range(150):
            c = count_roots_by_modulus(random_valid_quartic(rng))
            assert c.n_zero + c.n_less + c.n_on + c.n_more == 4

    def test_census_matches_numpy_randomized(self):
        rng = random.Random(99)
        checked = 0
        while checked < 150:
            P = random_valid_quartic(rng)
            if square_free_part(P.poly).degree < P.poly.degree:
                continue  # repeated roots split numerically; skip
            expect = numpy_census(P)
            if expect is None:
                continue
            c = count_roots_by_modulus(P)
            assert (c.n_zero, c.n_less, c.n_on, c.n_more) == expect, P.poly
            checked += 1
        # cyclotomic x off-circle products with distinct roots: an oracle for
        # n_on that does not strip cyclotomics
        for _ in range(60):
            if rng.random() < 0.25:
                P = CharPolyQuartic(PHI[rng.choice((5, 8, 10, 12))])
            else:
                k = rng.choice((3, 4, 6))
                off_circle = [IntPolynomial((c, b, 1))
                              for b in range(-4, 5) for c in range(2, 6) if b * b < 4 * c]
                rest = rng.choice([PHI[j] for j in (3, 4, 6) if j != k] + off_circle)
                P = CharPolyQuartic(PHI[k] * rest)
            c = count_roots_by_modulus(P)
            assert (c.n_zero, c.n_less, c.n_on, c.n_more) == numpy_census(P), P.poly


def numpy_census(P: CharPolyQuartic):
    """(n_zero, n_less, n_on, n_more) from numpy's roots, or None when a
    modulus sits too near 1 to call."""
    mods = np.abs(np.roots(list(reversed(P.poly.coeffs))))
    rest = mods[mods > 1e-9]
    expect = (
        P.poly.trailing_zero_count(),
        int(np.sum(rest < 1 - 1e-7)),
        int(np.sum(np.abs(rest - 1) <= 1e-7)),
        int(np.sum(rest > 1 + 1e-7)),
    )
    return expect if sum(expect) == 4 else None


class TestMahlerMeasure:
    def test_exact_power(self):
        iv = mahler_measure_interval(quartic("16,-32,24,-8,1"), Fraction(1, 2 ** 20))
        assert iv.lo == iv.hi == 16

    def test_matches_numpy(self):
        rng = random.Random(21)
        for _ in range(60):
            P = random_valid_quartic(rng)
            p = P.poly
            if p.trailing_zero_count() or _analyze(P).orders:
                continue
            m = float(np.prod(np.maximum(1.0, np.abs(np.roots(list(reversed(p.coeffs)))))))
            iv = mahler_measure_interval(P, Fraction(1, 2 ** 16))
            assert iv.width <= Fraction(1, 2 ** 16)
            assert float(iv.lo) - 1e-4 <= m <= float(iv.hi) + 1e-4


# Certificates pinned to the last digit, one quartic per kind of off-circle
# group: two pairs with one inside, two pairs both outside (both groups
# narrow one shared u*), equal moduli with an irrational u*, a squared real
# quadratic, squared integer roots (point enclosures), a squared complex
# quadratic (the point c0), and B3.  Each entry holds classify's JSON, then
# the outside |mu|^2 enclosures and the Mahler measure enclosure at width
# 1/3^13.
GOLDEN_CERTIFICATES = [
    pytest.param(
        "3,1,5,2,1",
        '{"verdict": "B1", "eigen": {"n_zero": 0, "n_less": 2, "n_on": 0, "n_more": 2, '
        '"unity_orders": [], "outside_moduli_squared": [["37864247/8388608", '
        '"151456997/33554432"], ["37864247/8388608", "151456997/33554432"]]}, '
        '"growth_base": ["4733031/1048576", "9466063/2097152"]}',
        [
            ("302913983/67108864", "37864249/8388608"),
            ("302913983/67108864", "37864249/8388608"),
        ],
        ("4733031/1048576", "18932125/4194304"),
        id="two-pairs-one-inside",
    ),
    pytest.param(
        "10,2,5,1,1",
        '{"verdict": "B1", "eigen": {"n_zero": 0, "n_less": 0, "n_on": 0, "n_more": 4, '
        '"unity_orders": [], "outside_moduli_squared": [["21474836480/7866807543", '
        '"5368709120/1966701487"], ["21474836480/7866807543", "5368709120/1966701487"], '
        '["1966701487/536870912", "7866807543/2147483648"], ["1966701487/536870912", '
        '"7866807543/2147483648"]]}, "growth_base": ["20971519/2097152", '
        '"20971521/2097152"]}',
        [
            ("42949672960/15733613491", "5368709120/1966701487"),
            ("42949672960/15733613491", "5368709120/1966701487"),
            ("1966701487/536870912", "15733613491/4294967296"),
            ("1966701487/536870912", "15733613491/4294967296"),
        ],
        ("41943039/4194304", "41943041/4194304"),
        id="two-pairs-both-outside",
    ),
    pytest.param(
        "2,0,0,0,1",
        '{"verdict": "B1", "eigen": {"n_zero": 0, "n_less": 0, "n_on": 0, "n_more": 4, '
        '"unity_orders": [], "outside_moduli_squared": [["741455/524288", '
        '"2965821/2097152"], ["741455/524288", "2965821/2097152"], ["741455/524288", '
        '"2965821/2097152"], ["741455/524288", "2965821/2097152"]]}, "growth_base": '
        '["4194303/2097152", "4194305/2097152"]}',
        [
            ("5931641/4194304", "2965821/2097152"),
            ("5931641/4194304", "2965821/2097152"),
            ("5931641/4194304", "2965821/2097152"),
            ("5931641/4194304", "2965821/2097152"),
        ],
        ("8388607/4194304", "8388609/4194304"),
        id="equal-moduli",
    ),
    pytest.param(
        "1,-6,11,-6,1",
        '{"verdict": "B1", "eigen": {"n_zero": 0, "n_less": 2, "n_on": 0, "n_more": 2, '
        '"unity_orders": [], "outside_moduli_squared": '
        '[["1929258127669041/281474976710656", "482314553878921/70368744177664"], '
        '["1929258127669041/281474976710656", "482314553878921/70368744177664"]]}, '
        '"growth_base": ["14374093/2097152", "7187047/1048576"]}',
        [
            ("30144656872225/4398046511104", "482314553878921/70368744177664"),
            ("30144656872225/4398046511104", "482314553878921/70368744177664"),
        ],
        ("28748187/4194304", "7187047/1048576"),
        id="squared-real-quadratic",
    ),
    pytest.param(
        "36,-60,37,-10,1",
        '{"verdict": "B1", "eigen": {"n_zero": 0, "n_less": 0, "n_on": 0, "n_more": 4, '
        '"unity_orders": [], "outside_moduli_squared": [["4", "4"], ["4", "4"], ["9", "9"], '
        '["9", "9"]]}, "growth_base": ["36", "36"]}',
        [
            ("4", "4"),
            ("4", "4"),
            ("9", "9"),
            ("9", "9"),
        ],
        ("36", "36"),
        id="squared-integer-roots",
    ),
    pytest.param(
        "9,6,7,2,1",
        '{"verdict": "B1", "eigen": {"n_zero": 0, "n_less": 0, "n_on": 0, "n_more": 4, '
        '"unity_orders": [], "outside_moduli_squared": [["3", "3"], ["3", "3"], ["3", "3"], '
        '["3", "3"]]}, "growth_base": ["9", "9"]}',
        [
            ("3", "3"),
            ("3", "3"),
            ("3", "3"),
            ("3", "3"),
        ],
        ("9", "9"),
        id="squared-complex-quadratic",
    ),
    pytest.param(
        "3,1,4,1,1",
        '{"verdict": "B3", "eigen": {"n_zero": 0, "n_less": 0, "n_on": 2, "n_more": 2, '
        '"unity_orders": [4, 4], "outside_moduli_squared": [["3", "3"], ["3", "3"]]}, '
        '"growth_base": ["3", "3"], "r": 4}',
        [
            ("3", "3"),
            ("3", "3"),
        ],
        ("3", "3"),
        id="b3",
    ),
]


@pytest.mark.parametrize("text, report, moduli, mahler", GOLDEN_CERTIFICATES)
def test_golden_certificates(text, report, moduli, mahler):
    P, width = quartic(text), Fraction(1, 3 ** 13)
    assert json.dumps(classify(P).to_dict()) == report
    census = count_roots_by_modulus(P, width)
    assert [(str(iv.lo), str(iv.hi)) for iv in census.outside_moduli] == moduli
    iv = mahler_measure_interval(P, width)
    assert (str(iv.lo), str(iv.hi)) == mahler
