"""Acceptance suite: nine end-to-end checks, one pass/fail line each.

Each test exercises the public API on a published golden value, a bulk
randomized property, or a cross-implementation oracle, and enforces a
wall-clock budget."""

import math
import random
import time
from fractions import Fraction
from itertools import count

import mpmath
import pytest

from torusfix import (
    AnalyticRep,
    CharPolyQuartic,
    CMElement,
    CMFieldDesc,
    InvalidEndomorphismError,
    InvalidStructureError,
    NotDivisionAlgebraError,
    RationalRep,
    RealQuadElement,
    ZeroEndomorphismError,
    char_poly_rational,
    classify,
    cm_classify,
    find_small_eigenvalue_parameter,
    fix_count,
    fix_sequence,
    mcmullen_family,
    parse_poly,
    periodic_eigenvalue_table,
    quat_classify,
    quaternion_element,
    rm_classify,
)
from torusfix.algebras import cm_char_poly, quat_char_poly, quat_reduced_charpoly, rm_char_poly
from torusfix.polynomials import cyclotomic
from torusfix.unitcircle import ALLOWED_UNITY_ORDERS

from oracles import SchurCohnDegenerate, det_fix, off_circle_part, schur_cohn_inside
from util import random_int_matrix, random_valid_quartic


def report(name: str, budget: float, started: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeds {budget}s budget"
    print(f"PASS {name} ({elapsed:.2f}s < {budget}s)")


def scalar_rep(m: int) -> RationalRep:
    return RationalRep([[m if i == j else 0 for j in range(4)] for i in range(4)])


SQUARE_FREE_D = (2, 3, 5, 6, 7, 10, 11, 13)
INDEFINITE_SYMBOLS = ((2, 3), (3, 2), (2, -3), (-3, 2), (5, 2), (2, 5), (3, -1), (7, 3))
CM_FIELDS = [CMFieldDesc(cyclotomic(k)) for k in (5, 8, 10, 12)] + [
    CMFieldDesc(parse_poly(f"{r},0,{p},0,1")) for p, r in ((3, 1), (5, 2), (7, 3), (5, 1), (6, 2))
]


def random_rm_element(rng: random.Random) -> RealQuadElement:
    while True:
        x = RealQuadElement(rng.choice(SQUARE_FREE_D), rng.randint(-4, 4), rng.randint(-4, 4))
        if not x.is_zero():
            return x


def random_quat_element(rng: random.Random):
    alpha, beta = rng.choice(INDEFINITE_SYMBOLS)
    coeffs = [rng.randint(-3, 3) for _ in range(4)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    return quaternion_element(alpha, beta, *coeffs)


def random_cm_element(rng: random.Random) -> CMElement:
    while True:
        x = CMElement(rng.choice(CM_FIELDS), [rng.randint(-3, 3) for _ in range(4)])
        if not x.is_zero():
            return x


def test_acceptance_1_rotation_golden():
    t0 = time.monotonic()
    rotation = AnalyticRep(1, [[1, -1], [1, 0]])
    assert fix_sequence(rotation, 12) == [1, 9, 16, 9, 1, 0] * 2
    report("1 rotation fixed-point sequence over two periods", 1.0, t0)


def test_acceptance_2_multiplication_closed_form():
    t0 = time.monotonic()
    for m in (2, 3, -2):
        for n in range(1, 7):
            assert fix_count(scalar_rep(m), n) == (m ** n - 1) ** 4
    report("2 multiplication-by-m closed form (m**n - 1)**4", 1.0, t0)


GAUSSIAN_DIAG = AnalyticRep(-1, [[(0, 1), 0], [0, (0, 2)]])


def gaussian_log_ratio(seq, n: int) -> float:
    return math.log(seq[n - 1]) / (n * math.log(4))


def test_acceptance_3_mixed_behaviour_gaussian():
    t0 = time.monotonic()
    r = classify(GAUSSIAN_DIAG)
    assert r.verdict == "B3" and r.r == 4
    seq = fix_sequence(GAUSSIAN_DIAG, 40)
    for n in range(1, 41):
        assert (seq[n - 1] == 0) == (n % 4 == 0)
    for n in range(11, 41):
        if n % 4 == 0:
            continue
        assert 0.9 <= gaussian_log_ratio(seq, n) <= 1.1, n
    report("3 mixed verdict, vanishing pattern, growth rate for diag(i, 2i)", 2.0, t0)


@pytest.mark.xfail(
    strict=True,
    reason="exact count fix(f^10) = 4 * 1025**2 = 4202500 gives log ratio "
    "1.10014: for n = 2 mod 4 the ratio is (n+1)/n plus a positive "
    "correction, which sits just above 1.1 at the n = 10 boundary",
)
def test_acceptance_3_boundary_n10():
    seq = fix_sequence(GAUSSIAN_DIAG, 10)
    assert gaussian_log_ratio(seq, 10) <= 1.1


def test_acceptance_4_determinant_resultant_oracle():
    t0 = time.monotonic()
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        mat = random_int_matrix(rng)
        rep = RationalRep(mat)
        try:
            char_poly_rational(rep)
        except InvalidStructureError:
            continue
        for n in range(1, 9):
            assert fix_count(rep, n) == det_fix(mat, n)
        checked += 1
    report("4 fix_count equals the det(I - M^n) oracle on 200 valid matrices", 30.0, t0)


def test_acceptance_5_census_invariants():
    t0 = time.monotonic()
    rng = random.Random(52)
    quartics = [random_valid_quartic(rng) for _ in range(700)]
    for _ in range(100):
        quartics.append(rm_char_poly(random_rm_element(rng)))
        quartics.append(cm_char_poly(random_cm_element(rng)))
    while len(quartics) < 1000:
        try:
            quartics.append(quat_char_poly(random_quat_element(rng)))
        except NotDivisionAlgebraError:
            continue
    assert len(quartics) >= 1000
    schur_cohn_checked = 0
    for P in quartics:
        try:
            r = classify(P)
        except ZeroEndomorphismError:
            continue
        except InvalidEndomorphismError as exc:  # criterion: never raised here
            raise AssertionError(f"valid quartic {P} rejected: {exc}")
        e = r.eigen
        if e.n_less > 0:
            assert e.n_more > 0, P
        assert set(e.unity_orders) <= set(ALLOWED_UNITY_ORDERS), P
        rest, n_on = off_circle_part(P.poly.coeffs)
        assert n_on == e.n_on, P
        try:
            assert schur_cohn_inside(rest) == e.n_less, P
            schur_cohn_checked += 1
        except SchurCohnDegenerate:
            pass
    assert schur_cohn_checked >= 900, schur_cohn_checked
    with pytest.raises(InvalidStructureError):
        classify(CharPolyQuartic(parse_poly("1,-1,-1,-1,1")))
    report("5 root-census invariants on 1000 valid quartics; Salem rejected", 60.0, t0)


def test_acceptance_6_algebra_types_never_mixed():
    t0 = time.monotonic()
    rng = random.Random(63)
    for _ in range(1000):
        assert rm_classify(random_rm_element(rng)).verdict != "B3"
    quat_done = 0
    while quat_done < 1000:
        try:
            assert quat_classify(random_quat_element(rng)).verdict != "B3"
        except NotDivisionAlgebraError:
            continue
        quat_done += 1
    for _ in range(1000):
        assert cm_classify(random_cm_element(rng)).verdict != "B3"
    f1 = quaternion_element(3, 2, 0, 1, 1, 1)
    f2 = quaternion_element(2, -3, Fraction(1, 2), 0, Fraction(1, 2), 0)
    f3 = quaternion_element(2, -3, Fraction(-1, 2), 0, Fraction(1, 2), 0)
    for elt, minpoly in ((f1, "1,0,1"), (f2, "1,-1,1"), (f3, "1,1,1")):
        r = quat_classify(elt)
        assert r.verdict == "B2"
        assert quat_reduced_charpoly(elt) == parse_poly(minpoly)
    report("6 no mixed verdicts across 3000 algebra elements; f1, f2, f3 periodic", 60.0, t0)


def test_acceptance_7_quaternion_charpoly_square():
    t0 = time.monotonic()
    rng = random.Random(74)
    done = 0
    while done < 300:
        try:
            x = random_quat_element(rng)
            chi = quat_reduced_charpoly(x)
            quartic = quat_char_poly(x).poly
        except NotDivisionAlgebraError:
            continue
        for m in range(-3, 4):
            assert chi(m) ** 2 == quartic(m)
        done += 1
    report("7 reduced char poly squared equals the quartic on 300 elements", 10.0, t0)


def test_acceptance_8_periodic_tables():
    t0 = time.monotonic()
    cm_orders = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 5: 4, 8: 4, 10: 4, 12: 4}
    cm_table = periodic_eigenvalue_table("cm")
    assert set(cm_table) == {cyclotomic(k) for k in cm_orders}
    assert len(cm_table) == 9
    for k, deg in cm_orders.items():
        poly = cyclotomic(k)
        assert poly.degree == deg
        assert poly.degree <= 2 if k in (1, 2, 3, 4, 6) else poly.degree == 4
        for root in mpmath.polyroots([mpmath.mpf(c) for c in reversed(poly.coeffs)]):
            assert abs(abs(root) - 1) < 1e-9
            assert abs(root ** k - 1) < 1e-9
    quat_table = periodic_eigenvalue_table("quaternion")
    assert set(quat_table) == {cyclotomic(k) for k in (1, 2, 3, 4, 6)}
    assert set(quat_table) <= set(cm_table)
    report("8 periodic eigenvalue tables match the unit-circle orders", 1.0, t0)


def test_acceptance_9_small_eigenvalue_search():
    t0 = time.monotonic()
    assert find_small_eigenvalue_parameter(Fraction(1)) == 0
    eps = Fraction(3, 10)
    a = find_small_eigenvalue_parameter(eps)

    def min_modulus(param: int) -> mpmath.mpf:
        poly = mcmullen_family(param).poly
        with mpmath.workdps(60):
            roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(poly.coeffs)])
            return min(abs(r) for r in roots)

    width = mpmath.mpf("1e-6")  # enclosure width for the independent check
    bound = mpmath.mpf(eps.numerator) / eps.denominator
    assert min_modulus(a) + width < bound
    assert min_modulus(a - 1) - width >= bound
    report(f"9 least parameter with an eigenvalue below 3/10 is {a}", 30.0, t0)
