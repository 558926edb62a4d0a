import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from torusfix.intervals import RationalInterval, is_square_rational, sqrt_interval
from torusfix.polynomials import (
    IntPolynomial,
    _square_free_kernel,
    cauchy_bound,
    count_real_roots,
    cyclotomic,
    parse_poly,
    poly_divmod,
    power_mod,
    rational_roots,
    real_root_isolation,
    refine_root,
    serialize_poly,
    square_free_part,
    squarefree_decomposition,
    sturm_chain,
    sturm_count,
)

from oracles import bisect_root, derivative, evaluate, primitive_integer, real_root_count
from oracles import remainder_sequence
from oracles import rational_roots as rational_root_theorem
from oracles import resultant as sylvester_resultant
from oracles import square_free_kernel

T = IntPolynomial((0, 1))


def poly(*coeffs):
    return IntPolynomial(coeffs)


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(IntPolynomial)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


class TestArithmetic:
    def test_trailing_zeros_trimmed(self):
        assert poly(1, 2, 0, 0).coeffs == (1, 2)
        assert poly(0, 0).is_zero()

    def test_evaluate(self):
        p = poly(1, -1, 1)  # t^2 - t + 1
        assert p(0) == 1
        assert p(2) == 3
        assert p(Fraction(1, 2)) == Fraction(3, 4)

    def test_mul_degree(self):
        p = poly(-1, 1) * poly(1, 1)
        assert p == poly(-1, 0, 1)

    def test_divexact(self):
        p = poly(-1, 0, 1)
        assert p.divexact(poly(-1, 1)) == poly(1, 1)
        with pytest.raises(ValueError):
            p.divexact(poly(1, 1, 1))
        # a primitive non-monic divisor divides in Z[t]; a non-primitive
        # one need not, and an inexact quotient step raises
        q = poly(-2, 0, 1) * poly(-2, 1) * poly(1, 2)
        assert q.divexact(poly(1, 2)) == poly(-2, 0, 1) * poly(-2, 1)
        with pytest.raises(ValueError):
            p.divexact(poly(2, 2))
        with pytest.raises(ValueError):  # 3t + 1 = 1 (2t + 1) + t over Q
            poly(1, 3).divexact(poly(1, 2))

    @given(small_polys, small_polys)
    @settings(max_examples=100, deadline=None)
    def test_product_evaluation_homomorphism(self, p, q):
        x = Fraction(3, 7)
        assert (p * q)(x) == p(x) * q(x)


class TestSerialization:
    def test_round_trip(self):
        assert serialize_poly(poly(1, -1, 1)) == "1,-1,1"
        assert parse_poly("1,-1,1") == poly(1, -1, 1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("1,x,3")

    @given(small_polys)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, p):
        if p.is_zero():
            return
        assert parse_poly(serialize_poly(p)) == p


class TestGcdResultant:
    def test_resultant_linear_convention(self):
        # Res(t - 2, t - 3) = (t - 3) evaluated at 2
        assert sylvester_resultant((-2, 1), (-3, 1)) == -1

    def test_resultant_evaluation(self):
        p = poly(1, -1, 1, 0, 1)
        for m in range(-3, 4):
            assert sylvester_resultant(p.coeffs, (m, -1)) == p(m)

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=120, deadline=None)
    def test_resultant_zero_iff_common_factor(self, p, q):
        if p.degree == 0 or q.degree == 0:
            return
        shared = len(fraction_gcd(p, q)) > 1
        assert (sylvester_resultant(p.coeffs, q.coeffs) == 0) == shared

    def test_gcd_positive_leading(self):
        # 2t^3 - 2t^2 - 2t + 2 = 2 (t - 1)^2 (t + 1): the chain ends in a
        # multiple of t - 1 and the square-free part is t^2 - 1
        p = poly(2, -2, -2, 2)
        assert sturm_chain(p)[-1].primitive() == poly(-1, 1)
        assert square_free_part(p) == square_free_part(-p) == poly(-1, 0, 1)


class TestCyclotomic:
    def test_table_values(self):
        assert cyclotomic(1) == poly(-1, 1)
        assert cyclotomic(5) == poly(1, 1, 1, 1, 1)
        assert cyclotomic(12) == poly(1, 0, -1, 0, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cyclotomic(13)

    def test_phi_matches_degree(self):
        for k in range(1, 13):
            totient = sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
            assert totient == cyclotomic(k).degree

    def test_divides_power_minus_one(self):
        for k in range(1, 13):
            tn_minus_1 = IntPolynomial([-1] + [0] * (k - 1) + [1])
            assert poly_divmod(tn_minus_1, cyclotomic(k))[1].is_zero()


class TestRealRoots:
    def test_sturm_count_sqrt2(self):
        p = poly(-2, 0, 1)
        assert sturm_count(p, RationalInterval(Fraction(0), Fraction(2))) == 1

    def test_sturm_count_no_real_roots(self):
        p = poly(1, 0, 1)
        assert sturm_count(p, RationalInterval(Fraction(-10), Fraction(10))) == 0

    def test_sturm_count_endpoint_root_rejected(self):
        p = poly(-2, 1)
        with pytest.raises(ValueError):
            sturm_count(p, RationalInterval(Fraction(2), Fraction(3)))

    def test_salem_like_real_pair(self):
        p = poly(1, -1, -1, -1, 1)
        assert sturm_count(p, RationalInterval(Fraction(-2), Fraction(2))) == 2

    def test_isolation_mixed_roots(self):
        p = poly(-2, 0, 1) * poly(-2, 1) * poly(1, 2)
        ivs = real_root_isolation(p)
        assert len(ivs) == 4
        points = [iv for iv in ivs if iv.lo == iv.hi]
        assert sorted(iv.lo for iv in points) == [Fraction(-1, 2), Fraction(2)]

    def test_isolation_intervals_disjoint(self):
        rng = random.Random(5)
        for _ in range(40):
            p = IntPolynomial([rng.randint(-6, 6) for _ in range(5)] + [1])
            ivs = real_root_isolation(p)
            assert len(ivs) == count_real_roots(p)
            for a, b in zip(ivs, ivs[1:]):
                assert a.hi <= b.lo

    def test_refine_root(self):
        p = poly(-2, 0, 1)
        (neg, pos) = real_root_isolation(p)
        iv = refine_root(p, pos, Fraction(1, 10 ** 9))
        assert iv.width <= Fraction(1, 10 ** 9)
        assert iv.lo ** 2 <= 2 <= iv.hi ** 2

    def test_refine_root_bisects_the_polynomial_given(self):
        # no square-free part is taken: an odd power bisects like its base,
        # and an even power shows no sign change
        base, bracket = poly(-2, 0, 1), RationalInterval(Fraction(1), Fraction(2))
        width = Fraction(1, 2 ** 30)
        assert refine_root(base * base * base, bracket, width) == refine_root(base, bracket, width)
        with pytest.raises(ValueError, match="sign-change"):
            refine_root(base * base, bracket, width)

    @pytest.mark.parametrize("width", [Fraction(0), Fraction(-1, 4)])
    def test_refine_root_rejects_non_positive_width(self, width):
        # bisection never narrows an irrational root's bracket to width <= 0
        p = poly(-2, 0, 1)
        with pytest.raises(ValueError, match="width must be positive"):
            refine_root(p, real_root_isolation(p)[1], width)

    def test_cauchy_bound_contains_roots(self):
        p = poly(-6, 11, -6, 1)  # roots 1, 2, 3
        assert cauchy_bound(p) > 3


class TestSquareFree:
    def test_part(self):
        assert square_free_part(poly(-2, 1) * poly(-2, 1)) == poly(-2, 1)

    def test_decomposition(self):
        q = poly(-1, 1) * poly(-1, 1) * poly(1, 1)
        decomp = dict((m, f) for f, m in squarefree_decomposition(q))
        assert decomp[2] == poly(-1, 1)
        assert decomp[1] == poly(1, 1)

    def test_decomposition_reconstructs(self):
        rng = random.Random(11)
        for _ in range(30):
            factors = [
                IntPolynomial([rng.randint(-3, 3), 1]) for _ in range(rng.randint(1, 3))
            ]
            p = IntPolynomial((1,))
            for f in factors:
                p = p * f
            rebuilt = IntPolynomial((1,))
            for f, m in squarefree_decomposition(p):
                for _ in range(m):
                    rebuilt = rebuilt * f
            assert rebuilt.primitive() == p.primitive()


    @given(st.integers(-10 ** 12, 10 ** 12))
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_trial_division(self, n):
        assert _square_free_kernel(n) == square_free_kernel(n)

    @given(st.integers(1, 2000), st.integers(1, 2000), st.integers(1, 10 ** 5))
    @settings(max_examples=300, deadline=None)
    def test_kernel_of_square_and_cube_factors(self, a, b, c):
        # m = p^2 and m = p q left after the cube-root bound, and cubes below it
        for n in (a * a * c, a * a * a * b, a * b * c * c, 0):
            assert _square_free_kernel(n) == square_free_kernel(n)


class TestMisc:
    def test_rational_roots(self):
        p = poly(-2, 1) * poly(1, 2) * poly(1, 0, 1)
        assert sorted(rational_roots(p)) == [Fraction(-1, 2), Fraction(2)]

    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12)), max_size=3),
           st.lists(st.integers(-9, 9), max_size=3), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_rational_roots_match_root_theorem(self, linear, rest, lead):
        # planted roots -num/den, times a random cofactor with a leading lead
        p = IntPolynomial(rest + [lead])
        for num, den in linear:
            p = p * poly(num, den)
        if p.is_zero():
            return
        assert rational_roots(p) == rational_root_theorem(p.coeffs)

    def test_rational_roots_of_wide_coefficients(self):
        # 2^89 - 1 is prime; trial division up to its square root never ends
        big = 2 ** 89 - 1
        p = poly(-3 * big, big - 3, 1) * poly(5, 7)
        assert rational_roots(p) == [Fraction(-big), Fraction(-5, 7), Fraction(3)]

    def test_is_square_rational(self):
        assert is_square_rational(Fraction(9, 4)) == Fraction(3, 2)
        assert is_square_rational(Fraction(2)) is None

    @given(st.lists(st.integers(-50, 50), max_size=9), st.lists(st.integers(-9, 9), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_divmod_monic(self, p_coeffs, m_low):
        p, m = IntPolynomial(p_coeffs), IntPolynomial(m_low + [1])
        quo, rem = poly_divmod(p, m)
        assert quo * m + rem == p
        assert rem.degree < m.degree

    def test_power_mod_matches_remainder(self):
        p = poly(1, -1, 1, 0, 1)
        tn = power_mod(37, p)
        naive = T
        for _ in range(36):
            naive = naive * T
        _, rem = poly_divmod(naive, p)
        assert tn == rem


@st.composite
def repeated_factor_polys(draw, max_degree: int = 8):
    """Products of integer factors of degree 1 or 2, each to a power up to
    3, with degree <= max_degree and a leading coefficient of absolute value
    at most 12."""
    p, budget = IntPolynomial((1,)), 12
    for _ in range(draw(st.integers(1, 3))):
        deg, mult = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        if p.degree + deg * mult > max_degree:
            break
        lead = draw(st.integers(1, max(l for l in range(1, 13) if l ** mult <= budget)))
        budget //= lead ** mult
        low = draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg))
        f = IntPolynomial(low + [lead * draw(st.sampled_from((1, -1)))])
        for _ in range(mult):
            p = p * f
    return p


@st.composite
def primitive_non_monic(draw):
    d = IntPolynomial(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
                      + [draw(st.sampled_from([x for x in range(-12, 13) if abs(x) >= 2]))])
    return IntPolynomial([c // abs(d.content()) for c in d.coeffs])


def fraction_gcd(p: IntPolynomial, q: IntPolynomial) -> tuple[int, ...]:
    """The last remainder of Euclid over Q, primitive with positive leading
    coefficient."""
    g = primitive_integer(remainder_sequence(p.coeffs, q.coeffs)[-1])
    return g if g[-1] > 0 else tuple(-c for c in g)


class TestIntegerCore:
    """The integer remainder sequences against Euclid over Q."""

    @given(repeated_factor_polys())
    @example(poly(-3, 1, 0, 0, 2))  # 8t^3 + 1 by 4 - t: an odd power of lc b < 0
    @settings(max_examples=200, deadline=None)
    def test_sturm_chain_matches_fraction_sequence(self, p):
        expected = remainder_sequence(p.coeffs, derivative(p.coeffs), sign=-1)
        chain = sturm_chain(p)
        assert chain[:2] == [p, p.derivative()]
        assert [q.coeffs for q in chain[2:]] == [primitive_integer(q) for q in expected[2:]]

    @given(repeated_factor_polys(4), repeated_factor_polys(4), repeated_factor_polys(4))
    @settings(max_examples=200, deadline=None)
    def test_gcd_matches_fraction_euclid(self, common, a, b):
        # the Sturm chain ends in gcd(p, p') up to a constant, and the
        # square-free part is p over that gcd
        for p in (common * a, common * b):
            g = fraction_gcd(p, p.derivative())
            assert sturm_chain(p)[-1].primitive().coeffs == g
            assert square_free_part(p) * IntPolynomial(g) == p.primitive()

    @given(small_polys, primitive_non_monic())
    @settings(max_examples=200, deadline=None)
    def test_exact_division_by_primitive_non_monic(self, q, d):
        assert (q * d).divexact(d) == q

    @given(small_polys, st.lists(st.integers(-9, 9), min_size=1, max_size=4),
           st.sampled_from([x for x in range(-12, 13) if x]))
    @settings(max_examples=300, deadline=None)
    def test_divmod_by_non_monic(self, p, low, lead):
        # either q d + r = p with deg r < deg d, or an inexact quotient step
        d = IntPolynomial(low + [lead])
        try:
            quo, rem = poly_divmod(p, d)
        except ValueError:
            assert lead not in (1, -1)
            return
        assert quo * d + rem == p and rem.degree < d.degree

    @given(small_polys, primitive_non_monic(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_division_by_non_divisor_raises(self, q, d, data):
        low = data.draw(st.lists(st.integers(-9, 9), min_size=d.degree, max_size=d.degree))
        r = IntPolynomial(low)
        if r.is_zero():
            return
        with pytest.raises(ValueError):
            (q * d + r).divexact(d)


@st.composite
def square_free_polys(draw):
    """Square-free integer polynomials of degree 1 to 6, monic or not."""
    low = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    lead = draw(st.one_of(st.just(1), st.sampled_from([x for x in range(-12, 13) if x])))
    coeffs = low + [lead]
    assume(len(remainder_sequence(coeffs, derivative(coeffs))[-1]) == 1)
    return IntPolynomial(coeffs)


# widths 2^-1 ... 2^-60, and widths whose denominator is not a power of two
widths = st.one_of(
    st.integers(1, 60).map(lambda k: Fraction(1, 2 ** k)),
    st.builds(Fraction, st.integers(1, 1000), st.integers(3, 10 ** 9)).filter(
        lambda w: w.denominator & (w.denominator - 1)),
)
non_dyadic = st.builds(Fraction, st.integers(-200, 200), st.sampled_from([3, 5, 7, 9, 11, 13, 15]))


def narrowed(p: IntPolynomial, iv: RationalInterval, data) -> RationalInterval:
    """A sub-bracket of iv with endpoints lo + k (hi - lo) / q for odd q,
    still with a sign change, or iv itself when the drawn one has none."""
    if iv.lo == iv.hi:
        return iv
    q = data.draw(st.sampled_from([3, 5, 7, 9, 11]))
    i = data.draw(st.integers(0, q - 1))
    j = data.draw(st.integers(i + 1, q))
    lo, hi = iv.lo + iv.width * Fraction(i, q), iv.lo + iv.width * Fraction(j, q)
    if evaluate(p.coeffs, lo) * evaluate(p.coeffs, hi) < 0:
        return RationalInterval(lo, hi)
    return iv


class TestRootLayer:
    """The integer bisection against Fraction bisection at (lo + hi) / 2."""

    @given(square_free_polys(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_refine_root_matches_fraction_bisection(self, p, data):
        for iv in real_root_isolation(p):
            iv, width = narrowed(p, iv, data), data.draw(widths)
            out = refine_root(p, iv, width)
            assert (out.lo, out.hi) == bisect_root(p.coeffs, iv.lo, iv.hi, width)

    def test_refine_root_from_non_dyadic_bracket(self):
        # t^4 - 5t^3 + 22t^2 + 3t - 7 from (1/3, 5/7] and a midpoint root
        p = poly(-7, 3, 22, -5, 1)
        lo, hi = Fraction(1, 3), Fraction(5, 7)
        for width in (Fraction(1, 2 ** 40), Fraction(1, 3 ** 20), Fraction(2)):
            out = refine_root(p, RationalInterval(lo, hi), width)
            assert (out.lo, out.hi) == bisect_root(p.coeffs, lo, hi, width)
        q = poly(-3, 4)  # (0, 3/2] halves to 3/4 at the first step
        out = refine_root(q, RationalInterval(Fraction(0), Fraction(3, 2)), Fraction(1, 8))
        assert out.lo == out.hi == Fraction(3, 4)

    @given(square_free_polys(), non_dyadic, non_dyadic)
    @example(poly(-2, 0, 1), Fraction(-10, 7), Fraction(13, 9))
    @settings(max_examples=300, deadline=None)
    def test_sturm_count_matches_oracle(self, p, lo, hi):
        assume(lo < hi and evaluate(p.coeffs, lo) and evaluate(p.coeffs, hi))
        assert sturm_count(p, RationalInterval(lo, hi)) == real_root_count(p.coeffs, lo, hi)


class TestIntervals:
    def test_sqrt_rejects_zero_width(self):
        with pytest.raises(ValueError, match="width must be positive"):
            sqrt_interval(RationalInterval.point(Fraction(2)), Fraction(0))

    def test_sqrt_exact_square(self):
        iv = sqrt_interval(RationalInterval.point(Fraction(256)), Fraction(1, 2 ** 20))
        assert iv.lo == iv.hi == 16

    def test_sqrt_encloses(self):
        iv = sqrt_interval(RationalInterval.point(Fraction(2)), Fraction(1, 2 ** 30))
        assert iv.lo ** 2 <= 2 <= iv.hi ** 2
        assert iv.width <= Fraction(1, 2 ** 30)

    def test_interval_mul(self):
        a = RationalInterval(Fraction(-1), Fraction(2))
        b = RationalInterval(Fraction(3), Fraction(4))
        assert (a * b).lo == -4 and (a * b).hi == 8

    @given(st.lists(st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12)),
                    min_size=4, max_size=4), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_interval_mul_and_power_hull(self, ends, k):
        # the product is the hull of the four endpoint products, whatever
        # the signs, and intpow(k) is the k-fold product
        a = RationalInterval(*sorted(ends[:2]))
        b = RationalInterval(*sorted(ends[2:]))
        products = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        assert (a * b).lo == min(products) and (a * b).hi == max(products)
        power = RationalInterval.point(1)
        for _ in range(k):
            power = power * a
        assert a.intpow(k) == power
