import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusfix.behavior import classify, mahler_measure_interval
from torusfix.cli import main
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
    count_roots_by_modulus,
    unit_circle_factor,
    validate_conjugate_pair_structure,
)

from oracles import SchurCohnDegenerate, schur_cohn_inside
from util import random_valid_quartic


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


class TestStructureValidation:
    def test_accepts_conjugate_pairs(self):
        assert validate_conjugate_pair_structure(quartic("4,0,5,0,1"))
        assert validate_conjugate_pair_structure(quartic("1,-2,3,-2,1"))

    def test_accepts_even_multiplicity_real_roots(self):
        assert validate_conjugate_pair_structure(quartic("16,-32,24,-8,1"))
        assert validate_conjugate_pair_structure(quartic("1,-4,2,4,1"))

    def test_rejects_simple_real_roots(self):
        # Salem-type quartic: two real reciprocal roots, two on the circle
        assert not validate_conjugate_pair_structure(quartic("1,-1,-1,-1,1"))
        assert not validate_conjugate_pair_structure(quartic("-6,11,-6,0,1"))

    def test_non_quartic_rejected(self):
        with pytest.raises(InvalidStructureError):
            CharPolyQuartic(parse_poly("1,1,1"))
        with pytest.raises(InvalidStructureError):
            CharPolyQuartic(parse_poly("1,0,0,0,2"))


class TestUnitCircleFactor:
    def test_all_roots_on_circle(self):
        circle, _, cofactor = unit_circle_factor(quartic("1,-2,3,-2,1"))
        assert circle == parse_poly("1,-1,1") * parse_poly("1,-1,1")
        assert cofactor == ONE

    def test_no_roots_on_circle(self):
        p = parse_poly("16,-32,24,-8,1")
        assert unit_circle_factor(CharPolyQuartic(p)) == (ONE, (), p)
        assert unit_circle_factor(quartic("1,1,0,0,1"))[0] == ONE

    def test_mixed(self):
        assert unit_circle_factor(quartic("4,0,5,0,1")) == (PHI[4], (4, 4), parse_poly("4,0,1"))

    @given(st.one_of(
        st.lists(quadratic_block, min_size=2, max_size=2),
        st.sampled_from(CIRCLE_QUARTICS).map(lambda block: [block]),
    ))
    @settings(max_examples=300, deadline=None)
    def test_recovers_constructed_factors(self, blocks):
        P = CharPolyQuartic(product(p for _, p, _ in blocks))
        assert validate_conjugate_pair_structure(P)
        circle = product(p for kind, p, _ in blocks if kind == "circle")
        orders = tuple(sorted(k for _, _, ks in blocks for k in ks))
        cofactor = product(p for kind, p, _ in blocks if kind == "off")
        assert unit_circle_factor(P) == (circle, orders, cofactor)

    def test_salem_type_straddle_rejected(self, capsys):
        salem = quartic("1,-1,-1,-1,1")
        with pytest.raises(InvalidStructureError):
            count_roots_by_modulus(salem)
        with pytest.raises(InvalidStructureError):
            classify(salem)
        with pytest.raises(InvalidStructureError):
            mahler_measure_interval(salem)
        assert main(["classify", "--charpoly", "1,-1,-1,-1,1"]) == 2
        assert "InvalidStructureError" in capsys.readouterr().err


class TestRootOfUnityOrders:
    def test_orders(self):
        assert unit_circle_factor(CharPolyQuartic(PHI[4] * PHI[6]))[1] == (4, 4, 6, 6)
        assert unit_circle_factor(CharPolyQuartic(PHI[5]))[1] == (5, 5, 5, 5)
        assert unit_circle_factor(CharPolyQuartic(PHI[1].square() * PHI[3]))[1] == (1, 1, 3, 3)

    def test_non_cyclotomic(self):
        golden_sq = parse_poly("-1,-1,1").square()
        assert unit_circle_factor(CharPolyQuartic(golden_sq)) == (ONE, (), golden_sq)

    def test_multiplicities(self):
        assert unit_circle_factor(CharPolyQuartic(PHI[6].square()))[1] == (6, 6, 6, 6)


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
            if p.trailing_zero_count() or unit_circle_factor(P)[0].degree:
                continue
            m = float(np.prod(np.maximum(1.0, np.abs(np.roots(list(reversed(p.coeffs)))))))
            iv = mahler_measure_interval(P, Fraction(1, 2 ** 16))
            assert iv.width <= Fraction(1, 2 ** 16)
            assert float(iv.lo) - 1e-4 <= m <= float(iv.hi) + 1e-4
