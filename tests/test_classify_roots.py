import random
from fractions import Fraction

import numpy as np
import pytest

from torusfix.behavior import mahler_measure_interval
from torusfix.errors import InvalidEndomorphismError, InvalidStructureError
from torusfix.polynomials import parse_poly, square_free_part
from torusfix.unitcircle import (
    CharPolyQuartic,
    count_roots_by_modulus,
    cyclotomic_orders_with_multiplicity,
    root_of_unity_order,
    unit_circle_factor,
    validate_conjugate_pair_structure,
)

from oracles import SchurCohnDegenerate, schur_cohn_inside
from util import random_valid_quartic


def quartic(text: str) -> CharPolyQuartic:
    return CharPolyQuartic(parse_poly(text))


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
        assert unit_circle_factor(quartic("1,-2,3,-2,1")) == parse_poly("1,-1,1") * parse_poly("1,-1,1")

    def test_no_roots_on_circle(self):
        assert unit_circle_factor(quartic("16,-32,24,-8,1")).degree == 0
        assert unit_circle_factor(quartic("1,1,0,0,1")).degree == 0

    def test_mixed(self):
        assert unit_circle_factor(quartic("4,0,5,0,1")) == parse_poly("1,0,1")

    def test_salem_type_straddle_rejected(self):
        with pytest.raises((InvalidStructureError, InvalidEndomorphismError)):
            count_roots_by_modulus(quartic("1,-1,-1,-1,1"))


class TestRootOfUnityOrders:
    def test_orders(self):
        assert root_of_unity_order(parse_poly("1,0,1")) == 4
        assert root_of_unity_order(parse_poly("1,-1,1")) == 6
        assert root_of_unity_order(parse_poly("1,1,1,1,1")) == 5
        assert root_of_unity_order(parse_poly("-1,1")) == 1

    def test_non_cyclotomic(self):
        assert root_of_unity_order(parse_poly("-1,-1,1")) is None

    def test_multiplicities(self):
        sq = parse_poly("1,-1,1") * parse_poly("1,-1,1")
        assert cyclotomic_orders_with_multiplicity(sq) == [6, 6, 6, 6]


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
            mods = np.abs(np.roots(list(reversed(P.poly.coeffs))))
            rest = mods[mods > 1e-9]
            expect = (
                P.poly.trailing_zero_count(),
                int(np.sum(rest < 1 - 1e-7)),
                int(np.sum(np.abs(rest - 1) <= 1e-7)),
                int(np.sum(rest > 1 + 1e-7)),
            )
            if sum(expect) != 4:
                continue  # numerically ambiguous; skip
            c = count_roots_by_modulus(P)
            assert (c.n_zero, c.n_less, c.n_on, c.n_more) == expect, P.poly
            checked += 1


class TestMahlerMeasure:
    def test_exact_power(self):
        iv = mahler_measure_interval(quartic("16,-32,24,-8,1"), Fraction(1, 2 ** 20))
        assert iv.lo == iv.hi == 16

    def test_matches_numpy(self):
        rng = random.Random(21)
        for _ in range(60):
            P = random_valid_quartic(rng)
            p = P.poly
            if p.trailing_zero_count() or unit_circle_factor(P).degree:
                continue
            m = float(np.prod(np.maximum(1.0, np.abs(np.roots(list(reversed(p.coeffs)))))))
            iv = mahler_measure_interval(P, Fraction(1, 2 ** 16))
            assert iv.width <= Fraction(1, 2 ** 16)
            assert float(iv.lo) - 1e-4 <= m <= float(iv.hi) + 1e-4
