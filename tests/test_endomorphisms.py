import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusfix.endomorphisms import (
    MAX_ITERATE,
    AnalyticRep,
    RationalRep,
    char_poly_rational,
    charpoly_int_matrix,
    fix_count,
    fix_count_quartic,
    fix_sequence,
    fix_values,
)
from torusfix.errors import InvalidStructureError, NonIntegralError
from torusfix.polynomials import IntPolynomial, parse_poly
from torusfix.unitcircle import CharPolyQuartic

from oracles import bareiss_det, det_fix, fix_resultant
from util import random_int_matrix, random_valid_quartic


def scalar_rep(m: int) -> RationalRep:
    return RationalRep([[m if i == j else 0 for j in range(4)] for i in range(4)])


def companion(coeffs) -> list[list[int]]:
    """Companion matrix of a monic quartic, ascending coefficients."""
    return [[int(i == j + 1) if j < 3 else -coeffs[i] for j in range(4)] for i in range(4)]


def _quadratic_squared(ab) -> IntPolynomial:
    q = IntPolynomial((ab[1], ab[0], 1))
    return q * q


# Monic quartics of every kind, most failing conjugate-pair validation: free
# coefficients, a root at 0, and squares of quadratics (repeated roots).
monic_quartics = st.one_of(
    st.lists(st.integers(-6, 6), min_size=4, max_size=4).map(lambda c: IntPolynomial(c + [1])),
    st.lists(st.integers(-6, 6), min_size=3, max_size=3).map(lambda c: IntPolynomial([0] + c + [1])),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(_quadratic_squared),
)


class TestCharPoly:
    def test_integer_matrix_companion(self):
        p = parse_poly("4,0,5,0,1")
        companion = [
            [0, 0, 0, -4],
            [1, 0, 0, 0],
            [0, 1, 0, -5],
            [0, 0, 1, 0],
        ]
        assert charpoly_int_matrix(companion) == p

    @given(st.lists(st.integers(-3, 3), min_size=16, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_integer_charpoly_matches_determinants(self, entries):
        # a monic quartic is pinned by its values at five points, here
        # det(tI - A) by fraction-free elimination
        a = [entries[4 * i:4 * i + 4] for i in range(4)]
        p = charpoly_int_matrix(a)
        assert p.degree == 4 and p.is_monic()
        for t in range(-2, 3):
            assert p(t) == bareiss_det([[t * (i == j) - a[i][j] for j in range(4)] for i in range(4)])

    def test_scalar(self):
        assert char_poly_rational(scalar_rep(2)).poly == parse_poly("16,-32,24,-8,1")

    def test_rotation_product_structure(self):
        e = AnalyticRep(1, [[1, -1], [1, 0]])
        assert char_poly_rational(e).poly == parse_poly("1,-2,3,-2,1")

    def test_gaussian_diagonal(self):
        e = AnalyticRep(-1, [[(0, 1), 0], [0, (0, 2)]])
        assert char_poly_rational(e).poly == parse_poly("4,0,5,0,1")

    def test_imaginary_conjugation_yields_norms(self):
        e = AnalyticRep(-5, [[(1, 1), 0], [0, (0, 0)]])
        # eigenvalues 1 + sqrt(-5) and 0: P = t^2 (t^2 - 2t + 6)
        assert char_poly_rational(e).poly == parse_poly("0,0,6,-2,1")

    def test_non_integral_rejected(self):
        e = AnalyticRep(-1, [[(Fraction(1, 2), 0), 0], [0, 0]])
        with pytest.raises(NonIntegralError):
            char_poly_rational(e)

    def test_invalid_structure_rejected(self):
        # four simple real eigenvalues: odd multiplicity with real roots
        m = [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]]
        with pytest.raises(InvalidStructureError):
            char_poly_rational(RationalRep(m))

    @pytest.mark.parametrize("entry", [1.5, True, False, Fraction(3, 2), float("inf"), float("nan")])
    def test_rational_rep_rejects_non_integers(self, entry):
        # int() would truncate 1.5 to 1 and read True as 1
        with pytest.raises(ValueError):
            RationalRep([[entry, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(ValueError):
            AnalyticRep(entry, [[1, 0], [0, 1]])

    def test_rational_rep_accepts_integral_values(self):
        m = [[2.0, "0", 0, 0], [0, Fraction(4, 2), 0, 0], [0, 0, " 2", 0], [0, 0, 0, 2]]
        assert RationalRep(m) == scalar_rep(2)
        assert AnalyticRep(-1.0, [[1, 0], [0, 1]]) == AnalyticRep("-1", [[1, 0], [0, 1]])


class TestFixCount:
    def test_multiplication_closed_form(self):
        for m in (2, 3, -2):
            for n in range(1, 7):
                assert fix_count(scalar_rep(m), n) == (m ** n - 1) ** 4

    def test_determinant_equals_resultant(self):
        rng = random.Random(17)
        checked = 0
        while checked < 60:
            mat = random_int_matrix(rng)
            p = charpoly_int_matrix(mat)
            try:
                char_poly_rational(RationalRep(mat))
                valid = True
            except InvalidStructureError:
                valid = False
            for n in (1, 2, 3, 5):
                det = det_fix(mat, n)
                assert det == fix_count_quartic(p, n)
                if valid:
                    assert fix_count(RationalRep(mat), n) == det
            checked += 1

    def test_quartic_route_matches_matrix_route(self):
        e = scalar_rep(-2)
        p = char_poly_rational(e).poly
        for n in range(1, 8):
            assert fix_count(e, n) == fix_count_quartic(p, n) == det_fix(e.matrix, n)

    def test_identity_iterate_has_infinite_fixed_locus(self):
        rot = AnalyticRep(1, [[1, -1], [1, 0]])
        assert fix_count(rot, 6) == 0

    def test_rejects_bad_iterate(self):
        for n in (-1, 0, MAX_ITERATE + 1):
            with pytest.raises(ValueError):
                fix_count(scalar_rep(2), n)

    def test_large_iterate_exact(self):
        # (2^128 - 1)^4, a ~154-digit integer, must come out exact
        assert fix_count(scalar_rep(2), 128) == (2 ** 128 - 1) ** 4


class TestEngineOracles:
    @given(monic_quartics, st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_count_matches_resultant_and_determinant(self, p, n):
        value = fix_count_quartic(p, n)
        assert value == fix_resultant(p.coeffs, n)
        assert value == det_fix(companion(p.coeffs), n)

    @given(monic_quartics, st.lists(st.integers(1, 300), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_values_match_single_counts(self, p, spots):
        values = [v for _, v in zip(range(300), fix_values(p))]
        for n in spots:
            assert values[n - 1] == fix_count_quartic(p, n)

    @given(st.integers(0, 10 ** 6), st.lists(st.integers(1, 300), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_sequence_matches_single_counts(self, seed, spots):
        P = random_valid_quartic(random.Random(seed), span=4)
        seq = fix_sequence(P, 300)
        for n in spots:
            assert seq[n - 1] == fix_count_quartic(P.poly, n)

    def test_rejects_non_quartic(self):
        with pytest.raises(ValueError):
            fix_count_quartic(parse_poly("1,1,1"), 3)
        with pytest.raises(ValueError):
            next(fix_values(parse_poly("1,0,0,0,2")))


class TestFixSequence:
    def test_rotation_cycle(self):
        rot = AnalyticRep(1, [[1, -1], [1, 0]])
        assert fix_sequence(rot, 12) == [1, 9, 16, 9, 1, 0] * 2

    def test_cap(self):
        with pytest.raises(ValueError):
            fix_sequence(scalar_rep(2), 10 ** 6 + 1)

    def test_char_poly_input(self):
        P = CharPolyQuartic(parse_poly("1,-2,3,-2,1"))
        assert fix_sequence(P, 6) == [1, 9, 16, 9, 1, 0]
