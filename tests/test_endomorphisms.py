import random
from fractions import Fraction

import pytest

from torusfix.endomorphisms import (
    MAX_ITERATE,
    AnalyticRep,
    RationalRep,
    char_poly_rational,
    charpoly_int_matrix,
    fix_count,
    fix_count_quartic,
    fix_sequence,
)
from torusfix.errors import InvalidStructureError, NonIntegralError
from torusfix.polynomials import parse_poly
from torusfix.unitcircle import CharPolyQuartic

from oracles import det_fix
from util import random_int_matrix


def scalar_rep(m: int) -> RationalRep:
    return RationalRep([[m if i == j else 0 for j in range(4)] for i in range(4)])


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
