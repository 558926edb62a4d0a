import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torusfix import behavior
from torusfix.behavior import B1, B2, B3, classify, mahler_measure_interval, verify_b3_pattern
from torusfix.endomorphisms import AnalyticRep, RationalRep, fix_sequence
from torusfix.errors import InvalidStructureError, ZeroEndomorphismError
from torusfix.polynomials import parse_poly
from torusfix.unitcircle import CharPolyQuartic

from util import random_valid_quartic


def quartic(text: str) -> CharPolyQuartic:
    return CharPolyQuartic(parse_poly(text))


class TestTrichotomy:
    def test_periodic_rotation(self):
        r = classify(quartic("1,-2,3,-2,1"))
        assert r.verdict == B2
        assert r.period == 6
        assert r.cycle == (1, 9, 16, 9, 1, 0)

    def test_periodic_negation(self):
        r = classify(quartic("1,4,6,4,1"))
        assert r.verdict == B2 and r.period == 2 and r.cycle == (16, 0)

    def test_exponential_scalar(self):
        r = classify(quartic("16,-32,24,-8,1"))
        assert r.verdict == B1
        assert r.growth_base.lo == r.growth_base.hi == 16

    def test_exponential_split_moduli(self):
        r = classify(quartic("1,1,0,0,1"))
        assert r.verdict == B1
        assert r.growth_base.lo > 1

    def test_mixed_gaussian(self):
        r = classify(quartic("4,0,5,0,1"))
        assert r.verdict == B3
        assert r.r == 4
        assert r.growth_base.lo == r.growth_base.hi == 4

    def test_mixed_sixth_root_with_double_real(self):
        r = classify(CharPolyQuartic(parse_poly("1,1,1") * parse_poly("4,-4,1")))
        assert r.verdict == B3 and r.r == 3

    def test_eigenvalue_one_is_constant_zero(self):
        p = parse_poly("-1,1") * parse_poly("-1,1") * parse_poly("1,0,1")
        r = classify(CharPolyQuartic(p))
        assert r.verdict == B2 and r.period == 1 and r.cycle == (0,)

    def test_zero_endomorphism_rejected(self):
        with pytest.raises(ZeroEndomorphismError):
            classify(quartic("0,0,0,0,1"))


class TestFamilies:
    def test_unipotent_shear(self):
        e = AnalyticRep(1, [[1, 1], [0, 1]])
        r = classify(e)
        assert r.verdict == B2 and r.period == 1 and r.cycle == (0,)

    def test_hyperbolic_automorphism(self):
        e = AnalyticRep(1, [[2, 1], [1, 1]])
        assert classify(e).verdict == B1

    def test_sequence_matches_cycle(self):
        rng = random.Random(31)
        for _ in range(40):
            P = random_valid_quartic(rng, span=2)
            try:
                r = classify(P)
            except ZeroEndomorphismError:
                continue
            if r.verdict != B2:
                continue
            seq = fix_sequence(P, 3 * r.period)
            assert seq == list(r.cycle) * 3


class TestCertificates:
    def test_b3_zero_pattern(self):
        P = quartic("4,0,5,0,1")
        r = classify(P)
        assert verify_b3_pattern(P, r, 40)

    def test_b3_requires_b3_report(self):
        P = quartic("16,-32,24,-8,1")
        with pytest.raises(ValueError):
            verify_b3_pattern(P, classify(P), 10)

    def test_growth_base_encloses_true_mahler(self):
        rng = random.Random(13)
        for _ in range(50):
            P = random_valid_quartic(rng)
            try:
                r = classify(P)
            except ZeroEndomorphismError:
                continue
            if r.growth_base is None:
                continue
            m = float(np.prod(np.maximum(1.0, np.abs(np.roots(list(reversed(P.poly.coeffs)))))))
            assert float(r.growth_base.lo) - 1e-4 <= m <= float(r.growth_base.hi) + 1e-4
            assert r.growth_base.width <= behavior.DEFAULT_GROWTH_WIDTH

    def test_b1_growth_matches_sequence_asymptotics(self):
        P = quartic("16,-32,24,-8,1")
        r = classify(P)
        seq = fix_sequence(P, 20)
        base = float((r.growth_base.lo + r.growth_base.hi) / 2)
        ratio = math.log(seq[19]) / (20 * math.log(base))
        assert 0.95 <= ratio <= 1.05

    def test_report_serializes(self):
        r = classify(quartic("4,0,5,0,1"))
        d = r.to_dict()
        assert d["verdict"] == "B3" and d["r"] == 4
        assert d["eigen"]["unity_orders"] == [4, 4]

    def test_mahler_interval_rejects_invalid_structure(self):
        # classify rejects this quartic; the enclosure must not answer [4, 4]
        with pytest.raises(InvalidStructureError):
            mahler_measure_interval(quartic("-4,-3,3,3,1"))

    def test_mahler_interval_width_request(self):
        iv = mahler_measure_interval(quartic("1,1,0,0,1"), Fraction(1, 2 ** 28))
        assert iv.width <= Fraction(1, 2 ** 28)
