import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from torusfix.algebras import (
    _is_irreducible_quartic,
    CMElement,
    CMFieldDesc,
    QuaternionAlgebraDesc,
    RealQuadElement,
    builtin_examples,
    cm_char_poly,
    cm_classify,
    cm_fix,
    find_small_eigenvalue_parameter,
    mcmullen_family,
    periodic_eigenvalue_table,
    quat_char_poly,
    quat_classify,
    quat_fix,
    quat_one_root_periodicity_criterion,
    quat_reduced_charpoly,
    quat_reduced_norm,
    quaternion_element,
    rm_char_poly,
    rm_classify,
    rm_fix,
    sl2_family,
)
from torusfix import behavior
from torusfix.endomorphisms import char_poly_rational, fix_count_quartic, fix_sequence
from torusfix.errors import (
    NonIntegralError,
    NotDivisionAlgebraError,
    ZeroEndomorphismError,
    ZeroNormError,
)
from torusfix.polynomials import IntPolynomial, cyclotomic, parse_poly, rational_roots
from torusfix.unitcircle import _resolvent_cubic

from oracles import (
    SchurCohnDegenerate,
    cm_real_subfield_radicand,
    divmod_monic,
    is_irreducible_quartic,
    real_root_count,
    schur_cohn_inside,
)



def is_irreducible(g: IntPolynomial) -> bool:
    """The library's irreducibility test, fed the resolvent's integer roots
    the way CMFieldDesc feeds it."""
    return _is_irreducible_quartic(g, [int(u) for u in rational_roots(_resolvent_cubic(g))])


class TestRealQuadratic:
    def test_requires_square_free(self):
        with pytest.raises(ValueError):
            RealQuadElement(4, 1, 1)
        with pytest.raises(ValueError):
            RealQuadElement(1, 1, 1)

    @pytest.mark.parametrize("field", range(3))
    @pytest.mark.parametrize("bad", [True, 1.5, float("inf")])
    def test_rejects_non_integer_fields(self, field, bad):
        args = [2, -1, 1]
        args[field] = bad
        with pytest.raises(ValueError):
            RealQuadElement(*args)

    @pytest.mark.parametrize("field", range(3))
    @pytest.mark.parametrize("same", [3.0, "3"])
    def test_integral_fields_are_converted(self, field, same):
        args = [3, 3, 3]
        args[field] = same
        x = RealQuadElement(*args)
        assert x == RealQuadElement(3, 3, 3) and type(x.d) is type(x.a) is type(x.b) is int

    def test_char_poly_sqrt2(self):
        x = RealQuadElement(2, -1, 1)  # -1 + sqrt(2)
        assert rm_char_poly(x).poly == parse_poly("1,-4,2,4,1")

    def test_char_poly_golden_ratio(self):
        x = RealQuadElement(5, 0, 1)  # (1 + sqrt(5)) / 2
        assert rm_char_poly(x).poly == parse_poly("1,2,-1,-2,1")

    def test_norm_growth(self):
        x = RealQuadElement(2, -1, 1)
        assert [rm_fix(x, n) for n in (1, 2, 3)] == [4, 16, 196]

    def test_classification(self):
        assert rm_classify(RealQuadElement(2, -1, 1)).verdict == behavior.B1
        assert rm_classify(RealQuadElement(2, 3, 0)).verdict == behavior.B1
        r = rm_classify(RealQuadElement(2, -1, 0))
        assert r.verdict == behavior.B2 and r.period == 2
        assert rm_classify(RealQuadElement(2, 1, 0)).verdict == behavior.B2

    def test_zero_rejected(self):
        with pytest.raises(ZeroEndomorphismError):
            rm_classify(RealQuadElement(2, 0, 0))


class TestQuaternionBasics:
    def test_symbol_normalization_swaps_generators(self):
        e = quaternion_element(2, 3, 0, 1, 1, 1)
        assert (e.algebra.alpha, e.algebra.beta) == (3, 2)
        assert e.algebra.original == (2, 3)
        assert (e.b, e.c) == (1, 1)

    def test_definite_symbol_rejected(self):
        with pytest.raises(ValueError):
            QuaternionAlgebraDesc.normalized(-2, -3)

    def test_reduced_norm(self):
        x = quaternion_element(3, 2, 0, 1, 1, 1)
        assert quat_reduced_norm(x) == -3 - 2 + 6  # 1

    def test_reduced_charpoly_integrality(self):
        with pytest.raises(NonIntegralError):
            quat_reduced_charpoly(quaternion_element(3, 2, Fraction(1, 2), 0, 0, 0))

    def test_quartic_is_square_of_reduced(self):
        x = quaternion_element(3, 2, 1, 1, 1, 0)
        chi = quat_reduced_charpoly(x)
        assert quat_char_poly(x).poly == chi * chi


class TestQuaternionClassification:
    def test_unit_circle_element(self):
        x = quaternion_element(3, 2, 0, 1, 1, 1)  # chi = t^2 + 1
        assert quat_reduced_charpoly(x) == parse_poly("1,0,1")
        r = quat_classify(x)
        assert r.verdict == behavior.B2 and r.period == 4
        assert r.cycle == (4, 16, 4, 0)
        assert [quat_fix(x, n) for n in (1, 4)] == [4, 0]
        assert quat_one_root_periodicity_criterion(x)

    def test_sixth_root_half_integral(self):
        x = quaternion_element(2, -3, Fraction(1, 2), 0, Fraction(1, 2), 0)
        assert quat_reduced_charpoly(x) == parse_poly("1,-1,1")
        r = quat_classify(x)
        assert r.verdict == behavior.B2 and r.period == 6
        assert quat_fix(x, 3) == 16

    def test_third_root_half_integral(self):
        x = quaternion_element(2, -3, Fraction(-1, 2), 0, Fraction(1, 2), 0)
        assert quat_reduced_charpoly(x) == parse_poly("1,1,1")
        assert quat_classify(x).verdict == behavior.B2

    def test_real_quadratic_spectrum_grows(self):
        x = quaternion_element(3, 2, 1, 1, 0, 0)  # roots 1 +- sqrt(3)
        r = quat_classify(x)
        assert r.verdict == behavior.B1
        assert not quat_one_root_periodicity_criterion(x)

    def test_scalars(self):
        r = quat_classify(quaternion_element(3, 2, -1, 0, 0, 0))
        assert r.verdict == behavior.B2 and r.cycle == (16, 0)
        assert quat_classify(quaternion_element(3, 2, 2, 0, 0, 0)).verdict == behavior.B1

    def test_zero_norm_certifies_split_symbol(self):
        with pytest.raises(ZeroNormError):
            quat_classify(quaternion_element(1, 1, 1, 1, 0, 0))

    def test_unit_eigenvalue_certifies_split_symbol(self):
        # roots 1 and 5: a non-scalar with eigenvalue 1 cannot exist in a
        # division algebra
        with pytest.raises(NotDivisionAlgebraError):
            quat_classify(quaternion_element(5, 4, 3, 0, 1, 0))

    def test_zero_rejected(self):
        with pytest.raises(ZeroEndomorphismError):
            quat_classify(quaternion_element(3, 2, 0, 0, 0, 0))


imaginary_quadratic = st.tuples(st.integers(-8, 8), st.integers(1, 30)).filter(
    lambda bc: bc[0] ** 2 < 4 * bc[1]
).map(lambda bc: IntPolynomial((bc[1], bc[0], 1)))


def shifted(p: IntPolynomial, k: int) -> IntPolynomial:
    """p(t + k)."""
    out = IntPolynomial(())
    for c in reversed(p.coeffs):
        out = out * IntPolynomial((k, 1)) + IntPolynomial((c,))
    return out


CM_FIELD = CMFieldDesc(cyclotomic(5))


class TestCMField:
    def test_subfield_radicands(self):
        assert CMFieldDesc(cyclotomic(5)).d == 5
        assert CMFieldDesc(cyclotomic(8)).d == 2
        assert CMFieldDesc(cyclotomic(10)).d == 5
        assert CMFieldDesc(cyclotomic(12)).d == 3

    def test_rejects_non_cm_quartic(self):
        with pytest.raises(ValueError):
            CMFieldDesc(parse_poly("1,1,0,0,1"))  # totally imaginary, not CM

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            CMFieldDesc(parse_poly("1,0,2,0,1"))  # (t^2+1)^2

    def test_rejects_real_quartic(self):
        with pytest.raises(ValueError):
            CMFieldDesc(parse_poly("1,-4,2,4,1"))

    def test_declared_radicand_checked(self):
        with pytest.raises(ValueError):
            CMFieldDesc(cyclotomic(5), d=3)
        assert CMFieldDesc(cyclotomic(5), d=5).d == 5

    @given(st.lists(st.integers(-30, 30), min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_irreducibility_matches_divisor_search(self, low):
        coeffs = tuple(low) + (1,)
        assert is_irreducible(IntPolynomial(coeffs)) == is_irreducible_quartic(coeffs)

    @given(st.integers(-40, 40), st.integers(-12, 12), st.integers(-40, 40), st.integers(-12, 12))
    @settings(max_examples=300, deadline=None)
    def test_products_of_quadratics_are_reducible(self, q, p, s, r):
        coeffs = (q * s, p * s + q * r, p * r + q + s, p + r, 1)
        assert not is_irreducible_quartic(coeffs)
        assert not is_irreducible(IntPolynomial(coeffs))


    def test_radicand_when_root_sums_agree(self):
        # t^4 + 3t^2 + 1: the conjugate pairing has equal root sums, so the
        # radicand comes from (r1 r2 - r3 r4)^2 = 3^2 - 4
        assert CMFieldDesc(parse_poly("1,0,3,0,1")).d == 5
        assert cm_real_subfield_radicand((1, 0, 3, 0, 1)) == 5

    @given(st.one_of(
        st.lists(st.integers(-30, 30), min_size=4, max_size=4).map(lambda low: (*low, 1)),
        st.tuples(st.integers(-30, 60), st.integers(-30, 40)).map(lambda ba: (ba[0], 0, ba[1], 0, 1)),
        st.tuples(st.integers(-30, 60), st.integers(-30, 40), st.integers(-3, 3)).map(
            lambda bak: shifted(IntPolynomial((bak[0], 0, bak[1], 0, 1)), bak[2]).coeffs),
        imaginary_quadratic.flatmap(lambda f: imaginary_quadratic.map(lambda h: (f * h).coeffs)),
    ))
    @example((1, 0, 3, 0, 1))
    @settings(max_examples=400, deadline=None)
    def test_radicand_matches_depressed_quartic_rule(self, coeffs):
        try:
            d = CMFieldDesc(IntPolynomial(coeffs)).d
        except ValueError:
            d = None
        expected = None
        if is_irreducible_quartic(coeffs) and real_root_count(coeffs) == 0:
            expected = cm_real_subfield_radicand(coeffs)
        assert d == expected


class TestCMElements:
    def test_generator_char_poly_is_minimal(self):
        zeta = CMElement(CM_FIELD, [0, 1, 0, 0])
        assert cm_char_poly(zeta).poly == cyclotomic(5)

    def test_rational_element(self):
        assert cm_char_poly(CMElement(CM_FIELD, [-1, 0, 0, 0])).poly == parse_poly("1,4,6,4,1")

    def test_shifted_generator(self):
        x = CMElement(CM_FIELD, [1, 1, 0, 0])
        assert cm_char_poly(x).poly == parse_poly("1,-2,4,-3,1")

    def test_non_integral_rejected(self):
        with pytest.raises(NonIntegralError):
            cm_char_poly(CMElement(CM_FIELD, [Fraction(1, 2), 0, 0, 0]))

    def test_fix_values(self):
        zeta = CMElement(CM_FIELD, [0, 1, 0, 0])
        assert cm_fix(zeta, 1) == 5
        assert cm_fix(zeta, 5) == 0
        assert cm_fix(CMElement(CM_FIELD, [-1, 0, 0, 0]), 1) == 16

    def test_classification(self):
        zeta = CMElement(CM_FIELD, [0, 1, 0, 0])
        r = cm_classify(zeta)
        assert r.verdict == behavior.B2 and r.period == 5
        assert cm_classify(CMElement(CM_FIELD, [1, 1, 0, 0])).verdict == behavior.B1
        assert cm_classify(CMElement(CM_FIELD, [-1, 0, 0, 0])).period == 2

    def test_zero_rejected(self):
        with pytest.raises(ZeroEndomorphismError):
            cm_classify(CMElement(CM_FIELD, [0, 0, 0, 0]))


class TestPeriodicTables:
    def test_quaternion_table(self):
        table = set(periodic_eigenvalue_table("quaternion"))
        assert table == {cyclotomic(k) for k in (1, 2, 3, 4, 6)}

    def test_cm_table(self):
        table = periodic_eigenvalue_table("cm")
        assert len(table) == 9
        assert set(table) == {cyclotomic(k) for k in (1, 2, 3, 4, 5, 6, 8, 10, 12)}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            periodic_eigenvalue_table("octonion")

    def test_periodic_eigenvalues_come_from_table(self):
        table = set(periodic_eigenvalue_table("quaternion"))
        rng = random.Random(77)
        for _ in range(200):
            al, be = rng.choice([2, 3, 5, 7]), rng.choice([2, 3, -1, -2])
            coords = [rng.randint(-2, 2) for _ in range(4)]
            if all(c == 0 for c in coords):
                continue
            x = quaternion_element(al, be, *coords)
            try:
                r = quat_classify(x)
            except (ZeroNormError, NotDivisionAlgebraError, NonIntegralError):
                continue
            if r.verdict == behavior.B2:
                chi = quat_reduced_charpoly(x)
                factors = {cyclotomic(k) for k in set(r.eigen.unity_orders)}
                assert factors <= table
                for f in factors:
                    assert not divmod_monic((chi * chi).coeffs, f.coeffs)[1]


class TestFamilies:
    def test_small_root_family(self):
        assert mcmullen_family(0).poly == parse_poly("1,1,0,0,1")
        assert mcmullen_family(1).poly == parse_poly("1,1,1,0,1")
        with pytest.raises(ValueError):
            mcmullen_family(-1)
        assert behavior.classify(mcmullen_family(0)).verdict == behavior.B1

    def test_small_eigenvalue_search(self):
        assert find_small_eigenvalue_parameter(Fraction(1)) == 0
        assert find_small_eigenvalue_parameter(Fraction(1, 2)) == 5
        with pytest.raises(ValueError):
            find_small_eigenvalue_parameter(Fraction(3, 2))

    def test_small_eigenvalue_search_matches_schur_cohn(self):
        # For eps = p/q the roots of t^4 + a t^2 + t + 1 of modulus < eps are
        # the roots inside the unit disk of q^4 P_a(eps z).
        def inside(a, eps):
            p, q = eps.numerator, eps.denominator
            return schur_cohn_inside([q ** 4, p * q ** 3, a * p * p * q * q, 0, p ** 4])

        grid = {Fraction(n, d) for d in range(1, 41) for n in range(1, d + 1)}
        extra = {Fraction(1, 60), Fraction(1, 10 ** 6), Fraction(7, 10 ** 9), Fraction(35, 36)}
        checked = 0
        for eps in sorted(grid | extra):
            a = find_small_eigenvalue_parameter(eps)
            try:
                assert inside(a, eps) >= 1, (eps, a)
                assert a == 0 or inside(a - 1, eps) == 0, (eps, a)
            except SchurCohnDegenerate:
                continue
            checked += 1
        assert find_small_eigenvalue_parameter(Fraction(35, 36)) == 0
        assert find_small_eigenvalue_parameter(Fraction(1, 10 ** 6)) == 10 ** 12 + 1
        assert checked >= 490

    def test_small_eigenvalue_monotone(self):
        values = [
            find_small_eigenvalue_parameter(eps)
            for eps in (Fraction(9, 10), Fraction(1, 2), Fraction(3, 10))
        ]
        assert values == sorted(values)

    def test_shear_family(self):
        r = behavior.classify(sl2_family(1, 1, 0, 1))
        assert r.verdict == behavior.B2 and r.period == 1 and r.cycle == (0,)
        assert behavior.classify(sl2_family(2, 1, 1, 1)).verdict == behavior.B1
        rot = behavior.classify(sl2_family(1, -1, 1, 0))
        assert rot.verdict == behavior.B2 and rot.period == 6
        with pytest.raises(ValueError):
            sl2_family(1, 1, 1, 1)

    def test_builtin_examples(self):
        named = builtin_examples()
        assert set(named) == {
            "rotation_e_times_e",
            "gaussian_i_2i",
            "rm_sqrt2",
            "mcmullen_0",
            "neg_identity",
            "mult_2",
        }
        assert fix_sequence(named["rotation_e_times_e"], 6) == [1, 9, 16, 9, 1, 0]
        assert char_poly_rational(named["rm_sqrt2"]).poly == parse_poly("1,-4,2,4,1")
        assert char_poly_rational(named["gaussian_i_2i"]).poly == parse_poly("4,0,5,0,1")


class TestCrossPresentation:
    def test_quat_fix_matches_quartic_fix(self):
        rng = random.Random(3)
        checked = 0
        while checked < 40:
            al, be = rng.choice([2, 3, 5]), rng.choice([2, -1, -2])
            x = quaternion_element(al, be, *[rng.randint(-2, 2) for _ in range(4)])
            p = quat_char_poly(x).poly
            for n in range(1, 6):
                assert quat_fix(x, n) == fix_count_quartic(p, n)
            checked += 1

    def test_cm_fix_matches_quartic_fix(self):
        zeta = CMElement(CM_FIELD, [1, 1, 1, 0])
        p = cm_char_poly(zeta).poly
        for n in range(1, 8):
            assert cm_fix(zeta, n) == fix_count_quartic(p, n)
