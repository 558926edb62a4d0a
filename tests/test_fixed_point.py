"""The growth-base width tests on unreduced integer intervals: every map
gives exactly the values of the Fraction maps, staged refinement equals
direct refinement, and the classify path builds no Fraction interval
arithmetic at all."""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from torusfix.behavior import DEFAULT_GROWTH_WIDTH
from torusfix.endomorphisms import AnalyticRep, _char_poly_unvalidated
from torusfix.intervals import RationalInterval, _Exact, sqrt_interval
from torusfix.polynomials import (IntPolynomial, _bisect, _bracket, _sign_at, real_root_isolation,
                                  refine_root)
from torusfix.unitcircle import DEFAULT_ENCLOSURE_WIDTH, CharPolyQuartic, _analyze, _pair, _square


def _outcome(fn, x):
    """fn(x) as a RationalInterval, None, or the class of its error."""
    try:
        out = fn(x)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return out.interval() if isinstance(out, _Exact) else out


_FACTORS = st.one_of(st.just(1), st.integers(2, 10 ** 6), st.integers(1, 40).map(lambda k: 1 << k))
_DENOMINATORS = st.one_of(st.integers(1, 10 ** 6), st.integers(0, 60).map(lambda k: 1 << k))


@st.composite
def _map_cases(draw):
    """A map, a bracket (a, b, d) for it, a width w and a bound for the
    width test.  The bracket's numerators and denominator share a drawn
    factor, so it is often unreduced; the maps that take a square root also
    meet point brackets whose radicand is a rational square, a non-square,
    or 0."""
    kind = draw(st.sampled_from(["square", "reciprocal", "intpow", "sqrt", "pair-small",
                                 "pair-large"]))
    d = draw(_DENOMINATORS)
    a, span = draw(st.integers(-(10 ** 9), 10 ** 9)), draw(st.integers(1, 10 ** 8))
    b = a + span
    point = draw(st.sampled_from(["wide", "square", "non-square", "zero"]))
    if kind == "square":
        fn = _square
    elif kind == "reciprocal":
        fn = lambda iv, w: iv.reciprocal()
    elif kind == "intpow":
        k = draw(st.integers(-3, 4))
        fn = lambda iv, w: iv.intpow(k)
    elif kind == "sqrt":
        fn = sqrt_interval
        if point == "square":
            q, e = draw(st.integers(1, 10 ** 5)), draw(st.integers(1, 10 ** 3))
            a = b = q * q
            d = e * e
        elif point != "wide":
            a = b = 0 if point == "zero" else abs(a)
    else:
        # moduli squared x and y: u* = x + y and c0 = x y, so that
        # disc = u*^2 - 4 c0 is the square (x - y)^2, and 0 at x = y
        x, y = draw(st.integers(1, 10 ** 4)), draw(st.integers(1, 10 ** 4))
        if point == "zero":
            y = x
        c0 = x * y
        if point == "wide":
            a = abs(a)
            b = a + span
        else:
            d = 1
            a = b = x + y + (point == "non-square")
        fn = partial(_pair, c0, kind == "pair-large")
    g = draw(_FACTORS)
    w = Fraction(1, draw(st.integers(1, 2 ** 90)))
    bound = Fraction(draw(st.integers(1, 2 ** 40)), draw(st.integers(1, 2 ** 90)))
    return fn, (a * g, b * g, d * g), w, bound


@given(_map_cases())
@settings(max_examples=600, deadline=None)
def test_exact_maps_equal_the_fraction_maps(case):
    fn, (a, b, d), w, bound = case
    exact = _outcome(lambda iv: fn(iv, w), _Exact(a, b, d))
    reference = _outcome(lambda iv: fn(iv, w), RationalInterval(Fraction(a, d), Fraction(b, d)))
    # the same endpoints, the same None on a straddling discriminant and
    # the same error class
    assert exact == reference
    if isinstance(reference, RationalInterval):
        out = fn(_Exact(a, b, d), w)
        assert out.width_at_most(bound) == (reference.width <= bound)


@given(st.integers(2, 10 ** 6), st.integers(-50, 50),
       st.integers(1, 2 ** 60), st.integers(1, 2 ** 60))
@settings(max_examples=200, deadline=None)
def test_staged_refinement_equals_direct(n, shift, den1, den2):
    # refinement keeps halving the same bracket, so refining to w1 and then
    # to w2 gives the bracket of refining to min(w1, w2) at once, whether
    # the bracket travels as Fractions or as unreduced integers (a, b, d)
    f = IntPolynomial((shift * shift - n, -2 * shift, 1))  # roots shift +- sqrt(n)
    w1, w2 = Fraction(1, den1), Fraction(1, den2)
    for iv in real_root_isolation(f):
        direct = refine_root(f, iv, min(w1, w2))
        assert refine_root(f, refine_root(f, iv, w1), w2) == direct
        a, b, d = _bracket(iv.lo, iv.hi)
        s = _sign_at(f.coeffs, a, d)
        a, b, d = _bisect(f.coeffs, *_bisect(f.coeffs, a, b, d, s, w1), s, w2)
        assert RationalInterval(Fraction(a, d), Fraction(b, d)) == direct


ENTRIES_64 = [[(4953296946163949640, -8819234333963747878), (-12867057230261262431, -13682768679775473909)],
              [(14884706648440034280, 16955486282850494677), (13554375140662664075, -3470572068594294957)]]


def _refuse(*args):
    raise AssertionError("Fraction interval arithmetic on the classify path")


@pytest.mark.parametrize("quartic", [
    _char_poly_unvalidated(AnalyticRep(-1, ENTRIES_64)),      # two pairs, 64-bit entries
    _char_poly_unvalidated(AnalyticRep(-2, [[(3, 1), (-2, 2)], [(1, -1), (2, 0)]])),
    IntPolynomial((1, -3, -1)).square(),                       # real roots, one outside
    IntPolynomial((-1, 3, 1)).square(),                        # a negative root outside
    IntPolynomial((-3, 1)).square() * IntPolynomial((5, 1, 1)),  # a rational root, a complex pair
    IntPolynomial((2, 1, 1)) * IntPolynomial((3, 1, 1)),       # two pairs, rational u* = 5
], ids=["analytic-64-bit", "analytic-small", "real", "negative-real", "rational-root",
        "rational-u"])
def test_census_and_growth_base_build_no_fraction_intervals(monkeypatch, quartic):
    # every |mu|^2 map, the power product and the square root run on
    # unreduced integers; a RationalInterval is only ever built from them
    analysis = _analyze(CharPolyQuartic(quartic))
    assert any(g.outside and g.root is not None for g in analysis.groups)
    for name in ("__add__", "__mul__", "scale", "reciprocal"):
        monkeypatch.setattr(RationalInterval, name, _refuse)
    census = analysis.census(DEFAULT_ENCLOSURE_WIDTH)
    growth = analysis.growth_base(DEFAULT_GROWTH_WIDTH)
    assert census.n_more and growth.lo <= growth.hi
