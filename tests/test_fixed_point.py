"""The fixed-point filter of the growth-base width tests: its bounds enclose
the exact maps, its decisions equal the exact ones, and a growth base runs
the exact maps only for the round that passes."""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from torusfix import unitcircle
from torusfix.behavior import DEFAULT_GROWTH_WIDTH
from torusfix.endomorphisms import AnalyticRep, _char_poly_unvalidated
from torusfix.intervals import RationalInterval, _Fixed, _Undecided, sqrt_interval
from torusfix.polynomials import (IntPolynomial, _bisect, _bracket, _sign_at, real_root_isolation,
                                  refine_root)
from torusfix.unitcircle import CharPolyQuartic, _pair, _square


def _encloses(bounds: _Fixed, exact: RationalInterval) -> bool:
    scale = 1 << bounds.p
    return (bounds.ld <= exact.lo * scale <= bounds.lu
            and bounds.hd <= exact.hi * scale <= bounds.hu)


def _outcome(fn):
    try:
        return fn()
    except _Undecided:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@st.composite
def _map_cases(draw):
    """A map (either _pair side, _square, or the square root or reciprocal
    inside _pair), a bracket (a/d, b/d), a width w, a bound for the width
    test and the bits p of the bounds."""
    d = draw(st.one_of(st.integers(1, 10 ** 6), st.integers(0, 80).map(lambda k: 1 << k)))
    a = draw(st.integers(-(10 ** 9), 10 ** 9))
    b = a + draw(st.integers(1, 10 ** 8))
    kind = draw(st.sampled_from(["pair-small", "pair-large", "square", "sqrt", "reciprocal"]))
    if kind != "pair-small" and kind != "pair-large":
        fn = {"square": _square, "sqrt": sqrt_interval,
              "reciprocal": lambda iv, w: iv.reciprocal()}[kind]
        assume(a > 0 or (b < 0 and kind != "sqrt"))  # no 0 in a root's bracket
        mag = max(abs(a), abs(b)) // d
    else:
        # u* = m1^2 + m2^2 >= 2 sqrt(c0): c0 <= hi^2 / 4, so disc.hi >= 0
        assume(b * b >= 4 * d * d)
        c0 = Fraction(draw(st.integers(1, b * b // (4 * d * d))))
        fn = partial(_pair, c0, kind == "pair-large")
        mag = max(max(abs(a), abs(b)) // d, int(c0))
    w = Fraction(1, draw(st.integers(1, 2 ** 90)))
    bound = Fraction(draw(st.integers(1, 2 ** 40)), draw(st.integers(1, 2 ** 90)))
    p = draw(st.one_of(
        st.just((bound.denominator // bound.numerator).bit_length() + 3 * mag.bit_length() + 48),
        st.integers(2, 64),
    ))
    return fn, (a, b, d), w, bound, p


@given(_map_cases())
@settings(max_examples=600, deadline=None)
def test_fixed_bounds_enclose_the_exact_maps(case):
    fn, (a, b, d), w, bound, p = case
    exact = _outcome(lambda: fn(RationalInterval(Fraction(a, d), Fraction(b, d)), w))
    try:
        fixed = _outcome(lambda: fn(_Fixed.of(a, b, d, p), w))
    except _Undecided:
        return
    if not isinstance(exact, RationalInterval):
        # the straddle decision (None) and the domain errors are the exact ones
        assert fixed == exact
        return
    assert isinstance(fixed, _Fixed) and _encloses(fixed, exact)
    try:
        assert fixed.width_at_most(bound) == (exact.width <= bound)
    except _Undecided:
        pass


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


@pytest.mark.parametrize("quartic", [
    _char_poly_unvalidated(AnalyticRep(-1, ENTRIES_64)),      # two pairs, 64-bit entries
    _char_poly_unvalidated(AnalyticRep(-2, [[(3, 1), (-2, 2)], [(1, -1), (2, 0)]])),
    IntPolynomial((1, -3, -1)).square(),                       # real roots, one outside
    IntPolynomial((-1, 3, 1)).square(),                        # a negative root outside
    IntPolynomial((-3, 1)).square() * IntPolynomial((5, 1, 1)),  # a rational root, a complex pair
], ids=["analytic-64-bit", "analytic-small", "real", "negative-real", "rational-root"])
def test_growth_base_runs_exact_maps_once_per_group(monkeypatch, quartic):
    # every failed try and round is decided on the fixed-point bounds; the
    # exact maps run once per outside group with a root, in the round that
    # passes, on that round's passing bracket
    exact_calls = []
    for name in ("_square", "_pair"):
        def counting(*args, _map=getattr(unitcircle, name)):
            if isinstance(args[-2], RationalInterval):
                exact_calls.append(args)
            return _map(*args)
        monkeypatch.setattr(unitcircle, name, counting)
    analysis = unitcircle._analyze(CharPolyQuartic(quartic))
    rooted = sum(1 for g in analysis.groups if g.outside and g.root is not None)
    assert rooted
    analysis._mahler_sq(DEFAULT_GROWTH_WIDTH)
    assert len(exact_calls) == rooted
