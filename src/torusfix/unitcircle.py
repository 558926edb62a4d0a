"""Exact classification of quartic roots relative to the unit circle.

Roots on the circle are found structurally: for a quartic that passes the
conjugate-pair rule they are roots of unity, so exact integer division of
each square-free factor by the cyclotomic polynomials of degree <= 4 strips
them.  No floating point is involved anywhere, since no tolerance can
distinguish |mu| = 1 from |mu| = 1 +- eps for an integer polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import operator
from functools import partial, reduce
from typing import Callable, Optional

from .errors import InvalidEndomorphismError, InvalidStructureError
from .intervals import RationalInterval, _Exact, sqrt_interval
from .polynomials import (
    ALLOWED_UNITY_ORDERS,
    IntPolynomial,
    _bisect,
    _bracket,
    _sign_at,
    count_real_roots,
    cyclotomic,
    poly_divmod,
    real_root_isolation,
    refine_root,
    squarefree_decomposition,
)

DEFAULT_ENCLOSURE_WIDTH = Fraction(1, 2 ** 20)


@dataclass(frozen=True)
class CharPolyQuartic:
    """Monic integer quartic; the characteristic polynomial of the
    rational representation of a torus endomorphism candidate."""

    poly: IntPolynomial

    def __post_init__(self):
        if self.poly.degree != 4:
            raise InvalidStructureError(f"degree 4 required, got {self.poly.degree}")
        if not self.poly.is_monic():
            raise InvalidStructureError("monic polynomial required")

    def __str__(self) -> str:
        return str(self.poly)


@dataclass(frozen=True)
class EigenvalueClassification:
    """Exact census of the four quartic roots by modulus."""

    n_zero: int
    n_less: int
    n_on: int
    n_more: int
    unity_orders: tuple[int, ...]
    outside_moduli: tuple[RationalInterval, ...]

    def __post_init__(self):
        if self.n_zero + self.n_less + self.n_on + self.n_more != 4:
            raise ValueError("root counts must sum to 4")
        for k in self.unity_orders:
            if k not in ALLOWED_UNITY_ORDERS:
                raise ValueError(f"unity order {k} outside the allowed set")


def _require_conjugate_pairs(p: IntPolynomial, f: IntPolynomial, mult: int) -> None:
    """The conjugate-pair rule on one factor f^mult of p's square-free
    decomposition: a factor of odd multiplicity has no real root."""
    if mult % 2 and count_real_roots(f):
        raise InvalidStructureError(f"{p} cannot be the rational char poly of a torus endomorphism")


def validate_conjugate_pair_structure(P: CharPolyQuartic) -> None:
    """Raise InvalidStructureError unless the roots can be written
    {l1, l2, conj l1, conj l2}: equivalently, every real root has even
    multiplicity."""
    for f, mult in squarefree_decomposition(P.poly):
        _require_conjugate_pairs(P.poly, f, mult)


# -- off-circle root groups ---------------------------------------------------


@dataclass(frozen=True)
class _Group:
    """Roots of P off the circle that share one modulus, counted with
    multiplicity; outside means |mu| > 1.

    ``root`` indexes the isolated real root, in _Analysis.roots, whose
    bracket the group narrows, or is None for a group that needs none.
    ``msq`` maps that bracket (None without a root) and a width w to an
    interval around |mu|^2, or to None while the bracket cannot tell yet;
    the maps with a root give an _Exact or a RationalInterval, as they take.
    """

    count: int
    outside: bool
    root: Optional[int]
    msq: Callable[[Optional[_Exact], Fraction], Optional[_Exact]]


def _square(iv: _Exact, w: Fraction) -> _Exact:
    return iv * iv


def _fixed(v: _Exact, iv: None, w: Fraction) -> _Exact:
    return v


def _equal_pairs(c0: int, iv: None, w: Fraction) -> _Exact:
    return sqrt_interval(_Exact.point(c0), w)


def _pair(c0: int, larger: bool, u_iv: _Exact, w: Fraction):
    """m2^2 (larger) or m1^2 = c0 / m2^2 from a bracket of u* = m1^2 + m2^2:
    m2^2 = (u* + sqrt(u*^2 - 4 c0)) / 2, or None while the discriminant's
    bracket straddles 0.  Otherwise disc >= 0, as u*^2 >= 4 c0."""
    disc = u_iv * u_iv + u_iv.point(-4 * c0)
    if disc.lo < 0 <= disc.hi:
        return None
    m2_iv = (u_iv + sqrt_interval(disc, w)).scale(Fraction(1, 2))
    return m2_iv if larger else u_iv.point(c0) * m2_iv.reciprocal()


def _resolvent_cubic(w: IntPolynomial) -> IntPolynomial:
    """For monic quartic t^4+c3 t^3+c2 t^2+c1 t+c0: the cubic with roots
    r1r2+r3r4, r1r3+r2r4, r1r4+r2r3."""
    c0, c1, c2, c3, _ = w.coeffs
    return IntPolynomial((
        -(c1 * c1 + c0 * c3 * c3 - 4 * c0 * c2),
        c1 * c3 - 4 * c0,
        -c2,
        1,
    ))


def _two_pair_groups(f: IntPolynomial, mult: int, roots: list) -> list[_Group]:
    """A square-free monic integer quartic with no real roots and no
    unit-circle roots: two conjugate pairs with moduli m1 <= m2.

    m1^2 + m2^2 is the largest real root u* of the resolvent cubic (the
    conjugate pairing dominates every other pairing's product sum), and
    m1^2 * m2^2 = c0.  One isolating interval of u*, appended to `roots`,
    answers both questions below, and both groups narrow it.  With mu, nu
    the roots of the two pairs, the resolvent's roots differ by
    |mu - conj nu|^2, |mu - nu|^2 and 4 Im mu Im nu, none zero for a
    square-free f, so the resolvent is square-free and refine_root bisects
    it as it is.
    """
    c0 = f.coeffs[0]
    res = _resolvent_cubic(f)
    u_isolated = real_root_isolation(res)[-1]

    # side determination: V(y) = y^2 - u* y + c0 has roots m1^2, m2^2, and
    # V(1) = 1 + c0 - u*.  V(1) < 0 puts 1 between them; V(1) > 0 puts both
    # on one side of 1, and m1^2 m2^2 = c0 >= 1 makes that side outside.
    u_iv = u_isolated
    while u_iv.lo < 1 + c0 < u_iv.hi:
        u_iv = refine_root(res, u_iv, u_iv.width / 4)
    if u_iv.lo == u_iv.hi == 1 + c0:
        raise InvalidEndomorphismError("unit-circle root escaped structural removal")
    sides = ((2 * mult, u_iv.lo < 1 + c0), (2 * mult, True))

    # m1 = m2 exactly when u* = 2 sqrt(c0).  For a rational u* the maps
    # _pair find disc = u*^2 - 4 c0 = 0 and give the points
    # u*/2 = 2 c0/u* = sqrt(c0).  For an irrational u*, res(2 sqrt(c0)) = 0
    # forces both the even and the odd part of res to vanish at 4 c0, whence
    # res = (y^2 - 4 c0)(y - y') with y' rational, so u* > 0 is 2 sqrt(c0);
    # the test needs u* irrational, since u* = y' satisfies it too.
    r0, r1, r2, _ = res.coeffs
    if u_isolated.lo != u_isolated.hi and r0 + r2 * 4 * c0 == 0 and r1 + 4 * c0 == 0:
        return [_Group(count, outside, None, partial(_equal_pairs, c0)) for count, outside in sides]
    roots.append((res, u_isolated))
    return [
        _Group(count, outside, len(roots) - 1, partial(_pair, c0, larger))
        for (count, outside), larger in zip(sides, (False, True))
    ]


def _real_root_groups(f: IntPolynomial, mult: int, roots: list) -> list[_Group]:
    """The real roots of a square-free factor with no roots at 0 or on the
    circle (so no root at +-1), each isolated away from -1, 0 and 1 and
    appended to `roots`."""
    groups = []
    for iv in real_root_isolation(f):
        while any(iv.lo < c < iv.hi for c in (-1, 0, 1)):
            iv = refine_root(f, iv, iv.width / 4)
        roots.append((f, iv))
        groups.append(_Group(mult, iv.lo >= 1 or iv.hi <= -1, len(roots) - 1, _square))
    return groups


# -- one analysis per quartic -------------------------------------------------


@dataclass(frozen=True)
class _Analysis:
    """The structure of one quartic's roots relative to the unit circle:
    the zero count, the per-root unity orders of the circle roots, the
    off-circle groups, and each isolated root a group narrows as its
    square-free polynomial and isolating bracket.

    Every consumer narrows its own copy of the brackets, fresh from
    ``roots``, so a result never depends on what another consumer refined
    before; the two groups of a two-pair factor share one bracket.
    """

    n_zero: int
    orders: tuple[int, ...]
    roots: tuple[tuple[IntPolynomial, RationalInterval], ...]
    groups: tuple[_Group, ...]

    def _brackets(self) -> list[tuple[int, int, int, int]]:
        """Each root's isolating bracket as (a, b, d, its sign at a/d)."""
        return [(a, b, d, _sign_at(f.coeffs, a, d))
                for f, iv in self.roots for a, b, d in [_bracket(iv.lo, iv.hi)]]

    def _narrow(self, group: _Group, brackets: list, width: Fraction) -> _Exact:
        """An interval of width at most `width` around the group's |mu|^2,
        refining its root's bracket in `brackets` from w = width / 4 and
        dividing w by 4 until the map's result is narrow enough.  Each try
        maps the bracket (a, b, d) as it is, unreduced, and tests its width
        exactly."""
        if group.root is None:
            return group.msq(None, width)
        f = self.roots[group.root][0]
        a, b, d, s = brackets[group.root]
        w = width / 4
        while True:
            a, b, d = _bisect(f.coeffs, a, b, d, s, w)
            brackets[group.root] = a, b, d, s
            out = group.msq(_Exact(a, b, d), w)
            if out is not None and out.width_at_most(width):
                return out
            w /= 4

    def census(self, enclosure_width: Fraction) -> EigenvalueClassification:
        brackets = self._brackets()
        outside_moduli = tuple(
            iv for g in self.groups if g.outside
            for iv in [self._narrow(g, brackets, enclosure_width).interval()] * g.count
        )
        return EigenvalueClassification(
            n_zero=self.n_zero,
            n_less=sum(g.count for g in self.groups if not g.outside),
            n_on=len(self.orders),
            n_more=len(outside_moduli),
            unity_orders=self.orders,
            outside_moduli=outside_moduli,
        )

    def growth_base(self, width: Fraction) -> RationalInterval:
        """Enclosure of the Mahler measure prod max(1, |mu_i|), of width at
        most `width`."""
        target = width
        while True:
            out = sqrt_interval(self._mahler_sq(target), target)
            if out.width_at_most(width):
                return out.interval()
            target /= 4

    def _mahler_sq(self, width: Fraction) -> _Exact:
        """Enclosure of M^2 = prod over outside roots of |mu|^2."""
        outside = [g for g in self.groups if g.outside]
        if not outside:
            return _Exact.point(1)
        brackets = self._brackets()
        target = width
        while True:
            per_group = target / (4 * len(outside))
            out = reduce(operator.mul, (self._narrow(g, brackets, per_group).intpow(g.count)
                                        for g in outside))
            if out.width_at_most(width):
                return out
            target /= 4


def _analyze(P: CharPolyQuartic) -> _Analysis:
    """Analyse P in one pass over its square-free decomposition.

    Each factor f^mult is checked against the conjugate-pair rule, which
    raises InvalidStructureError; on a quartic a factor that breaks it is
    the first one (multiplicity 1, or 3 beside a simple linear factor), so
    no other error comes before it.  Then f loses its root 0 and every Phi_k
    with k in ALLOWED_UNITY_ORDERS that divides it, each at most once since
    f is square-free; a Phi_k adds deg Phi_k * mult copies of k to the
    orders.  By Kronecker's theorem that strips every circle root: a circle
    root that is not a root of unity has a self-reciprocal minimal
    polynomial of degree 4 with a real reciprocal pair of simple roots off
    the circle, which the rule rejects.  What is left of f has no roots at
    0 or on the circle: real roots, one complex pair, or two pairs.  The
    factors come in ascending multiplicity, and so do the groups.
    """
    p = P.poly
    n_zero, orders, roots, groups = 0, [], [], []
    for f, mult in squarefree_decomposition(p):
        _require_conjugate_pairs(p, f, mult)
        if f.coeffs[0] == 0:
            n_zero += mult
            f = IntPolynomial(f.coeffs[1:])
        for k in ALLOWED_UNITY_ORDERS:
            phi = cyclotomic(k)
            if f.degree >= phi.degree:
                quo, rem = poly_divmod(f, phi)
                if rem.is_zero():
                    f = quo
                    orders += [k] * (phi.degree * mult)
        if f.degree <= 0:
            continue
        # by the rule a factor with a real root has only real roots, and
        # one of odd multiplicity has none; the others, where the isolation
        # finds nothing, have one or two complex pairs
        if mult % 2 == 0 and (real := _real_root_groups(f, mult, roots)):
            groups += real
        elif f.degree == 2:
            c0 = Fraction(f.coeffs[0], f.coeffs[2])
            point = partial(_fixed, _Exact.point(c0))
            groups.append(_Group(2 * mult, c0 > 1, None, point))
        else:
            groups += _two_pair_groups(f, mult, roots)
    return _Analysis(n_zero, tuple(sorted(orders)), tuple(roots), tuple(groups))


def count_roots_by_modulus(
    P: CharPolyQuartic,
    enclosure_width: Fraction = DEFAULT_ENCLOSURE_WIDTH,
) -> EigenvalueClassification:
    """Exact modulus census of the quartic's four roots.

    Raises ValueError for a width <= 0 and InvalidStructureError if P fails
    the conjugate-pair rule; every unit-circle root of a quartic that
    passes it is a root of unity.
    """
    if enclosure_width <= 0:
        raise ValueError("enclosure width must be positive")
    return _analyze(P).census(enclosure_width)
