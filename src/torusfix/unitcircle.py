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
from typing import Callable

from .errors import InvalidEndomorphismError, InvalidStructureError
from .intervals import RationalInterval, sqrt_interval
from .polynomials import (
    ALLOWED_UNITY_ORDERS,
    IntPolynomial,
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

# An enclosure maps a requested width to a rational interval around |mu|^2.
Enclosure = Callable[[Fraction], RationalInterval]


@dataclass(frozen=True)
class _OffCircleFactor:
    """What is left of one square-free factor of P once its root 0 and
    its cyclotomic factors are divided out: roots off the circle only.

    ``groups`` lists its roots as (count, outside) pairs, one per set of
    roots sharing a modulus, counted with multiplicity; outside means
    |mu| > 1.  ``enclosures`` makes one |mu|^2 enclosure per group.  The
    enclosures keep bisection state, and the two pairs of a quartic factor
    share the refinement of u*, so every consumer makes its own set: a
    result then never depends on what another consumer refined before.
    """

    groups: tuple[tuple[int, bool], ...]
    enclosures: Callable[[], list[Enclosure]]


def _point(v: Fraction) -> Enclosure:
    return lambda width: RationalInterval.point(v)


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


def _two_pair_factor(f: IntPolynomial, mult: int) -> _OffCircleFactor:
    """A square-free monic integer quartic with no real roots and no
    unit-circle roots: two conjugate pairs with moduli m1 <= m2.

    m1^2 + m2^2 is the largest real root u* of the resolvent cubic (the
    conjugate pairing dominates every other pairing's product sum), and
    m1^2 * m2^2 = c0.  One isolating interval of u* answers both questions
    below, and the enclosures start from it unrefined.  With mu, nu the
    roots of the two pairs, the resolvent's roots differ by |mu - conj nu|^2,
    |mu - nu|^2 and 4 Im mu Im nu, none zero for a square-free f, so the
    resolvent is square-free and refine_root bisects it as it is.
    """
    c0 = Fraction(f.coeffs[0])
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
    groups = ((2 * mult, u_iv.lo < 1 + c0), (2 * mult, True))

    # m1 = m2 exactly when u* = 2 sqrt(c0).  For a rational u* the
    # enclosures below find disc = u*^2 - 4 c0 = 0 and return the points
    # u*/2 = 2 c0/u* = sqrt(c0).  For an irrational u*, res(2 sqrt(c0)) = 0
    # forces both the even and the odd part of res to vanish at 4 c0, whence
    # res = (y^2 - 4 c0)(y - y') with y' rational, so u* > 0 is 2 sqrt(c0);
    # the test needs u* irrational, since u* = y' satisfies it too.
    r0, r1, r2, _ = res.coeffs
    if u_isolated.lo != u_isolated.hi and r0 + r2 * 4 * c0 == 0 and r1 + 4 * c0 == 0:

        def enclosure_eq(width: Fraction) -> RationalInterval:
            return sqrt_interval(RationalInterval.point(c0), width)

        return _OffCircleFactor(groups, lambda: [enclosure_eq, enclosure_eq])

    def enclosures() -> list[Enclosure]:
        u_iv = u_isolated

        def msq(which_larger: bool) -> Enclosure:
            def enclosure(width: Fraction) -> RationalInterval:
                nonlocal u_iv
                w = width / 4
                while True:
                    u_iv = refine_root(res, u_iv, w)
                    disc = u_iv * u_iv + RationalInterval.point(-4 * c0)
                    if disc.lo < 0 <= disc.hi:
                        w /= 4
                        continue
                    root = sqrt_interval(
                        RationalInterval(max(disc.lo, Fraction(0)), disc.hi), w
                    )
                    m2_iv = (u_iv + root).scale(Fraction(1, 2))
                    out = m2_iv if which_larger else (
                        RationalInterval.point(c0) * m2_iv.reciprocal()
                    )
                    if out.width <= width:
                        return out
                    w /= 4

            return enclosure

        return [msq(False), msq(True)]

    return _OffCircleFactor(groups, enclosures)


def _real_root_factor(f: IntPolynomial, mult: int) -> _OffCircleFactor:
    """The real roots of a square-free factor with no roots at 0 or on the
    circle (so no root at +-1), each isolated away from -1, 0 and 1."""
    isolated = []
    for iv in real_root_isolation(f):
        while any(iv.lo < c < iv.hi for c in (-1, 0, 1)):
            iv = refine_root(f, iv, iv.width / 4)
        isolated.append(iv)

    def enclosures() -> list[Enclosure]:
        def msq(iv: RationalInterval) -> Enclosure:
            def enclosure(width: Fraction) -> RationalInterval:
                nonlocal iv
                w = width / 4
                while True:
                    iv = refine_root(f, iv, w)
                    sq = iv * iv
                    if sq.width <= width:
                        return sq
                    w /= 4

            return enclosure

        return [msq(iv) for iv in isolated]

    groups = tuple((mult, iv.lo >= 1 or iv.hi <= -1) for iv in isolated)
    return _OffCircleFactor(groups, enclosures)


# -- one analysis per quartic -------------------------------------------------


@dataclass(frozen=True)
class _Analysis:
    """The structure of one quartic's roots relative to the unit circle:
    the zero count, the per-root unity orders of the circle roots, and the
    off-circle part of each square-free factor."""

    n_zero: int
    orders: tuple[int, ...]
    factors: tuple[_OffCircleFactor, ...]

    def _outside_enclosures(self) -> list[tuple[int, Enclosure]]:
        return [
            (count, enclosure)
            for f in self.factors
            for (count, outside), enclosure in zip(f.groups, f.enclosures())
            if outside
        ]

    def census(self, enclosure_width: Fraction) -> EigenvalueClassification:
        n_less = sum(c for f in self.factors for c, outside in f.groups if not outside)
        outside_moduli = tuple(
            iv
            for count, enclosure in self._outside_enclosures()
            for iv in [enclosure(enclosure_width)] * count
        )
        return EigenvalueClassification(
            n_zero=self.n_zero,
            n_less=n_less,
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
            if out.width <= width:
                return out
            target /= 4

    def _mahler_sq(self, width: Fraction) -> RationalInterval:
        """Enclosure of M^2 = prod over outside roots of |mu|^2."""
        outside = self._outside_enclosures()
        if not outside:
            return RationalInterval.point(1)
        target = width
        while True:
            out = RationalInterval.point(1)
            per_group = target / (4 * len(outside))
            for count, enclosure in outside:
                out = out * enclosure(per_group).intpow(count)
            if out.width <= width:
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
    factors come in ascending multiplicity, and so do the off-circle parts.
    """
    p = P.poly
    n_zero, orders, factors = 0, [], []
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
        # one of odd multiplicity has none; the others have one or two
        # complex pairs
        if mult % 2 == 0 and count_real_roots(f):
            factors.append(_real_root_factor(f, mult))
        elif f.degree == 2:
            c0 = Fraction(f.coeffs[0], f.coeffs[2])
            factors.append(_OffCircleFactor(((2 * mult, c0 > 1),), lambda _e=_point(c0): [_e]))
        else:
            factors.append(_two_pair_factor(f, mult))
    return _Analysis(n_zero, tuple(sorted(orders)), tuple(factors))


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
