"""Exact rational intervals used as enclosures for irrational quantities,
and fixed-point integer bounds on such intervals that decide most width
tests without computing the interval itself."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"lo must not exceed hi: {self.lo} > {self.hi}")

    @classmethod
    def point(cls, x) -> "RationalInterval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "RationalInterval") -> "RationalInterval":
        if self.lo >= 0 and other.lo >= 0:
            return RationalInterval(self.lo * other.lo, self.hi * other.hi)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RationalInterval(min(products), max(products))

    def scale(self, c) -> "RationalInterval":
        c = Fraction(c)
        if c >= 0:
            return RationalInterval(self.lo * c, self.hi * c)
        return RationalInterval(self.hi * c, self.lo * c)

    def reciprocal(self) -> "RationalInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return RationalInterval(1 / self.hi, 1 / self.lo)

    def intpow(self, k: int) -> "RationalInterval":
        if k < 0:
            return self.reciprocal().intpow(-k)
        if k == 0:
            return self.point(1)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def sqrt_interval(x, width: Fraction):
    """Rational enclosure of sqrt over a non-negative interval, of width <=
    width; on a _Fixed, bounds on the endpoints of that enclosure."""
    if width <= 0:
        raise ValueError("enclosure width must be positive")
    if x.lo < 0:
        raise ValueError("negative radicand")
    s = _sqrt_scale(width)
    if isinstance(x, _Fixed):
        return x.sqrt(s)
    if x.lo == x.hi:
        exact = is_square_rational(x.lo)
        if exact is not None:
            return RationalInterval.point(exact)
    return RationalInterval(_sqrt_lower(x.lo, s), _sqrt_upper(x.hi, s))


def is_square_rational(q: Fraction) -> Optional[Fraction]:
    """Exact positive square root of a rational square, else None."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _sqrt_scale(width: Fraction) -> int:
    """Least power of two s with 1/s <= width / 2, so isqrt at denominator
    s^2 is within width / 2 of each endpoint: s >= ceil(2 / width)."""
    return 1 << (-(-2 * width.denominator // width.numerator) - 1).bit_length()


def _sqrt_lower(x: Fraction, s: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    # floor(sqrt(x) * s) / s <= sqrt(x), within 1/s
    return Fraction(math.isqrt(x.numerator * s * s // x.denominator), s)


def _sqrt_upper(x: Fraction, s: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    r = math.isqrt(x.numerator * s * s // x.denominator)
    return Fraction(r + 1, s)


# -- fixed-point bounds -------------------------------------------------------


class _Undecided(Exception):
    """Fixed-point bounds too coarse to decide a comparison."""


def _signed(dn: int, up: int) -> int:
    """dn, when it is < 0 exactly when every value in [dn, up] is."""
    if dn < 0 <= up:
        raise _Undecided
    return dn


class _Fixed:
    """Integer bounds at 2^-p on an exact RationalInterval [lo, hi]: lo in
    [ld, lu] / 2^p and hi in [hd, hu] / 2^p, ld <= hd and lu <= hu, so
    hu - ld bounds the exact width from above and hd - lu from below.  The
    operations mirror RationalInterval's, so one formula evaluates either
    type; each exact endpoint is monotone in every input endpoint, so
    lower bounds rounded down and upper bounds rounded up enclose it."""

    __slots__ = ("ld", "lu", "hd", "hu", "p")

    def __init__(self, ld: int, lu: int, hd: int, hu: int, p: int):
        self.ld, self.lu, self.hd, self.hu, self.p = ld, lu, hd, hu, p

    @classmethod
    def of(cls, a: int, b: int, d: int, p: int) -> "_Fixed":
        """Bounds on [a/d, b/d], d > 0; exact for d = 2^k, k <= p."""
        if d & (d - 1) == 0 and d.bit_length() <= p + 1:
            lo, hi = a << (p + 1 - d.bit_length()), b << (p + 1 - d.bit_length())
            return cls(lo, lo, hi, hi, p)
        lo, hi = a << p, b << p
        return cls(lo // d, -(-lo // d), hi // d, -(-hi // d), p)

    # lo and hi stand for the endpoints in x < 0 and 0 <= x, all the maps ask
    @property
    def lo(self) -> int:
        return _signed(self.ld, self.lu)

    @property
    def hi(self) -> int:
        return _signed(self.hd, self.hu)

    def point(self, x) -> "_Fixed":
        return _Fixed.of(x.numerator, x.numerator, x.denominator, self.p)

    def width_at_most(self, bound: Fraction) -> bool:
        """Whether the exact width is <= bound, or _Undecided."""
        t = (bound.numerator << self.p) // bound.denominator
        if self.hu - self.ld <= t or self.hd - self.lu > t:
            return self.hu - self.ld <= t
        raise _Undecided

    def __add__(self, other: "_Fixed") -> "_Fixed":
        return _Fixed(self.ld + other.ld, self.lu + other.lu,
                      self.hd + other.hd, self.hu + other.hu, self.p)

    def __mul__(self, other: "_Fixed") -> "_Fixed":
        if self.ld >= 0 and other.ld >= 0:
            lo = (self.ld * other.ld, self.lu * other.lu)
            hi = (self.hd * other.hd, self.hu * other.hu)
        else:
            # the range of each corner product; lo is their least, hi their greatest
            dns, ups = zip(*[(min(c), max(c)) for x in ((self.ld, self.lu), (self.hd, self.hu))
                             for y in ((other.ld, other.lu), (other.hd, other.hu))
                             for c in [[i * j for i in x for j in y]]])
            lo, hi = (min(dns), min(ups)), (max(dns), max(ups))
        p = self.p
        return _Fixed(lo[0] >> p, -(-lo[1] >> p), hi[0] >> p, -(-hi[1] >> p), p)

    def scale(self, c: Fraction) -> "_Fixed":
        """For c >= 0."""
        n, d = c.numerator, c.denominator
        return _Fixed(self.ld * n // d, -(-self.lu * n // d), self.hd * n // d, -(-self.hu * n // d), self.p)

    def reciprocal(self) -> "_Fixed":
        # [1/hi, 1/lo]: 1/x decreases on either side of 0
        if not (self.ld > 0 or self.hu < 0):
            raise _Undecided
        one = 1 << 2 * self.p
        return _Fixed(one // self.hu, -(-one // self.hd), one // self.lu, -(-one // self.ld), self.p)

    intpow = RationalInterval.intpow

    def sqrt(self, s: int) -> "_Fixed":
        """Bounds on [_sqrt_lower(lo, s), _sqrt_upper(hi, s)], lo >= 0, each
        at both bounds of its argument; a point has its own case."""
        if self.lu >= self.hd:
            raise _Undecided
        k, p = s.bit_length() - 1, self.p

        def roots(n0: int, n1: int, upper: bool) -> tuple[int, int]:
            # isqrt(floor(y s^2)) over s = 2^k at y = n / 2^p, plus 1 at y > 0 upper
            r0, r1 = (math.isqrt((n << 2 * k) >> p) + (upper and n > 0) for n in (n0, n1))
            return (r0 << p) >> k, -((-r1 << p) >> k)

        return _Fixed(*roots(self.ld, self.lu, False), *roots(self.hd, self.hu, True), p)
