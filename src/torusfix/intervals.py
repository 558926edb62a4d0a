"""Exact rational intervals used as enclosures for irrational quantities,
and the same intervals as unreduced integers for the growth-base width
tests."""

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
    width, of the type of x."""
    if width <= 0:
        raise ValueError("enclosure width must be positive")
    if x.lo < 0:
        raise ValueError("negative radicand")
    s = _sqrt_scale(width)
    if isinstance(x, _Exact):
        # the bounds below at denominator s; n/d is a square exactly when n*d
        # is, with root isqrt(n*d)/d, and past that test hi > 0
        lo, hi, d = x.lo, x.hi, x.d
        if lo == hi and (r := math.isqrt(lo * d)) ** 2 == lo * d:
            return _Exact(r, r, d)
        return _Exact(math.isqrt(lo * s * s // d), math.isqrt(hi * s * s // d) + 1, s)
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
    # floor(sqrt(x) * s) / s <= sqrt(x), within 1/s
    return Fraction(math.isqrt(x.numerator * s * s // x.denominator), s)


def _sqrt_upper(x: Fraction, s: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    r = math.isqrt(x.numerator * s * s // x.denominator)
    return Fraction(r + 1, s)


# -- unreduced exact intervals ------------------------------------------------


class _Exact:
    """The exact interval [lo/d, hi/d], d > 0, never reduced, so a width test
    costs a few products and no gcd (Knuth, TAOCP vol. 2, 4.5.1).  Its
    operations give exactly RationalInterval's values, so one formula
    evaluates either type; lo and hi have the signs of the endpoints."""

    __slots__ = ("lo", "hi", "d")

    def __init__(self, lo: int, hi: int, d: int):
        self.lo, self.hi, self.d = lo, hi, d

    @staticmethod
    def point(x) -> "_Exact":
        return _Exact(x.numerator, x.numerator, x.denominator)

    def interval(self) -> RationalInterval:
        return RationalInterval(Fraction(self.lo, self.d), Fraction(self.hi, self.d))

    def width_at_most(self, bound: Fraction) -> bool:
        return (self.hi - self.lo) * bound.denominator <= bound.numerator * self.d

    def __add__(self, other: "_Exact") -> "_Exact":
        if self.d == other.d:
            return _Exact(self.lo + other.lo, self.hi + other.hi, self.d)
        return _Exact(self.lo * other.d + other.lo * self.d,
                      self.hi * other.d + other.hi * self.d, self.d * other.d)

    def __mul__(self, other: "_Exact") -> "_Exact":
        if self.lo >= 0 and other.lo >= 0:
            return _Exact(self.lo * other.lo, self.hi * other.hi, self.d * other.d)
        products = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Exact(min(products), max(products), self.d * other.d)

    def scale(self, c: Fraction) -> "_Exact":
        """For c >= 0."""
        return _Exact(self.lo * c.numerator, self.hi * c.numerator, self.d * c.denominator)

    def reciprocal(self) -> "_Exact":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        # [d/hi, d/lo] over the common denominator lo*hi > 0
        return _Exact(self.d * self.lo, self.d * self.hi, self.lo * self.hi)

    intpow = RationalInterval.intpow
