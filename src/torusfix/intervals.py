"""Exact rational intervals used as enclosures for irrational quantities."""

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
            return RationalInterval.point(1)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def sqrt_interval(x: RationalInterval, width: Fraction) -> RationalInterval:
    """Rational enclosure of sqrt over a non-negative interval, of width <= width."""
    if width <= 0:
        raise ValueError("enclosure width must be positive")
    if x.lo < 0:
        raise ValueError("negative radicand")
    if x.lo == x.hi:
        exact = is_square_rational(x.lo)
        if exact is not None:
            return RationalInterval.point(exact)
    lo = _sqrt_lower(x.lo, width / 2)
    hi = _sqrt_upper(x.hi, width / 2)
    return RationalInterval(lo, hi)


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


def _sqrt_scale(tol: Fraction) -> int:
    """Least power of two s with 1/s <= tol, so isqrt at denominator s^2
    meets tol."""
    return 1 << (math.ceil(1 / tol) - 1).bit_length()


def _sqrt_lower(x: Fraction, tol: Fraction) -> Fraction:
    if x == 0:
        return Fraction(0)
    s = _sqrt_scale(tol)
    # floor(sqrt(x) * s) / s <= sqrt(x), within 1/s
    return Fraction(math.isqrt(x.numerator * s * s // x.denominator), s)


def _sqrt_upper(x: Fraction, tol: Fraction) -> Fraction:
    if x == 0:
        return Fraction(0)
    s = _sqrt_scale(tol)
    r = math.isqrt(x.numerator * s * s // x.denominator)
    return Fraction(r + 1, s)
