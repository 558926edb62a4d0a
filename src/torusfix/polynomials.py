"""Dense integer polynomials with exact arithmetic.

Coefficients are stored ascending, so ``IntPolynomial((1, -1, 1))`` is
t^2 - t + 1.  The degrees occurring in this package never exceed ~20, so
the dense representation is deliberate.  Serialization format (shared by
the CLI and test fixtures): comma-separated ascending coefficients,
e.g. ``"1,-1,1"``.  Division, Sturm chains and square-free parts are
integer computations (pseudo-remainders).  The Sturm chain is the one
remainder sequence run on a polynomial: its last term is gcd(p, p') up to
a constant, so it gives the square-free part with no separate gcd, and
``real_root_isolation`` searches a monic square-free polynomial's rational
roots and isolates its other real roots on that same chain.  Isolation
and refinement are integer computations too: a real-root bracket is kept
as integer numerators a, b over one shared positive denominator d, signs
come from integer Horner on d^deg q(a/d), and a bisection step doubles a, b
and d and takes a + b as the midpoint.  A bracket becomes a pair of
Fractions only on output.  No function here keeps a cache, and
``refine_root`` bisects the square-free polynomial it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional

from .errors import InvalidStructureError
from .intervals import RationalInterval


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, ascending coefficients, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basics ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading == 1

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def square(self) -> "IntPolynomial":
        """self * self, with each cross product computed once."""
        cs = self.coeffs
        out = [0] * max(2 * len(cs) - 1, 0)
        for i, a in enumerate(cs):
            out[2 * i] += a * a
            for j in range(i + 1, len(cs)):
                out[i + j] += 2 * a * cs[j]
        return IntPolynomial(out)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        if self.is_zero():
            return 0
        g = reduce(math.gcd, (abs(c) for c in self.coeffs))
        return g if self.leading > 0 else -g

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; result has positive leading coefficient."""
        if self.is_zero():
            return self
        c = self.content()
        return IntPolynomial([a // c for a in self.coeffs])

    def trailing_zero_count(self) -> int:
        """Multiplicity of the root 0."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return k

    def __str__(self) -> str:
        return serialize_poly(self)

    # -- division --------------------------------------------------------

    def divexact(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact division in Z[t]; raises ValueError if other does not
        divide self there."""
        quo, rem = poly_divmod(self, other)
        if not rem.is_zero():
            raise ValueError(f"{other} does not divide {self}")
        return quo


ONE = IntPolynomial((1,))


# -- serialization ---------------------------------------------------------


def serialize_poly(p: IntPolynomial) -> str:
    if p.is_zero():
        return "0"
    return ",".join(str(c) for c in p.coeffs)


def parse_poly(text: str) -> IntPolynomial:
    try:
        return IntPolynomial([int(part.strip()) for part in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"malformed polynomial string {text!r}") from exc


# -- core operations --------------------------------------------------------


def poly_divmod(p: IntPolynomial, d: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Quotient and remainder of p by a non-zero d in Z[t]; a quotient step
    not exact in Z raises ValueError.  A monic d never raises, nor (Gauss's
    lemma) does a primitive d dividing p over Q."""
    lead, n, low = d.leading, d.degree, d.coeffs[:-1]
    cs = list(p.coeffs)
    quo = [0] * max(len(cs) - n, 0)
    while len(cs) > n:
        c = cs.pop()
        if c:
            if lead != 1:
                c, r = divmod(c, lead)
                if r:
                    raise ValueError(f"{d} does not divide {p} in Z[t]")
            base = len(cs) - n
            quo[base] = c
            for j, m in enumerate(low):
                cs[base + j] -= c * m
    return IntPolynomial(quo), IntPolynomial(cs)


def _primitive_remainder(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """The remainder of a by b over Q, scaled by a positive rational to a
    primitive integer polynomial: the exact Z[t] remainder of
    |lc b|^(deg a - deg b + 1) a by b, over its positive content."""
    scale = abs(b.leading) ** max(a.degree - b.degree + 1, 0)
    _, rem = poly_divmod(IntPolynomial([c * scale for c in a.coeffs]), b)
    if rem.is_zero():
        return rem
    g = abs(rem.content())
    return IntPolynomial([c // g for c in rem.coeffs])


_CYCLOTOMIC_TABLE = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    11: (1,) * 11,
    12: (1, 0, -1, 0, 1),
}

# Orders whose roots of unity have algebraic degree <= 4; the only ones a
# quartic rational characteristic polynomial can carry.
ALLOWED_UNITY_ORDERS = (1, 2, 3, 4, 5, 6, 8, 10, 12)


def cyclotomic(k: int) -> IntPolynomial:
    """The k-th cyclotomic polynomial, 1 <= k <= 12."""
    if k not in _CYCLOTOMIC_TABLE:
        raise ValueError(f"cyclotomic order {k} outside supported range 1..12")
    return IntPolynomial(_CYCLOTOMIC_TABLE[k])


# -- real root machinery -----------------------------------------------------


def cauchy_bound(p: IntPolynomial) -> Fraction:
    """All real roots of p lie strictly inside (-B, B)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    lead = abs(p.leading)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs)


def square_free_part(p: IntPolynomial) -> IntPolynomial:
    """p divided by gcd(p, p'), primitive with positive leading coefficient."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return _square_free(p)[0]


def _square_free(p: IntPolynomial) -> tuple[IntPolynomial, Optional[list[IntPolynomial]]]:
    """p's square-free part w, primitive with positive leading coefficient,
    and w's Sturm chain, or None when p is not square-free.  The chain of
    p's primitive part q ends in gcd(q, q') up to a constant: w is q over
    it, and a constant last term makes w = q, whose chain this is."""
    q = p.primitive()
    chain = sturm_chain(q)
    if chain[-1].degree <= 0:
        return q, chain
    return q.divexact(chain[-1].primitive()), None


def squarefree_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """[(f_i, i)] with p ~ prod f_i^i, each f_i primitive square-free,
    pairwise coprime; unit factors dropped.

    Uses the gcd-chain scheme: s_i := square-free part of p / (s_1...s_{i-1})
    collects the factors of multiplicity >= i, and f_i = s_i / s_{i+1}.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    cur = p.primitive()
    levels: list[IntPolynomial] = []
    while cur.degree > 0:
        s = square_free_part(cur)
        levels.append(s)
        cur = cur.divexact(s).primitive()
    out: list[tuple[IntPolynomial, int]] = []
    for i, (s, nxt) in enumerate(zip(levels, levels[1:] + [ONE])):
        f = s.divexact(nxt).primitive()
        if f.degree > 0:
            out.append((f, i + 1))
    return out


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """p, p' and the negated primitive remainders: up to sign, the remainder
    sequence of p and p', whose last term is their gcd up to a constant."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = _primitive_remainder(chain[-2], chain[-1])
        if rem.is_zero():
            break
        chain.append(-rem)
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _bracket(lo, hi) -> tuple[int, int, int]:
    """Rational endpoints lo <= hi as integer numerators a, b over one
    shared positive denominator d."""
    d = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


def _sign_at(coeffs: tuple[int, ...], a: int, d: int) -> int:
    """Sign of q(a/d) for d > 0: integer Horner on d^deg q(a/d)."""
    out, power = 0, 1
    for c in reversed(coeffs):
        out = out * a + c * power
        power *= d
    return (out > 0) - (out < 0)


def _sign_variations(chain: list[IntPolynomial], a: int, d: int) -> int:
    """Sign changes of the Sturm chain at a/d, d > 0."""
    signs = [s for q in chain if (s := _sign_at(q.coeffs, a, d))]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def sturm_count(p: IntPolynomial, interval: RationalInterval) -> int:
    """Distinct real roots of square-free p in (lo, hi]."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    a, b, d = _bracket(interval.lo, interval.hi)
    if _sign_at(p.coeffs, a, d) == 0 or _sign_at(p.coeffs, b, d) == 0:
        raise ValueError("interval endpoint is a root; divide it out first")
    chain = sturm_chain(p)
    return _sign_variations(chain, a, d) - _sign_variations(chain, b, d)


def count_real_roots(p: IntPolynomial) -> int:
    """Distinct real roots of square-free p."""
    if p.degree <= 0:
        return 0
    b = cauchy_bound(p)
    return sturm_count(p, RationalInterval(-b, b))


def _isolating_brackets(chain: list[IntPolynomial], w: IntPolynomial,
                        rationals: list[tuple[int, int]], a: int, b: int,
                        d: int) -> list[tuple[int, int, int]]:
    """Brackets (a', b', d') around the roots of w in (a/d, b/d], each
    holding one root and a sign change of w, by bisection at a + b over the
    doubled denominator, the same rational as (lo + hi) / 2.  `chain` is the
    Sturm chain of w times den t - num for each num/den in `rationals`: a
    node holds its Sturm count less the rationals inside it, as the chain's
    variations at a rational root are those just right of it.  Each node
    carries the Sturm variations at its endpoints, so every midpoint is
    evaluated once."""
    out = []
    stack = [(a, b, d, _sign_variations(chain, a, d), _sign_variations(chain, b, d))]
    while stack:
        a, b, d, v_a, v_b = stack.pop()
        n = v_a - v_b - sum(a * den < num * d <= b * den for num, den in rationals)
        if n == 0:
            continue
        if n == 1 and _sign_at(w.coeffs, a, d) * _sign_at(w.coeffs, b, d) < 0:
            out.append((a, b, d))
            continue
        mid = a + b  # w has no rational root, so it is non-zero here
        v_mid = _sign_variations(chain, mid, 2 * d)
        stack.append((2 * a, mid, 2 * d, v_a, v_mid))
        stack.append((mid, 2 * b, 2 * d, v_mid, v_b))
    return out


def real_root_isolation(p: IntPolynomial) -> list[RationalInterval]:
    """Disjoint intervals each containing exactly one distinct real root of p.

    Rational roots are returned as degenerate point intervals; irrational
    roots as (lo, hi] brackets with a sign change of the square-free part.
    The square-free part w gets one Sturm chain (for a square-free p, the
    one that gave the gcd); the isolation of the roots left once the
    rational ones are divided out runs on it, and so does the rational
    search for a monic w.  The bisection runs on integer numerators over a
    shared denominator; the brackets become Fractions only on output.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    w, chain = _square_free(p)
    chain = chain or sturm_chain(w)
    rationals = _rational_roots(w, chain)
    out: list[RationalInterval] = [RationalInterval.point(r) for r in rationals]
    pairs = [(r.numerator, r.denominator) for r in rationals]
    for num, den in pairs:
        w = w.divexact(IntPolynomial((-num, den)))
    if w.degree > 0:
        b = cauchy_bound(w)
        for lo, hi, d in _isolating_brackets(chain, w, pairs, *_bracket(-b, b)):
            iv = RationalInterval(Fraction(lo, d), Fraction(hi, d))
            # shrink until no rational root of p sits inside the bracket
            while any(iv.lo <= r <= iv.hi for r in rationals):
                iv = refine_root(w, iv, iv.width / 4)
            out.append(iv)
    out.sort(key=lambda iv: iv.lo)
    return out


def _bisect(coeffs: tuple[int, ...], a: int, b: int, d: int, s_lo: int,
            width) -> tuple[int, int, int]:
    """Halve the bracket (a/d, b/d] of a root of q, where q has sign s_lo
    at a/d, until it is at most the rational width wide, keeping the half
    where q changes sign.  Each step doubles a, b and d and takes a + b as
    the midpoint, the same rational as (lo + hi) / 2.  A midpoint that is
    the root comes back as a == b."""
    num, den = width.numerator, width.denominator
    while (b - a) * den > num * d:
        mid = a + b
        a, b, d = 2 * a, 2 * b, 2 * d
        s = _sign_at(coeffs, mid, d)
        if s == 0:
            return mid, mid, d
        if s == s_lo:
            a = mid
        else:
            b = mid
    return a, b, d


def refine_root(p: IntPolynomial, interval: RationalInterval,
                width: Fraction) -> RationalInterval:
    """Bisect an isolating interval of square-free p down to the requested
    width.  p itself is bisected, so a root of even multiplicity in a p
    that is not square-free shows no sign change and is rejected.

    The bracket is carried as integer numerators over a shared denominator
    and becomes Fractions only on output, so the endpoints are exactly
    those of bisecting by (lo + hi) / 2.
    """
    if width <= 0:
        raise ValueError("refinement width must be positive")
    if interval.lo == interval.hi:
        return interval
    coeffs = p.coeffs
    a, b, d = _bracket(interval.lo, interval.hi)
    s_lo, s_hi = _sign_at(coeffs, a, d), _sign_at(coeffs, b, d)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise ValueError("not a sign-change isolating interval")
    a, b, d = _bisect(coeffs, a, b, d, s_lo, Fraction(width))
    return RationalInterval(Fraction(a, d), Fraction(b, d))


def rational_roots(p: IntPolynomial) -> list[Fraction]:
    """All rational roots (distinct, sorted) of a non-zero integer polynomial."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return _rational_roots(*_square_free(p))


def _rational_roots(w: IntPolynomial, chain: Optional[list[IntPolynomial]]) -> list[Fraction]:
    """The rational roots (distinct, sorted) of a square-free w with positive
    leading coefficient, given w's Sturm chain or None.

    With a the leading coefficient and d the degree of the part q without
    the root 0, x is a root of q exactly when y = a*x is a root of the monic
    square-free Q(y) = a^(d-1) q(y/a), whose rational roots are integers.
    Sturm counts of Q over integer intervals inside the Cauchy bound bisect
    down to those integers, in time polynomial in the bit size.  A monic w
    without the root 0 is its own Q and is searched with its own chain.
    """
    k = w.trailing_zero_count()
    roots = [Fraction(0)] if k else []
    q = IntPolynomial(w.coeffs[k:])
    if q.degree == 0:
        return roots
    a, d = q.leading, q.degree
    monic = IntPolynomial([c * a ** (d - 1 - i) for i, c in enumerate(q.coeffs[:-1])] + [1])
    if monic != w or chain is None:
        chain = sturm_chain(monic)
    b = math.ceil(cauchy_bound(monic))
    # integer (lo, hi] and the Sturm variations at both; every real root lies strictly inside
    stack = [(-b, b, _sign_variations(chain, -b, 1), _sign_variations(chain, b, 1))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if monic(hi) == 0:
                roots.append(Fraction(hi, a))
            continue
        mid = (lo + hi) // 2
        v_mid = _sign_variations(chain, mid, 1)
        stack.append((lo, mid, v_lo, v_mid))
        stack.append((mid, hi, v_mid, v_hi))
    return sorted(roots)


# Past this trial divisor _square_free_kernel gives up (well under a second);
# every |n| < 2^63 = (2^21)^3 stays below it.
KERNEL_TRIAL_DIVISOR_LIMIT = 1 << 21


def _square_free_kernel(n: int) -> int:
    """The square-free part: product of the primes of odd exponent, so that
    sqrt(n) = k * sqrt(kernel) with k an integer; 0 for n = 0.  Trial
    division stops once d^3 exceeds the unfactored part m, which is then 1,
    p, p^2 or p q; raises InvalidStructureError past the divisor limit."""
    m = abs(n)
    if m == 0:
        return 0
    out = 1
    d = 2
    while d * d * d <= m:
        if d > KERNEL_TRIAL_DIVISOR_LIMIT:
            raise InvalidStructureError(
                f"cannot take the square-free part of a {n.bit_length()}-bit "
                f"integer: it needs trial division past {KERNEL_TRIAL_DIVISOR_LIMIT}"
            )
        exp = 0
        while m % d == 0:
            m //= d
            exp += 1
        if exp % 2:
            out *= d
        d += 1
    root = math.isqrt(m)
    return out if root * root == m else out * m


def power_mod(n: int, modulus: IntPolynomial) -> IntPolynomial:
    """t^n mod modulus for monic integer modulus (exact reduction).

    Left-to-right square-and-multiply from 1, where each multiply by t is a
    shift; every step reduces, so any monic modulus works.
    """
    if not modulus.is_monic():
        raise ValueError("modulus must be monic")
    if n < 0:
        raise ValueError(f"exponent must be non-negative, got {n}")
    result = ONE
    for bit in bin(n)[2:]:
        result = poly_divmod(result.square(), modulus)[1]
        if bit == "1":
            result = poly_divmod(IntPolynomial((0, *result.coeffs)), modulus)[1]
    return result
