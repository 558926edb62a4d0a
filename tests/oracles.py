"""Independent exact oracles for the test suite.

Nothing here imports torusfix: polynomials are ascending integer
coefficient sequences and matrices are lists of integer rows, so a test
that compares the library against these checks two separate computations.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Phi_k for every order k whose roots of unity have degree <= 4.
CYCLOTOMIC = {
    1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1),
    6: (1, -1, 1), 8: (1, 0, 0, 0, 1), 10: (1, -1, 1, -1, 1), 12: (1, 0, -1, 0, 1),
}


# -- Schur-Cohn inside-disk count ----------------------------------------------


class SchurCohnDegenerate(Exception):
    """The Schur-Cohn chain hit a vanishing constant and cannot decide."""


def schur_cohn_inside(coeffs) -> int:
    """Number of roots strictly inside the unit disk, counted with
    multiplicity, of the polynomial with ascending coefficients `coeffs`,
    for a polynomial with no roots on the circle.  Raises
    SchurCohnDegenerate when the chain cannot decide."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    n = len(c) - 1
    if n <= 0:
        return 0
    a0, an = c[0], c[-1]
    gamma = a0 * a0 - an * an
    if gamma == 0:
        raise SchurCohnDegenerate()
    # T f = a0 f - an f* has degree < n; on |z| = 1 the larger of a0 f and
    # an f* dominates (Rouche)
    inner = schur_cohn_inside([a0 * x - an * y for x, y in zip(c, reversed(c))])
    if gamma > 0:
        # |a0| > |an|: T f has the inside count of f
        return inner
    # |an| > |a0|: T f tracks -an f*, whose inside roots are the reciprocals
    # of f's outside roots
    return n - inner


# -- rational roots by the rational root theorem ------------------------------


def rational_roots(coeffs) -> list[Fraction]:
    """Distinct rational roots, sorted, of a non-zero integer polynomial:
    every candidate +-num/den with num | a_0 and den | a_n, by trial
    division (exponential in the bit size; small inputs only)."""
    c = _trim(coeffs)
    roots = set()
    while c[0] == 0:
        roots.add(Fraction(0))
        c.pop(0)

    def divisors(n):
        small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
        return small + [abs(n) // d for d in small]

    for num in divisors(c[0]):
        for den in divisors(c[-1]):
            for x in (Fraction(num, den), Fraction(-num, den)):
                if sum(a * x ** k for k, a in enumerate(c)) == 0:
                    roots.add(x)
    return sorted(roots)


def is_irreducible_quartic(coeffs) -> bool:
    """Irreducibility over Q of a monic integer quartic (ascending
    coefficients): no rational root and, by Gauss's lemma, no factorization
    (t^2 + pt + q)(t^2 + rt + s) over Z, searched over every divisor pair
    q s = c0 (exponential in the bit size; small inputs only)."""
    if rational_roots(coeffs):
        return False
    c0, c1, c2, c3, _ = coeffs  # c0 != 0, or 0 would be a rational root
    for d in range(1, math.isqrt(abs(c0)) + 1):
        if c0 % d:
            continue
        for s in (d, -d):
            q = c0 // s
            # p + r = c3; p r = c2 - q - s; p s + q r = c1
            prod = c2 - q - s
            disc = c3 * c3 - 4 * prod
            root = math.isqrt(disc) if disc >= 0 else -1
            if root * root != disc:
                continue
            for p in ((c3 + root) // 2, (c3 - root) // 2):
                r = c3 - p
                if p * r == prod and p * s + q * r == c1:
                    return False
    return True


def square_free_kernel(n: int) -> int:
    """Product of the primes of odd exponent in n (0 for n = 0), by trial
    division up to the square root."""
    n, out, d = abs(n), 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            n //= d
            out *= d
        d += 1
    return out * n


def cm_real_subfield_radicand(coeffs):
    """For a totally imaginary irreducible monic quartic: the square-free
    d > 1 with Q(sqrt(d)) its real quadratic subfield, or None when the
    field is not CM.

    With g(x - c3/4) = x^4 + p x^2 + q x + r, the factorization over R
    pairing each root with its conjugate is (x^2 + kx + m)(x^2 - kx + n),
    where k^2 is a root of K^3 + 2p K^2 + (p^2 - 4r) K - q^2; the subfield
    is rational-quadratic exactly when that k^2 is rational.
    """
    c0, c1, c2, c3, _ = (Fraction(c) for c in coeffs)
    sh = -c3 / 4
    p = c2 + 6 * sh ** 2 + 3 * c3 * sh
    q = c1 + 2 * c2 * sh + 3 * c3 * sh ** 2 + 4 * sh ** 3
    r = c0 + c1 * sh + c2 * sh ** 2 + c3 * sh ** 3 + sh ** 4
    cubic = [-q * q, p * p - 4 * r, 2 * p, Fraction(1)]
    den = math.lcm(*(c.denominator for c in cubic))
    for k0 in rational_roots([int(c * den) for c in cubic]):
        if k0 > 0:
            d = square_free_kernel(k0.numerator * k0.denominator)
            if d > 1:  # k rational would make g reducible over Q
                return d
        if k0 == 0 and q == 0:
            disc = p * p - 4 * r
            if disc > 0:
                d = square_free_kernel(disc.numerator * disc.denominator)
                if d > 1:
                    return d
    return None


# -- exact polynomial division -------------------------------------------------


def divmod_monic(p, d):
    """Quotient and remainder of integer p by monic integer d."""
    rem = list(p)
    quo = [0] * max(len(p) - len(d) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(d) - 1]
        quo[k] = c
        for j, x in enumerate(d):
            rem[k + j] -= c * x
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def off_circle_part(coeffs) -> tuple[list[int], int]:
    """(rest, n_on) for a monic integer polynomial whose unit-circle roots
    are all roots of unity of degree <= 4: rest has the roots off the circle
    and away from 0, and n_on counts the circle roots with multiplicity."""
    p = list(coeffs)
    while p[0] == 0:
        p.pop(0)
    n_on = 0
    for phi in CYCLOTOMIC.values():
        while len(p) >= len(phi):
            quo, rem = divmod_monic(p, phi)
            if rem:
                break
            p, n_on = quo, n_on + len(phi) - 1
    return p, n_on


# -- Euclidean remainder sequences over Q -------------------------------------


def fraction_remainder(a, b) -> list[Fraction]:
    """The remainder of a by a non-zero b over Q, trimmed."""
    rem = [Fraction(c) for c in _trim(a)]
    div = [Fraction(c) for c in _trim(b)]
    while len(rem) >= len(div):
        c = rem[-1] / div[-1]
        k = len(rem) - len(div)
        for j, d in enumerate(div):
            rem[k + j] -= c * d
        rem = _trim(rem)
    return rem


def remainder_sequence(a, b, sign: int = 1) -> list[list[Fraction]]:
    """[a, b, r_2, r_3, ...] with r_{k+1} = sign * (r_{k-1} mod r_k) over Q,
    up to the last non-zero term; sign = -1 gives the Sturm sequence."""
    seq = [[Fraction(c) for c in _trim(a)], [Fraction(c) for c in _trim(b)]]
    while seq[-1]:
        seq.append([sign * c for c in fraction_remainder(seq[-2], seq[-1])])
    return seq[:-1]


def primitive_integer(coeffs) -> tuple[int, ...]:
    """The rational polynomial times the positive rational that makes it a
    primitive integer polynomial."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def derivative(coeffs) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def evaluate(coeffs, x: Fraction) -> Fraction:
    return sum((c * x ** k for k, c in enumerate(coeffs)), Fraction(0))


def real_root_count(coeffs, lo=None, hi=None) -> int:
    """Distinct real roots in (lo, hi] of a non-constant integer polynomial,
    on the whole line by default: the sign variations of its Sturm sequence
    at lo minus those at hi, with None standing for -infinity at lo and
    +infinity at hi.  Neither endpoint may be a root."""
    seq = remainder_sequence(coeffs, derivative(_trim(coeffs)), sign=-1)

    def variations(x, at_plus: bool) -> int:
        if x is None:
            signs = [(1 if q[-1] > 0 else -1) * (1 if at_plus or len(q) % 2 else -1)
                     for q in seq]
        else:
            signs = [1 if v > 0 else -1 for v in (evaluate(q, x) for q in seq) if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo, False) - variations(hi, True)


def bisect_root(coeffs, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect (lo, hi], where the polynomial changes sign, at (lo + hi) / 2
    until it is at most width wide, keeping the half with the sign change;
    a midpoint that is a root gives (mid, mid).  A point interval is
    returned as it is."""
    if lo == hi:
        return lo, hi
    s_lo = evaluate(coeffs, lo) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = evaluate(coeffs, mid)
        if v == 0:
            return mid, mid
        if (v > 0) == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


# -- det(I - M^n) ----------------------------------------------------------------


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_pow(m, n: int):
    result = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    base = m
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def bareiss_det(mat) -> int:
    """Fraction-free determinant of an integer matrix."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def resultant(p, q) -> int:
    """Res(p, q) of two non-zero integer polynomials (ascending coefficients),
    as the determinant of their Sylvester matrix; for monic p this is the
    product of q over the roots of p."""
    p, q = _trim(p), _trim(q)
    if not p or not q:
        raise ValueError("resultant requires non-zero polynomials")
    m, n = len(p) - 1, len(q) - 1
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    rows = [[0] * i + p[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + q[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return bareiss_det(rows)


def fix_resultant(coeffs, n: int) -> int:
    """Res(P, 1 - t^n) for a monic P: the product of 1 - mu^n over its
    roots, with t^n first reduced mod P."""
    _, rem = divmod_monic([0] * n + [1], list(coeffs))
    one_minus = [-c for c in rem] or [0]
    one_minus[0] += 1
    if not _trim(one_minus):
        return 0
    return resultant(coeffs, one_minus)


def _trim(coeffs) -> list:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def det_fix(matrix, n: int) -> int:
    """det(I - M^n): the Lefschetz number of the n-th iterate."""
    mn = mat_pow(matrix, n)
    return bareiss_det([[int(i == j) - mn[i][j] for j in range(len(mn))]
                        for i in range(len(mn))])
