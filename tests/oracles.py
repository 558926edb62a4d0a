"""Independent exact oracles for the test suite.

Nothing here imports torusfix: polynomials are ascending integer
coefficient sequences and matrices are lists of integer rows, so a test
that compares the library against these checks two separate computations.
"""

from __future__ import annotations

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


def det_fix(matrix, n: int) -> int:
    """det(I - M^n): the Lefschetz number of the n-th iterate."""
    mn = mat_pow(matrix, n)
    return bareiss_det([[int(i == j) - mn[i][j] for j in range(len(mn))]
                        for i in range(len(mn))])
