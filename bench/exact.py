"""Exact integer algebra the benchmark needs without calling torusfix:
4x4 matrices, det(I - X^n), and characteristic polynomials of the inputs
it builds.  Polynomials are lists of ascending integer coefficients."""

from __future__ import annotations

CYCLOTOMIC = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    10: [1, -1, 1, -1, 1],
    12: [1, 0, -1, 0, 1],
}


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def coeff_bits(p) -> int:
    return max(abs(c).bit_length() for c in p)


def analytic_char_poly(m: int, entries):
    """P = Q * conj(Q) with Q = t^2 - s t + p the char poly of the analytic
    2x2 matrix whose entries u + v sqrt(m) are given as (u, v) integer pairs;
    conjugation sends sqrt(m) to -sqrt(m)."""
    (a, b), (c, d) = entries

    def mul(x, y):
        return (x[0] * y[0] + m * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    s = (a[0] + d[0], a[1] + d[1])
    ad, bc = mul(a, d), mul(b, c)
    p = (ad[0] - bc[0], ad[1] - bc[1])
    norm_s = s[0] * s[0] - m * s[1] * s[1]
    norm_p = p[0] * p[0] - m * p[1] * p[1]
    cross = 2 * (s[0] * p[0] - m * s[1] * p[1])
    return [norm_p, -cross, 2 * p[0] + norm_s, -2 * s[0], 1]


def resolvent_constant(p) -> int:
    """Constant term of the resolvent cubic (roots r1r2+r3r4, ...) of the
    monic quartic p: -(c1^2 + c0 c3^2 - 4 c0 c2)."""
    c0, c1, c2, c3, _ = p
    return -(c1 * c1 + c0 * c3 * c3 - 4 * c0 * c2)


# -- 4x4 integer matrices ---------------------------------------------------------


def identity():
    return [[int(i == j) for j in range(4)] for i in range(4)]


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def mat_pow(m, n: int):
    out, base = identity(), m
    while n:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        n >>= 1
    return out


def det(mat) -> int:
    """Fraction-free Gaussian elimination (Bareiss) on a copy."""
    m = [list(row) for row in mat]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def companion(p):
    """Companion matrix of the monic quartic p."""
    return [[0, 0, 0, -p[0]], [1, 0, 0, -p[1]], [0, 1, 0, -p[2]], [0, 0, 1, -p[3]]]


def fix_by_det(x, n: int) -> int:
    """fix(f^n) = det(I - X^n) for the lattice matrix X."""
    xn = mat_pow(x, n)
    return det([[int(i == j) - xn[i][j] for j in range(4)] for i in range(4)])


def conjugated(x, rng):
    """U X U^-1 for a random unimodular U built from elementary matrices,
    so the matrix looks generic but keeps X's characteristic polynomial."""
    u, u_inv = identity(), identity()
    for _ in range(3):
        i, j = rng.sample(range(4), 2)
        k = rng.choice((-2, -1, 1, 2))
        e, e_inv = identity(), identity()
        e[i][j], e_inv[i][j] = k, -k
        u, u_inv = mat_mul(u, e), mat_mul(e_inv, u_inv)
    return mat_mul(mat_mul(u, x), u_inv)

