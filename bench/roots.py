"""Closed-form eigenvalues of the inputs the benchmark builds.

Each function takes a number namespace ``ns`` with ``sqrt`` and ``turn``
(turn(j, k) = exp(2 pi i j / k)): ``FLOAT`` (cmath) sizes inputs while
they are generated, and ``oracles.MP`` (mpmath) feeds the oracles."""

from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

from exact import CYCLOTOMIC

FLOAT = SimpleNamespace(sqrt=cmath.sqrt, turn=lambda j, k: cmath.exp(2j * cmath.pi * j / k))


def quad(b, c, ns):
    """Both roots of t^2 + b t + c."""
    disc = ns.sqrt(b * b - 4 * c)
    return [(-b + disc) / 2, (-b - disc) / 2]


def analytic(m: int, entries, ns):
    """The analytic 2x2 matrix's eigenvalues (entries u + v sqrt(m)) and
    their conjugates: the four eigenvalues of the rational representation."""
    r = ns.sqrt(m)
    (a, b), (c, d) = [[u + v * r for u, v in row] for row in entries]
    lam = quad(-(a + d), a * d - b * c, ns)
    return lam + [x.conjugate() for x in lam]


def real_quad(d: int, a: int, b: int, ns):
    """a + b omega and its Galois conjugate, each twice."""
    root = ns.sqrt(d)
    if d % 4 == 1:
        x1, x2 = a + b * (1 + root) / 2, a + b * (1 - root) / 2
    else:
        x1, x2 = a + b * root, a - b * root
    return [x1, x2, x1, x2]


def quaternion(alpha: int, beta: int, coeffs, ns):
    """Roots of the reduced char poly t^2 - 2a t + N(x), each twice."""
    a, b, c, d = coeffs
    norm = a * a - b * b * alpha - c * c * beta + d * d * alpha * beta
    return quad(-2 * a, norm, ns) * 2


def unity(k: int, ns):
    """The primitive k-th roots of unity."""
    return [ns.turn(j, k) for j in range(1, k + 1) if math.gcd(j, k) == 1]


def cm_field(g, ns):
    """Roots of a CM field's defining quartic: a cyclotomic one, or
    t^4 + p t^2 + r (ascending [r, 0, p, 0, 1])."""
    for k, phi in CYCLOTOMIC.items():
        if list(g) == phi:
            return unity(k, ns)
    r, _, p, _, _ = g
    return [s * ns.sqrt(y) for y in quad(p, r, ns) for s in (1, -1)]


def cm(g, coords, ns):
    """The four complex embeddings of sum coords[i] theta^i."""
    return [sum(c * th ** i for i, c in enumerate(coords)) for th in cm_field(g, ns)]


def growth_base(rts) -> float:
    """prod max(1, |mu|) in floating point, for sizing inputs."""
    return math.prod(max(1.0, abs(mu)) for mu in rts)
