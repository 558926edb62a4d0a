"""Endomorphism presentations and exact fixed-point counting of iterates.

The genus is fixed at 2: an endomorphism acts on the rank-4 lattice by a
4x4 integer matrix (the rational representation) and on C^2 by a 2x2
complex matrix (the analytic representation).  The Holomorphic Lefschetz
formula gives fix(f^n) = |det(I_2 - rho_a(f)^n)|^2 = det(I_4 - rho_r(f)^n).

Every count is prod (1 - mu_i^n) over the roots mu_i of the char poly,
expanded as 1 - e_1 + e_2 - e_3 + e_4 in the elementary symmetric functions
of the mu_i^n.  Newton's identities give e_1, e_2, e_3 from the power sums
s_n, s_2n, s_3n, and e_4 = P(0)^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Union

from .errors import InvalidStructureError, NonIntegralError
from .polynomials import IntPolynomial, _square_free_kernel, power_mod
from .unitcircle import CharPolyQuartic, validate_conjugate_pair_structure

# n is capped to bound coefficient growth (entries grow linearly in n times
# the log of the growth base, still exact but large).
MAX_ITERATE = 10 ** 6


def exact_int(x) -> int:
    """x as an int, without the silent truncation of int(x): a bool or a
    number that is not an integer raises ValueError; a string is parsed."""
    try:
        n = int(x)
    except OverflowError as exc:
        raise ValueError(f"integer required, got {x!r}") from exc
    if isinstance(x, bool) or (not isinstance(x, str) and n != x):
        raise ValueError(f"integer required, got {x!r}")
    return n


@dataclass(frozen=True)
class RationalRep:
    """4x4 integer matrix acting on the lattice."""

    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, matrix):
        rows = tuple(tuple(exact_int(x) for x in row) for row in matrix)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("4x4 integer matrix required")
        object.__setattr__(self, "matrix", rows)


@dataclass(frozen=True)
class QuadraticFieldElement:
    """u + v*sqrt(m) with rational u, v; m = 1 means plain Q."""

    u: Fraction
    v: Fraction

    @classmethod
    def of(cls, u, v=0) -> "QuadraticFieldElement":
        return cls(Fraction(u), Fraction(v))


@dataclass(frozen=True)
class AnalyticRep:
    """2x2 matrix over Q(sqrt(m)) acting on the universal cover.

    For m < 0 conjugation is complex conjugation; for m > 0 it is the
    Galois swap sqrt(m) -> -sqrt(m) (the real-multiplication analytic
    representation splits into the two embeddings).
    """

    field_param: int
    matrix: tuple[tuple[QuadraticFieldElement, ...], ...]

    def __init__(self, field_param: int, matrix):
        m = exact_int(field_param)
        if m != 1 and (m == 0 or _square_free_kernel(m) != abs(m)):
            raise ValueError(f"field parameter {m} must be square-free or 1")
        rows = []
        for row in matrix:
            cells = []
            for cell in row:
                if isinstance(cell, QuadraticFieldElement):
                    cells.append(cell)
                elif isinstance(cell, (tuple, list)):
                    cells.append(QuadraticFieldElement.of(*cell))
                else:
                    cells.append(QuadraticFieldElement.of(cell))
            rows.append(tuple(cells))
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("2x2 matrix required")
        object.__setattr__(self, "field_param", m)
        object.__setattr__(self, "matrix", tuple(rows))


# EndomorphismInput also admits the algebra elements of simple abelian
# surfaces; their modules register through char_poly_rational's dispatch.
EndomorphismInput = Union[RationalRep, AnalyticRep, CharPolyQuartic, "object"]


# -- exact linear algebra -----------------------------------------------------


def charpoly_int_matrix(m) -> IntPolynomial:
    """Monic characteristic polynomial of a square integer matrix
    (Faddeev-LeVerrier), ascending coefficients.  The coefficients are
    integers, so each division of a trace by k is exact."""
    n, mk, coeffs = len(m), m, [1]
    for k in range(1, n + 1):
        if k > 1:
            mk = [[sum(m[i][l] * (mk[l][j] + (coeffs[0] if l == j else 0)) for l in range(n))
                   for j in range(n)] for i in range(n)]
        coeffs.insert(0, -sum(mk[i][i] for i in range(n)) // k)
    return IntPolynomial(coeffs)


# -- characteristic polynomial of the rational representation ----------------


def char_poly_rational(e: EndomorphismInput) -> CharPolyQuartic:
    """The monic integer quartic char poly of the rational representation.

    Raises NonIntegralError if the analytic expansion is not integral and
    InvalidStructureError if the quartic fails the conjugate-pair rule.
    """
    quartic = CharPolyQuartic(_char_poly_unvalidated(e))
    validate_conjugate_pair_structure(quartic)
    return quartic


def _char_poly_unvalidated(e: EndomorphismInput) -> IntPolynomial:
    if isinstance(e, CharPolyQuartic):
        return e.poly
    if isinstance(e, RationalRep):
        return charpoly_int_matrix(e.matrix)
    if isinstance(e, AnalyticRep):
        return _analytic_char_poly(e)
    from . import algebras

    if isinstance(e, algebras.RealQuadElement):
        return algebras.rm_char_poly(e).poly
    if isinstance(e, algebras.QuaternionElement):
        chi = algebras.quat_reduced_charpoly(e)
        return chi * chi
    if isinstance(e, algebras.CMElement):
        return algebras.cm_char_poly(e).poly
    raise TypeError(f"not an endomorphism input: {e!r}")


def _analytic_char_poly(e: AnalyticRep) -> IntPolynomial:
    m = e.field_param
    (a, b), (c, d) = e.matrix

    def add(x, y):
        return QuadraticFieldElement(x.u + y.u, x.v + y.v)

    def mul(x, y):
        return QuadraticFieldElement(x.u * y.u + m * x.v * y.v, x.u * y.v + x.v * y.u)

    def neg(x):
        return QuadraticFieldElement(-x.u, -x.v)

    s = add(a, d)                      # trace of rho_a
    p = add(mul(a, d), neg(mul(b, c)))  # det of rho_a
    # P^r = (t^2 - s t + p)(t^2 - s~ t + p~); conjugation negates the v parts
    tr_s = 2 * s.u
    norm_s = s.u * s.u - m * s.v * s.v
    tr_p = 2 * p.u
    norm_p = p.u * p.u - m * p.v * p.v
    # s p~ + s~ p = trace of s * conj(p)
    cross = 2 * (s.u * p.u - m * s.v * p.v)
    coeffs = [norm_p, -cross, tr_p + norm_s, -tr_s, Fraction(1)]
    if any(Fraction(c).denominator != 1 for c in coeffs):
        raise NonIntegralError(
            "analytic representation does not preserve a lattice: "
            f"char poly coefficients {coeffs} are not integers"
        )
    return IntPolynomial([int(c) for c in coeffs])


# -- fixed-point counting -----------------------------------------------------


def fix_count(e: EndomorphismInput, n: int) -> int:
    """Exact number of fixed points of the n-th iterate; 0 encodes an
    infinite fixed-point set.  Every fixed-point count of a single iterate
    goes through here, so this is where n is checked."""
    if not 1 <= n <= MAX_ITERATE:
        raise ValueError(f"iterate index must lie in 1..{MAX_ITERATE}, got {n}")
    p = char_poly_rational(e).poly
    value = fix_count_quartic(p, n)
    if value < 0:
        # conjugate pairs and even-multiplicity real roots make
        # prod (1 - mu_i^n) a square modulus
        raise InvalidStructureError(f"negative Lefschetz count {value} for {p}")
    return value


def fix_count_quartic(p: IntPolynomial, n: int) -> int:
    """prod (1 - mu_i^n) over the roots of the monic quartic p.

    With r = t^n mod p, mu^kn = r(mu)^k at every root, so s_kn is the trace
    sum_m (r^k)_m s_m of r^k, which needs no reduction mod p.  The trace of
    r^3 is sum_l r_l * sum_m (r^2)_m s_(m+l), so r^3 is never formed.
    """
    c = _quartic_coeffs(p)
    r = power_mod(n, p)
    r2 = r.square().coeffs
    s = _power_sums(c, 10)

    def trace(f, shift=0):
        return sum(x * s[m + shift] for m, x in enumerate(f))

    a, b = trace(r.coeffs), trace(r2)
    d = sum(x * trace(r2, l) for l, x in enumerate(r.coeffs))
    return _fix_from_power_sums(a, b, d, c[0] ** n)


def fix_values(p: IntPolynomial) -> Iterator[int]:
    """prod (1 - mu_i^n) over the roots of the monic quartic p, for
    n = 1, 2, ...

    The power sums of mu, mu^2 and mu^3 each follow the order-4 integer
    recurrence of the quartic with those roots, whose coefficients come from
    s_1..s_12 by Newton's identities; each keeps a 4-term window.
    """
    c = _quartic_coeffs(p)
    s = _power_sums(c, 13)
    recurrences = []
    for k in (1, 2, 3):
        window = [s[0], s[k], s[2 * k], s[3 * k]]
        recurrences.append((_quartic_from_power_sums(window[1:] + [s[4 * k]]), window))
    c0, c0n = c[0], 1
    while True:
        sums = []
        for q, w in recurrences:
            w.append(-(q[0] * w[0] + q[1] * w[1] + q[2] * w[2] + q[3] * w[3]))
            del w[0]
            sums.append(w[0])
        c0n *= c0
        yield _fix_from_power_sums(*sums, c0n)


def fix_sequence(e: EndomorphismInput, n_max: int) -> list[int]:
    return list(_fix_iterates(e, n_max))


def _fix_iterates(e: EndomorphismInput, n_max: int) -> Iterator[int]:
    """fix(f^n) for n = 1..n_max, generated one by one after the checks."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > MAX_ITERATE:
        raise ValueError(f"n_max exceeds the iterate cap {MAX_ITERATE}")
    p = char_poly_rational(e).poly
    return islice(fix_values(p), n_max)


def _quartic_coeffs(p: IntPolynomial) -> tuple[int, ...]:
    """(c_0, c_1, c_2, c_3) of the monic quartic p."""
    if p.degree != 4 or not p.is_monic():
        raise ValueError(f"monic quartic required, got {p}")
    return p.coeffs[:4]


def _power_sums(c, count: int) -> list[int]:
    """s_0..s_{count-1} of the roots of t^4 + c_3 t^3 + c_2 t^2 + c_1 t + c_0,
    by Newton's identities s_k + sum_i c_{4-i} s_{k-i} + k c_{4-k} = 0, where
    the last term belongs to k <= 4 only and at k = 4 equals c_0 s_0."""
    s = [4]
    for k in range(1, count):
        s.append(-sum(c[4 - i] * (s[k - i] if i < k else k) for i in range(1, min(k, 4) + 1)))
    return s


def _quartic_from_power_sums(p: list[int]) -> tuple[int, ...]:
    """(c_0, c_1, c_2, c_3) of the monic quartic whose roots have power sums
    p_1..p_4; Newton's identities solved upwards, every division exact."""
    c = [0, 0, 0, 0]
    for k in range(1, 5):
        c[4 - k] = -(p[k - 1] + sum(c[4 - i] * p[k - 1 - i] for i in range(1, k))) // k
    return tuple(c)


def _fix_from_power_sums(a: int, b: int, d: int, e4: int) -> int:
    """prod (1 - x_i) over four numbers with power sums a, b, d and product e4:
    1 - e_1 + e_2 - e_3 + e_4, where e_2 = (a^2 - b)/2 and
    e_3 = (a^3 - 3ab + 2d)/6 exactly."""
    aa = a * a
    return 1 - a + (aa - b) // 2 - (a * (aa - 3 * b) + 2 * d) // 6 + e4
