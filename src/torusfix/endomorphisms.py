"""Endomorphism presentations and exact fixed-point counting of iterates.

The genus is fixed at 2: an endomorphism acts on the rank-4 lattice by a
4x4 integer matrix (the rational representation) and on C^2 by a 2x2
complex matrix (the analytic representation).  The Holomorphic Lefschetz
formula gives fix(f^n) = |det(I_2 - rho_a(f)^n)|^2 = det(I_4 - rho_r(f)^n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidStructureError, NonIntegralError
from .polynomials import IntPolynomial, ONE, _square_free_kernel, power_mod, resultant
from .unitcircle import CharPolyQuartic, validate_conjugate_pair_structure

# n is capped to bound coefficient growth (entries grow linearly in n times
# the log of the growth base, still exact but large).
MAX_ITERATE = 10 ** 6


@dataclass(frozen=True)
class RationalRep:
    """4x4 integer matrix acting on the lattice."""

    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, matrix):
        rows = tuple(tuple(int(x) for x in row) for row in matrix)
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
        m = int(field_param)
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


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def charpoly_frac(m) -> list[Fraction]:
    """Monic characteristic polynomial of a square matrix over Q
    (Faddeev-LeVerrier), ascending coefficients."""
    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    a = tuple(tuple(Fraction(x) for x in row) for row in m)
    mk = a
    c = Fraction(1)
    for k in range(1, n + 1):
        if k > 1:
            mk = mat_mul(a, tuple(
                tuple(mk[i][j] + (c if i == j else 0) for j in range(n))
                for i in range(n)
            ))
        c = -sum(mk[i][i] for i in range(n)) / k
        coeffs[n - k] = c
    return coeffs


def charpoly_int_matrix(m) -> IntPolynomial:
    coeffs = charpoly_frac(m)
    if any(c.denominator != 1 for c in coeffs):
        raise NonIntegralError(f"char poly coefficients {coeffs} are not integers")
    return IntPolynomial([int(c) for c in coeffs])


# -- characteristic polynomial of the rational representation ----------------


def char_poly_rational(e: EndomorphismInput) -> CharPolyQuartic:
    """The monic integer quartic char poly of the rational representation.

    Raises NonIntegralError if the analytic expansion is not integral and
    InvalidStructureError if the quartic fails conjugate-pair validation.
    """
    p = _char_poly_unvalidated(e)
    quartic = CharPolyQuartic(p)
    if not validate_conjugate_pair_structure(quartic):
        raise InvalidStructureError(
            f"{p} cannot be the rational char poly of a torus endomorphism"
        )
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
    """Res(p, 1 - t^n) for monic p = prod (1 - mu_i^n), via t^n mod p."""
    tn = power_mod(IntPolynomial((0, 1)), n, p)
    q = ONE - tn
    if q.is_zero():
        return 0
    return resultant(p, q)


def fix_sequence(e: EndomorphismInput, n_max: int, force: bool = False) -> list[int]:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > MAX_ITERATE and not force:
        raise ValueError(f"n_max exceeds the iterate cap {MAX_ITERATE}")
    p = char_poly_rational(e).poly
    return [fix_count_quartic(p, n) for n in range(1, n_max + 1)]
