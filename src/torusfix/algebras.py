"""Endomorphism algebras of simple abelian surfaces.

Three non-trivial types occur: real multiplication by Q(sqrt(d)),
indefinite quaternion multiplication, and complex multiplication by a
quartic CM field.  Integer multiplication is folded into the real
quadratic elements with b = 0.  The reduced-norm fixed-point formula
fix(f) = N(1-f)^(4/de) specializes to exponent 2 (quaternion) and 1 (CM).

Division-algebra verification is not performed up front; non-division
symbols are detected lazily through the per-element contradictions
(zero norm, or a root +-1 on an element that is not +-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import behavior as _behavior
from .errors import (
    InvalidEndomorphismError,
    NonIntegralError,
    NotDivisionAlgebraError,
    ZeroEndomorphismError,
    ZeroNormError,
)
from .endomorphisms import AnalyticRep, RationalRep, charpoly_int_matrix, exact_int, fix_count
from .intervals import is_square_rational
from .polynomials import (
    IntPolynomial,
    _square_free_kernel,
    cyclotomic,
    rational_roots,
    count_real_roots,
)
from .unitcircle import CharPolyQuartic, _resolvent_cubic


# -- Type 0/1: integer and real multiplication --------------------------------


@dataclass(frozen=True)
class RealQuadElement:
    """a + b*omega in Z[omega] inside Q(sqrt(d)), d > 1 square-free;
    omega = sqrt(d) for d = 2,3 (mod 4) and (1+sqrt(d))/2 for d = 1 (mod 4).

    b = 0 covers integer multiplication (endomorphism ring Z).  Each field
    is converted with ``exact_int``: a bool or a number that is not an
    integer raises ValueError, and a string is parsed."""

    d: int
    a: int
    b: int

    def __post_init__(self):
        for name in ("d", "a", "b"):
            object.__setattr__(self, name, exact_int(getattr(self, name)))
        if self.d <= 1 or _square_free_kernel(self.d) != self.d:
            raise ValueError("d must be a square-free integer > 1")

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


def _omega_trace_norm(d: int) -> tuple[int, int]:
    if d % 4 == 1:
        return 1, (1 - d) // 4
    return 0, -d


def rm_char_poly(x: RealQuadElement) -> CharPolyQuartic:
    """P^r = (t^2 - Tr(x) t + N(x))^2: the analytic quadratic is already
    rational (its two roots are the two real embeddings)."""
    tr_w, n_w = _omega_trace_norm(x.d)
    tr = 2 * x.a + x.b * tr_w
    nrm = x.a * x.a + x.a * x.b * tr_w + x.b * x.b * n_w
    quad = IntPolynomial((nrm, -tr, 1))
    return CharPolyQuartic(quad * quad)


def rm_fix(x: RealQuadElement, n: int) -> int:
    return fix_count(x, n)


def rm_classify(x: RealQuadElement) -> "_behavior.BehaviorReport":
    """Periodic only for x = +-1; exponential otherwise (never B3)."""
    if x.is_zero():
        raise ZeroEndomorphismError("zero element of the real quadratic order")
    report = _behavior.classify(rm_char_poly(x))
    expected_b2 = x.b == 0 and abs(x.a) == 1
    if report.verdict == _behavior.B3 or (report.verdict == _behavior.B2) != expected_b2:
        raise InvalidEndomorphismError(
            f"verdict {report.verdict} for {x} contradicts the real multiplication structure"
        )
    return report


# -- Type 2: indefinite quaternion multiplication ------------------------------


@dataclass(frozen=True)
class QuaternionAlgebraDesc:
    """Quaternion symbol (alpha, beta) with i^2 = alpha, j^2 = beta,
    ij = -ji, normalized so alpha > 0 and alpha >= beta.  The symbol as
    originally supplied is kept for reporting."""

    alpha: Fraction
    beta: Fraction
    original: Optional[tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        if self.alpha == 0 or self.beta == 0:
            raise ValueError("alpha and beta must be non-zero")
        if not (self.alpha > 0 and self.alpha >= self.beta):
            raise ValueError("normalized symbol requires alpha > 0, alpha >= beta")

    @classmethod
    def normalized(cls, alpha, beta) -> tuple["QuaternionAlgebraDesc", bool]:
        """Returns the normalized descriptor and whether i and j were swapped."""
        alpha, beta = Fraction(alpha), Fraction(beta)
        if alpha > 0 and alpha >= beta:
            return cls(alpha, beta, original=(alpha, beta)), False
        if beta > 0 and beta >= alpha:
            return cls(beta, alpha, original=(alpha, beta)), True
        raise ValueError(
            f"symbol ({alpha},{beta}) is definite: no positive entry dominates"
        )


@dataclass(frozen=True)
class QuaternionElement:
    """a + b i + c j + d ij with rational coordinates."""

    algebra: QuaternionAlgebraDesc
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, algebra, a, b, c, d):
        object.__setattr__(self, "algebra", algebra)
        for name, val in zip("abcd", (a, b, c, d)):
            object.__setattr__(self, name, Fraction(val))

    def is_zero(self) -> bool:
        return self.a == self.b == self.c == self.d == 0

    def is_scalar(self) -> bool:
        return self.b == self.c == self.d == 0


def quaternion_element(alpha, beta, a, b, c, d) -> QuaternionElement:
    """Build an element, normalizing the symbol; if i and j are swapped the
    coordinates are relabeled (b <-> c; the ij coordinate only enters
    through d^2, so its sign is immaterial)."""
    desc, swapped = QuaternionAlgebraDesc.normalized(alpha, beta)
    if swapped:
        b, c = c, b
    return QuaternionElement(desc, a, b, c, d)


def quat_reduced_norm(x: QuaternionElement) -> Fraction:
    al, be = x.algebra.alpha, x.algebra.beta
    return x.a ** 2 - x.b ** 2 * al - x.c ** 2 * be + x.d ** 2 * al * be


def quat_reduced_trace(x: QuaternionElement) -> Fraction:
    return 2 * x.a


def quat_reduced_charpoly(x: QuaternionElement) -> IntPolynomial:
    """t^2 - tr(x) t + N(x); integer coefficients iff x is integral."""
    tr = quat_reduced_trace(x)
    nrm = quat_reduced_norm(x)
    if tr.denominator != 1 or nrm.denominator != 1:
        raise NonIntegralError(
            f"element has trace {tr}, norm {nrm}: not in an order"
        )
    return IntPolynomial((int(nrm), -int(tr), 1))


def quat_char_poly(x: QuaternionElement) -> CharPolyQuartic:
    chi = quat_reduced_charpoly(x)
    return CharPolyQuartic(chi * chi)


def quat_fix(x: QuaternionElement, n: int) -> int:
    """fix(x^n) = ((1 - t1^n)(1 - t2^n))^2 = Res(chi, 1 - t^n)^2."""
    return fix_count(x, n)


def quat_one_root_periodicity_criterion(x: QuaternionElement) -> bool:
    """|a + sqrt(b^2 alpha + c^2 beta - d^2 alpha beta)| = 1, exactly.

    This is the single-root phrasing of the periodicity criterion; the
    classifier itself uses the symmetric both-roots condition (the mixed
    case cannot occur in a division algebra)."""
    disc = x.a ** 2 - quat_reduced_norm(x)
    root = is_square_rational(disc)
    if root is not None:
        return abs(x.a + root) == 1
    if disc > 0:
        return False  # an irrational real root never has absolute value 1
    # complex: |a + i sqrt(-disc)|^2 = a^2 - disc = N(x)
    return quat_reduced_norm(x) == 1


def quat_classify(x: QuaternionElement) -> "_behavior.BehaviorReport":
    """Theorem-B decision for quaternion elements: B2 iff both roots of the
    reduced char poly lie on the unit circle, B1 otherwise; the mixed case
    certifies that the symbol is not a division algebra."""
    if x.is_zero():
        raise ZeroEndomorphismError("zero quaternion element")
    nrm = quat_reduced_norm(x)
    if nrm == 0:
        raise ZeroNormError(
            f"non-zero element {x} has reduced norm 0: "
            f"({x.algebra.alpha},{x.algebra.beta}) is not a division algebra"
        )
    chi = quat_reduced_charpoly(x)
    pm_one_root = chi(1) == 0 or chi(-1) == 0
    if pm_one_root and not (x.is_scalar() and abs(x.a) == 1):
        raise NotDivisionAlgebraError(
            f"element {x} has eigenvalue +-1 without being +-1: "
            "the norm of x -+ 1 vanishes, so the symbol is not a division algebra"
        )
    report = _behavior.classify(quat_char_poly(x))
    if report.verdict == _behavior.B3:
        raise InvalidEndomorphismError(
            "mixed behaviour from a quaternion element contradicts the algebra structure"
        )
    return report


# -- Type 3: complex multiplication --------------------------------------------


@dataclass(frozen=True)
class CMFieldDesc:
    """Quartic CM field Q[t]/(g): g monic irreducible, totally imaginary,
    with a real quadratic subfield Q(sqrt(d)).

    ``d`` is derived during validation, from the integer roots of the
    resolvent cubic of g, which also decide irreducibility."""

    defining_poly: IntPolynomial
    d: Optional[int] = None

    def __post_init__(self):
        g = self.defining_poly
        if g.degree != 4 or not g.is_monic():
            raise ValueError("monic integer quartic required")
        # the monic resolvent's rational roots are integers
        us = [int(u) for u in rational_roots(_resolvent_cubic(g))]
        if not _is_irreducible_quartic(g, us):
            raise ValueError(f"{g} is reducible over Q")
        if count_real_roots(g) != 0:  # irreducible, so square-free
            raise ValueError(f"{g} is not totally imaginary")
        d = _real_quadratic_subfield_radicand(g, us)
        if d is None:
            raise ValueError(f"Q[t]/({g}) has no real quadratic subfield: not CM")
        if self.d is None:
            object.__setattr__(self, "d", d)
        elif self.d != d:
            raise ValueError(f"declared subfield radicand {self.d}, computed {d}")


def _is_irreducible_quartic(g: IntPolynomial, us: list[int]) -> bool:
    """Without rational roots, g is reducible iff (Gauss's lemma) it is
    (t^2 + pt + q)(t^2 + rt + s) over Z, and then q + s is one of the
    integer roots `us` of the monic resolvent cubic, with q s = c0,
    p + r = c3, p r = c2 - u."""
    if rational_roots(g):
        return False
    c0, c1, c2, c3, _ = g.coeffs
    for u in us:
        qs, pr = _integer_pair(u, c0), _integer_pair(c3, c2 - u)
        if qs is None or pr is None:
            continue
        (q, s), (p, r) = qs, pr
        if c1 in (p * s + q * r, r * s + q * p):
            return False
    return True


def _integer_pair(total: int, prod: int) -> Optional[tuple[int, int]]:
    """The integers x >= y with x + y = total and x y = prod, or None."""
    disc = total * total - 4 * prod
    root = math.isqrt(max(disc, 0))
    if root * root != disc:
        return None
    # disc = total^2 (mod 4), so root and total have the same parity
    return (total + root) // 2, (total - root) // 2


def _real_quadratic_subfield_radicand(g: IntPolynomial, us: list[int]) -> Optional[int]:
    """For a totally imaginary irreducible quartic with integer resolvent
    roots `us`: the square-free d > 1 with Q(sqrt(d)) the real quadratic
    subfield, or None when the field is not CM.

    Each u = r1 r2 + r3 r4 gives (r1 + r2 - r3 - r4)^2 = c3^2 - 4 c2 + 4u and
    (r1 r2 - r3 r4)^2 = u^2 - 4 c0: squares of reals for the pairing of each
    root with its conjugate, of imaginaries (so <= 0) for the others.  The
    field is CM iff the conjugate pairing's u is rational; then the first,
    or the second when the first is 0, is positive and not a square."""
    c0, _, c2, c3, _ = g.coeffs
    for u in us:
        disc = c3 * c3 - 4 * c2 + 4 * u or u * u - 4 * c0
        if disc > 0:
            return _square_free_kernel(disc)
    return None


@dataclass(frozen=True)
class CMElement:
    """Element of a CM field in the power basis of the defining root."""

    field: CMFieldDesc
    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    def __init__(self, field: CMFieldDesc, coords):
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) != 4:
            raise ValueError("four power-basis coordinates required")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", cs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def _multiplication_matrix(x: CMElement):
    """Matrix of multiplication by x on the power basis 1, th, th^2, th^3."""
    g = x.field.defining_poly
    cols = []
    for j in range(4):
        # x * th^j reduced mod g
        col = [Fraction(0)] * 8
        for i, c in enumerate(x.coords):
            col[i + j] += c
        for k in range(7, 3, -1):
            c = col[k]
            if c:
                col[k] = Fraction(0)
                for i, m in enumerate(g.coeffs[:-1]):
                    col[k - 4 + i] -= c * m
        cols.append(col[:4])
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def cm_char_poly(x: CMElement) -> CharPolyQuartic:
    """The norm form N(t - x): the characteristic polynomial of the
    multiplication-by-x matrix; integral exactly for elements of an order.
    With D the common denominator of the matrix, the coefficient of t^i is
    that of the integer matrix D x over D^(4-i)."""
    mat = _multiplication_matrix(x)
    den = math.lcm(*(c.denominator for row in mat for c in row))
    coeffs = charpoly_int_matrix([[int(c * den) for c in row] for row in mat]).coeffs
    if any(c % den ** (4 - i) for i, c in enumerate(coeffs)):
        raise NonIntegralError(
            f"norm form of {x.coords} has non-integer coefficients"
        )
    return CharPolyQuartic(IntPolynomial([c // den ** (4 - i) for i, c in enumerate(coeffs)]))


def cm_fix(x: CMElement, n: int) -> int:
    return fix_count(x, n)


def cm_classify(x: CMElement) -> "_behavior.BehaviorReport":
    """B2 iff |sigma(x)| = 1 (structurally: the norm form is a product of
    cyclotomics); B1 otherwise; never B3."""
    if x.is_zero():
        raise ZeroEndomorphismError("zero CM element")
    report = _behavior.classify(cm_char_poly(x))
    if report.verdict == _behavior.B3:
        raise InvalidEndomorphismError(
            "mixed behaviour from a CM element contradicts the field structure"
        )
    return report


# -- periodic eigenvalue tables -------------------------------------------------


def periodic_eigenvalue_table(kind: str) -> list[IntPolynomial]:
    """Minimal polynomials of all eigenvalues that periodic endomorphisms
    can have: roots of unity of algebraic degree <= 2 (quaternion) or <= 4
    (CM)."""
    quaternion = [cyclotomic(k) for k in (1, 2, 3, 4, 6)]
    if kind == "quaternion":
        return quaternion
    if kind == "cm":
        return quaternion + [cyclotomic(k) for k in (5, 8, 10, 12)]
    raise ValueError(f"kind must be 'quaternion' or 'cm', got {kind!r}")


# -- families and builtin examples ----------------------------------------------


def mcmullen_family(a: int) -> CharPolyQuartic:
    """t^4 + a t^2 + t + 1, realizable as a rational char poly for a >= 0."""
    if a < 0:
        raise ValueError("parameter must be a nonnegative integer")
    return CharPolyQuartic(IntPolynomial((1, 1, a, 0, 1)))


def find_small_eigenvalue_parameter(eps: Fraction) -> int:
    """Least a >= 0 such that t^4 + a t^2 + t + 1 has a root of modulus < eps.

    Closed form: max(0, floor((y0^3 - 4 y0 - 1) / (y0^2 - 4)) + 1) with
    y0 = e + 1/e, e = eps^2 (0 for eps = 1).  With c0 = 1, |mu|^2 < e iff the
    resolvent's largest root exceeds y0, iff R_a(y0) = y0^3 - a y0^2 - 4 y0 +
    4a - 1 < 0, since R_a(2) = -1 and its other roots 2 Re(mu nu) are <= 2."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if eps == 1:
        return 0
    e = eps * eps
    y0 = e + 1 / e
    return max(0, math.floor((y0 ** 3 - 4 * y0 - 1) / (y0 * y0 - 4)) + 1)


def sl2_family(a: int, b: int, c: int, d: int) -> AnalyticRep:
    """The automorphism of E x E given by an SL_2(Z) matrix; its analytic
    char poly is t^2 - (a+d) t + 1."""
    if a * d - b * c != 1:
        raise ValueError("matrix must be unimodular (determinant 1)")
    return AnalyticRep(1, [[a, b], [c, d]])


def builtin_examples() -> dict:
    """Named inputs used throughout the literature's worked examples."""
    return {
        "rotation_e_times_e": AnalyticRep(1, [[1, -1], [1, 0]]),
        "gaussian_i_2i": AnalyticRep(-1, [[(0, 1), 0], [0, (0, 2)]]),
        "rm_sqrt2": RealQuadElement(d=2, a=-1, b=1),
        "mcmullen_0": mcmullen_family(0),
        "neg_identity": RationalRep([[-1 if i == j else 0 for j in range(4)] for i in range(4)]),
        "mult_2": RationalRep([[2 if i == j else 0 for j in range(4)] for i in range(4)]),
    }
