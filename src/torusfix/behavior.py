"""The three possible behaviours of n -> fix(f^n) on a two-dimensional
complex torus, with machine-checkable certificates.

B1: exponential growth; the certificate is an exact rational interval
    enclosing the growth base (the Mahler measure of the quartic).
B2: periodic; the certificate is the minimal period and one full cycle.
B3: zero exactly on one residue class n = 0 (mod r), exponential
    elsewhere; the certificate is r plus the growth base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional

from .errors import InvalidEndomorphismError, ZeroEndomorphismError
from .endomorphisms import EndomorphismInput, _char_poly_unvalidated, char_poly_rational, fix_values
from .intervals import RationalInterval
from .polynomials import IntPolynomial
from .unitcircle import (
    DEFAULT_ENCLOSURE_WIDTH,
    CharPolyQuartic,
    EigenvalueClassification,
    _analyze,
)

DEFAULT_GROWTH_WIDTH = Fraction(1, 2 ** 20)

B1 = "B1"
B2 = "B2"
B3 = "B3"


@dataclass(frozen=True)
class BehaviorReport:
    verdict: str
    eigen: EigenvalueClassification
    growth_base: Optional[RationalInterval] = None  # B1, B3
    period: Optional[int] = None                    # B2
    cycle: Optional[tuple[int, ...]] = None         # B2
    r: Optional[int] = None                         # B3

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "eigen": {
                "n_zero": self.eigen.n_zero,
                "n_less": self.eigen.n_less,
                "n_on": self.eigen.n_on,
                "n_more": self.eigen.n_more,
                "unity_orders": list(self.eigen.unity_orders),
                "outside_moduli_squared": [
                    [str(iv.lo), str(iv.hi)] for iv in self.eigen.outside_moduli
                ],
            },
        }
        if self.growth_base is not None:
            out["growth_base"] = [str(self.growth_base.lo), str(self.growth_base.hi)]
        if self.period is not None:
            out["period"] = self.period
            out["cycle"] = list(self.cycle)
        if self.r is not None:
            out["r"] = self.r
        return out


def classify(e: EndomorphismInput) -> BehaviorReport:
    """Decide B1 / B2 / B3 from the exact eigenvalue census.

    An eigenvalue exactly 1 makes fix identically zero (the fixed locus is
    a positive-dimensional subtorus); by the fix = 0 convention the
    constant-zero function is periodic, so this edge is reported as B2
    with period 1 and cycle [0].  The analysis pass also checks the
    conjugate-pair rule, so the quartic is not validated beforehand.
    """
    quartic = CharPolyQuartic(_char_poly_unvalidated(e))
    p = quartic.poly
    if p == IntPolynomial((0, 0, 0, 0, 1)):
        raise ZeroEndomorphismError("all four eigenvalues vanish")
    analysis = _analyze(quartic)
    census = analysis.census(DEFAULT_ENCLOSURE_WIDTH)

    if p(1) == 0:
        return BehaviorReport(
            verdict=B2, eigen=census, period=1, cycle=(0,),
        )
    if census.n_on == 0:
        # n_more > 0 is forced: a non-zero root of modulus < 1 implies one
        # of modulus > 1, and all roots inside is impossible for |P(0)| >= 1
        return BehaviorReport(
            verdict=B1, eigen=census,
            growth_base=analysis.growth_base(DEFAULT_GROWTH_WIDTH),
        )
    if census.n_less == 0 and census.n_more == 0:
        period, cycle = _minimal_period(p, census)
        return BehaviorReport(verdict=B2, eigen=census, period=period, cycle=cycle)

    # mixed: unit-circle roots plus growth
    if len(set(census.unity_orders)) != 1:
        raise InvalidEndomorphismError(
            "a valid mixed-case quartic has a single analytic root-of-unity "
            f"eigenvalue, got orders {census.unity_orders}"
        )
    return BehaviorReport(
        verdict=B3, eigen=census, r=census.unity_orders[0],
        growth_base=analysis.growth_base(DEFAULT_GROWTH_WIDTH),
    )


def _minimal_period(p: IntPolynomial, census: EigenvalueClassification) -> tuple[int, tuple[int, ...]]:
    big = math.lcm(*census.unity_orders) if census.unity_orders else 1
    full = list(islice(fix_values(p), big))
    for d in range(1, big + 1):
        if big % d == 0 and all(full[n] == full[n % d] for n in range(big)):
            return d, tuple(full[:d])


def mahler_measure_interval(
    P: CharPolyQuartic, width: Fraction = DEFAULT_GROWTH_WIDTH
) -> RationalInterval:
    """Enclosure of prod max(1, |mu_i|) over the quartic's roots, of width
    at most `width`; this is the exponential growth base of fix(f^n).

    Raises InvalidStructureError if P fails the conjugate-pair rule.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    return _analyze(P).growth_base(width)


def verify_b3_pattern(e: EndomorphismInput, report: BehaviorReport, n_max: int) -> bool:
    """Check fix(f^n) = 0 exactly when n = 0 (mod r), for n <= n_max."""
    if report.verdict != B3:
        raise ValueError("report is not a B3 certificate")
    p = char_poly_rational(e).poly
    r = report.r
    return all((value == 0) == (n % r == 0)
               for n, value in zip(range(1, n_max + 1), fix_values(p)))
