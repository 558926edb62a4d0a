"""Independent oracles for the benchmark's correctness checks.

Nothing here calls into torusfix.  Eigenvalues come from closed forms of
how each input was built (2x2 eigenvalues, quadratic formulas, roots of
unity, embeddings of a CM field), evaluated in mpmath, and give the census,
the unity orders, the growth base and the B2 cycle an exact classifier must
report.  Fixed-point counts are checked in ``exact.fix_by_det``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath

# A double root computed through a square root keeps about half the
# digits, so the tolerances sit well above 10^-(DPS/2).
DPS = 80
ON_CIRCLE_TOL = mpmath.mpf("1e-30")
ZERO_TOL = mpmath.mpf("1e-30")
UNITY_TOL = mpmath.mpf("1e-25")
ENCLOSURE_TOL = mpmath.mpf("1e-30")

mpmath.mp.dps = DPS
MP = SimpleNamespace(sqrt=mpmath.sqrt, turn=lambda j, k: mpmath.expjpi(mpmath.mpf(2 * j) / k))


def int_poly_from_roots(roots) -> list[int]:
    """Ascending integer coefficients of prod (t - root)."""
    coeffs = [mpmath.mpc(1)]
    for r in roots:
        nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    out = []
    for c in coeffs:
        k = int(mpmath.nint(c.real))
        if abs(c - k) > mpmath.mpf("1e-20"):
            raise ValueError(f"roots do not give an integer polynomial: {c}")
        out.append(k)
    return out


# -- expected classification --------------------------------------------------------


def _unity_order(mu) -> int | None:
    for k in range(1, 13):
        if abs(mu ** k - 1) < UNITY_TOL:
            return k
    return None


def expected_report(roots) -> dict:
    """Verdict and certificate that an exact classifier must report for a
    quartic with these four roots."""
    n_zero = n_less = n_on = n_more = 0
    orders, outside_sq = [], []
    growth = mpmath.mpf(1)
    for mu in roots:
        mod = abs(mu)
        if mod < ZERO_TOL:
            n_zero += 1
        elif abs(mod - 1) < ON_CIRCLE_TOL:
            n_on += 1
            orders.append(_unity_order(mu))
        elif mod < 1:
            n_less += 1
        else:
            n_more += 1
            outside_sq.append(mod * mod)
            growth *= mod
    out = {
        "n_zero": n_zero, "n_less": n_less, "n_on": n_on, "n_more": n_more,
        "orders": sorted(k for k in orders if k is not None),
        "outside_sq": sorted(outside_sq),
        "growth": None, "period": None, "cycle": None, "r": None,
    }
    if None in orders:
        out["verdict"] = "invalid"
    elif any(abs(mu - 1) < UNITY_TOL for mu in roots):
        out.update(verdict="B2", period=1, cycle=[0])
    elif n_on == 0:
        out.update(verdict="B1", growth=growth)
    elif n_less == 0 and n_more == 0:
        big = math.lcm(*orders)
        full = [_fix_numeric(roots, n) for n in range(1, big + 1)]
        period = next(
            d for d in range(1, big + 1)
            if big % d == 0 and all(full[n] == full[n % d] for n in range(big))
        )
        out.update(verdict="B2", period=period, cycle=full[:period])
    else:
        out.update(verdict="B3", growth=growth, r=math.lcm(*orders))
    return out


def _fix_numeric(roots, n: int) -> int:
    value = mpmath.mpc(1)
    for mu in roots:
        value *= 1 - mu ** n
    return int(mpmath.nint(value.real))


def _encloses(lo: Fraction, hi: Fraction, x) -> bool:
    tol = ENCLOSURE_TOL * max(1, abs(x))
    return mpmath.mpf(lo.numerator) / lo.denominator - tol <= x <= (
        mpmath.mpf(hi.numerator) / hi.denominator + tol
    )


def compare_report(exp: dict, got: dict) -> str | None:
    """None when a reported classification matches the oracle, else why not.

    ``got`` holds verdict, the four counts, orders, and optionally
    growth (lo, hi), outside_sq [(lo, hi), ...], period, cycle and r."""
    if exp["verdict"] == "invalid":
        return "oracle: unit-circle root of order above 12"
    for key in ("verdict", "n_zero", "n_less", "n_on", "n_more"):
        if got[key] != exp[key]:
            return f"{key}: got {got[key]!r}, oracle {exp[key]!r}"
    if sorted(got["orders"]) != exp["orders"]:
        return f"unity orders: got {got['orders']}, oracle {exp['orders']}"
    for key in ("period", "cycle", "r"):
        if got.get(key) != exp[key]:
            return f"{key}: got {got.get(key)!r}, oracle {exp[key]!r}"
    if (got.get("growth") is None) != (exp["growth"] is None):
        return "growth base present on one side only"
    if exp["growth"] is not None and not _encloses(*got["growth"], exp["growth"]):
        return f"growth base {got['growth']} misses {mpmath.nstr(exp['growth'], 20)}"
    if "outside_sq" in got:
        ivs = sorted(got["outside_sq"])
        if len(ivs) != len(exp["outside_sq"]) or not all(
            _encloses(lo, hi, x) for (lo, hi), x in zip(ivs, exp["outside_sq"])
        ):
            return "outside moduli enclosures miss the oracle moduli"
    return None


def min_root_modulus(coeffs):
    roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=100)
    return min(abs(r) for r in roots)
