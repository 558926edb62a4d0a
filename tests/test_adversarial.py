"""Inputs that must finish in time polynomial in their bit size.

Each bound is several times what these inputs take.  A rational-root search
by trial division up to sqrt|a_0| of the resolvent cubic does not finish
within 8 s on any of the classify inputs.
"""

import time

import pytest

from torusfix.behavior import B1, classify
from torusfix.endomorphisms import fix_sequence
from torusfix.polynomials import parse_poly
from torusfix.unitcircle import CharPolyQuartic

# Char polys of analytic 2x2 matrices over Z[i], with 41-, 60- and 80-bit
# coefficients, and a 25-digit constant term.
WIDE_CHAR_POLYS = {
    "41-bit": "675248758361,1111584796,2965115,2412,1",
    "60-bit": "372002680928164896,14684878334472,553469281,44880,1",
    "80-bit": "410558521752831259532960,453196816923581816,-64119623067,-20598,1",
    "25-digit": "1000000000000000000000007,3,1,0,1",
}


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


@pytest.mark.parametrize("name", sorted(WIDE_CHAR_POLYS))
def test_classify_wide_coefficients_in_time(name):
    P = CharPolyQuartic(parse_poly(WIDE_CHAR_POLYS[name]))
    report, seconds = _timed(lambda: classify(P))
    assert report.verdict == B1
    assert seconds < 2.0, f"{name}: {seconds:.2f} s"


def test_long_sequence_in_time():
    P = CharPolyQuartic(parse_poly("1439,22,0,10,1"))
    seq, seconds = _timed(lambda: fix_sequence(P, 2000))
    assert len(seq) == 2000 and seq[0] == P.poly(1)
    assert seconds < 5.0, f"{seconds:.2f} s"
