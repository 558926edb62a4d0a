"""Inputs that must finish in time polynomial in their bit size.

Each bound is several times what these inputs take.  A rational-root search
by trial division up to sqrt|a_0| of the resolvent cubic does not finish
within 8 s on any of the classify inputs; a scan over a = 0, 1, 2, ... for
search-small would need 10^12 steps at eps = 10^-6; a divisor-pair search
for quadratic factors takes about 3 s on the 50-bit CM field.
"""

import random
import time

import pytest

from torusfix.algebras import CMFieldDesc
from torusfix.behavior import B1, classify
from torusfix.cli import main
from torusfix.endomorphisms import AnalyticRep, fix_sequence
from torusfix.errors import InvalidStructureError
from torusfix.polynomials import (
    KERNEL_TRIAL_DIVISOR_LIMIT,
    IntPolynomial,
    _square_free_kernel,
    parse_poly,
)
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


def test_classify_256_bit_entries_in_time():
    # an analytic matrix over Z[i] with 256-bit entries: a char poly of about
    # 1024-bit coefficients, whose growth base takes several hundred rounds;
    # 0.5-0.75 s with the width tests on unreduced integers, 0.55-0.85 s
    # with the fixed-point filter before them (shared 2-vCPU host)
    rng = random.Random("classify-256")
    entries = [[(rng.getrandbits(256) - (1 << 255), rng.getrandbits(256) - (1 << 255))
                for _ in range(2)] for _ in range(2)]
    report, seconds = _timed(lambda: classify(AnalyticRep(-1, entries)))
    assert report.verdict == B1
    assert seconds < 3.0, f"{seconds:.2f} s"


def test_long_sequence_in_time():
    P = CharPolyQuartic(parse_poly("1439,22,0,10,1"))
    seq, seconds = _timed(lambda: fix_sequence(P, 2000))
    assert len(seq) == 2000 and seq[0] == P.poly(1)
    assert seconds < 5.0, f"{seconds:.2f} s"


def test_search_small_tiny_eps_in_time(capsys):
    code, seconds = _timed(lambda: main(["search-small", "--eps", "1/1000000"]))
    assert code == 0 and capsys.readouterr().out == "1000000000001\n"
    assert seconds < 1.0, f"{seconds:.2f} s"


@pytest.mark.parametrize("bits", [50, 80])
def test_cm_field_wide_constant_in_time(bits):
    # t^4 + (2^(b/2+1) + 3) t^2 + (2^b + 1): irreducible, CM, with a
    # b-bit constant term
    g = IntPolynomial((2 ** bits + 1, 0, 2 ** (bits // 2 + 1) + 3, 0, 1))
    field, seconds = _timed(lambda: CMFieldDesc(g))
    assert field.d > 1
    assert seconds < 2.0, f"{bits}-bit: {seconds:.2f} s"


def test_square_free_kernel_of_60_bit_prime_in_time():
    p = 2 ** 60 - 93  # the largest prime below 2^60
    kernel, seconds = _timed(lambda: _square_free_kernel(p))
    assert kernel == p
    assert seconds < 2.0, f"{seconds:.2f} s"


def test_square_free_kernel_rejects_past_its_divisor_limit():
    # three primes just above the limit: no divisor up to it splits them
    n = 2097169 * 2097211 * 2097223
    assert 2097169 > KERNEL_TRIAL_DIVISOR_LIMIT
    start = time.perf_counter()
    with pytest.raises(InvalidStructureError):
        _square_free_kernel(n)
    assert time.perf_counter() - start < 2.0
