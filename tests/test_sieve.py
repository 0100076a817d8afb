from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofscan.arith import is_prime, sieve_primes, sigma_single
from spoofscan.sieve import DENSE_HITS, MAX_SPAN, SigmaSegment, sigma_segment


@pytest.fixture(scope="module")
def primes_1e6():
    # covers sqrt(hi - 1) for every segment below 10**12 + 2**18
    return sieve_primes(10**6 + 1000)


def test_first_odd_values():
    seg = sigma_segment(1, 11, sieve_primes(3))
    assert seg.values.tolist() == [1, 4, 6, 8, 13]


def test_descartes_slot():
    seg = sigma_segment(9018009, 9018011, sieve_primes(3003))
    assert seg.values.tolist() == [18035199]
    assert seg.sigma_of(9018009) == sigma_single(9018009)


def test_single_prime_slot_with_empty_prime_list():
    seg = sigma_segment(3, 5, np.array([], dtype=np.int64))
    assert seg.values.tolist() == [4]


@pytest.mark.parametrize("span", [1 << 10, 1 << 16, 1 << 20])
def test_matches_divisor_enumeration(span, sigma_table_1e6):
    limit = 10**6
    primes = sieve_primes(1000)
    lo = 1
    while lo <= limit:
        hi = min(lo + 2 * span, limit + 1)
        seg = sigma_segment(lo, hi, primes)
        expected = sigma_table_1e6[lo:hi:2]
        assert np.array_equal(seg.values, expected), (lo, hi)
        lo = hi


def test_matches_sigma_single_sample():
    primes = sieve_primes(1000)
    seg = sigma_segment(1, 10**6 + 1, primes)
    for n in range(1, 10**6, 4942):  # deterministic odd sample
        assert seg.sigma_of(n) == sigma_single(n), n
    for n in (999999, 999995, 531441, 9):  # 3^12 and other prime powers
        assert seg.sigma_of(n) == sigma_single(n)


def test_concatenation_equals_whole():
    primes = sieve_primes(100)
    whole = sigma_segment(1001, 9001, primes)
    left = sigma_segment(1001, 5001, primes)
    right = sigma_segment(5001, 9001, primes)
    assert np.array_equal(np.concatenate([left.values, right.values]), whole.values)


def _check_around(n, span, primes):
    """The segment of `span` odd slots centred on odd n; checks sigma(n)."""
    lo, hi = n - span, n + span
    seg = sigma_segment(lo, hi, primes)
    assert seg.sigma_of(n) == sigma_single(n), n
    return isqrt(hi - 1)


@pytest.mark.parametrize(
    "p, k, span",
    [
        (997, 1, 1 << 10),  # 997^2 = 994009
        (11, 11 * 11 * 67, 1 << 10),  # 11^4 * 67, a higher power in the sparse band
        (999983, 1, 1 << 16),  # the largest prime below 10^6, squared
        (521, 521 * 7071, 1 << 16),  # 521^3 * 7071
    ],
)
def test_sparse_band_prime_square(p, k, span, primes_1e6):
    assert p * DENSE_HITS >= span
    _check_around(p * p * k, span, primes_1e6)


@pytest.mark.parametrize(
    "n, span",
    [
        (999999, 1 << 10),  # 3^3 * 7 * 11 * 13 * 37
        (1002001, 1 << 10),  # 7^2 * 11^2 * 13^2: two sparse squares in one slot
        (521**2 * 523**2 * 13, 1 << 16),
        (523 * 541 * 547 * 3 * 1171, 1 << 16),
    ],
)
def test_sparse_band_primes_share_a_slot(n, span, primes_1e6):
    # a fancy-index update of sig or cof would drop all but one prime here
    _check_around(n, span, primes_1e6)


@pytest.mark.parametrize("p, q, span", [(997, 1009, 1 << 10), (999983, 1000003, 1 << 16)])
def test_leftover_prime_just_above_root(p, q, span, primes_1e6):
    # consecutive primes: p is the last sieving prime, q is left in the cofactor
    assert is_prime(p) and is_prime(q) and not any(is_prime(r) for r in range(p + 2, q, 2))
    bound = _check_around(p * q, span, primes_1e6)
    assert p <= bound < q


# lo has 6 to 12 digits; every slot stays within sigma_single's bound 10**12
_odd_lo = st.integers(6, 12).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - (1 << 17)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    lo=_odd_lo.map(lambda v: v | 1),
    span=st.integers(1024, 1 << 16),
    picks=st.lists(st.integers(0, (1 << 16) - 1), min_size=1, max_size=6),
)
def test_matches_sigma_single_random_segments(lo, span, picks, primes_1e6):
    seg = sigma_segment(lo, lo + 2 * span, primes_1e6)
    for i in {pick % span for pick in picks} | {0, span - 1}:
        assert seg.values[i] == sigma_single(lo + 2 * i), (lo, span, i)


def test_rejects_even_or_inverted_bounds():
    primes = sieve_primes(100)
    with pytest.raises(ValueError):
        sigma_segment(2, 11, primes)
    with pytest.raises(ValueError):
        sigma_segment(11, 11, primes)
    with pytest.raises(ValueError):
        sigma_segment(1, 12, primes)


def test_rejects_insufficient_primes():
    with pytest.raises(ValueError, match="misses prime"):
        sigma_segment(1, 11, np.array([2], dtype=np.int64))  # needs 3 for sigma(9)


def test_rejects_oversized_span():
    primes = sieve_primes(10**4)
    with pytest.raises(ValueError, match="exceeds maximum"):
        sigma_segment(1, 2 * (MAX_SPAN + 1) + 1, primes)


def test_segment_type_invariants():
    with pytest.raises(ValueError):
        SigmaSegment(lo=2, hi=11, values=np.ones(4, dtype=np.int64))
    with pytest.raises(ValueError):
        SigmaSegment(lo=1, hi=11, values=np.ones(4, dtype=np.int64))
