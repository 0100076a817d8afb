import math
from bisect import bisect_right

import numpy as np
import pytest

from spoofscan.arith import (
    ReducedFraction,
    factorize,
    gcd,
    is_prime,
    reduce_fraction,
    sieve_primes,
    sigma_single,
)


def naive_sigma(n):
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def naive_prime_mask(limit):
    mask = bytearray([1]) * (limit + 1)
    mask[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            for q in range(p * p, limit + 1, p):
                mask[q] = 0
    return mask


def test_gcd_examples():
    assert gcd(0, 7) == 7
    assert gcd(18035199, 18036018) == 819
    assert gcd(4, 6) == 2
    assert gcd(0, 0) == 0


def test_reduce_examples():
    assert reduce_fraction(4, 6) == ReducedFraction(2, 3)
    assert reduce_fraction(18035199, 18036018) == ReducedFraction(22021, 22022)
    assert reduce_fraction(1, 2) == ReducedFraction(1, 2)


def test_reduce_zero_denominator():
    with pytest.raises(ValueError):
        reduce_fraction(1, 0)


def test_reduce_cross_multiplication():
    for a in range(0, 120):
        for b in range(1, 120):
            num, den = reduce_fraction(a, b)
            assert a * den == b * num
            assert math.gcd(num, den) == 1 or num == 0
            assert den >= 1


def test_sieve_primes_examples():
    assert sieve_primes(1).tolist() == []
    assert sieve_primes(10).tolist() == [2, 3, 5, 7]
    assert len(sieve_primes(100)) == 25


def test_sieve_primes_against_naive():
    mask = naive_prime_mask(10**4)
    expected = [n for n in range(10**4 + 1) if mask[n]]
    assert sieve_primes(10**4).tolist() == expected


def test_sieve_primes_every_small_limit():
    # the reference is is_prime, which shares no code with the sieve
    reference = [n for n in range(2001) if is_prime(n)]
    for limit in range(2001):
        expected = reference[: bisect_right(reference, limit)]
        assert sieve_primes(limit).tolist() == expected, limit


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31, 97, 211])
def test_sieve_primes_around_prime_squares(p):
    # p^2 is the least multiple that only p strikes out
    reference = [n for n in range(p * p + 2) if is_prime(n)]
    for limit in (p * p - 1, p * p, p * p + 1):
        primes = sieve_primes(limit)
        assert primes.dtype == np.int64
        assert primes.tolist() == reference[: bisect_right(reference, limit)], limit


def test_is_prime_examples():
    assert not is_prime(1)
    assert not is_prime(22021)  # 19^2 * 61
    assert is_prime(61)


def test_is_prime_exhaustive_to_1e6():
    mask = naive_prime_mask(10**6)
    for n in range(10**6 + 1):
        assert is_prime(n) == bool(mask[n]), n


def test_is_prime_large_values():
    # around the largest witness the search can produce (sigma(n) at 1e12)
    assert is_prime(3_500_000_000_039)
    assert not is_prime(3_500_000_000_029)
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)


def test_factorize():
    assert factorize(1) == []
    assert factorize(9018009) == [(3, 2), (7, 2), (11, 2), (13, 2)]
    assert factorize(22021) == [(19, 2), (61, 1)]
    assert factorize(2**39) == [(2, 39)]
    with pytest.raises(ValueError):
        factorize(2**41)  # beyond the documented 1e12 bound
    with pytest.raises(ValueError):
        factorize(0)


def test_sigma_examples():
    assert sigma_single(1) == 1
    assert sigma_single(9) == 13
    assert sigma_single(9018009) == 18035199
    assert naive_sigma(9018009) == 18035199


def test_sigma_zero_rejected():
    with pytest.raises(ValueError):
        sigma_single(0)


def test_sigma_matches_naive_sample():
    for n in list(range(1, 500)) + [720, 2310, 10007, 999983, 10**6]:
        assert sigma_single(n) == naive_sigma(n), n


def test_sigma_multiplicative():
    pairs = [(a, b) for a in range(1, 100) for b in range(1, 100) if math.gcd(a, b) == 1]
    for a, b in pairs:
        assert sigma_single(a * b) == sigma_single(a) * sigma_single(b)
    # larger coprime spot checks near the 1e4 bound
    for a, b in [(9999, 10000), (9973, 9967), (4096, 6561)]:
        assert math.gcd(a, b) == 1
        assert sigma_single(a * b) == sigma_single(a) * sigma_single(b)


def test_sigma_prime_is_p_plus_one():
    for p in sieve_primes(10**4).tolist():
        assert sigma_single(p) == p + 1


def test_sigma_parity_iff_square():
    # for odd n, sigma(n) is odd exactly when n is a perfect square
    squares = {k * k for k in range(1, 400)}
    for n in range(1, 10**5, 2):
        assert (sigma_single(n) % 2 == 1) == (n in squares), n
