"""Exact integer arithmetic primitives.

Everything here works on plain Python ints (exact, no overflow) or small
numpy arrays. Factorization is trial division against a cached prime
table, which is sufficient for inputs up to 10**12 (primes up to 10**6).
"""

from __future__ import annotations

import threading
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

__all__ = [
    "gcd",
    "ReducedFraction",
    "reduce_fraction",
    "sieve_primes",
    "is_prime",
    "factorize",
    "sigma_single",
    "SIGMA_SINGLE_MAX",
]

# sigma_single factors by trial division with primes up to 10**6,
# which covers every n <= 10**12.
SIGMA_SINGLE_MAX = 10**12


class ReducedFraction(NamedTuple):
    """An exact fraction in lowest terms, den >= 1."""

    num: int
    den: int


def reduce_fraction(numerator: int, denominator: int) -> ReducedFraction:
    """Return numerator/denominator in lowest terms.

    Raises ValueError for a zero (or negative) denominator.
    """
    if denominator < 1:
        raise ValueError(f"denominator must be >= 1, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be >= 0, got {numerator}")
    g = gcd(numerator, denominator)
    return ReducedFraction(numerator // g, denominator // g)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an ascending int64 array."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    # odd[i] stands for 2i + 1, so the mask is half the size and no pass
    # strikes even numbers; p's odd multiples from p^2 on lie p slots apart
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = (2 * np.flatnonzero(odd) + 1).astype(np.int64, copy=False)
    # slot 0 stands for 1, which is not prime; 2 takes its place
    primes[0] = 2
    return primes


# Deterministic Miller-Rabin witness set. This fixed base set is proven
# correct for every n < 3.317e24 (covers all 64-bit inputs), so the test
# below is exact, not probabilistic, for anything this package handles.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 3.317e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Lazily grown prime table shared by factorize(); replaced atomically
# under the lock so concurrent readers always see a complete list.
_table_lock = threading.Lock()
_prime_table: list[int] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
_prime_table_limit = 31


def _primes_upto(limit: int) -> list[int]:
    global _prime_table, _prime_table_limit
    if limit > _prime_table_limit:
        with _table_lock:
            if limit > _prime_table_limit:
                new_limit = max(limit, 2 * _prime_table_limit, 1000)
                _prime_table = sieve_primes(new_limit).tolist()
                _prime_table_limit = new_limit
    return _prime_table


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as ascending (prime, exponent) pairs.

    Trial division; requires 1 <= n <= 10**12.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if n > SIGMA_SINGLE_MAX:
        raise ValueError(f"n={n} exceeds trial-division bound {SIGMA_SINGLE_MAX}")
    pairs = []
    m = n
    for p in _primes_upto(isqrt(n)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
    if m > 1:
        # no prime <= sqrt(m) divides m, so m is prime
        pairs.append((m, 1))
    return pairs


def sigma_single(n: int) -> int:
    """Sum of all positive divisors of n (1 <= n <= 10**12).

    Computed multiplicatively from the trial-division factorization:
    sigma(p^e) = (p^(e+1) - 1) / (p - 1).
    """
    if n < 1:
        raise ValueError(f"sigma is undefined for {n}")
    total = 1
    for p, e in factorize(n):
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total
