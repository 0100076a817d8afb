"""Membership test for the set S of odd n with 2n/sigma(n) - 1 = 1/x.

Two equivalent forms are provided. The divisibility form is the hot
path: with d = 2n - sigma(n), n is a member iff d > 0 and d divides
sigma(n), giving the witness x = sigma(n)/d. The reduced-fraction form
reduces sigma(n)/(2n) to lowest terms num/den and accepts iff
den - num = 1, giving x = num. Both yield the same x because
num = sigma/g and den = 2n/g with g = gcd = d exactly when den - num = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arith import is_prime, reduce_fraction, sigma_single

__all__ = [
    "ProductClass",
    "MemberRecord",
    "check_membership",
    "check_membership_fraction",
    "classify_witness",
    "membership_bruteforce",
    "BRUTEFORCE_MAX",
]

BRUTEFORCE_MAX = 10**7


class ProductClass(str, Enum):
    """What the product n*x would be, judged from the witness x alone."""

    UNIT = "UNIT"
    PERFECT_CANDIDATE = "PERFECT_CANDIDATE"
    ODD_SPOOF = "ODD_SPOOF"
    EVEN_SPOOF = "EVEN_SPOOF"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MemberRecord:
    n: int
    x: int
    product_class: ProductClass

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise ValueError(f"member n must be odd and >= 1, got {self.n}")
        if self.x < 1:
            raise ValueError(f"witness must be >= 1, got {self.x}")


def _check_arguments(n: int, sigma_n: int) -> None:
    if sigma_n <= 0:
        raise ValueError(f"sigma(n) must be positive, got {sigma_n}")
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 1, got {n}")


def check_membership(n: int, sigma_n: int) -> int | None:
    """Witness x if n is in S, else None. Divisibility form."""
    _check_arguments(n, sigma_n)
    d = 2 * n - sigma_n
    if d <= 0 or sigma_n % d != 0:
        return None
    return sigma_n // d


def check_membership_fraction(n: int, sigma_n: int) -> int | None:
    """Witness x if n is in S, else None. Reduced-fraction form.

    Reduces sigma(n)/(2n) and accepts when den - num = 1.
    """
    _check_arguments(n, sigma_n)
    frac = reduce_fraction(sigma_n, 2 * n)
    if frac.den - frac.num != 1:
        return None
    return frac.num


def classify_witness(x: int) -> ProductClass:
    """UNIT for x=1, EVEN_SPOOF for even x, PERFECT_CANDIDATE for odd
    prime x, ODD_SPOOF for odd composite x."""
    if x < 1:
        raise ValueError(f"witness must be >= 1, got {x}")
    if x == 1:
        return ProductClass.UNIT
    if x % 2 == 0:
        return ProductClass.EVEN_SPOOF
    return ProductClass.PERFECT_CANDIDATE if is_prime(x) else ProductClass.ODD_SPOOF


def membership_bruteforce(limit: int) -> list[MemberRecord]:
    """Scan every odd n <= limit with trial-division sigma.

    Independent oracle for the sieve-driven search; limited to 10**7.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > BRUTEFORCE_MAX:
        raise ValueError(f"bruteforce limited to {BRUTEFORCE_MAX}, got {limit}")
    records = []
    for n in range(1, limit + 1, 2):
        x = check_membership(n, sigma_single(n))
        if x is not None:
            records.append(MemberRecord(n=n, x=x, product_class=classify_witness(x)))
    return records
