"""Segmented sieve for sigma(n) over odd n in a half-open range.

The kernel keeps two per-slot accumulators for each odd n in [lo, hi):
the remaining cofactor (initially n) and the partial sigma product
(initially 1). For every odd prime p up to sqrt(hi - 1) it visits the
odd multiples of p, pulls the full power p^e out of the cofactor and
multiplies the partial sigma by 1 + p + ... + p^e. Whatever cofactor is
left afterwards is either 1 or a single prime q > sqrt(hi - 1), which
contributes q + 1. The prime 2 never divides an odd n and is skipped.

The odd primes split into two bands by how often they hit a segment of
m odd slots. A dense prime (p < m / DENSE_HITS, so at least DENSE_HITS
odd multiples) gets one strided pass per prime power: a handful of numpy
calls, each touching many slots with no index arrays, so the strided
pass wins. A sparse prime would pay the same handful of calls for a few
slots, so the whole sparse band is applied at once as a list of (slot,
prime) hits, built in chunks and applied with ufunc.at (the bucket sieve
of Oliveira e Silva, Herzog and Pardi, Math. Comp. 83 (2014)); its cost
per hit is flat but a few times that of a strided pass. At ~128 hits per
segment the per-call overhead of a strided pass is a small share of its
work, so the two costs meet near there. On 2^20-slot segments near 10^8
and 10^12 the segment time is flat within noise for boundaries from 32
to 2048 hits; near 10^12 the sparse band holds ~77k of the ~78k sieving
primes and costs ~45 ms of a ~150 ms segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import is_prime

__all__ = ["SigmaSegment", "sigma_segment", "DEFAULT_SPAN", "MAX_SPAN"]

# Odd slots per segment: default working set is two 8 MiB int64 arrays.
DEFAULT_SPAN = 1 << 20
MAX_SPAN = 1 << 24

# band boundary: primes with fewer odd multiples per segment are scattered
DENSE_HITS = 128
# (slot, prime) pairs built at once for the sparse band
SCATTER_CHUNK = 1 << 16


@dataclass(frozen=True)
class SigmaSegment:
    """sigma values for the odd integers in [lo, hi); values[i] = sigma(lo + 2i)."""

    lo: int
    hi: int
    values: np.ndarray

    def __post_init__(self):
        if self.lo < 1 or self.lo % 2 == 0:
            raise ValueError(f"lo must be odd and >= 1, got {self.lo}")
        if self.hi <= self.lo or self.hi % 2 == 0:
            raise ValueError(f"hi must be odd-aligned and > lo, got {self.hi}")
        if len(self.values) != (self.hi - self.lo) // 2:
            raise ValueError("values length does not match [lo, hi)")

    def sigma_of(self, n: int) -> int:
        if n < self.lo or n >= self.hi or n % 2 == 0:
            raise ValueError(f"{n} not an odd integer in [{self.lo}, {self.hi})")
        return int(self.values[(n - self.lo) // 2])


def _fill_sigma(lo: int, hi: int, primes: np.ndarray, cof: np.ndarray, sig: np.ndarray) -> None:
    m = len(cof)
    top = np.searchsorted(primes, isqrt(hi - 1), side="right")
    primes = primes[np.searchsorted(primes, 3) : top]
    split = np.searchsorted(primes, -(-m // DENSE_HITS))
    # dense band: strided passes, one per prime power
    for p in primes[:split].tolist():
        first = ((lo + p - 1) // p) * p
        if first % 2 == 0:
            first += p
        if first >= hi:
            continue
        i0 = (first - lo) // 2
        # geometric sums for the stride-p slots; adding p^e at every level
        # where p^e still divides builds 1 + p + ... + p^e without tables
        cnt = (m - i0 + p - 1) // p
        geo = np.full(cnt, 1 + p, dtype=np.int64)
        cof[i0::p] //= p
        pe = p * p
        while pe < hi:
            first_e = ((lo + pe - 1) // pe) * pe
            if first_e % 2 == 0:
                first_e += pe
            if first_e >= hi:
                break
            ie = (first_e - lo) // 2
            geo[(ie - i0) // p :: pe // p] += pe
            cof[ie::pe] //= p
            pe *= p
        sig[i0::p] *= geo
    # sparse band: one (slot, prime) pair per odd multiple, in chunks of
    # whole primes; ufunc.at applies every pair even when primes share a slot
    primes = primes[split:]
    first = (lo + primes - 1) // primes * primes
    first += primes * (1 - first % 2)
    i0 = (first - lo) // 2
    cnt = np.maximum((m - i0 + primes - 1) // primes, 0)
    ends = np.cumsum(cnt)
    a = 0
    while a < len(primes):
        base = int(ends[a - 1]) if a else 0
        # a sparse prime has at most DENSE_HITS pairs, so every chunk holds one
        b = int(np.searchsorted(ends, base + SCATTER_CHUNK, side="right"))
        runs = cnt[a:b]
        pair_p = np.repeat(primes[a:b], runs)
        step = np.arange(len(pair_p), dtype=np.int64)
        step -= np.repeat(ends[a:b] - runs - base, runs)
        idx = np.repeat(i0[a:b], runs)
        idx += step * pair_p
        np.floor_divide.at(cof, idx, pair_p)
        geo = pair_p + 1
        # pairs whose slot holds p^2: divide again until p no longer divides
        sel = np.flatnonzero(cof[idx] % pair_p == 0)
        power = pair_p[sel]
        while len(sel):
            q = pair_p[sel]
            np.floor_divide.at(cof, idx[sel], q)
            power *= q
            geo[sel] += power
            more = cof[idx[sel]] % q == 0
            sel, power = sel[more], power[more]
        np.multiply.at(sig, idx, geo)
        a = b
    # the leftover cofactor is 1 or a prime q > sqrt(hi - 1), giving q + 1
    np.add(cof, 1, out=cof, where=cof > 1)
    sig *= cof


def active_backend() -> str:
    """Name of the sieve kernel (not exported; the benchmark's env line reads it)."""
    return "numpy"


def _check_prime_cover(primes: np.ndarray, hi: int) -> None:
    # every odd prime <= sqrt(hi - 1) must be present; scan the gap above
    # the supplied maximum for a missed prime
    bound = isqrt(hi - 1)
    top = int(primes[-1]) if len(primes) else 2
    q = top + 1 if top % 2 == 0 else top + 2
    while q <= bound:
        if is_prime(q):
            raise ValueError(
                f"prime list (max {top}) misses prime {q} <= sqrt({hi - 1})"
            )
        q += 2


def sigma_segment(lo: int, hi: int, primes: np.ndarray) -> SigmaSegment:
    """Compute sigma for every odd integer in [lo, hi).

    `primes` must be an ascending array containing every odd prime up to
    sqrt(hi - 1); extra primes are ignored. Raises ValueError when the
    prime list is insufficient and when (hi - lo) / 2 exceeds MAX_SPAN.
    """
    if lo < 1 or lo % 2 == 0:
        raise ValueError(f"lo must be odd and >= 1, got {lo}")
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi})")
    if hi % 2 == 0:
        raise ValueError(f"hi must be odd-aligned (odd), got {hi}")
    slots = (hi - lo) // 2
    if slots > MAX_SPAN:
        raise ValueError(f"segment of {slots} odd slots exceeds maximum {MAX_SPAN}")
    primes = np.asarray(primes, dtype=np.int64)
    _check_prime_cover(primes, hi)

    cof = np.arange(lo, hi, 2, dtype=np.int64)
    sig = np.ones(slots, dtype=np.int64)
    _fill_sigma(lo, hi, primes, cof, sig)
    return SigmaSegment(lo=lo, hi=hi, values=sig)
