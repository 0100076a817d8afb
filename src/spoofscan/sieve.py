"""Segmented sieve for sigma(n) over odd n in a half-open range.

For each odd n in [lo, hi) the kernel keeps two accumulators: the
remaining cofactor (initially n) and the partial sigma product
(initially 1). For every odd prime p up to sqrt(hi - 1) it visits the
odd multiples of p, pulls the full power p^e out of the cofactor and
multiplies the partial sigma by 1 + p + ... + p^e. Whatever cofactor is
left afterwards is either 1 or a single prime q > sqrt(hi - 1), which
contributes q + 1. The prime 2 never divides an odd n and is skipped.

The kernel is one C call per segment (_kernel.c). It finishes the
segment block by block while each block is in cache: the primes below
the block size, then the larger primes from per-block buckets, then the
leftover cofactors, then the membership scan, so a segment comes back
with its sigma values and its member slots. The first import compiles
_kernel.c with `cc` into this package's __pycache__, under a name keyed
by a checksum of the source and the flags; later imports load that
library. ctypes releases the GIL for each call, so worker threads sieve
in parallel.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

import numpy as np

from .arith import is_prime

__all__ = ["SigmaSegment", "sigma_segment", "DEFAULT_SPAN", "MAX_SPAN"]

# Odd slots per segment: default working set is two 8 MiB int64 arrays.
DEFAULT_SPAN = 1 << 20
MAX_SPAN = 1 << 24
# Above every search (MAX_LIMIT + 2 < 2^51). Below it sigma(n) < 4n < 2^53,
# and the scan divides only where sigma(n) < 2n < 2^52, so exactly in floats
MAX_HI = 1 << 51

_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")
_U64 = ctypes.c_uint64


def _load_kernel(cache_dir: Path = _SOURCE.parent / "__pycache__") -> ctypes.CDLL:
    """Load the compiled kernel from cache_dir, compiling it there on a miss."""
    source = _SOURCE.read_bytes()
    key = zlib.crc32(" ".join(_CFLAGS).encode(), zlib.crc32(source))
    lib = cache_dir / f"_kernel-{key:08x}.so"
    if not lib.exists():
        _compile(source, lib)
    return _bind(lib)


def _bind(lib: Path) -> ctypes.CDLL:
    """Load a built kernel library and declare its functions."""
    kernel = ctypes.CDLL(str(lib))
    ptr = ctypes.c_void_p
    kernel.sigma_fill.argtypes = [_U64, _U64, ptr, _U64, ptr, ptr]
    kernel.sigma_fill.restype = _U64
    kernel.member_scan.argtypes = [_U64, _U64, _U64, ptr, ptr]
    kernel.member_scan.restype = _U64
    return kernel


def _compile(source: bytes, lib: Path, cflags: tuple[str, ...] = _CFLAGS) -> None:
    # imported here: a warm import never compiles
    import shutil
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError("building the sieve kernel needs a C compiler: `cc` is not on PATH")
    lib.parent.mkdir(parents=True, exist_ok=True)
    # a private name, then an atomic rename: concurrent first imports are safe
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        done = subprocess.run(
            [cc, *cflags, "-x", "c", "-", "-o", str(tmp)], input=source, capture_output=True
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"`cc` failed to build the sieve kernel:\n{done.stderr.decode(errors='replace')}"
            )
        os.replace(tmp, lib)
    finally:
        tmp.unlink(missing_ok=True)


_KERNEL = _load_kernel()


@dataclass(frozen=True)
class SigmaSegment:
    """sigma values for the odd integers in [lo, hi); values[i] = sigma(lo + 2i).

    members holds, ascending, the slots i whose n = lo + 2i is a member:
    d = 2n - sigma(n) > 0 divides sigma(n).
    """

    lo: int
    hi: int
    values: np.ndarray
    members: np.ndarray

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


def active_backend() -> str:
    """Name of the sieve kernel (not exported; the benchmark's env line reads it)."""
    return "c"


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
    prime list is insufficient, when (hi - lo) / 2 exceeds MAX_SPAN and
    when hi exceeds MAX_HI.
    """
    if lo < 1 or lo % 2 == 0:
        raise ValueError(f"lo must be odd and >= 1, got {lo}")
    if hi <= lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi})")
    if hi % 2 == 0:
        raise ValueError(f"hi must be odd-aligned (odd), got {hi}")
    if hi > MAX_HI:
        raise ValueError(f"hi must be <= 2^51, got {hi}")
    slots = (hi - lo) // 2
    if slots > MAX_SPAN:
        raise ValueError(f"segment of {slots} odd slots exceeds maximum {MAX_SPAN}")
    # the kernel skips 2 and stops at the first prime above sqrt(hi - 1)
    primes = np.ascontiguousarray(primes, dtype=np.int64)
    _check_prime_cover(primes, hi)

    sig = np.empty(slots, dtype=np.int64)
    hits = np.empty(slots, dtype=np.int64)
    count = _KERNEL.sigma_fill(
        lo, slots, primes.ctypes.data, len(primes), sig.ctypes.data, hits.ctypes.data
    )
    if count > slots:
        raise MemoryError(f"sieve kernel ran out of memory on [{lo}, {hi})")
    # a copy, so the segment does not keep the whole hits buffer alive
    return SigmaSegment(lo=lo, hi=hi, values=sig, members=hits[:count].copy())


def member_slots(lo: int, values: np.ndarray) -> np.ndarray:
    """The kernel's membership scan on given values: the slots i where
    d = 2n - values[i] > 0 divides values[i], with n = lo + 2i."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    if lo < 1 or lo % 2 == 0 or lo + 2 * len(values) > MAX_HI:
        raise ValueError(f"need odd lo >= 1 and lo + 2 * len(values) <= 2^51, got lo={lo}")
    hits = np.empty(len(values), dtype=np.int64)
    count = _KERNEL.member_scan(lo, 0, len(values), values.ctypes.data, hits.ctypes.data)
    return hits[:count]
