"""Binding of the sigma sieve kernel, _kernel.c, whose header describes it.

sigma_segment(lo, hi, primes) computes, in one C call, sigma(n) for every
odd n in [lo, hi) and the members among them: the n for which
d = 2n - sigma(n) > 0 divides sigma(n). It rejects bounds that are not odd
and ascending, a segment of more than MAX_SPAN odd slots, an hi above
MAX_HI and a prime list that misses a prime above its largest entry up to
sqrt(hi - 1).

The first import compiles _kernel.c with `cc` into this package's
__pycache__, under a name keyed by a checksum of the source and the flags,
and deletes the builds of earlier sources there; later imports load that
library. ctypes releases the GIL for each call, so threads sieve in
parallel. Each thread has its own kernel scratch and hits buffer, kept from
call to call and freed when the thread ends.

A call whose lo is the hi of the same thread's last successful call
continues that call's sieve, with the same result as a fresh call; a
search runs each task of contiguous segments on one thread for this.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
import zlib
from math import isqrt
from pathlib import Path

import numpy as np

from .arith import is_prime

__all__ = ["SigmaSegment", "sigma_segment", "DEFAULT_SPAN", "MAX_SPAN"]

# odd slots per segment, by default and at most; MAX_SPAN is the kernel's
# MAX_BLOCKS x BLOCK
DEFAULT_SPAN = 1 << 20
MAX_SPAN = 1 << 24
# Above every search (MAX_LIMIT + 2 < 2^51). Below it sigma(n) < 4n < 2^53,
# and the scan divides only where sigma(n) < 2n < 2^52, so exactly in floats
MAX_HI = 1 << 51

_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC", "-pthread")
_U64 = ctypes.c_uint64


def _load_kernel(cache_dir: Path = _SOURCE.parent / "__pycache__") -> ctypes.CDLL:
    """Load the compiled kernel from cache_dir, compiling it there on a miss."""
    source = _SOURCE.read_bytes()
    key = zlib.crc32(" ".join(_CFLAGS).encode(), zlib.crc32(source))
    lib = cache_dir / f"_kernel-{key:08x}.so"
    if not lib.exists():
        _compile(source, lib)
        # builds of earlier sources; a process that has one loaded keeps it
        for stale in cache_dir.glob("_kernel-*.so"):
            if stale != lib:
                with contextlib.suppress(OSError):
                    stale.unlink()
    return _bind(lib)


def _bind(lib: Path) -> ctypes.CDLL:
    """Load a built kernel library and declare its functions."""
    kernel = ctypes.CDLL(str(lib))
    ptr = ctypes.c_void_p
    kernel.sigma_fill.argtypes = [_U64, _U64, ptr, _U64, ptr, ptr]
    kernel.sigma_fill.restype = _U64
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
_LOCAL = threading.local()


def _hits(slots: int) -> tuple[np.ndarray, int]:
    """This thread's buffer of (slot, sigma) pairs, with room for `slots`,
    and its address; the kernel touches its pages only at members."""
    hits = getattr(_LOCAL, "hits", None)
    if hits is None or len(hits[0]) < slots:
        buffer = np.empty((slots, 2), dtype=np.int64)
        hits = _LOCAL.hits = buffer, buffer.ctypes.data
    return hits


def _address(primes: np.ndarray) -> int:
    """The address of a prime table, kept with a reference to the table
    this thread used last, so that a search's calls do not build ctypes
    objects for it."""
    table = getattr(_LOCAL, "primes", None)
    if table is None or table[0] is not primes:
        table = _LOCAL.primes = primes, primes.ctypes.data
    return table[1]


def _check_bounds(lo: int, hi: int) -> None:
    if lo < 1 or lo % 2 == 0:
        raise ValueError(f"lo must be odd and >= 1, got {lo}")
    if hi <= lo or hi % 2 == 0:
        raise ValueError(f"hi must be odd and > lo, got [{lo}, {hi})")
    if hi > MAX_HI:
        raise ValueError(f"hi must be <= 2^51, got {hi}")
    if (hi - lo) // 2 > MAX_SPAN:
        raise ValueError(f"segment of {(hi - lo) // 2} odd slots exceeds maximum {MAX_SPAN}")


class SigmaSegment:
    """sigma over the odd integers in [lo, hi); values[i] = sigma(lo + 2i).

    members holds, ascending, the slots i whose n = lo + 2i is a member:
    d = 2n - sigma(n) > 0 divides sigma(n); member_sigma holds their sigma
    values. A segment made without values but with the primes sieves
    [lo, hi) again on the first read of values, and keeps them.
    """

    def __init__(self, lo, hi, members, member_sigma, values=None, primes=None):
        _check_bounds(lo, hi)
        if values is None and primes is None:
            raise ValueError("need the values or the primes to sieve them")
        if values is not None and len(values) != (hi - lo) // 2:
            raise ValueError("values length does not match [lo, hi)")
        self.lo, self.hi, self.members, self.member_sigma = lo, hi, members, member_sigma
        self._values, self._primes = values, primes

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = sigma_segment(self.lo, self.hi, self._primes).values
        return self._values

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


def sigma_segment(lo: int, hi: int, primes: np.ndarray, *, values: bool = True) -> SigmaSegment:
    """Compute sigma for every odd integer in [lo, hi), and its members.

    `primes` must be an ascending array containing every odd prime up to
    sqrt(hi - 1); extra primes are ignored. With values=False the kernel
    keeps sigma only at members, and the segment computes its values when
    they are first read. Raises ValueError when a prime between the list's
    largest entry and sqrt(hi - 1) is missing, when (hi - lo) / 2 exceeds
    MAX_SPAN and when hi exceeds MAX_HI, and MemoryError when the kernel
    runs out of memory. The kernel sieves with its own primes below 2^15 and
    reads the list only from 2^15 up, so what the list holds below that does
    not reach the values. A prime from 2^15 up missing below the largest
    entry, or a repeated or unsorted entry from 2^15 up, is not detected:
    the values come out wrong. A call whose lo is the hi of this thread's
    last successful call continues that call's sieve and uses the primes it
    already holds, taking from `primes` only those above them; the check
    above still covers the gap above the list's largest entry.
    """
    _check_bounds(lo, hi)
    slots = (hi - lo) // 2
    # the kernel skips 2 and stops at the first prime above sqrt(hi - 1)
    primes = np.ascontiguousarray(primes, dtype=np.int64)
    _check_prime_cover(primes, hi)

    hits, hits_at = _hits(slots)
    sig = np.empty(slots, dtype=np.int64) if values else None
    count = _KERNEL.sigma_fill(
        lo,
        slots,
        _address(primes),
        len(primes),
        None if sig is None else sig.ctypes.data,
        hits_at,
    )
    if count > slots:
        raise MemoryError(f"sieve kernel ran out of memory on [{lo}, {hi})")
    # a copy: the hits buffer is this thread's, reused by its next call;
    # its rows are taken by index, cheaper than unpacking the array
    pairs = hits[:count].T.copy()
    return SigmaSegment(lo, hi, pairs[0], pairs[1], values=sig, primes=primes)

