"""Segmented sieve for sigma(n) over odd n in a half-open range.

For each odd n in [lo, hi) the kernel keeps two accumulators in one
cell: the remaining cofactor and the partial sigma product. They start
from a pattern of period 9 * 25 * 49 that has taken 3, 5 and 7 out up to
their squares: n / (3^a 5^b 7^c) and sigma(3^a) sigma(5^b) sigma(7^c),
where a, b and c are min(v_p(n), 2) for p = 3, 5 and 7; a cube pass
finishes the odd multiples of 27, 125 and 343. For every odd prime p from
11 up to sqrt(hi - 1) the kernel visits the odd multiples of p, pulls
the full power p^e out of the cofactor and multiplies the partial sigma
by 1 + p + ... + p^e. Whatever cofactor is left afterwards is either 1
or a single prime q > sqrt(hi - 1), which contributes q + 1. The prime 2
never divides an odd n and is skipped.

The kernel is one C call per segment (_kernel.c). It finishes the
segment block by block while each block's cells are in cache: the
pattern and the cube pass, the primes from 11 to below the block size,
then the larger primes, each waiting in the list of the block of its
next hit, then one pass that takes the leftover cofactors and runs the
membership scan (the kernel's only one), so a segment comes back with
its member slots, each with its sigma, and, unless the caller asks for
none, the sigma value of every slot. The
order of the kernel's functions is set for code placement, on which its
speed depends (see _kernel.c). The first import compiles _kernel.c with
`cc` into this package's __pycache__, under a name keyed by a checksum
of the source and the flags, and deletes the builds of earlier sources
there; later imports load that library. ctypes releases the GIL for each
call, so worker threads sieve in parallel.

Each thread keeps the kernel's scratch (a block of cells, the
per-block lists, whose pooled chunks hold at most one entry per sieving
prime, and the pattern's tables), which the kernel itself makes on the
thread's first call and frees when the thread ends (a search's worker threads end with the
search), and the buffer the kernel writes member pairs to, 16 bytes per
slot but touched only at members. So after a thread's first segment a
call without values (the search's) allocates only its members, and one
with values adds the values array it returns. The scratch of a thread
still running at interpreter exit is left to the operating system.
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

# Odd slots per segment. A thread's kernel scratch, kept from its first call
# until it ends, is 512 KiB of cells and ~11.4 KiB of pattern tables plus
# block lists of at most 8 bytes per sieving prime and a partial 8 KiB chunk
# per block (~0.9 MB near 10^12 at this span, ~16 MB near 10^15 at
# MAX_SPAN), and its hits buffer reserves 16 bytes per slot (16 MiB here)
# but touches them only at members; values=True adds an 8 MiB int64 array
# per segment.
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


def _hits(slots: int) -> np.ndarray:
    """This thread's buffer of (slot, sigma) pairs, with room for `slots`."""
    hits = getattr(_LOCAL, "hits", None)
    if hits is None or len(hits) < slots:
        hits = _LOCAL.hits = np.empty((slots, 2), dtype=np.int64)
    return hits


class SigmaSegment:
    """sigma over the odd integers in [lo, hi); values[i] = sigma(lo + 2i).

    members holds, ascending, the slots i whose n = lo + 2i is a member:
    d = 2n - sigma(n) > 0 divides sigma(n); member_sigma holds their sigma
    values (values[members], by default). A segment made without values
    but with the primes sieves [lo, hi) again on the first read of values,
    and keeps them.
    """

    def __init__(self, lo, hi, members, member_sigma=None, values=None, primes=None):
        if lo < 1 or lo % 2 == 0:
            raise ValueError(f"lo must be odd and >= 1, got {lo}")
        if hi <= lo or hi % 2 == 0:
            raise ValueError(f"hi must be odd-aligned and > lo, got {hi}")
        if values is None and primes is None:
            raise ValueError("need the values or the primes to sieve them")
        if values is not None and len(values) != (hi - lo) // 2:
            raise ValueError("values length does not match [lo, hi)")
        self.lo, self.hi, self.members = lo, hi, members
        self.member_sigma = values[members] if member_sigma is None else member_sigma
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
    keeps sigma only at members, and the segment computes its values
    when they are first read. Raises ValueError when a prime between the
    list's largest entry and sqrt(hi - 1) is missing, when (hi - lo) / 2
    exceeds MAX_SPAN and when hi exceeds MAX_HI, and MemoryError when the
    kernel runs out of memory. The kernel takes out 3, 5 and 7 itself,
    whatever the list holds. A prime from 11 up missing below the largest
    entry, or a repeated or unsorted entry from 11 up, is not detected: the
    values come out wrong.
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

    hits = _hits(slots)
    sig = np.empty(slots, dtype=np.int64) if values else None
    count = _KERNEL.sigma_fill(
        lo,
        slots,
        primes.ctypes.data,
        len(primes),
        None if sig is None else sig.ctypes.data,
        hits.ctypes.data,
    )
    if count > slots:
        raise MemoryError(f"sieve kernel ran out of memory on [{lo}, {hi})")
    # copies: the hits buffer is this thread's, reused by its next call
    members, member_sigma = hits[:count].T.copy()
    return SigmaSegment(lo, hi, members, member_sigma, values=sig, primes=primes)

