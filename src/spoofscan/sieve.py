"""Segmented sieve for sigma(n) over odd n in a half-open range.

For each odd n in [lo, hi) the kernel keeps two accumulators in one
cell: the remaining cofactor (initially n) and the partial sigma product
(initially 1). For every odd prime p up to sqrt(hi - 1) it visits the
odd multiples of p, pulls the full power p^e out of the cofactor and
multiplies the partial sigma by 1 + p + ... + p^e. Whatever cofactor is
left afterwards is either 1 or a single prime q > sqrt(hi - 1), which
contributes q + 1. The prime 2 never divides an odd n and is skipped.

The kernel is one C call per segment (_kernel.c). It finishes the
segment block by block while each block's cells are in cache: the
primes below the block size, then the larger primes from per-block
buckets, then one pass that takes the leftover cofactors, writes each
sigma value once and runs the membership scan (the kernel's only one),
so a segment comes back with its sigma values and its member slots. The
order of the kernel's functions is set for code placement, on which its
speed depends (see _kernel.c). The first import compiles
_kernel.c with `cc` into this package's __pycache__, under a name keyed
by a checksum of the source and the flags; later imports load that
library. ctypes releases the GIL for each call, so worker threads sieve
in parallel.

Each thread keeps its own workspace: the kernel's scratch (a block of
cells and the per-block buckets, grown to the thread's largest segment
so far) and the buffer the kernel writes member slots to. So after a
thread's first segment a call allocates only the sigma values it returns.
A workspace belongs to the library that made it, and it is freed when its
thread ends (a search's worker threads end with the search). One still
held at interpreter exit is left to the operating system: a daemon thread
may still be inside the kernel with it.
"""

from __future__ import annotations

import ctypes
import os
import threading
import weakref
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
    kernel.work_new.argtypes = []
    kernel.work_new.restype = ptr
    kernel.work_free.argtypes = [ptr]
    kernel.work_free.restype = None
    kernel.sigma_fill.argtypes = [ptr, _U64, _U64, ptr, _U64, ptr, ptr]
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


class _Workspace:
    """One thread's kernel scratch, made by `kernel`, and its hits buffer."""

    def __init__(self, kernel: ctypes.CDLL):
        work = kernel.work_new()
        if not work:
            raise MemoryError("sieve kernel could not allocate its workspace")
        self.kernel = kernel
        self.work = work
        self.hits = np.empty(0, dtype=np.int64)
        # freed when its thread ends, never at interpreter exit, when a daemon
        # thread may still be inside the kernel with it
        weakref.finalize(self, kernel.work_free, work).atexit = False


_LOCAL = threading.local()


def _workspace(kernel: ctypes.CDLL, slots: int) -> _Workspace:
    """This thread's workspace for `kernel`, with room for `slots` hits."""
    ws = getattr(_LOCAL, "workspace", None)
    # a workspace is never passed to a library other than its own
    if ws is None or ws.kernel is not kernel:
        ws = _LOCAL.workspace = _Workspace(kernel)
    if len(ws.hits) < slots:
        ws.hits = np.empty(slots, dtype=np.int64)
    return ws


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

    ws = _workspace(_KERNEL, slots)
    sig = np.empty(slots, dtype=np.int64)
    count = ws.kernel.sigma_fill(
        ws.work, lo, slots, primes.ctypes.data, len(primes), sig.ctypes.data, ws.hits.ctypes.data
    )
    if count > slots:
        raise MemoryError(f"sieve kernel ran out of memory on [{lo}, {hi})")
    # a copy: the hits buffer is this thread's, reused by its next call
    return SigmaSegment(lo=lo, hi=hi, values=sig, members=ws.hits[:count].copy())

