import hashlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofscan import search, sieve
from spoofscan.arith import is_prime, sieve_primes, sigma_single
from spoofscan.membership import check_membership
from spoofscan.search import MAX_LIMIT, SearchConfig, search_range
from spoofscan.sieve import MAX_HI, MAX_SPAN, SigmaSegment, sigma_segment


def _kernel_define(name):
    """The value of an integer #define in the kernel's source."""
    return int(re.search(rf"^#define {name} (\d+)$", sieve._SOURCE.read_text(), re.M)[1])


# slots per block of the C kernel: primes below it run block by block,
# larger ones through per-block lists; BLOCK_PRIMES counts the former, which
# the kernel makes itself, and MAX_BLOCKS is the number of list heads
BLOCK, BLOCK_PRIMES = _kernel_define("BLOCK"), _kernel_define("BLOCK_PRIMES")
MAX_BLOCKS = _kernel_define("MAX_BLOCKS")
# slots per period of the kernel's pattern of 3, 5 and 7
PERIOD = _kernel_define("PERIOD")
_PRIMES = sieve_primes(2 * BLOCK)
# the last prime below BLOCK, the first two above it, and one far above it
P0 = int(_PRIMES[_PRIMES < BLOCK][-1])
P1, P2 = _PRIMES[_PRIMES > BLOCK][:2].tolist()
Q = 999983
# two full blocks and a partial third
SPAN = 2 * BLOCK + 1001


@pytest.fixture(scope="module")
def primes_1e6():
    # covers sqrt(hi - 1) for every segment below 10**12 + 2**18
    return sieve_primes(10**6 + 1000)


@pytest.fixture(scope="module")
def primes_to_root():
    # every prime up to sqrt(MAX_LIMIT) and a little beyond
    return sieve_primes(isqrt(MAX_LIMIT) + 1000)


def _sigma_by_trial_division(n, primes):
    """sigma(n) for n <= MAX_LIMIT: the primes dividing n, found by one
    vectorised remainder, then their powers taken out in Python ints."""
    assert n <= MAX_LIMIT and primes[-1] >= isqrt(n)
    sigma, rest = 1, n
    for p in primes[n % primes == 0].tolist():
        term, pe = 1, 1
        while rest % p == 0:
            rest //= p
            pe *= p
            term += pe
        sigma *= term
    return sigma * (rest + 1) if rest > 1 else sigma


def test_block_primes_counts_the_odd_primes_below_block():
    # sigma_fill carries one next slot per odd prime below BLOCK but 3, 5
    # and 7, which the pattern takes out
    assert BLOCK_PRIMES == np.count_nonzero((_PRIMES >= 11) & (_PRIMES < BLOCK))


def test_max_blocks_covers_max_span():
    # the kernel's fixed list heads cover the largest segment sieve.py allows
    assert MAX_SPAN == MAX_BLOCKS * BLOCK


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


def _check_around(n, span, primes, oracle=sigma_single):
    """The segment of `span` odd slots centred on odd n; checks sigma(n)."""
    lo, hi = n - span, n + span
    seg = sigma_segment(lo, hi, primes)
    assert seg.sigma_of(n) == oracle(n), n
    return isqrt(hi - 1)


@pytest.mark.parametrize(
    "p, k, span",
    [
        (997, 1, 1 << 10),  # 997^2 = 994009
        (11, 11 * 11 * 67, 1 << 10),  # 11^4 * 67
        (999983, 1, 1 << 16),  # the largest prime below 10^6, squared
        (521, 521 * 7071, 1 << 16),  # 521^3 * 7071
    ],
)
def test_sparse_band_prime_square(p, k, span, primes_1e6):
    # p is a sieving prime (not the leftover), on either side of BLOCK:
    # 11, 521 and 997 run block by block, 999983 in the single pass
    bound = _check_around(p * p * k, span, primes_1e6)
    assert p <= bound


@pytest.mark.parametrize("p", [P0, P1])  # the primes on either side of BLOCK
@pytest.mark.parametrize("k", [1, 3, 25])
def test_block_edge_prime_powers(p, k, primes_to_root):
    assert is_prime(p) and (p < BLOCK) == (p == P0)
    oracle = lambda n: _sigma_by_trial_division(n, primes_to_root)  # noqa: E731
    # p^e * k for every e >= 2 up to MAX_LIMIT (p^2 and p^3 at BLOCK = 32768)
    n = p * p * k
    while n <= MAX_LIMIT:
        # a segment across the block edge, so n lies in its second block
        lo = n - 2 * (BLOCK + 100)
        seg = sigma_segment(lo, lo + 2 * (2 * BLOCK + 17), primes_to_root)
        assert seg.sigma_of(n) == oracle(n), (p, n, k)
        _check_around(n, 1 << 10, primes_to_root, oracle)
        n *= p


def test_block_edges_match_single_block_segments(primes_1e6):
    # three full blocks and 17 slots; the run of the largest block prime
    # P0 starts at slot 60, crosses each block edge and ends in the
    # partial last block
    p, span = P0, 3 * BLOCK + 17
    lo = p * 30519 - 2 * 60
    assert 3 * BLOCK <= 60 + 3 * p < span
    hi = lo + 2 * span
    seg = sigma_segment(lo, hi, primes_1e6)
    # segments of 1000 slots never reach a block edge
    pieces = [sigma_segment(a, min(a + 2000, hi), primes_1e6).values for a in range(lo, hi, 2000)]
    assert np.array_equal(seg.values, np.concatenate(pieces))
    for i in range(60, span, p):
        assert seg.values[i] == sigma_single(lo + 2 * i), i
    for i in (0, BLOCK - 1, BLOCK, 2 * BLOCK, 3 * BLOCK - 1, 3 * BLOCK, span - 1):
        assert seg.values[i] == sigma_single(lo + 2 * i), i


def _pattern_multiple(p, e):
    """p^e * k, with k the least odd number prime to p that puts it above
    2 * BLOCK, so that it fits at slot BLOCK of a segment; k = 1 from
    p^e > 2 * BLOCK on"""
    k = max(1, -(-(2 * BLOCK + 1) // p**e)) | 1
    while k % p == 0:
        k += 2
    return p**e * k


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pattern_primes_every_power_at_pattern_edges(p, primes_to_root):
    # n = p^e * k with v_p(n) = e, for every e with p^e <= MAX_LIMIT (3^31,
    # 5^21, 7^17): up to e = 2 the pattern takes p out, from e = 3 on the
    # cube pass finishes it. n sits at the last slot of a block, at the
    # first slot of the next (the pattern index and the cube pass carry
    # over), and in a block whose pattern wraps from PERIOD - 1 to 0 between
    # its first two slots
    e = 0
    while p**e <= MAX_LIMIT:
        n = _pattern_multiple(p, e)
        if n <= 10**12:
            expected = sigma_single(n)
        else:
            expected = _sigma_by_trial_division(n, primes_to_root)
        wrap = (n - 1) // 2 % PERIOD + 1
        assert (n - 2 * wrap - 1) // 2 % PERIOD == PERIOD - 1
        for slot, span in ((BLOCK - 1, BLOCK + 1), (BLOCK, BLOCK + 1), (wrap, wrap + 1)):
            lo = n - 2 * slot
            seg = sigma_segment(lo, lo + 2 * span, primes_to_root)
            assert seg.sigma_of(n) == expected, (p, e, slot)
        e += 1


def test_smallest_segments_match_divisor_enumeration(sigma_table_1e6, primes_1e6):
    # lo = 1 and every odd hi up to 400: 5 and 7 are sieving primes only
    # from hi = 27 and hi = 51 on, but the pattern takes them out below that
    # too, and the first hits of 27, 125 and 343 fall here
    for hi in range(3, 401, 2):
        seg = sigma_segment(1, hi, primes_1e6)
        assert np.array_equal(seg.values, sigma_table_1e6[1:hi:2]), hi
    # the pattern takes out 3, 5 and 7 and the kernel sieves with its own
    # primes below BLOCK, whatever the prime list holds there: a hole at 11
    # or a repeated 11 does not reach the values
    for primes, hi in [
        ([5], 31),
        ([3, 3, 3, 5], 31),
        ([7], 31),
        ([3, 5, 7, 13], 287),
        ([3, 5, 7, 11, 11, 13, 17], 301),
    ]:
        seg = sigma_segment(1, hi, np.array(primes))
        assert np.array_equal(seg.values, sigma_table_1e6[1:hi:2]), primes


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


@pytest.mark.parametrize("lo", [10**13 + 1, 10**14 + 1, MAX_LIMIT - (1 << 21) + 1])
def test_matches_trial_division_above_1e12(lo, primes_to_root):
    span = 2 * BLOCK
    seg = sigma_segment(lo, lo + 2 * span, primes_to_root)
    for i in (0, 1, 4099, BLOCK - 1, BLOCK, BLOCK + 17253, span - 1):
        assert seg.values[i] == _sigma_by_trial_division(lo + 2 * i, primes_to_root), (lo, i)


def test_trial_division_hard_cases_near_max_limit(primes_to_root):
    oracle = lambda n: _sigma_by_trial_division(n, primes_to_root)  # noqa: E731
    # consecutive primes around sqrt(MAX_LIMIT): p is the last sieving
    # prime, q the leftover
    p, q = 31622743, 31622777
    assert is_prime(p) and is_prime(q) and not any(is_prime(r) for r in range(p + 2, q, 2))
    assert q * q > MAX_LIMIT
    # p^2 with p just below sqrt(hi)
    assert p <= _check_around(p * p, 1 << 10, primes_to_root, oracle) < q
    # a leftover prime just above sqrt(hi - 1)
    assert p <= _check_around(p * q, 1 << 10, primes_to_root, oracle) < q
    # several large prime factors in one slot, all in the single pass
    n = 99961 * 99971 * 99991
    assert n <= MAX_LIMIT
    _check_around(n, 1 << 10, primes_to_root, oracle)
    _check_around(3**4 * 99989 * 123457, 1 << 10, primes_to_root, oracle)


@pytest.mark.parametrize("base", [10**12, MAX_LIMIT - (1 << 21)])
@pytest.mark.parametrize(
    "factor, slot",
    [
        (P1, 100),  # hits slots 100, 100 + P1 and 100 + 2 * P1: three blocks
        (P1 * P1, 5000),  # P1^2 times a small cofactor
        (P1 * P2, 7000),  # two bucketed primes in one slot
        (Q, 0),  # the first slot of a block
        (Q, BLOCK - 1),  # the last slot of a block
        (Q, BLOCK),  # the first slot of the next block
        (Q, SPAN - 1),  # the last slot of the partial last block
    ],
    ids=["P1", "P1^2", "P1*P2", "first", "last", "next-first", "partial-last"],
)
def test_bucketed_primes(base, factor, slot, primes_to_root):
    # slot holds an odd multiple of factor near base; every slot the
    # factor's largest prime hits is checked against trial division
    p = max(q for q in (P1, P2, Q) if factor % q == 0)
    n = (base // factor - 1 | 1) * factor  # odd, and at most base
    lo = n - 2 * slot
    seg = sigma_segment(lo, lo + 2 * SPAN, primes_to_root)
    assert BLOCK < p <= isqrt(lo + 2 * SPAN - 1)
    hits = range(slot % p, SPAN, p)
    assert slot in hits
    for i in hits:
        assert seg.values[i] == _sigma_by_trial_division(lo + 2 * i, primes_to_root), (n, i)


@pytest.mark.parametrize(
    "lo, span",
    [
        (1, SPAN),  # members in more than one block
        (945 - 2 * 300, 1024),  # 945 is abundant and -d = 30 divides sigma = 1920
        (10**12 + 1, SPAN),
        (MAX_LIMIT - (1 << 21) + 1, SPAN),
    ],
)
def test_members_match_check_membership(lo, span, primes_to_root):
    seg = sigma_segment(lo, lo + 2 * span, primes_to_root)
    expected = [
        i
        for i, s in enumerate(seg.values.tolist())
        if check_membership(lo + 2 * i, s) is not None
    ]
    assert seg.members.tolist() == expected
    if lo == 1:
        assert expected[-1] >= BLOCK
    if lo < 945 < lo + 2 * span:
        assert seg.sigma_of(945) == 1920 and expected


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
    # above 2^30 the kernel needs the input's primes from BLOCK up: the
    # table stops short of 40009 <= sqrt(hi - 1)
    lo = 2**31 + 1
    with pytest.raises(ValueError, match="misses prime 40009"):
        sigma_segment(lo, lo + 2 * 1024, sieve_primes(40000))


def test_rejects_oversized_span():
    primes = sieve_primes(10**4)
    with pytest.raises(ValueError, match="exceeds maximum"):
        sigma_segment(1, 2 * (MAX_SPAN + 1) + 1, primes)


def test_rejects_hi_above_bound():
    # the scan's float quotient is exact only below MAX_HI; the prime check
    # is not reached
    with pytest.raises(ValueError, match="2\\^51"):
        sigma_segment(MAX_HI - 1023, MAX_HI + 1, np.array([3], dtype=np.int64))


def test_segment_type_invariants():
    none, ones = np.empty(0, dtype=np.int64), np.ones(4, dtype=np.int64)
    with pytest.raises(ValueError):
        SigmaSegment(lo=2, hi=11, members=none, member_sigma=none, values=ones)
    with pytest.raises(ValueError):
        SigmaSegment(lo=1, hi=11, members=none, member_sigma=none, values=ones)


def _warm_call_faults(primes):
    """Minor faults this thread takes in three sigma_segment calls on
    2^20-slot segments just below 10^12, after two warm-up calls."""
    span = 1 << 20
    los = [10**12 - 2 * span * k + 1 for k in range(5, 0, -1)]
    for lo in los[:2]:
        sigma_segment(lo, lo + 2 * span, primes)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for lo in los[2:]:
        sigma_segment(lo, lo + 2 * span, primes)
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before


def test_warm_calls_allocate_nothing(primes_1e6):
    # each thread keeps the kernel's cells and list chunks and its hits buffer,
    # so a warm call touches no fresh page; a call that allocates them
    # afresh takes ~0.5k-0.9k minor faults here
    faults = {"main": _warm_call_faults(primes_1e6)}
    with ThreadPoolExecutor(1) as pool:
        faults["worker"] = pool.submit(_warm_call_faults, primes_1e6).result(timeout=60)
    assert all(n < 64 for n in faults.values()), faults


def test_search_segments_allocate_no_values(primes_1e6):
    # numpy reports its arrays to tracemalloc; the search's sieve call keeps
    # sigma only at members, while one with values holds 8 bytes per slot
    lo = 10**12 + 1
    hi = lo + 2 * (1 << 20)
    search._scan_segment(lo, hi, primes_1e6)  # this thread's workspace grows
    tracemalloc.start()
    try:
        search._scan_segment(lo, hi, primes_1e6)
        lean = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sigma_segment(lo, hi, primes_1e6)
        eager = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lean < 1 << 20 and eager >= 8 << 20, (lean, eager)


# run in a fresh interpreter: argv is a directory for the results files.
# After a warm-up search, the VmRSS that 10 searches to 4 * 10^6 on two
# workers add; at a span of 2^15 each worker touches its whole 512 KiB block
# of cells, and the search's worker threads end with it
_THREAD_SCRATCH = """
import json, sys
from pathlib import Path
from spoofscan.search import SearchConfig, search_range

def rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmRSS:"))

def run(k):
    out = Path(sys.argv[1]) / f"{k}.txt"
    search_range(SearchConfig(4 * 10**6, out, segment_span=1 << 15, worker_count=2))

run(0)
before = rss()
for k in range(1, 11):
    run(k)
print(json.dumps(rss() - before))
"""


def test_worker_scratch_is_freed_when_its_thread_ends(tmp_path):
    # the kernel frees a thread's scratch as the thread exits: ~1 MB is added
    # here; kept past its thread, each search's scratch would add ~1 MB, and
    # the 10 searches ~10 MB
    added = _python(_THREAD_SCRATCH, tmp_path)
    assert added < 4 << 20, added


_EXIT = """
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from spoofscan import sieve
from spoofscan.arith import sieve_primes
primes = sieve_primes(10**6 + 1000)
sieve.sigma_segment(1, 11, primes)
# left running: its workspace is freed as the interpreter joins it at exit
pool = ThreadPoolExecutor(1)
pool.submit(sieve.sigma_segment, 1, 11, primes).result()
started = threading.Event()

def sieve_on():
    started.set()
    lo = 10**12 + 1
    while True:
        sieve.sigma_segment(lo, lo + 2**21, primes)
        lo += 2**21

# a daemon thread is most likely inside the kernel, with its workspace, when
# the main thread returns, and it is still alive during module teardown
threading.Thread(target=sieve_on, daemon=True).start()
started.wait()
time.sleep(float(sys.argv[1]))
"""


def test_interpreter_exits_cleanly_with_workspaces():
    src = str(Path(sieve.__file__).parents[1])
    # glibc then maps the 512 KiB kernel scratch on its own, so a workspace
    # freed under a running kernel call faults at once
    env = {**os.environ, "PYTHONPATH": src, "MALLOC_MMAP_THRESHOLD_": str(128 << 10)}
    for delay in ("0.01", "0.04", "0.08"):
        done = subprocess.run(
            [sys.executable, "-c", _EXIT, delay],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, ""), delay


def test_kernel_build_cache(tmp_path, monkeypatch):
    # a build of an earlier source goes when the current one is built;
    # other names, such as another process's temporary file, stay
    stale = tmp_path / "_kernel-00000000.so"
    others = ["_sieve-0c10275e76cf9bf0.so", "_kernel-00000000.so.99.tmp"]
    for name in [stale.name, *others]:
        (tmp_path / name).write_bytes(b"not a shared library")
    kernel = sieve._load_kernel(tmp_path)
    [lib] = tmp_path.glob("_kernel-*.so")
    assert kernel._name == str(lib) and lib != stale
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([lib.name, *others])
    built = lib.stat().st_mtime_ns
    # builds under another key or name are never loaded: not libraries at all
    other_key = "".join("1" if c == "0" else "0" for c in lib.stem.removeprefix("_kernel-"))
    (tmp_path / f"_kernel-{other_key}.so").write_bytes(b"not a shared library")

    def no_compiler(*args, **kwargs):
        raise AssertionError("a warm import ran a subprocess")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    again = sieve._load_kernel(tmp_path)
    assert again._name == str(lib)
    assert lib.stat().st_mtime_ns == built
    assert len(list(tmp_path.iterdir())) == 4  # no temporary file left behind


def test_kernel_build_names_missing_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with pytest.raises(RuntimeError, match="`cc`"):
        sieve._load_kernel(tmp_path / "cache")


def test_kernel_exports_only_sigma_fill():
    # the kernel keeps each thread's scratch itself: its one entry point
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("no nm")
    command = [nm, "-D", "--defined-only", sieve._KERNEL._name]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    symbols = [line.split()[1:] for line in done.stdout.splitlines()]
    # _init and _fini are the linker's own, which some toolchains export
    linker = ("_init", "_fini")
    functions = [name for kind, name in symbols if kind in "TWi" and name not in linker]
    assert functions == ["sigma_fill"], done.stdout


# segments a build of the kernel must reproduce: members in several blocks
# and around 945, a block prime's carry into a partial last block, two
# bucketed primes in one slot near 10^12, buckets and leftovers near
# MAX_LIMIT, and the leftover just above sqrt(hi - 1) there. Literal data
# (the block edges of BLOCK = 32768), so that any block size reproduces them
HARD_SEGMENTS = [
    (1, 66537),
    (945 - 2 * 300, 1024),
    (32749 * 30519 - 2 * 60, 98321),
    ((10**12 // (32771 * 32779) - 1 | 1) * 32771 * 32779 - 2 * 7000, 66537),
    (MAX_LIMIT - (1 << 21) + 1, 66537),
    (31622743 * 31622777 - 2 * 500, 1024),
]
# sha256 of each hard segment's int64 sigma values, and its member slots:
# exact values, so every correct kernel reproduces them
HARD_FINGERPRINTS = [
    [
        "3d20e2b3cf0fd1f8461552234974101b1833a4394a8dc28260a4aa4315e8ed8d",
        [0, 1, 7, 67, 157, 292, 409, 577, 682, 742, 1147, 2227, 4504, 4702, 4972, 5557]
        + [6961, 6982, 8482, 16852, 17167, 20182, 21892, 21937, 31531, 31927, 42412]
        + [45337, 53212, 54463, 65407],
    ],
    ["ef454ae59eee2e0df755f5b6784aa6802119c8ec44bfc882a4347fc1d1963a50", [120, 237, 405, 510, 570, 975]],
    ["b6d5270d75e3c0a6fb7fbef2ac39056449e2a9a6e3b052fd6f9e457694e83828", []],
    ["8a9e5d3a0ff4ae50bc987b1141a5d4788e16e9b6e773f9e4c897dc5cce9db628", []],
    ["f74bb2cbfa3954dabd583e4749500a1a54f9a2debd1a64ac4bd14bc12ebd733d", []],
    ["07f565927b8df49343fe3af423fa076f9ad16e68fc60383767be381a385dfbc0", []],
]

# run in a fresh interpreter: argv is the kernel library, then the segments.
# Each segment is sieved without values (sig == NULL in the kernel), then
# with them, and the members and their sigma must agree. Each thread reuses
# its workspace from call to call, so the segments run in order, then in
# reverse on the same thread (spans shrink and grow, and lo moves between
# 10^12 and 10^15), then both ways on two threads at once
_FINGERPRINTS = """
import hashlib, json, sys
from concurrent.futures import ThreadPoolExecutor
from math import isqrt
from spoofscan import sieve
from spoofscan.arith import sieve_primes
sieve._KERNEL = sieve._bind(sys.argv[1])
segments = json.loads(sys.argv[2])
primes = sieve_primes(isqrt(max(lo + 2 * span for lo, span in segments)))

def run(order):
    out = {}
    for k in order:
        lo, span = segments[k]
        lean = sieve.sigma_segment(lo, lo + 2 * span, primes, values=False)
        seg = sieve.sigma_segment(lo, lo + 2 * span, primes)
        if lean.members.tolist() != seg.members.tolist() or (
            lean.member_sigma.tolist() != seg.values[seg.members].tolist()
        ):
            sys.exit(f"values=False disagrees with values=True on {segments[k]}")
        out[k] = [hashlib.sha256(seg.values.tobytes()).hexdigest(), seg.members.tolist()]
    return [out[k] for k in range(len(segments))]

forward, backward = range(len(segments)), range(len(segments))[::-1]
runs = {"forward": run(forward), "reversed": run(backward)}
with ThreadPoolExecutor(2) as pool:
    runs["thread forward"], runs["thread reversed"] = pool.map(run, [forward, backward])
print(json.dumps(runs))
"""
_RUNS = ("forward", "reversed", "thread forward", "thread reversed")

# sizes, in slots, of the pieces of a run of contiguous calls: pieces that
# end inside a block, one slot short of a block edge and just past one, and
# one of two whole blocks
PIECES = (1024, 4095, 32767, 32769, 65536)


def _pieces(lo, span):
    """[lo, hi) of each contiguous piece of the span slots from lo, cycling
    through PIECES; the last piece is the rest"""
    bounds, k = [], 0
    while span:
        size = min(PIECES[k % len(PIECES)], span)
        bounds.append((lo, lo + 2 * size))
        lo, span, k = lo + 2 * size, span - size, k + 1
    return bounds


def _run(bounds, primes):
    """The values and the member slots of a run of calls over bounds on
    this thread, each continuing the last"""
    start, values, members = bounds[0][0], [], []
    for lo, hi in bounds:
        seg = sigma_segment(lo, hi, primes)
        values.append(seg.values)
        members.append(seg.members + (lo - start) // 2)
    return np.concatenate(values), np.concatenate(members)


def _fresh(lo, hi, primes):
    """sigma over [lo, hi) from one call on a new thread, whose kernel
    state starts empty"""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(sigma_segment, lo, hi, primes).result(timeout=60)


# the test builds append these wrappers: the kernel's membership predicate,
# probed on fake values (2n, sigma, member), the calling thread's pattern at
# residue j, its code and the form of that code, and the calling thread's
# sieve position, at and the number of primes it holds
PROBE = b"""
uint64_t probe_is_member(uint64_t two_n, uint64_t s) { return is_member(two_n, s); }

uint64_t probe_pattern(uint64_t j, uint64_t *inv, uint64_t *sig)
{
    struct work *w = thread_work();
    if (!w)
        return UINT64_MAX;
    *inv = w->form[w->code[j]].inv;
    *sig = w->form[w->code[j]].sig;
    return w->code[j];
}

uint64_t probe_state(uint64_t *held)
{
    struct work *w = thread_work();
    if (!w)
        return UINT64_MAX;
    *held = w->nsmall;
    for (struct chunk *c = w->pending; c; c = c->next)
        *held += c->n;
    return w->at;
}
"""
_TWO_N = 2 * (MAX_HI - 3)
PROBE_CASES = [
    (2, 2, 0),  # n = 1, sigma = 2n: d = 0
    (6, 4, 1),  # n = 3: d = 2 divides sigma = 4
    (10, 20, 0),  # n = 5, abundant: -d = 10 divides sigma, but d < 0
    (_TWO_N, _TWO_N - 1, 1),  # d = 1 near MAX_HI: the float quotient ~2^52 must be exact
    (_TWO_N, _TWO_N - 7, 0),  # d = 7 does not divide sigma there
]
# run in a fresh interpreter: argv is a test build, the cases, PERIOD and
# the bounds of contiguous pieces near 10^12; prints the cases' member
# flags, [code, inv, sig] at each residue, and the sieve's states. The run
# of pieces gives each call after the first only the primes above sqrt(lo - 1):
# a call that reset would hold none of the rest, and sieve wrong values. A
# call far below follows, then one that would continue it but has more
# blocks than the kernel's MAX_BLOCKS, then one where that call would have
# continued
_PROBE = """
import ctypes, hashlib, json, sys
from math import isqrt
import numpy as np
from spoofscan import sieve
from spoofscan.arith import sieve_primes
lib = ctypes.CDLL(sys.argv[1])
u64 = ctypes.c_uint64
lib.probe_is_member.argtypes, lib.probe_is_member.restype = [u64, u64], u64
members = [lib.probe_is_member(two_n, s) for two_n, s, _ in json.loads(sys.argv[2])]
lib.probe_pattern.argtypes = [u64, ctypes.POINTER(u64), ctypes.POINTER(u64)]
lib.probe_pattern.restype = u64
inv, sig = u64(), u64()
pattern = [[lib.probe_pattern(j, inv, sig), inv.value, sig.value] for j in range(int(sys.argv[3]))]
lib.probe_state.argtypes, lib.probe_state.restype = [ctypes.POINTER(u64)], u64
held = u64()

def state():
    return [lib.probe_state(held), held.value]

sieve._KERNEL = sieve._bind(sys.argv[1])
primes = sieve_primes(10**6 + 1000)
states, values = [], []
for k, (lo, hi) in enumerate(json.loads(sys.argv[4])):
    table = primes if k == 0 else primes[primes > isqrt(lo - 1)]
    values.append(sieve.sigma_segment(lo, hi, table).values)
    states.append(state())
run = hashlib.sha256(np.concatenate(values).tobytes()).hexdigest()
sieve.sigma_segment(1, 2049, primes)
states.append(state())
hits, hits_at = sieve._hits(1)
failed = sieve._KERNEL.sigma_fill(2049, 1 << 60, primes.ctypes.data, len(primes), None, hits_at)
states.append(state())
after = sieve.sigma_segment(2049, 4097, primes).values
states.append(state())
print(json.dumps([members, pattern, states, run, failed, after.tolist()]))
"""


def _pattern():
    """[code, inv, sig] at each residue j < PERIOD, by trial division of
    n = 2j + 1: code = 9a + 3b + c with a, b and c = min(v_p(n), 2) for
    p = 3, 5 and 7, inv the inverse of 3^a 5^b 7^c mod 2^64 and sig the
    product of the sigma of those powers"""
    pattern = []
    for j in range(PERIOD):
        n, code, d, sig = 2 * j + 1, 0, 1, 1
        for p in (3, 5, 7):
            e = (n % p == 0) + (n % (p * p) == 0)
            code, d, sig = 3 * code + e, d * p**e, sig * ((p ** (e + 1) - 1) // (p - 1))
        pattern.append([code, pow(d, -1, 1 << 64), sig])
    # every one of the 27 forms occurs
    assert {code for code, *_ in pattern} == set(range(27))
    return pattern


def _python(script, *args, env=None):
    """The JSON that `script` prints, run in a fresh interpreter on this package."""
    src = str(Path(sieve.__file__).parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout)


def _probed(primes):
    """What _PROBE must print for PROBE_CASES and the run of _PROBE_PIECES"""

    def held(hi):
        # the primes a thread's sieve holds after a call that ends at hi
        return int(np.count_nonzero((primes >= 11) & (primes <= isqrt(hi - 1))))

    (lo, _), (_, hi) = _PROBE_PIECES[0], _PROBE_PIECES[-1]
    # the pieces must match one fresh call over the whole run
    run = hashlib.sha256(_fresh(lo, hi, primes).values.tobytes()).hexdigest()
    states = [[hi, held(hi)] for _, hi in _PROBE_PIECES]
    # the call far below resets, the failed one leaves nothing to continue,
    # and the next starts afresh
    states += [[2049, held(2049)], [0, 0], [4097, held(4097)]]
    after = _fresh(2049, 4097, primes).values.tolist()
    members = [member for *_, member in PROBE_CASES]
    return [members, _pattern(), states, run, (1 << 64) - 1, after]


# contiguous pieces near 10^12, where large primes wait in the pending list
_PROBE_PIECES = _pieces(10**12 + 1, 3 * 65536 + 1000)


def test_kernel_builds_clean_and_sanitized(tmp_path, primes_1e6):
    segments = json.dumps(HARD_SEGMENTS)
    fingerprints = _python(_FINGERPRINTS, sieve._KERNEL._name, segments)
    assert fingerprints == dict.fromkeys(_RUNS, HARD_FINGERPRINTS)
    source = sieve._SOURCE.read_bytes() + PROBE
    strict = tmp_path / "strict.so"
    sieve._compile(source, strict, (*sieve._CFLAGS, "-Wall", "-Wextra", "-Werror"))
    cases, pieces = json.dumps(PROBE_CASES), json.dumps(_PROBE_PIECES)
    probed = _probed(primes_1e6)
    assert _python(_PROBE, strict, cases, PERIOD, pieces) == probed
    libasan, libubsan = (
        subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True, text=True)
        .stdout.strip()
        for name in ("libasan.so", "libubsan.so")
    )
    if not all(os.path.isabs(lib) and os.path.exists(lib) for lib in (libasan, libubsan)):
        pytest.skip("no sanitizer runtime")
    sanitize = "-fsanitize=address,undefined,float-cast-overflow"
    flags = ("-O1", "-g", "-shared", "-fPIC", sanitize, "-fno-sanitize-recover=all")
    sanitized = tmp_path / "sanitized.so"
    sieve._compile(source, sanitized, flags)
    env = {"LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0"}
    assert _python(_FINGERPRINTS, sanitized, segments, env=env) == fingerprints
    assert _python(_PROBE, sanitized, cases, PERIOD, pieces, env=env) == probed


# segments whose members and block edges meet: members in three blocks and
# a partial fourth, and segments ending just before, at and after a block
BLOCK_EDGE_SEGMENTS = [(1, 3 * BLOCK + 17), (1, BLOCK - 1), (1, BLOCK), (1, BLOCK + 1)]


@pytest.mark.parametrize("lo, span", HARD_SEGMENTS + BLOCK_EDGE_SEGMENTS)
def test_values_false_keeps_members_and_their_sigma(lo, span, primes_to_root):
    eager = sigma_segment(lo, lo + 2 * span, primes_to_root)
    lean = sigma_segment(lo, lo + 2 * span, primes_to_root, values=False)
    assert lean.members.tolist() == eager.members.tolist()
    assert lean.member_sigma.tolist() == eager.values[eager.members].tolist()
    # values are sieved again on the first read
    assert np.array_equal(lean.values, eager.values)


# the byte-equality sweep every kernel change must pass: lo from 1 to
# MAX_LIMIT, spans from 1024 to 2^20, among them the block edges of
# BLOCK = 32768 (32767, 32768 and 32769 slots) and segments that shrink and
# grow the workspace from one call to the next; Descartes' 9018009 is slot
# 500 of the eighth. Literal data, like HARD_SEGMENTS
SWEEP_SEGMENTS = [
    (1, 1024), (1, 32767), (1, 32768), (1, 32769),
    (613, 4096), (61309, 1 << 20), (612373, 98321),
    (9018009 - 2 * 500, 1024), (38461539, 65536), (384615383, 1 << 18),
    (3846153847, 1024), (38461538461, 32767), (384615384617, 32768),
    (10**12 + 1, 32769), (3846153846155, 1 << 20), (38461538461539, 132073),
    (384615384615385, 32769), (999999000000001, 32768),
    (MAX_LIMIT - (1 << 22) + 1, 32767), (MAX_LIMIT - (1 << 21) + 1, 1 << 20),
]
# sha256 of each sweep segment's int64 sigma values followed by its int64
# member slots: exact values, so every correct kernel reproduces them
SWEEP_FINGERPRINTS = [
    "f146da1ef99c955403971418a04feb38f3fd4154ce822eb6098ec89a2c3236b4",
    "659ec241844b6523c2b282426dc3986906d21298aab23dd7dfc5d8473780665d",
    "907dc48e0ada1b3a3f546800d06d5ecfdf4126a7cb70d979f9ee3da48095927e",
    "c88156dafd3d652ee0234fe137649aca0d97d46abdbe9f0d73320dceaa16dc48",
    "2543c26384fd3361cc47453e3da23eb1a665f9ec3b699d5d7f5d88606009e5f1",
    "f2b9800c71b42021a570a4ac3af717a8bb04ddc0d61c416206bc446c517afee4",
    "9046932091863dab47a3e0cfb6e2998eb26f10f94c2302906656d464fb581200",
    "3665b0e4a3a6e694d420ad5c958c91a63670d81f561095589123ee11765a4d6b",
    "deabab1304087a7bfed57aca818dabc4422d4c26088eed84eee38ce16a3dc387",
    "88a619126480889fea698d6f984934e5f82805948d3604cfab09d8f726b8ae44",
    "a1c8f1599b043467eda63d29c6134421e79b52a06360ed9c3e4ac51266ecc00d",
    "f7cbadf0639fbc441f171225e869b137d93b6aa8cbc8fdc2cee1f32ce677e73a",
    "b3b1ee5ea5bd2e55af18f61d0f296db221c9b20e6edd55b3c05d5db888e13eb7",
    "dacbee7a72735a7d7b41df31bbd3c25a71b3a7bb5810659283853f565cbb8dff",
    "44ea98d345f3e05129f26b23e058d547be211b13ef1e4209d5d7f0eb5f0390ac",
    "43cf91025864a13a6bf63efe4226c9a7000f8d9bfb70566e9fb8322faca1d708",
    "79069e748d756701ef0cf73c48db8d3a5887f0eaee1e4e43d7bab555cb9187c7",
    "ed790fadf98051816c7ac91d6e287a199a54c4717ab4f658f012cb4d8e0e53e8",
    "1a74dda9ae6ed5a5b113d86bc3eee06f8ebc3cf41bd8c0548c86139491eb6a8e",
    "cdcab14e331bd0a8aaa744b9955705d313d652a35e56a7923e0cf014e88a62ff",
]


def test_sweep_matches_pinned_fingerprints(primes_to_root):
    # in order on one thread, so the workspace's lists and chunks are reused
    # by segments of other spans and other depths of sieving primes
    for (lo, span), expected in zip(SWEEP_SEGMENTS, SWEEP_FINGERPRINTS, strict=True):
        seg = sigma_segment(lo, lo + 2 * span, primes_to_root)
        lean = sigma_segment(lo, lo + 2 * span, primes_to_root, values=False)
        assert lean.members.tolist() == seg.members.tolist(), (lo, span)
        assert lean.member_sigma.tolist() == seg.values[seg.members].tolist(), (lo, span)
        digest = hashlib.sha256(seg.values.tobytes() + seg.members.astype(np.int64).tobytes())
        assert digest.hexdigest() == expected, (lo, span)


def test_contiguous_pieces_match_sweep_fingerprints(primes_to_root):
    # each sweep segment again, as a run of contiguous calls on one thread:
    # every call after the first continues the sieve where the last ended
    for (lo, span), expected in zip(SWEEP_SEGMENTS, SWEEP_FINGERPRINTS, strict=True):
        values, members = _run(_pieces(lo, span), primes_to_root)
        digest = hashlib.sha256(values.tobytes() + members.astype(np.int64).tobytes())
        assert digest.hexdigest() == expected, (lo, span)


@pytest.mark.parametrize("lo", [1, 10**12 + 1])
@pytest.mark.parametrize("step", [2, -2, -2 * 4096])
def test_non_contiguous_call_resets(lo, step, primes_1e6):
    # a call one slot past, one slot short of or far from where the thread's
    # last call ended starts afresh, and the call after it continues it
    sigma_segment(lo, lo + 2 * 4096, primes_1e6)
    start = lo + 2 * 4096 + step
    values, members = _run([(start, start + 8192), (start + 8192, start + 2 * 8192)], primes_1e6)
    expected = _fresh(start, start + 2 * 8192, primes_1e6)
    assert np.array_equal(values, expected.values)
    assert members.tolist() == expected.members.tolist()


@pytest.mark.parametrize("lo", [1, 10**12 + 1])
def test_continuing_call_takes_any_valid_table(lo, primes_1e6, primes_to_root):
    # the second call continues the first and takes the primes above those
    # it holds, found by value in whichever table it is given: from lo = 1,
    # sqrt(hi - 1) grows from 90 to 373
    mid, hi = lo + 2 * 4096, lo + 2 * (4096 + 65536)
    expected = _fresh(mid, hi, primes_1e6)
    for table in (primes_to_root, primes_1e6[primes_1e6 > 7]):
        sigma_segment(lo, mid, primes_1e6)
        seg = sigma_segment(mid, hi, table)
        assert np.array_equal(seg.values, expected.values)
        assert seg.members.tolist() == expected.members.tolist()


def test_threads_continue_their_own_runs(primes_1e6):
    # two threads take turns, call by call, each on a contiguous run of its
    # own, so each continues only its own sieve
    starts, span = [10**12 + 1, 10**12 + 4 * (1 << 18) + 1], 1 << 18
    turn = threading.Barrier(2, timeout=60)

    def run(lo):
        values = []
        for a, b in _pieces(lo, span):
            turn.wait()
            values.append(sigma_segment(a, b, primes_1e6).values)
        return np.concatenate(values)

    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(run, starts))
    for lo, values in zip(starts, runs):
        assert np.array_equal(values, _fresh(lo, lo + 2 * span, primes_1e6).values), lo


# run in a fresh interpreter: argv is a segment [lo, span]. After a warm-up
# that sizes the thread's hits buffer, the process lowers its own address
# space limit to just above its size, so the lists of a segment near
# MAX_LIMIT (~16 MB of chunks) cannot grow. That segment ends at lo, so the
# given segment would continue it; the process restores the limit and
# sieves the given segment on the same thread
_OUT_OF_MEMORY = """
import hashlib, json, resource, sys
from math import isqrt
from spoofscan import sieve
from spoofscan.arith import sieve_primes
from spoofscan.search import MAX_LIMIT
lo, span = json.loads(sys.argv[1])
primes = sieve_primes(isqrt(MAX_LIMIT) + 1000)
big = 1 << 22
# every prime below sqrt(2^23) is under BLOCK, so no list takes a chunk here
sieve.sigma_segment(1, 1 + 2 * big, primes, values=False)
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmSize:"))
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (size + (1 << 20), hard))
try:
    sieve.sigma_segment(lo - 2 * big, lo, primes, values=False)
    failed = None
except MemoryError as exc:
    failed = str(exc)
finally:
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
seg = sieve.sigma_segment(lo, lo + 2 * span, primes)
print(json.dumps([failed, hashlib.sha256(seg.values.tobytes()).hexdigest(), seg.members.tolist()]))
"""


def test_kernel_out_of_memory_raises_and_the_thread_recovers():
    # only the child's own soft limit moves; the segment after it is the
    # hard segment near MAX_LIMIT, whose fingerprint is known: the failed
    # call reset the thread's sieve, so the next call starts afresh
    failed, *fingerprint = _python(_OUT_OF_MEMORY, json.dumps(HARD_SEGMENTS[4]))
    assert failed is not None and "ran out of memory" in failed
    assert fingerprint == HARD_FINGERPRINTS[4]


# run in a fresh interpreter: the VmRSS that a run of argv[1] (by default
# one) contiguous values=False segments of 2^22 slots ending at MAX_LIMIT
# adds on a fresh thread (its own heap), and the number of sieving primes
_LIST_MEMORY = """
import json, sys, threading
from math import isqrt
from spoofscan import sieve
from spoofscan.arith import sieve_primes
from spoofscan.search import MAX_LIMIT

def rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmRSS:"))

span, calls = 1 << 22, int(sys.argv[1]) if len(sys.argv) > 1 else 1
primes = sieve_primes(isqrt(MAX_LIMIT))
added = []

def sieve_run():
    before = rss()
    for k in range(calls, 0, -1):
        lo = MAX_LIMIT - 2 * span * k + 1
        sieve.sigma_segment(lo, lo + 2 * span, primes, values=False)
    added.append(rss() - before)

thread = threading.Thread(target=sieve_run)
thread.start()
thread.join()
print(json.dumps([added[0], len(primes)]))
"""


def test_kernel_list_memory_is_bounded_by_the_primes():
    # a large prime waits in one block list at a time, so the lists hold at
    # most one 8-byte entry per sieving prime, plus a partial 8 KiB chunk per
    # block; with the block of cells that bounds the call at any span. An
    # entry per hit, not per prime, would take ~28 MB here, these ~17 MB,
    # nearly all of it the pending list, where every large prime waits for
    # the next call
    added, primes = _python(_LIST_MEMORY)
    bound = 8 * primes + (1 << 22) // BLOCK * (8 << 10) + 16 * BLOCK
    assert added < bound, (added, bound)


def test_kernel_memory_of_a_contiguous_run_is_bounded_by_the_primes():
    # between calls every large prime waits in the pending list, and a
    # continuing call hands each pending chunk back to the spares as soon as
    # it has moved the chunk's entries on, so that no entry is held twice.
    # Unlike one call, a run holds every sieving prime at once, so its
    # bound is that of one call with each chunk at its size in the heap
    # (8 KiB and malloc's 16 bytes for 1022 entries), and with the carried
    # table of the primes below BLOCK (three 8-byte words each); freeing the
    # chunks only after the whole hand-off would add ~15 MB here
    added, primes = _python(_LIST_MEMORY, 3)
    chunk = (8 << 10) + 16
    bound = chunk * primes // 1022 + (1 << 22) // BLOCK * chunk + 16 * BLOCK + 24 * BLOCK_PRIMES
    assert added < bound, (added, bound)
