import json
import os
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofscan import sieve
from spoofscan.arith import is_prime, sieve_primes, sigma_single
from spoofscan.membership import check_membership
from spoofscan.search import MAX_LIMIT
from spoofscan.sieve import MAX_HI, MAX_SPAN, SigmaSegment, sigma_segment

# slots per block of the C kernel: primes below it run block by block,
# larger ones through per-block buckets
BLOCK = 32768
# the first primes above BLOCK, and one far above it
P1, P2, Q = 32771, 32779, 999983
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


@pytest.mark.parametrize("p", [32749, 32771])  # the primes on either side of BLOCK
@pytest.mark.parametrize("k", [1, 3, 25])  # p^3 * 25 < MAX_LIMIT
def test_block_edge_prime_powers(p, k, primes_to_root):
    assert is_prime(p) and (p < BLOCK) == (p == 32749)
    oracle = lambda n: _sigma_by_trial_division(n, primes_to_root)  # noqa: E731
    for e in (2, 3):
        # a segment across the block edge, so p^e * k lies in its second block
        n = p**e * k
        lo = n - 2 * (BLOCK + 100)
        seg = sigma_segment(lo, lo + 2 * (2 * BLOCK + 17), primes_to_root)
        assert seg.sigma_of(n) == oracle(n), (p, e, k)
        _check_around(n, 1 << 10, primes_to_root, oracle)


def test_block_edges_match_single_block_segments(primes_1e6):
    # three full blocks and 17 slots; the run of the largest block prime
    # 32749 starts at slot 60, crosses each block edge and ends in the
    # partial last block
    p, span = 32749, 3 * BLOCK + 17
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
    span = 1 << 16
    seg = sigma_segment(lo, lo + 2 * span, primes_to_root)
    for i in (0, 1, 4099, 32767, 32768, 50021, span - 1):
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
    none = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError):
        SigmaSegment(lo=2, hi=11, values=np.ones(4, dtype=np.int64), members=none)
    with pytest.raises(ValueError):
        SigmaSegment(lo=1, hi=11, values=np.ones(4, dtype=np.int64), members=none)


def test_kernel_build_cache(tmp_path):
    kernel = sieve._load_kernel(tmp_path)
    [lib] = tmp_path.iterdir()
    assert kernel._name == str(lib) and lib.name.startswith("_kernel-")
    built = lib.stat().st_mtime_ns
    # builds under another key or name are never loaded: not libraries at all
    other_key = "".join("1" if c == "0" else "0" for c in lib.stem.removeprefix("_kernel-"))
    for name in (f"_kernel-{other_key}.so", "_sieve-0c10275e76cf9bf0.so"):
        (tmp_path / name).write_bytes(b"not a shared library")
    again = sieve._load_kernel(tmp_path)
    assert again._name == str(lib)
    assert lib.stat().st_mtime_ns == built
    assert len(list(tmp_path.iterdir())) == 3  # no temporary file left behind


def test_kernel_build_names_missing_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with pytest.raises(RuntimeError, match="`cc`"):
        sieve._load_kernel(tmp_path / "cache")


# segments a build of the kernel must reproduce: members in several blocks
# and around 945, a block prime's carry into a partial last block, two
# bucketed primes in one slot near 10^12, buckets and leftovers near
# MAX_LIMIT, and the leftover just above sqrt(hi - 1) there
HARD_SEGMENTS = [
    (1, SPAN),
    (945 - 2 * 300, 1024),
    (32749 * 30519 - 2 * 60, 3 * BLOCK + 17),
    ((10**12 // (P1 * P2) - 1 | 1) * P1 * P2 - 2 * 7000, SPAN),
    (MAX_LIMIT - (1 << 21) + 1, SPAN),
    (31622743 * 31622777 - 2 * 500, 1024),
]

# run in a fresh interpreter: argv is the kernel library, then the segments
_FINGERPRINTS = """
import hashlib, json, sys
from math import isqrt
import numpy as np
from spoofscan import sieve
from spoofscan.arith import sieve_primes
sieve._KERNEL = sieve._bind(sys.argv[1])
segments = json.loads(sys.argv[2])
primes = sieve_primes(isqrt(max(lo + 2 * span for lo, span in segments)))
out = []
for lo, span in segments:
    seg = sieve.sigma_segment(lo, lo + 2 * span, primes)
    out.append([hashlib.sha256(seg.values.tobytes()).hexdigest(), seg.members.tolist()])
lo = sieve.MAX_HI - 5
out.append(sieve.member_slots(lo, np.array([2 * lo - 1, 2 * lo - 3])).tolist())
print(json.dumps(out))
"""


def _fingerprints(lib, env=None):
    src = str(Path(sieve.__file__).parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _FINGERPRINTS, str(lib), json.dumps(HARD_SEGMENTS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout)


def test_kernel_builds_clean_and_sanitized(tmp_path):
    source = sieve._SOURCE.read_bytes()
    sieve._compile(source, tmp_path / "strict.so", (*sieve._CFLAGS, "-Wall", "-Wextra", "-Werror"))
    libasan, libubsan = (
        subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True, text=True)
        .stdout.strip()
        for name in ("libasan.so", "libubsan.so")
    )
    if not all(os.path.isabs(lib) and os.path.exists(lib) for lib in (libasan, libubsan)):
        pytest.skip("no sanitizer runtime")
    sanitize = "-fsanitize=address,undefined,float-cast-overflow"
    flags = ("-O1", "-g", "-shared", "-fPIC", sanitize, "-fno-sanitize-recover=all")
    sieve._compile(source, tmp_path / "sanitized.so", flags)
    expected = _fingerprints(sieve._KERNEL._name)
    assert expected[-1] == [0]
    env = {"LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0"}
    assert _fingerprints(tmp_path / "sanitized.so", env) == expected
