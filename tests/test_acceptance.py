"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS line with
the measured values (run pytest with -s to see them on success). The
10^9 tier is optional and enabled with SPOOFSCAN_ACCEPT_10E9=1.
"""

import math
import os
import time
from bisect import bisect_right

import pytest

from spoofscan.analysis import (
    decade_counts,
    ending_digit_histogram,
    fit_alpha,
    residue_histogram,
)
from spoofscan.arith import sieve_primes
from spoofscan.cli import main
from spoofscan.membership import (
    ProductClass,
    check_membership,
    check_membership_fraction,
    membership_bruteforce,
)
from spoofscan import search
from spoofscan.search import SearchConfig, read_checkpoint, resume, search_range
from spoofscan.sieve import sigma_segment

# Known cumulative and per-decade member counts below 10^k for
# k = 1..12 (the sequence catalogued as OEIS A222263).
KNOWN_CUMULATIVE = [2, 3, 7, 15, 28, 48, 81, 143, 227, 319, 459, 692]
KNOWN_DELTAS = [2, 1, 4, 8, 13, 20, 33, 62, 84, 92, 140, 233]


@pytest.fixture(scope="module")
def run_1e8(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "members_1e8.txt"
    config = SearchConfig(limit=10**8, results_path=path, worker_count=4)
    started = time.monotonic()
    records = search_range(config)
    elapsed = time.monotonic() - started
    return records, path, elapsed


@pytest.fixture(scope="module")
def bruteforce_1e6():
    return membership_bruteforce(10**6)


def test_c01_decade_counts_to_1e8(run_1e8):
    records, _, elapsed = run_1e8
    members = [rec.n for rec in records]
    rows = decade_counts(members, 8)
    assert [cum for cum, _ in rows] == KNOWN_CUMULATIVE[:8]
    assert [delta for _, delta in rows] == KNOWN_DELTAS[:8]
    assert elapsed < 900, f"search to 1e8 took {elapsed:.0f}s, target is 15 minutes"
    print(
        f"\nPASS criterion 1: pi_S(10^k) = {[c for c, _ in rows]} for k=1..8, "
        f"search took {elapsed:.1f}s"
    )


@pytest.mark.skipif(
    not os.environ.get("SPOOFSCAN_ACCEPT_10E9"),
    reason="optional tier; set SPOOFSCAN_ACCEPT_10E9=1 to run the 10^9 search",
)
def test_c02_extended_run_to_1e9(tmp_path):
    config = SearchConfig(
        limit=10**9, results_path=tmp_path / "members_1e9.txt", worker_count=4
    )
    records = search_range(config)
    assert len(records) == 227
    counts = [bisect_right([r.n for r in records], 10**k) for k in range(1, 10)]
    assert counts == KNOWN_CUMULATIVE[:9]
    print(f"\nPASS criterion 2: pi_S(10^9) = {len(records)}")


def test_c03_descartes_verification(capsys):
    code = main(["verify-descartes"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sigma(9018009) = 18035199  ok" in out
    assert "witness x = 22021  ok" in out
    assert "22021 = 19^2*61, composite  ok" in out
    assert "spoof_sigma = 397171152378 = 2 * 198585576189  ok" in out
    assert "all checks passed" in out
    print("PASS criterion 3: Descartes example verified end to end")


def test_c04_only_descartes_odd_spoof_below_1e8(run_1e8):
    records, _, _ = run_1e8
    odd_spoofs = [rec for rec in records if rec.product_class is ProductClass.ODD_SPOOF]
    assert [(rec.n, rec.x) for rec in odd_spoofs] == [(9018009, 22021)]
    print("PASS criterion 4: only ODD_SPOOF up to 1e8 is n=9018009")


def test_c05_search_equals_bruteforce_at_1e6(tmp_path, bruteforce_1e6):
    config = SearchConfig(limit=10**6, results_path=tmp_path / "m.txt", worker_count=2)
    started = time.monotonic()
    records = search_range(config)
    elapsed = time.monotonic() - started
    assert records == bruteforce_1e6
    assert elapsed < 120, f"search to 1e6 took {elapsed:.0f}s, target is 2 minutes"
    oracle_counts = [
        cum for cum, _ in decade_counts([r.n for r in bruteforce_1e6], 6)
    ]
    assert oracle_counts == KNOWN_CUMULATIVE[:6]
    print(f"PASS criterion 5: sieve search and trial-division oracle agree on "
          f"{len(records)} records at 1e6 ({elapsed:.1f}s)")


def test_c06_determinism_and_resume(tmp_path, monkeypatch):
    files = []
    for name, threads, span in [
        ("t1_s16.txt", 1, 1 << 16),
        ("t4_s16.txt", 4, 1 << 16),
        ("t4_s20.txt", 4, 1 << 20),
    ]:
        config = SearchConfig(
            limit=10**6,
            results_path=tmp_path / name,
            worker_count=threads,
            segment_span=span,
        )
        search_range(config)
        files.append((tmp_path / name).read_bytes())
    assert files[0] == files[1] == files[2]

    interrupted = SearchConfig(
        limit=10**6,
        results_path=tmp_path / "resumed.txt",
        checkpoint_path=tmp_path / "cp.txt",
        worker_count=4,
        segment_span=1 << 16,
    )

    def interrupt(done, total, found):
        if done == 4:
            raise KeyboardInterrupt

    monkeypatch.setattr(search, "CHECKPOINT_SLOTS", 4 << 16)
    with pytest.raises(KeyboardInterrupt):
        search_range(interrupted, progress=interrupt)
    assert read_checkpoint(interrupted.checkpoint_path).next_lo == 1 + 2 * 4 * (1 << 16)
    resume(interrupted)
    assert (tmp_path / "resumed.txt").read_bytes() == files[0]
    print("PASS criterion 6: byte-identical output across threads, spans, and resume")


def test_c07_fit_correctness():
    synthetic = [(10**k, 10 * math.log(10**k)) for k in range(1, 9)]
    fit = fit_alpha(synthetic)
    assert abs(fit.alpha - 10) <= 1e-9 * 10
    known = [(10**k, c) for k, c in enumerate(KNOWN_CUMULATIVE, start=1)]
    fitted = fit_alpha(known)
    assert 8 <= fitted.alpha <= 12
    print(f"PASS criterion 7: synthetic alpha recovered exactly, known-counts "
          f"alpha = {fitted.alpha:.3f} in [8, 12]")


def test_c08_form_equivalence_exhaustive_1e6():
    limit = 10**6
    primes = sieve_primes(1000)
    seg = sigma_segment(1, limit + 1, primes)
    checked = accepted = 0
    for i, n in enumerate(range(1, limit + 1, 2)):
        sigma_n = int(seg.values[i])
        x_div = check_membership(n, sigma_n)
        x_frac = check_membership_fraction(n, sigma_n)
        assert x_div == x_frac, f"forms disagree at n={n}"
        checked += 1
        if x_div is not None:
            accepted += 1
            assert 2 * n * x_div == sigma_n * (x_div + 1), f"identity fails at n={n}"
    assert checked == limit // 2
    assert accepted == 48
    print(f"PASS criterion 8: both membership forms agree on {checked} odd n, "
          f"all {accepted} accepted pairs satisfy 2nx = sigma(n)(x+1)")


def test_c09_ending_digit_bias(run_1e8):
    records, _, _ = run_1e8
    hist = ending_digit_histogram([rec.n for rec in records])
    by_digit = dict(zip(hist.labels, hist.counts))
    for digit in (1, 3, 7, 9):
        assert by_digit[5] > by_digit[digit], by_digit
    print(f"PASS criterion 9: digit-5 bias at 1e8, counts = {by_digit}")


def test_c10_histogram_totals(run_1e8, bruteforce_1e6):
    for members in ([rec.n for rec in run_1e8[0]], [rec.n for rec in bruteforce_1e6]):
        assert residue_histogram(members, 8).total() == len(members)
        assert ending_digit_histogram(members).total() == len(members)
    print("PASS criterion 10: residue and ending-digit totals equal member counts")
