"""Tests of the benchmark itself, at tiny limits.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import random
import shutil
import subprocess
import sys
import threading
from math import isqrt
from pathlib import Path

import pytest

import checks
import run
import tracing
from checks import Expect, Output, run_checks
from spoofscan import cli, search
from spoofscan.arith import factorize, sieve_primes

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LIMIT = 10**5


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """(results bytes, final checkpoint text) of a real search to LIMIT."""
    tmp = tmp_path_factory.mktemp("good")
    out, cp = tmp / "out.txt", tmp / "cp.txt"
    argv = ["search", "--limit", str(LIMIT), "--segment-size", "1024"]
    assert cli.main(argv + ["--out", str(out), "--checkpoint", str(cp)]) == 0
    return out.read_bytes(), cp.read_text()


def expect_for(data: bytes) -> Expect:
    sha = hashlib.sha256(data).hexdigest()
    return Expect(records=28, decades=(2, 3, 7, 15, 28), odd_spoof=(), sha256=sha)


def lines_of(data: bytes) -> list[str]:
    return data.decode().split("\n")[:-1]


def join(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def set_field(data: bytes, index: int, field: int, value: str) -> bytes:
    lines = lines_of(data)
    fields = lines[index].split("\t")
    fields[field] = value
    lines[index] = "\t".join(fields)
    return join(lines)


def drop_field(data, cp):
    lines = lines_of(data)
    lines[5] = lines[5].rsplit("\t", 1)[0]
    return join(lines), cp


def delete_record(data, cp):
    lines = lines_of(data)
    del lines[5]
    return join(lines), cp


def cross_decade(data, cp):
    # move the last member <= 10^3 to just above 10^3, still ascending
    lines = lines_of(data)
    index = max(i for i, line in enumerate(lines[1:], 1) if int(line.split("\t")[0]) <= 1000)
    return set_field(data, index, 0, "1001"), cp


def alter_witness(data, cp):
    return set_field(data, 6, 1, str(int(lines_of(data)[6].split("\t")[1]) + 2)), cp


# check name -> an alteration of one record that the check must catch
ALTERATIONS = {
    "format": drop_field,
    "count": delete_record,
    "decades": cross_decade,
    "odd_spoof": lambda data, cp: (set_field(data, 4, 2, "ODD_SPOOF"), cp),
    "no_perfect_candidate": lambda data, cp: (set_field(data, 4, 2, "PERFECT_CANDIDATE"), cp),
    "sha256": alter_witness,
    "members": alter_witness,
    "checkpoint": delete_record,
}


def test_every_check_is_covered():
    assert set(ALTERATIONS) == set(checks.CHECKS)


def test_good_output_passes(good):
    data, cp = good
    assert run_checks(Output(LIMIT, data, cp, expect_for(data))) == []


@pytest.mark.parametrize("name", sorted(ALTERATIONS))
def test_check_fails_on_one_altered_record(good, name):
    data, cp = good
    altered, cp2 = ALTERATIONS[name](data, cp)
    assert len(lines_of(altered)) >= len(lines_of(data)) - 1
    problems = run_checks(Output(LIMIT, altered, cp2, expect_for(data)))
    assert any(p.startswith(name + ":") for p in problems), problems


def test_altered_witness_fails_without_a_pin(good):
    # window-1e12 has no pinned hash at other seeds; re-verification still catches it
    data, cp = good
    altered, _ = alter_witness(data, cp)
    problems = run_checks(Output(LIMIT, altered, cp, Expect()))
    assert [p.split(":")[0] for p in problems] == ["members"]


def test_differing_calls_all_fail():
    calls = [run.Call(1, False, {}, sha256="a"), run.Call(2, False, {}, sha256="b")]
    run.check_identical(calls)
    assert not any(c.ok for c in calls)
    same = [run.Call(1, False, {}, sha256="a"), run.Call(2, False, {}, sha256="a")]
    run.check_identical(same)
    assert all(c.ok for c in same)


def test_workload_shapes():
    assert len(run.make_workload("search-1e8", 1).bounds()) == 48
    assert len(run.make_workload("fine-1e7", 1).bounds()) == 1221
    for seed in (1, 2, 3):
        window = run.make_workload("window-1e12", seed)
        assert 9 * 10**11 <= window.limit <= 10**12
        assert len(window.bounds()) == 8
        assert window.bounds()[-1][1] == 1 + 2 * window.total_slots
    assert run.make_workload("window-1e12", 2).expect.sha256 is None


def test_resume_workload_matches_the_driver(tmp_path):
    wl = run.Workload("tiny-window", 10**9 + 7, 1024, Expect(), resume_segments=3)
    out, cp = tmp_path / "out.txt", tmp_path / "cp.txt"
    wl.prepare(out, cp)
    seen = []
    real = search._scan_segment
    search._scan_segment = lambda lo, hi, primes: seen.append((lo, hi)) or real(lo, hi, primes)
    try:
        assert cli.main(["search", *wl.search_args(2, out, cp)]) == 0
    finally:
        search._scan_segment = real
    assert sorted(seen) == wl.bounds()
    assert run_checks(Output(wl.limit, out.read_bytes(), cp.read_text(), wl.expect)) == []


def test_audit_draw_favours_hard_slots():
    lo = 10**10 + 1
    hi = lo + 2 * 4096
    root = isqrt(hi - 1)
    slots = checks.audit_slots(lo, hi, random.Random(5))
    assert all(lo <= n < hi and n % 2 for n in slots)
    leftover = [n for n in slots if factorize(n)[-1][0] > root]
    assert any(root < factorize(n)[-1][0] < 2 * root for n in leftover)
    high_powers = [n for n in slots if any(p < 100 and p**e > 1000 for p, e in factorize(n))]
    assert high_powers


def test_audit_catches_a_wrong_sigma(monkeypatch):
    lo = 10**10 + 1
    hi = lo + 2 * 4096
    primes = sieve_primes(isqrt(hi))
    count, problems = checks.audit(lo, hi, primes, random.Random(5))
    assert count > 20 and problems == []
    real = checks.sieve.sigma_segment

    def without_leftover_pass(lo, hi, primes):
        seg = real(lo, hi, primes)
        root = isqrt(hi - 1)
        for i in range(len(seg.values)):
            factors = factorize(lo + 2 * i)
            if factors[-1][0] > root:
                seg.values[i] //= factors[-1][0] + 1
        return seg

    monkeypatch.setattr(checks.sieve, "sigma_segment", without_leftover_pass)
    _, problems = checks.audit(lo, hi, primes, random.Random(5))
    assert problems


def traced_call(tmp_path, workers, names=tracing.TRACED):
    """A traced in-process search to LIMIT: (CallSpans, results file size)."""
    out = tmp_path / f"out{workers}.txt"
    argv = ["search", "--limit", str(LIMIT), "--segment-size", "1024", "--threads", str(workers)]
    argv += ["--out", str(out), "--checkpoint", str(tmp_path / f"cp{workers}.txt")]
    tracer = tracing.Tracer()
    tracer.install(search, names)
    try:
        assert tracer.span("cli.main", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    report = {"workers": workers, "spans": tracer.spans, "main_thread": threading.get_ident()}
    return tracing.CallSpans(report, f"{workers} workers"), out.stat().st_size


def layers(tmp_path, names=tracing.TRACED):
    wl = run.Workload("tiny", LIMIT, 1024, Expect())
    t1, _ = traced_call(tmp_path, 1, names)
    tn, size = traced_call(tmp_path, 2, names)
    return tracing.layer_metrics(
        t1,
        tn,
        run.LAYER_UNITS,
        segments=len(wl.bounds()),
        slots=wl.odd_count,
        primes_per_seg=1.0,
        resumes=False,
        import_s=0.1,
        untraced_wall_1w=t1.wall_s,
        untraced_wall_nw=tn.wall_s,
        records_written=28,
        results_growth=size,
    )


def test_tracer_restores_the_module(tmp_path):
    originals = {name: getattr(search, name) for name in tracing.TRACED}
    traced_call(tmp_path, 2)
    assert {name: getattr(search, name) for name in tracing.TRACED} == originals


def test_layer_metrics_from_spans(tmp_path):
    metrics = layers(tmp_path)
    assert all(m["value"] is not None for m in metrics.values()), metrics
    assert metrics["search.segments"]["value"] == len(run.Workload("t", LIMIT, 1024, None).bounds())
    assert metrics["search.checkpoints"]["value"] == 1
    assert 0 < metrics["membership.scan_frac"]["value"] < 1
    candidates = metrics["membership.candidates"]["value"]
    assert candidates > 0
    assert metrics["membership.hit_ratio"]["value"] == 28 / candidates


def test_unrecorded_span_is_missing_not_zero(tmp_path):
    names = [n for n in tracing.TRACED if n not in ("_scan_segment", "sigma_segment")]
    metrics = layers(tmp_path, names)
    derived = ("sieve.seg_ms_p50", "sieve.contention", "membership.scan_ms_p50", "search.busy_frac")
    for name in derived:
        assert metrics[name]["value"] is None
        assert "spans recorded" in metrics[name]["missing"]
    assert metrics["search.wait_ms"]["value"] is not None


def tiny_workloads():
    yield run.Workload("tiny-search", 2 * LIMIT, 1024, Expect(records=31))
    yield run.Workload("tiny-window", 10**9 + 7, 1024, Expect(), resume_segments=3)


@pytest.mark.parametrize("wl", tiny_workloads(), ids=lambda wl: wl.name)
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_run_emits_every_metric(tmp_path, wl, trace, capsys):
    result = run.run_workload(wl, seed=3, seconds=0, trace=trace, work=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (4 if trace else 2)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert isinstance(metric["value"], float), (spec["name"], metric)
    printed = capsys.readouterr().out
    for spec in wanted:
        assert f"{spec['name']}: " in printed
    if trace and wl.resume_segments:
        assert result["metrics"]["search.resume_check_ms"]["value"] > 0


def test_wrong_output_fails_the_run(tmp_path):
    wl = run.Workload("tiny-search", 2 * LIMIT, 1024, Expect(records=30))
    result = run.run_workload(wl, seed=3, seconds=0, trace=False, work=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["odd_per_s"]["value"] is None
    assert result["metrics"]["odd_per_s"]["missing"]


def test_child_times_the_numpy_import():
    # set-up is timed from the child's first line; numpy must not be loaded by then
    code = "import sys; import child; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "perfbench",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "False", proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    args = ["--workload", "fine-1e7", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
