#!/usr/bin/env python3
"""Benchmark of `spoofscan search`, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each timed call is one `spoofscan.cli.main(["search", ...])` in a fresh
interpreter (perfbench/child.py), run one at a time, alternating 1
worker and nproc workers in pairs until --seconds have passed. Every
call's output is checked for exactness (checks.py); an untimed audit
compares the sieve against trial division at slots drawn from the seed.

Workloads (why each exists):

- search-1e8: the headline run to 10^8 with the default span (48
  segments). Strided numpy passes over 8 MiB arrays dominate; a small-prime
  pre-sieve or a fused scan shows here first.
- window-1e12: `--resume` of the last 8 default-span segments below a
  limit L in [9e11, 1e12] drawn from the seed, from a synthetic
  checkpoint (found=0, header-only results). The per-prime Python loop
  over 78k sieving primes dominates and threads contend for the GIL; a
  process pool shows here, a pre-sieve barely does.
- fine-1e7: the search to 10^7 with 4096-slot segments (1221 segments),
  a cache-sized working set per worker. Per-segment and per-checkpoint
  fixed costs (dispatch, prime-cover check, writer, checkpoint rename)
  are a large share; driver and durability changes show here.

With --trace 0 the result line holds the end-to-end metrics: odd_per_s
(nproc workers), odd_per_s_1w, setup_s (fresh-interpreter import plus
prime table) and peak_rss_mb (of the search process, with any children).
With --trace 1 traced pairs alternate with untraced ones and the result
line holds the per-layer metrics. BENCHMARK.json names every metric and
its unit. The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"

# the benchmark measures the sources of this checkout, never an installed copy
sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402
import spoofscan  # noqa: E402
from checks import Expect, Output, audit, run_checks  # noqa: E402
from spoofscan.arith import sieve_primes  # noqa: E402
from spoofscan.sieve import DEFAULT_SPAN, active_backend  # noqa: E402
from tracing import CallSpans, layer_metrics  # noqa: E402

DEFAULT_SEED = 1
# A run must end within 180 s: past this many seconds no call starts and
# a running one is killed.
RUN_BUDGET_S = 170.0

# metric name -> unit, as BENCHMARK.json defines them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SHA_1E8 = "af2a40bc861088890a4ac089a5e5c177409f0001be2ee251c74515e1ef6a76e3"
SHA_1E7 = "b958f905de038c16f39006d5d862a8e39b42103e40e3adf80c9f95ffedf2246d"
# seed 1 puts the window below L = 977886501365; it holds no member, so the
# file is the header line alone
SHA_WINDOW_DEFAULT_SEED = "25ae25c3a1a59e0e24a689e680a7b66562211878b5b220ed5c7b32acb96086d7"
DECADES = (2, 3, 7, 15, 28, 48, 81, 143)
DESCARTES = ("9018009\t22021",)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    limit: int
    span: int
    expect: Expect
    resume_segments: int = 0  # > 0: resume that many segments below the limit

    @property
    def total_slots(self) -> int:
        return (self.limit + 1) // 2

    @property
    def first_slot(self) -> int:
        if not self.resume_segments:
            return 0
        return max(0, self.total_slots - self.resume_segments * self.span)

    def bounds(self) -> list[tuple[int, int]]:
        """The [lo, hi) segments the driver makes, in order."""
        out, slot = [], self.first_slot
        while slot < self.total_slots:
            end = min(slot + self.span, self.total_slots)
            out.append((1 + 2 * slot, 1 + 2 * end))
            slot = end
        return out

    @property
    def odd_count(self) -> int:
        return self.total_slots - self.first_slot

    def prepare(self, out: Path, checkpoint: Path) -> None:
        """Put the files a call starts from in place."""
        out.unlink(missing_ok=True)
        checkpoint.unlink(missing_ok=True)
        if self.resume_segments:
            checkpoint.write_text(
                f"limit={self.limit}\nnext={1 + 2 * self.first_slot}\nfound=0\n",
                encoding="ascii",
            )
            out.write_text(f"#spoofscan v1 limit={self.limit}\n", encoding="ascii")

    def search_args(self, workers: int, out: Path, checkpoint: Path) -> list[str]:
        args = ["--limit", str(self.limit), "--threads", str(workers)]
        args += ["--segment-size", str(self.span), "--out", str(out)]
        args += ["--checkpoint", str(checkpoint)]
        return args + (["--resume"] if self.resume_segments else [])


def make_workload(name: str, seed: int) -> Workload:
    if name == "search-1e8":
        expect = Expect(records=143, decades=DECADES, odd_spoof=DESCARTES, sha256=SHA_1E8)
        return Workload(name, 10**8, DEFAULT_SPAN, expect)
    if name == "fine-1e7":
        expect = Expect(records=81, decades=DECADES[:7], odd_spoof=DESCARTES, sha256=SHA_1E7)
        return Workload(name, 10**7, 4096, expect)
    if name == "window-1e12":
        limit = random.Random(seed).randrange(9 * 10**11, 10**12 + 1)
        pinned = SHA_WINDOW_DEFAULT_SEED if seed == DEFAULT_SEED else None
        return Workload(name, limit, DEFAULT_SPAN, Expect(sha256=pinned), resume_segments=8)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("search-1e8", "window-1e12", "fine-1e7")


@dataclass
class Call:
    workers: int
    traced: bool
    report: dict | None = None
    problems: list[str] = field(default_factory=list)
    sha256: str | None = None
    records_written: int = 0
    results_growth: int = 0

    @property
    def ok(self) -> bool:
        return self.report is not None and not self.problems


def run_call(wl: Workload, workers: int, traced: bool, work: Path, deadline: float) -> Call:
    """One search call in a fresh interpreter, with its output checked."""
    call = Call(workers, traced)
    out, checkpoint, report = work / "results.txt", work / "checkpoint.txt", work / "report.json"
    report.unlink(missing_ok=True)
    wl.prepare(out, checkpoint)
    before = out.stat().st_size if out.exists() else 0
    argv = [sys.executable, str(CHILD), str(report), "1" if traced else "0", "--"]
    argv += wl.search_args(workers, out, checkpoint)
    try:
        proc = subprocess.run(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        call.problems.append("timed out")
        return call
    if proc.returncode != 0 or not report.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        call.problems.append(f"search exited {proc.returncode}: {' | '.join(tail)}")
        return call
    call.report = json.loads(report.read_text(encoding="ascii"))
    if not (out.exists() and checkpoint.exists()):
        call.problems.append("search left no results file or no checkpoint")
        return call
    data = out.read_bytes()
    call.sha256 = hashlib.sha256(data).hexdigest()
    call.results_growth = len(data) - before
    result = Output(wl.limit, data, checkpoint.read_text(encoding="ascii"), wl.expect)
    # every workload starts from a results file without records
    call.records_written = len(result.records or [])
    call.problems = run_checks(result)
    return call


def check_identical(calls: list[Call]) -> None:
    """Fail every call when the calls of a workload wrote different bytes.

    The results file must not depend on the worker count, so any
    difference is a defect of the search, not of one call.
    """
    shas = {c.sha256 for c in calls if c.sha256}
    if len(shas) > 1:
        for c in calls:
            c.problems.append(f"results differ across calls: {sorted(shas)}")


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(wl: Workload, calls: list[Call], n: int) -> dict[str, dict]:
    good = [c for c in calls if c.ok and not c.traced]
    rates = {
        w: _median(wl.odd_count / c.report["wall_s"] for c in good if c.workers == w)
        for w in (1, n)
    }
    values = {
        "odd_per_s": rates[n],
        "odd_per_s_1w": rates[1],
        "setup_s": _median(
            c.report["import_s"] + c.report["table_s"] for c in calls if c.report
        ),
        "peak_rss_mb": _median(c.report["rss_bytes"] / 1e6 for c in good if c.workers == n),
    }
    return {k: _metric(values[k], u, "no successful call") for k, u in E2E_UNITS.items()}


def _metric(value: float | None, unit: str, reason: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "missing": reason}
    return {"value": value, "unit": unit}


def per_layer(wl: Workload, calls: list[Call], n: int) -> dict[str, dict]:
    good = [c for c in calls if c.ok]
    untraced = [c for c in good if not c.traced]
    traced = [c for c in good if c.traced]
    bounds = wl.bounds()
    primes = sieve_primes(isqrt(wl.limit))
    roots = [isqrt(hi - 1) for _, hi in bounds]
    # odd primes p with p*p < hi: the primes the kernel loops over per segment
    per_seg = [int(np.searchsorted(primes, r, side="right")) - (r >= 2) for r in roots]
    common = {
        "segments": len(bounds),
        "slots": wl.odd_count,
        "primes_per_seg": statistics.mean(per_seg),
        "resumes": bool(wl.resume_segments),
        "import_s": _median(c.report["import_s"] for c in calls if c.report),
        "untraced_wall_1w": _median(c.report["wall_s"] for c in untraced if c.workers == 1),
        "untraced_wall_nw": _median(c.report["wall_s"] for c in untraced if c.workers == n),
    }
    ones = [c for c in traced if c.workers == 1]
    ns = [c for c in traced if c.workers == n]
    samples = [
        layer_metrics(
            CallSpans(t1.report, "1 worker"),
            CallSpans(tn.report, f"{n} workers"),
            LAYER_UNITS,
            records_written=tn.records_written,
            results_growth=tn.results_growth,
            **common,
        )
        for t1, tn in zip(ones, ns)
    ]
    if not samples or None in (common["untraced_wall_1w"], common["untraced_wall_nw"]):
        reason = "no successful traced and untraced pair of calls"
        return {k: _metric(None, u, reason) for k, u in LAYER_UNITS.items()}
    out = {}
    for name, unit in LAYER_UNITS.items():
        missing = [s[name] for s in samples if s[name]["value"] is None]
        values = [s[name]["value"] for s in samples]
        out[name] = missing[0] if missing else _metric(statistics.median(values), unit, "")
    return out


def _cache_size(index: int) -> str | None:
    path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(wl: Workload, seed: int, n: int) -> dict:
    return {
        "workload": wl.name,
        "seed": seed,
        "limit": wl.limit,
        "span": wl.span,
        "segments": len(wl.bounds()),
        "odd_integers": wl.odd_count,
        "nproc": n,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": active_backend(),
        "cpu": _cpu_model(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "working_set_per_worker_bytes_computed_4_int64_arrays_x_span": 4 * 8 * wl.span,
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Measure wl for about `seconds`; returns the result object."""
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    n = nproc()
    calls: list[Call] = []
    pairs = 0
    while True:
        traced = trace and pairs % 2 == 1
        order = (1, n) if (seed + pairs) % 2 == 0 else (n, 1)
        for workers in order:
            call = run_call(wl, workers, traced, work, deadline)
            calls.append(call)
            kind = "traced" if traced else "untraced"
            cost = "-"
            if call.report:
                cost = f"{call.report['wall_s']:.3f} s, {call.report['rss_bytes'] / 1e6:.1f} MB"
            print(f"call {len(calls)}: {workers} workers, {kind}, {cost}", file=sys.stderr)
            for problem in call.problems:
                print(f"call {len(calls)} failed: {problem}", file=sys.stderr)
        pairs += 1
        elapsed = time.monotonic() - started
        if any(c.problems for c in calls) or time.monotonic() > deadline:
            break
        if elapsed + elapsed / pairs > seconds and (pairs >= 2 or not trace):
            break

    check_identical(calls)

    rng = random.Random(seed)
    lo, hi = rng.choice(wl.bounds())
    audited, audit_problems = audit(lo, hi, sieve_primes(isqrt(wl.limit)), rng)
    for problem in audit_problems:
        print(problem, file=sys.stderr)

    failed = sum(1 for c in calls if not c.ok)
    metrics = per_layer(wl, calls, n) if trace else end_to_end(wl, calls, n)
    for name, metric in metrics.items():
        if metric["value"] is None:
            print(f"{name}: missing ({metric['missing']})")
        else:
            print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"calls: {len(calls)}, failed: {failed}, audited slots: {audited} in [{lo}, {hi})")
    return {
        "correct": failed == 0 and not audit_problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(spoofscan.__file__).resolve().is_relative_to(SRC):
        print(f"error: spoofscan imported from {spoofscan.__file__}", file=sys.stderr)
        return 2

    wl = make_workload(args.workload, args.seed)
    print("env " + json.dumps(environment(wl, args.seed, nproc())))
    work = WORK / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
