"""Span recording around the search driver's layers, and the per-layer
metrics derived from the spans.

The tracer replaces module attributes of `spoofscan.search` that the
driver looks up at call time with wrappers that record one span per
call: (id, name, start, end, parent, segment, thread, count). Spans stay
in memory and are written out by the caller when the search ends. A
span's parent is the innermost open span on the same thread, so worker
thread spans are roots and main-thread spans are children of the
`cli.main` root span.

Counts (deficient slots, members, checkpoint bytes) are taken after the
wrapped call returns, inside a `trace.count` span, so the time they cost
is excluded from every layer's self time.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time

import numpy as np

TRACED = (
    "sieve_primes",
    "sigma_segment",
    "_scan_segment",
    "_record_for",
    "_write_checkpoint",
    "read_checkpoint",
    "read_results",
)
SEGMENTED = ("sigma_segment", "_scan_segment")


def _deficient_slots(args, result) -> int:
    n = np.arange(result.lo, result.hi, 2, dtype=np.int64)
    return int(np.count_nonzero(2 * n > result.values))


def _members(args, result) -> int:
    return len(result)


def _checkpoint_bytes(args, result) -> int:
    return os.path.getsize(args[0])


COUNTERS = {
    "sigma_segment": _deficient_slots,
    "_scan_segment": _members,
    "_write_checkpoint": _checkpoint_bytes,
}


class Tracer:
    """Records spans for calls through wrapped module attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _call(self, name, fn, args, kwargs, segment=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else None,
            "segment": segment,
            "thread": threading.get_ident(),
            "count": None,
        }
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        return self._call(name, fn, args, kwargs)[0]

    def wrap(self, module, name: str) -> None:
        inner = getattr(module, name)
        counter = COUNTERS.get(name)
        segmented = name in SEGMENTED

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            segment = args[0] if segmented else None
            result, span = self._call(name, inner, args, kwargs, segment)
            if counter is not None:
                span["count"] = self.span("trace.count", counter, args, result)
            return result

        self._undo.append((module, name, inner))
        setattr(module, name, traced)

    def install(self, module, names=TRACED) -> None:
        for name in names:
            self.wrap(module, name)

    def uninstall(self) -> None:
        while self._undo:
            module, name, inner = self._undo.pop()
            setattr(module, name, inner)


class Missing(Exception):
    """A span a metric derives from was not recorded."""


class CallSpans:
    """The spans of one traced search call, indexed for layer queries."""

    def __init__(self, report: dict, label: str):
        self.label = label
        self.workers = report["workers"]
        self.spans = report["spans"]
        self.main_thread = report["main_thread"]
        self.root = next(s for s in self.spans if s["name"] == "cli.main")
        self.children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                self.children.setdefault(span["parent"], []).append(span)

    @property
    def wall_s(self) -> float:
        return _dur(self.root)

    def named(self, name: str, expected: int | None = None) -> list[dict]:
        """Spans called name; Missing unless there are exactly `expected`."""
        found = [s for s in self.spans if s["name"] == name]
        if expected is not None and len(found) != expected:
            raise Missing(
                f"{len(found)} of {expected} {name} spans recorded at {self.label}; "
                "the calls ran where the tracer cannot see them"
            )
        return found

    def busy_s(self, span: dict) -> float:
        """Duration without the tracer's own counting inside it."""
        return _dur(span) - sum(
            _dur(c) for c in self.children.get(span["id"], ()) if c["name"] == "trace.count"
        )

    def self_s(self, span: dict) -> float:
        """Duration minus every child span."""
        return _dur(span) - sum(_dur(c) for c in self.children.get(span["id"], ()))


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _total_ms(spans) -> float:
    return sum(_dur(s) for s in spans) * 1e3


def _p50_ms(spans) -> float:
    return statistics.median(_dur(s) for s in spans) * 1e3


def _p(spans, q: int) -> float:
    """q-th percentile of the span durations (nearest rank)."""
    ordered = sorted(_dur(s) for s in spans)
    return ordered[min(len(ordered) - 1, max(0, -(-q * len(ordered) // 100) - 1))]


def layer_metrics(
    t1: CallSpans,
    tn: CallSpans,
    units: dict[str, str],
    *,
    segments: int,
    slots: int,
    primes_per_seg: float,
    resumes: bool,
    import_s: float,
    untraced_wall_1w: float,
    untraced_wall_nw: float,
    records_written: int,
    results_growth: int,
) -> dict[str, dict]:
    """Per-layer metrics of one traced pair of calls (1 worker, n workers).

    Reports every metric named in units (name -> unit). A metric whose
    spans were not recorded is reported with value None and the reason,
    never as zero.
    """

    def sieve(call):
        return call.named("sigma_segment", segments)

    def scans(call):
        sieve(call)  # a scan's self time needs every sieve span inside it
        return call.named("_scan_segment", segments)

    def records():
        return tn.named("_record_for", records_written)

    def checkpoints():
        spans = tn.named("_write_checkpoint")
        if not spans:
            raise Missing(f"no _write_checkpoint span recorded at {tn.label}")
        return spans

    def resume_checks():
        if not resumes:
            return []
        return tn.named("read_checkpoint", 1) + tn.named("read_results", 1)

    def prime_tables():
        spans = t1.named("sieve_primes") + tn.named("sieve_primes")
        if not spans:
            raise Missing("no sieve_primes span recorded")
        return spans

    def candidates():
        return sum(s["count"] for s in sieve(t1))

    formulas = {
        "cli.import_s": lambda: import_s,
        "arith.prime_table_ms": lambda: _p50_ms(prime_tables()),
        "arith.classify_ms": lambda: _total_ms(records()),
        "sieve.seg_ms_p50": lambda: _p50_ms(sieve(t1)),
        "sieve.seg_ms_p90": lambda: _p(sieve(t1), 90) * 1e3,
        "sieve.ns_per_slot": lambda: _total_ms(sieve(t1)) * 1e6 / slots,
        "sieve.primes_per_seg": lambda: primes_per_seg,
        "sieve.contention": lambda: _p50_ms(sieve(tn)) / _p50_ms(sieve(t1)),
        "sieve.wall_frac_1w": lambda: _total_ms(sieve(t1)) / (t1.wall_s * 1e3),
        "membership.scan_ms_p50": lambda: statistics.median(t1.self_s(s) for s in scans(t1))
        * 1e3,
        "membership.scan_frac": lambda: statistics.median(
            t1.self_s(s) / t1.busy_s(s) for s in scans(t1)
        ),
        "membership.candidates": candidates,
        "membership.hit_ratio": lambda: sum(s["count"] for s in scans(t1)) / candidates(),
        "search.segments": lambda: len(scans(tn)),
        "search.busy_frac": lambda: sum(tn.busy_s(s) for s in scans(tn))
        / (tn.wall_s * tn.workers),
        "search.wait_ms": lambda: tn.wall_s * 1e3
        - _total_ms(tn.children.get(tn.root["id"], [])),
        "search.writer_ms": lambda: _total_ms(records() + checkpoints()),
        "search.checkpoints": lambda: len(checkpoints()),
        "search.checkpoint_ms_p50": lambda: _p50_ms(checkpoints()),
        "search.bytes_written": lambda: results_growth + sum(s["count"] for s in checkpoints()),
        "search.resume_check_ms": lambda: _total_ms(resume_checks()),
        "search.speedup_nw": lambda: untraced_wall_1w / untraced_wall_nw,
        "trace.overhead_frac": lambda: (t1.wall_s + tn.wall_s)
        / (untraced_wall_1w + untraced_wall_nw)
        - 1,
    }
    out = {}
    for name, unit in units.items():
        try:
            out[name] = {"value": float(formulas[name]()), "unit": unit}
        except Missing as exc:
            out[name] = {"value": None, "unit": unit, "missing": str(exc)}
    return out
