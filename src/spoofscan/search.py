"""Parallel, checkpointable search for members of S up to a bound.

Work is split into segments of `segment_span` odd slots. Workers compute
sigma for a segment (sieve kernel) and scan it for members; a single
in-order writer appends member lines to the results file, so the output
bytes are identical for any worker count or segment span. Segments go to
the workers in tasks of k = max(1, TASK_SLOTS // segment_span)
consecutive segments, so small segments cost one submit per batch, and
the sieve kernel continues each segment of a task from where the one
before it ended, on the same thread; at the default span k = 1. Tasks are submitted lazily, at most
WINDOW_PER_WORKER x worker_count in flight, the one the writer is on
included, so memory stays bounded at any limit. The writer still takes
each segment on its own: every CHECKPOINT_EVERY segments, also in the
middle of a task, it appends the member lines held since the last
checkpoint, flushes them and then renames the new checkpoint into
place. A search writes its first checkpoint before the results
header, so the results file never holds lines past the checkpoint, and
a run stopped at any point by Ctrl-C or an error resumes with no loss
beyond the last checkpoint (a kill between the flush and the rename is
not yet covered).

Results file v1 (text, LF, ASCII decimal):

    #spoofscan v1 limit=<limit>
    <n>\t<x>\t<CLASS>

with CLASS one of UNIT, PERFECT_CANDIDATE, ODD_SPOOF, EVEN_SPOOF and
lines ascending in n. Checkpoint file v1 is three lines: "limit=<v>",
"next=<v>" (first odd integer not yet fully processed) and "found=<v>".
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Callable

import numpy as np

from .arith import sieve_primes
from .membership import MemberRecord, ProductClass, classify_witness
from .sieve import MAX_SPAN, DEFAULT_SPAN, sigma_segment

__all__ = [
    "MAX_LIMIT",
    "MAX_WORKERS",
    "SearchConfig",
    "Checkpoint",
    "IntegrityError",
    "search_range",
    "resume",
    "read_results",
    "read_checkpoint",
]

RESULTS_MAGIC = "#spoofscan v1"
# Largest search bound: every segment stays below sieve.MAX_HI, and the
# prime table up to sqrt(limit) holds ~1.9M primes.
MAX_LIMIT = 10**15
# Most worker threads: the pool may start one OS thread per worker, and
# WINDOW_PER_WORKER x workers tasks are in flight.
MAX_WORKERS = 256
# segments flushed between checkpoints
CHECKPOINT_EVERY = 64
# odd slots per task, unless one segment is larger: segments go to the
# workers TASK_SLOTS // span at a time, so the submit, the future and the
# wake-up of a task, all under the GIL, are paid once per ~2^18 slots
# rather than once per small segment
TASK_SLOTS = 1 << 18
# tasks in flight per worker, the one the writer is on included: a worker
# that finishes a task finds the next one queued even while the writer
# waits on an older, slower one, and a queued task holds no arrays; at
# most WINDOW_PER_WORKER x workers x max(span, TASK_SLOTS) slots are in
# flight, 8 x workers x 2^20 at the default span. A task sieves without
# a values array (sigma_segment(..., values=False)): a finished task holds
# only its members, and a worker's memory is its kernel scratch and hits
# buffer, reused from task to task and freed as its thread ends with the search
WINDOW_PER_WORKER = 8


class IntegrityError(RuntimeError):
    """Checkpoint and results file disagree; nothing is repaired silently."""


@dataclass(frozen=True)
class SearchConfig:
    limit: int
    results_path: str | Path
    segment_span: int = DEFAULT_SPAN
    worker_count: int = 1
    checkpoint_path: str | Path | None = None

    def __post_init__(self):
        if not 1 <= self.limit <= MAX_LIMIT:
            raise ValueError(f"limit must be in [1, {MAX_LIMIT}], got {self.limit}")
        if not 1024 <= self.segment_span <= MAX_SPAN:
            raise ValueError(
                f"segment_span must be in [1024, {MAX_SPAN}], got {self.segment_span}"
            )
        if not 1 <= self.worker_count <= MAX_WORKERS:
            raise ValueError(
                f"worker_count must be in [1, {MAX_WORKERS}], got {self.worker_count}"
            )


@dataclass(frozen=True)
class Checkpoint:
    limit: int
    next_lo: int
    found_count: int


def _scan_segment(lo: int, hi: int, primes: np.ndarray) -> list[tuple[int, int, int]]:
    """(n, sigma, x) for every member in [lo, hi)."""
    seg = sigma_segment(lo, hi, primes, values=False)
    out = []
    for i, s in zip(seg.members.tolist(), seg.member_sigma.tolist()):
        n = lo + 2 * i
        out.append((n, s, s // (2 * n - s)))
    return out


def _scan_task(bounds: list[tuple[int, int]], primes: np.ndarray) -> list[tuple[int, list]]:
    """(hi, hits) for each segment [lo, hi) in bounds, in order."""
    return [(hi, _scan_segment(lo, hi, primes)) for lo, hi in bounds]


def _record_for(n: int, sigma_n: int, x: int) -> MemberRecord:
    # exact identity check in unbounded ints; a failure is a kernel bug
    if 2 * n * x != sigma_n * (x + 1):
        raise AssertionError(f"membership identity violated for n={n}, x={x}")
    return MemberRecord(n=n, x=x, product_class=classify_witness(x))


def _write_checkpoint(path: str | Path, cp: Checkpoint) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        f"limit={cp.limit}\nnext={cp.next_lo}\nfound={cp.found_count}\n",
        encoding="ascii",
    )
    tmp.replace(path)


def read_checkpoint(path: str | Path) -> Checkpoint:
    fields = {}
    for line in Path(path).read_text(encoding="ascii").splitlines():
        key, _, value = line.partition("=")
        fields[key] = value
    try:
        return Checkpoint(
            limit=int(fields["limit"]),
            next_lo=int(fields["next"]),
            found_count=int(fields["found"]),
        )
    except (KeyError, ValueError) as exc:
        raise IntegrityError(f"malformed checkpoint {path}: {exc}") from exc


def read_results(path: str | Path) -> tuple[int, list[MemberRecord]]:
    """Parse a results file v1 into (limit, records)."""
    path = Path(path)
    records = []
    with open(path, encoding="ascii", newline="\n") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(RESULTS_MAGIC + " limit="):
            raise ValueError(f"{path} line 1: bad header {header!r}")
        try:
            limit = int(header.split("limit=", 1)[1])
        except ValueError:
            raise ValueError(f"{path} line 1: bad limit in header {header!r}") from None
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path} line {lineno}: expected 3 tab-separated fields")
            try:
                n, x = int(parts[0]), int(parts[1])
                cls = ProductClass(parts[2])
            except ValueError:
                raise ValueError(f"{path} line {lineno}: bad record {line!r}") from None
            records.append(MemberRecord(n=n, x=x, product_class=cls))
    for prev, cur in zip(records, records[1:]):
        if cur.n <= prev.n:
            raise ValueError(f"{path}: records not ascending at n={cur.n}")
    return limit, records


def _run(
    config: SearchConfig,
    first_slot: int,
    found: int,
    progress: Callable[[int, int, int], None] | None,
) -> list[MemberRecord]:
    """Scan from odd slot first_slot on, appending member lines to the results file."""
    primes = sieve_primes(isqrt(config.limit))
    total = (config.limit + 1) // 2
    span = config.segment_span
    starts = range(first_slot, total, span)
    per_task = max(1, TASK_SLOTS // span)
    records: list[MemberRecord] = []
    lines: list[str] = []

    def in_order(pool):
        """(hi, hits) of each segment in turn, one task of per_task segments
        submitted as the writer finishes the oldest one in flight."""
        window = deque()
        for i in range(0, len(starts), per_task):
            if len(window) == WINDOW_PER_WORKER * config.worker_count:
                yield from window.popleft().result()
            bounds = [(1 + 2 * s, 1 + 2 * min(s + span, total)) for s in starts[i : i + per_task]]
            window.append(pool.submit(_scan_task, bounds, primes))
        for future in window:
            yield from future.result()

    def checkpoint_now(next_lo: int) -> None:
        # member lines reach the file only here, flushed before the checkpoint
        # names them, so an interrupted run never leaves lines past it
        fh.write("".join(lines))
        fh.flush()
        lines.clear()
        if config.checkpoint_path is not None:
            _write_checkpoint(
                config.checkpoint_path, Checkpoint(config.limit, next_lo, found)
            )

    pool = ThreadPoolExecutor(max_workers=config.worker_count)
    try:
        with open(config.results_path, "a", encoding="ascii", newline="\n") as fh:
            for done, (hi, hits) in enumerate(in_order(pool), start=1):
                for n, sigma_n, x in hits:
                    rec = _record_for(n, sigma_n, x)
                    records.append(rec)
                    lines.append(f"{rec.n}\t{rec.x}\t{rec.product_class.value}\n")
                    found += 1
                if done == len(starts) or done % CHECKPOINT_EVERY == 0:
                    checkpoint_now(hi)
                # after the checkpoint: a callback that raises stops on it
                if progress is not None:
                    progress(done, len(starts), found)
    finally:
        # drop queued tasks when unwinding on an interrupt or an error
        pool.shutdown(cancel_futures=True)
    return records


def search_range(
    config: SearchConfig,
    *,
    progress: Callable[[int, int, int], None] | None = None,
) -> list[MemberRecord]:
    """Search all odd n <= config.limit, writing the results file.

    Returns the member records in ascending order. With a checkpoint
    path, the checkpoint (next=1, found=0) is written before the results
    file is truncated to its header, so the run resumes from any point.
    """
    if config.checkpoint_path is not None:
        _write_checkpoint(config.checkpoint_path, Checkpoint(config.limit, 1, 0))
    Path(config.results_path).write_text(
        f"{RESULTS_MAGIC} limit={config.limit}\n", encoding="ascii", newline="\n"
    )
    return _run(config, 0, 0, progress)


def resume(
    config: SearchConfig,
    *,
    progress: Callable[[int, int, int], None] | None = None,
) -> list[MemberRecord]:
    """Continue an interrupted search from its checkpoint.

    The checkpoint and the partial results file must agree (same limit,
    found count equal to the number of member lines); any mismatch is an
    IntegrityError. Completes to a file byte-identical to an
    uninterrupted run. Returns the full record list, including the part
    read back from the partial file.
    """
    if config.checkpoint_path is None:
        raise ValueError("resume requires a checkpoint_path")
    cp = read_checkpoint(config.checkpoint_path)
    if cp.limit != config.limit:
        raise IntegrityError(
            f"checkpoint limit {cp.limit} != configured limit {config.limit}"
        )
    if cp.next_lo < 1 or cp.next_lo % 2 == 0:
        raise IntegrityError(f"checkpoint next={cp.next_lo} is not an odd integer")
    file_limit, prior = read_results(config.results_path)
    if file_limit != config.limit:
        raise IntegrityError(
            f"results file limit {file_limit} != configured limit {config.limit}"
        )
    if len(prior) != cp.found_count:
        raise IntegrityError(
            f"checkpoint found={cp.found_count} but results file has {len(prior)} records"
        )
    if any(rec.n >= cp.next_lo for rec in prior):
        raise IntegrityError("results file contains records beyond the checkpoint")
    if cp.next_lo > config.limit:
        return prior
    return prior + _run(config, (cp.next_lo - 1) // 2, cp.found_count, progress)
