"""Parallel, checkpointable search for members of S up to a bound.

Work is split into segments of `segment_span` odd slots. Workers compute
sigma for a segment (sieve kernel) and scan it for members; a single
in-order writer appends member lines to the results file, so the output
bytes are identical for any worker count or segment span. A checkpoint
is written after every `checkpoint_every` flushed segments, making an
interrupted run resumable with no loss beyond the last checkpoint.

Results file v1 (text, LF, ASCII decimal):

    #spoofscan v1 limit=<limit>
    <n>\t<x>\t<CLASS>

with CLASS one of UNIT, PERFECT_CANDIDATE, ODD_SPOOF, EVEN_SPOOF and
lines ascending in n. Checkpoint file v1 is three lines: "limit=<v>",
"next=<v>" (first odd integer not yet fully processed) and "found=<v>".
"""

from __future__ import annotations

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
    "SearchConfig",
    "Checkpoint",
    "IntegrityError",
    "search_range",
    "resume",
    "read_results",
    "read_checkpoint",
]

RESULTS_MAGIC = "#spoofscan v1"
# Largest search bound: 2n and sigma(n) stay far below 2^63 in the int64
# kernels, and the prime table up to sqrt(limit) holds ~1.9M primes.
MAX_LIMIT = 10**15


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
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")


@dataclass(frozen=True)
class Checkpoint:
    limit: int
    next_lo: int
    found_count: int


def _total_slots(limit: int) -> int:
    return (limit + 1) // 2


def _scan_segment(lo: int, hi: int, primes: np.ndarray) -> list[tuple[int, int, int]]:
    """(n, sigma, x) for every member in [lo, hi)."""
    sig = sigma_segment(lo, hi, primes).values
    # one scratch array: d = 2n - sigma, then sigma mod d on deficient slots
    d = np.arange(lo, hi, 2, dtype=np.int64)
    d *= 2
    d -= sig
    deficient = d > 0
    np.remainder(sig, d, out=d, where=deficient)
    hits = np.flatnonzero(d == 0)
    out = []
    for i in hits[deficient[hits]].tolist():
        n = lo + 2 * i
        s = int(sig[i])
        out.append((n, s, s // (2 * n - s)))
    return out


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


def _run_segments(
    config: SearchConfig,
    primes: np.ndarray,
    first_slot: int,
    fh,
    found_so_far: int,
    *,
    checkpoint_every: int,
    stop_after_segments: int | None,
    progress: Callable[[int, int, int], None] | None,
) -> list[MemberRecord]:
    total = _total_slots(config.limit)
    span = config.segment_span
    bounds = []
    slot = first_slot
    while slot < total:
        end = min(slot + span, total)
        bounds.append((1 + 2 * slot, 1 + 2 * end))
        slot = end
    records: list[MemberRecord] = []
    found = found_so_far
    done = 0

    def checkpoint_now(next_lo: int) -> None:
        fh.flush()
        if config.checkpoint_path is not None:
            _write_checkpoint(
                config.checkpoint_path, Checkpoint(config.limit, next_lo, found)
            )

    with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
        futures = [pool.submit(_scan_segment, lo, hi, primes) for lo, hi in bounds]
        try:
            for (_, hi), future in zip(bounds, futures):
                lines = []
                for n, sigma_n, x in future.result():
                    rec = _record_for(n, sigma_n, x)
                    records.append(rec)
                    lines.append(f"{rec.n}\t{rec.x}\t{rec.product_class.value}\n")
                found += len(lines)
                if lines:
                    fh.write("".join(lines))
                done += 1
                if done % checkpoint_every == 0:
                    checkpoint_now(hi)
                if progress is not None:
                    progress(done, len(bounds), found)
                if stop_after_segments is not None and done >= stop_after_segments:
                    checkpoint_now(hi)
                    return records
        finally:
            # drop queued segments when returning early or unwinding on error
            for future in futures:
                future.cancel()
    checkpoint_now(1 + 2 * total)
    return records


def search_range(
    config: SearchConfig,
    *,
    checkpoint_every: int = 64,
    stop_after_segments: int | None = None,
    progress: Callable[[int, int, int], None] | None = None,
) -> list[MemberRecord]:
    """Search all odd n <= config.limit, writing the results file.

    Returns the member records in ascending order. `stop_after_segments`
    stops cleanly (checkpoint written) after that many segments, which
    tests use to simulate an interrupted run.
    """
    primes = sieve_primes(isqrt(config.limit))
    with open(config.results_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{RESULTS_MAGIC} limit={config.limit}\n")
        return _run_segments(
            config,
            primes,
            first_slot=0,
            fh=fh,
            found_so_far=0,
            checkpoint_every=checkpoint_every,
            stop_after_segments=stop_after_segments,
            progress=progress,
        )


def resume(
    config: SearchConfig,
    *,
    checkpoint_every: int = 64,
    stop_after_segments: int | None = None,
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
    primes = sieve_primes(isqrt(config.limit))
    with open(config.results_path, "a", encoding="ascii", newline="\n") as fh:
        new = _run_segments(
            config,
            primes,
            first_slot=(cp.next_lo - 1) // 2,
            fh=fh,
            found_so_far=cp.found_count,
            checkpoint_every=checkpoint_every,
            stop_after_segments=stop_after_segments,
            progress=progress,
        )
    return prior + new
