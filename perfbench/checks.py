"""Exactness checks on a search's output, and the sigma audit.

Each check takes the output of one search call and raises CheckFailed
with the problem when the output does not pass. The results file is parsed here
rather than with the package's reader, so a reader bug cannot hide a
writer bug; members are re-verified with the package's independent
trial-division path (`sigma_single` + `check_membership`), not the sieve.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import isqrt

from spoofscan import sieve
from spoofscan.arith import is_prime, sigma_single
from spoofscan.membership import check_membership, classify_witness

MAGIC = "#spoofscan v1 limit="
AUDIT_DRAWS = 16  # slots the audit draws of each kind


@dataclass(frozen=True)
class Expect:
    """What a workload's results file must hold; None skips that check."""

    records: int | None = None
    decades: tuple[int, ...] | None = None  # members <= 10^1, 10^2, ...
    odd_spoof: tuple[str, ...] | None = None  # "<n>\t<x>" of every ODD_SPOOF record
    sha256: str | None = None


@dataclass
class Output:
    limit: int
    results: bytes
    checkpoint: str
    expect: Expect
    records: list[tuple[int, int, str]] | None = None
    parse_error: str | None = None

    def __post_init__(self):
        try:
            self.records = parse_results(self.results, self.limit)
        except ValueError as exc:
            self.parse_error = str(exc)


def parse_results(data: bytes, limit: int) -> list[tuple[int, int, str]]:
    """(n, x, class) records of a v1 results file; ValueError if malformed."""
    text = data.decode("ascii")
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("results file does not end with a newline")
    if lines[0] != f"{MAGIC}{limit}":
        raise ValueError(f"bad header {lines[0]!r}")
    records = []
    for line in lines[1:-1]:
        fields = line.split("\t")
        if len(fields) != 3 or not (fields[0].isdigit() and fields[1].isdigit()):
            raise ValueError(f"bad record {line!r}")
        n, x = int(fields[0]), int(fields[1])
        if records and n <= records[-1][0]:
            raise ValueError(f"records not ascending at n={n}")
        if not 1 <= n <= limit:
            raise ValueError(f"record n={n} outside [1, {limit}]")
        records.append((n, x, fields[2]))
    return records


class CheckFailed(Exception):
    """An output check found a problem."""


def _parsed(out: Output):
    if out.records is None:
        raise CheckFailed(f"unparsable results file: {out.parse_error}")
    return out.records


def check_format(out: Output) -> None:
    _parsed(out)


def check_count(out: Output) -> None:
    want = out.expect.records
    if want is not None and len(_parsed(out)) != want:
        raise CheckFailed(f"{len(_parsed(out))} records, expected {want}")


def check_decades(out: Output) -> None:
    want = out.expect.decades
    if want is None:
        return
    got = tuple(
        sum(1 for n, _, _ in _parsed(out) if n <= 10**k) for k in range(1, len(want) + 1)
    )
    if got != want:
        raise CheckFailed(f"decade counts {list(got)}, expected {list(want)}")


def check_odd_spoof(out: Output) -> None:
    want = out.expect.odd_spoof
    got = tuple(f"{n}\t{x}" for n, x, cls in _parsed(out) if cls == "ODD_SPOOF")
    if want is not None and got != want:
        raise CheckFailed(f"ODD_SPOOF records {list(got)}, expected {list(want)}")


def check_no_perfect_candidate(out: Output) -> None:
    found = [n for n, _, cls in _parsed(out) if cls == "PERFECT_CANDIDATE"]
    if found:
        raise CheckFailed(f"PERFECT_CANDIDATE records at n={found}")


def check_sha256(out: Output) -> None:
    want = out.expect.sha256
    got = hashlib.sha256(out.results).hexdigest()
    if want is not None and got != want:
        raise CheckFailed(f"results sha256 {got}, pinned {want}")


def check_members(out: Output) -> None:
    for n, x, cls in _parsed(out):
        sigma_n = sigma_single(n)
        if check_membership(n, sigma_n) != x:
            raise CheckFailed(f"n={n}: sigma={sigma_n} does not give witness x={x}")
        if classify_witness(x).value != cls:
            raise CheckFailed(f"n={n}: class {cls}, expected {classify_witness(x).value}")


def check_checkpoint(out: Output) -> None:
    fields = dict(line.partition("=")[::2] for line in out.checkpoint.splitlines())
    want = {
        "limit": str(out.limit),
        "next": str(2 * ((out.limit + 1) // 2) + 1),
        "found": str(len(_parsed(out))),
    }
    if fields != want:
        raise CheckFailed(f"final checkpoint {fields}, expected {want}")


CHECKS = {
    "format": check_format,
    "count": check_count,
    "decades": check_decades,
    "odd_spoof": check_odd_spoof,
    "no_perfect_candidate": check_no_perfect_candidate,
    "sha256": check_sha256,
    "members": check_members,
    "checkpoint": check_checkpoint,
}


def run_checks(out: Output) -> list[str]:
    """Problems found by every check."""
    problems = []
    for name, check in CHECKS.items():
        try:
            check(out)
        except CheckFailed as exc:
            problems.append(f"{name}: {exc}")
    return problems


def _odd_multiple(q: int, lo: int, hi: int, rng: random.Random) -> int | None:
    """A random odd multiple of odd q in [lo, hi), or None."""
    first = -(-lo // q) * q
    if first % 2 == 0:
        first += q
    if first >= hi:
        return None
    return first + 2 * q * rng.randrange((hi - 1 - first) // (2 * q) + 1)


def audit_slots(lo: int, hi: int, rng: random.Random) -> list[int]:
    """Odd n in [lo, hi) to audit, drawn from rng.

    The draw favours the slots where a segmented sieve goes wrong: n
    divisible by a high prime power, n whose leftover cofactor is a prime
    just above sqrt(hi - 1), and n divisible by the largest sieving prime
    (alone and squared). The rest are uniform.
    """
    picks = {lo + 2 * rng.randrange((hi - lo) // 2) for _ in range(AUDIT_DRAWS)}
    small = [p for p in range(3, 100, 2) if is_prime(p)]
    for _ in range(AUDIT_DRAWS):
        p = rng.choice(small)
        best, q = None, p
        while q < hi:
            n = _odd_multiple(q, lo, hi, rng)
            if n is not None:
                best = n
            q *= p
        if best is not None:
            picks.add(best)
    root = isqrt(hi - 1)
    above = []
    q = root + 1
    while len(above) < 8:
        if q % 2 and is_prime(q):
            above.append(q)
        q += 1
    factors = above * (AUDIT_DRAWS // len(above))
    below = next((q for q in range(root, 2, -1) if q % 2 and is_prime(q)), None)
    if below is not None:
        factors += [below] * (AUDIT_DRAWS // 2) + [below * below] * (AUDIT_DRAWS // 2)
    for q in factors:
        n = _odd_multiple(q, lo, hi, rng)
        if n is not None:
            picks.add(n)
    return sorted(picks)


def audit(lo: int, hi: int, primes, rng: random.Random) -> tuple[int, list[str]]:
    """Compare sigma_segment with sigma_single at audit_slots(lo, hi).

    Returns (slots compared, mismatches).
    """
    seg = sieve.sigma_segment(lo, hi, primes)
    slots = audit_slots(lo, hi, rng)
    problems = []
    for n in slots:
        got, want = seg.sigma_of(n), sigma_single(n)
        if got != want:
            problems.append(f"audit: sigma_segment gives sigma({n}) = {got}, expected {want}")
    return len(slots), problems
