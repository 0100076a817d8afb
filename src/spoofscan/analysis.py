"""Statistics over member datasets.

Operates on plain ascending lists of member values n. Ratios are kept
as exact fractions internally and only rendered to decimal at output,
so results are identical across platforms.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from math import isfinite, log

__all__ = [
    "Histogram",
    "DensityFit",
    "decade_counts",
    "residue_histogram",
    "ending_digit_histogram",
    "density_series",
    "fit_alpha",
    "schnirelmann_glb",
    "ratio_decimal",
    "decade_csv",
    "histogram_csv",
    "density_csv",
]

# significant digits of a rendered ratio
_RATIO_DIGITS = 17


@dataclass(frozen=True)
class Histogram:
    labels: list[int]
    counts: list[int]

    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class DensityFit:
    """Fitted coefficient for the counting model count ~ alpha * log(k),
    equivalently the density model alpha * log(k) / k. Natural log."""

    alpha: float
    residual_sum_squares: float
    points_used: int
    weighting: str = "poisson"


def _check_ascending(members, limit=None) -> list[int]:
    ms = list(members)
    for prev, cur in zip(ms, ms[1:]):
        if cur <= prev:
            raise ValueError(f"members not ascending at {cur}")
    if limit is not None and ms and ms[-1] > limit:
        raise ValueError(f"member {ms[-1]} exceeds limit {limit}")
    return ms


def decade_counts(members, k_max: int) -> list[tuple[int, int]]:
    """Cumulative and per-interval member counts for 10^1 .. 10^k_max.

    Returns [(count up to 10^k, count in (10^(k-1), 10^k]), ...].
    Members above 10^k_max are a range error.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    ms = _check_ascending(members)
    if ms and ms[-1] > 10**k_max:
        raise ValueError(f"member {ms[-1]} exceeds 10^{k_max}")
    rows = []
    prev = 0
    for k in range(1, k_max + 1):
        cum = bisect_right(ms, 10**k)
        rows.append((cum, cum - prev))
        prev = cum
    return rows


def residue_histogram(members, modulus: int = 8) -> Histogram:
    """Counts of members in each residue class mod `modulus`.

    Members are odd, so for an even modulus only the odd residue classes
    are reachable and only those are listed (mod 8 gives 1, 3, 5, 7).
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    labels = list(range(1, modulus, 2)) if modulus % 2 == 0 else list(range(modulus))
    index = {r: i for i, r in enumerate(labels)}
    counts = [0] * len(labels)
    for n in members:
        if n % 2 == 0:
            raise ValueError(f"even member {n} in an odd-only dataset")
        counts[index[n % modulus]] += 1
    return Histogram(labels=labels, counts=counts)


def ending_digit_histogram(members) -> Histogram:
    """Counts of members by last decimal digit (1, 3, 5, 7, 9)."""
    return residue_histogram(members, 10)


def density_series(members, limit: int) -> list[tuple[int, Fraction]]:
    """(n, count_up_to_n / n) at each member n, as exact fractions."""
    ms = _check_ascending(members, limit)
    return [(n, Fraction(i, n)) for i, n in enumerate(ms, start=1)]


def fit_alpha(points, weighting: str = "poisson") -> DensityFit:
    """Least-squares alpha for count ~ alpha * log(k), natural log.

    `points` are finite (k, count) pairs with k >= 2. The default minimizes
    sum((count - alpha*log k)^2 / log k), i.e. weights each squared
    residual by 1/log(k); counts have variance roughly proportional to
    their size, and this keeps early decades from being swamped, giving
    alpha = sum(count) / sum(log k). weighting="uniform" is the plain
    through-origin form alpha = sum(count*log k) / sum(log k ^ 2).
    residual_sum_squares is always the unweighted sum of squared
    residuals of the counting model.
    """
    pts = [(float(k), float(c)) for k, c in points]
    if not pts:
        raise ValueError("need at least one point")
    if not all(isfinite(k) and isfinite(c) for k, c in pts):
        raise ValueError("every k and count must be finite")
    if any(k < 2 for k, _ in pts):
        raise ValueError("all k must be >= 2")
    logs = [log(k) for k, _ in pts]
    counts = [c for _, c in pts]
    if weighting == "poisson":
        alpha = sum(counts) / sum(logs)
    elif weighting == "uniform":
        alpha = sum(c * t for c, t in zip(counts, logs)) / sum(t * t for t in logs)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    rss = sum((c - alpha * t) ** 2 for c, t in zip(counts, logs))
    return DensityFit(
        alpha=alpha,
        residual_sum_squares=rss,
        points_used=len(pts),
        weighting=weighting,
    )


def schnirelmann_glb(members, limit: int) -> tuple[Fraction, int]:
    """Minimum of count_up_to(n)/n over ALL integers 1 <= n <= limit.

    Requires the member list to be complete up to `limit`. Returns the
    exact minimum ratio and the smallest n attaining it. Within a
    stretch of constant count the ratio decreases in n, so only stretch
    right-endpoints can attain the minimum.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    ms = _check_ascending(members, limit)
    if not ms or ms[0] > 1:
        # a zero-count prefix exists; ratio 0 is attained first at n = 1
        return Fraction(0), 1
    best = Fraction(1, 1)
    best_n = 1
    for i, m in enumerate(ms, start=1):
        right = ms[i] - 1 if i < len(ms) else limit
        ratio = Fraction(i, right)
        if ratio < best or (ratio == best and right < best_n):
            best = ratio
            best_n = right
    return best, best_n


def ratio_decimal(value: Fraction) -> str:
    """Exact decimal rendering of a ratio in (0, 1], _RATIO_DIGITS
    significant digits correctly rounded, trailing zeros stripped."""
    num, den = value.numerator, value.denominator
    if not 0 < num <= den:
        raise ValueError(f"ratio must be in (0, 1], got {value}")
    # the quotient of two exact Decimals, rounded once
    context = Context(prec=_RATIO_DIGITS, rounding=ROUND_HALF_UP)
    return format(context.divide(Decimal(num), Decimal(den)).normalize(context), "f")


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def decade_csv(rows: list[tuple[int, int]]) -> str:
    return _csv("k,cumulative,delta", ((k, *row) for k, row in enumerate(rows, start=1)))


def histogram_csv(hist: Histogram) -> str:
    return _csv("label,count", zip(hist.labels, hist.counts))


def density_csv(series: list[tuple[int, Fraction]]) -> str:
    return _csv("n,ratio", ((n, ratio_decimal(ratio)) for n, ratio in series))
