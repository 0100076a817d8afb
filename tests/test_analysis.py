import math
import random
from fractions import Fraction

import pytest

from spoofscan.analysis import (
    DensityFit,
    decade_counts,
    decade_csv,
    density_csv,
    density_series,
    ending_digit_histogram,
    fit_alpha,
    histogram_csv,
    ratio_decimal,
    residue_histogram,
    schnirelmann_glb,
)

# Known cumulative member counts below 10^k, k = 1..12 (OEIS A222263).
KNOWN_CUMULATIVE = [2, 3, 7, 15, 28, 48, 81, 143, 227, 319, 459, 692]


def test_decade_counts_examples(bruteforce_1e4):
    members = [rec.n for rec in bruteforce_1e4]
    rows = decade_counts(members, 4)
    assert [cum for cum, _ in rows] == [2, 3, 7, 15]
    assert [delta for _, delta in rows] == [2, 1, 4, 8]


def test_decade_counts_trivial_and_errors():
    assert decade_counts([1], 1) == [(1, 1)]
    with pytest.raises(ValueError):
        decade_counts([101], 1)
    with pytest.raises(ValueError):
        decade_counts([1], 0)


def test_decade_deltas_sum_to_cumulative(search_1e6):
    records, _ = search_1e6
    rows = decade_counts([r.n for r in records], 6)
    assert sum(delta for _, delta in rows) == rows[-1][0] == 48


def test_residue_histogram_example():
    hist = residue_histogram([1, 3, 15], 8)
    assert hist.labels == [1, 3, 5, 7]
    assert hist.counts == [1, 1, 0, 1]


def test_residue_histogram_empty_and_odd_modulus():
    assert residue_histogram([], 8).counts == [0, 0, 0, 0]
    hist = residue_histogram([1, 3, 15], 3)
    assert hist.labels == [0, 1, 2]
    assert hist.counts == [2, 1, 0]  # 3 and 15 are 0 mod 3, 1 is 1 mod 3


def test_residue_histogram_rejects_even_member():
    with pytest.raises(ValueError):
        residue_histogram([2], 8)


def test_ending_digit_examples():
    hist = ending_digit_histogram([1, 3, 15])
    assert hist.labels == [1, 3, 5, 7, 9]
    assert hist.counts == [1, 1, 1, 0, 0]
    assert ending_digit_histogram([5]).counts == [0, 0, 1, 0, 0]
    with pytest.raises(ValueError):
        ending_digit_histogram([10])


def test_histogram_totals_match_dataset(search_1e6):
    records, _ = search_1e6
    members = [r.n for r in records]
    for modulus in (2, 3, 8, 16, 100):
        assert residue_histogram(members, modulus).total() == len(members)
    assert ending_digit_histogram(members).total() == len(members)


def test_density_series():
    series = density_series([1, 3, 15], 100)
    assert series == [(1, Fraction(1)), (3, Fraction(2, 3)), (15, Fraction(1, 5))]
    assert density_series([1], 1) == [(1, Fraction(1))]
    for _, ratio in density_series([1, 3, 15], 100):
        assert 0 < ratio <= 1


def test_ratio_decimal():
    assert ratio_decimal(Fraction(1)) == "1"
    assert ratio_decimal(Fraction(1, 5)) == "0.2"
    assert ratio_decimal(Fraction(2, 3)) == "0.66666666666666667"
    assert ratio_decimal(Fraction(3, 100)) == "0.03"
    assert ratio_decimal(Fraction(1, 3)) == "0.33333333333333333"
    assert ratio_decimal(Fraction(1, 10**12)) == "0.000000000001"
    # correctly rounded at the 17th significant digit
    assert ratio_decimal(Fraction(10**17 - 1, 10**17)) == "0.99999999999999999"
    assert ratio_decimal(Fraction(10**18 - 1, 10**18)) == "1"


def test_fit_recovers_synthetic_alpha_exactly():
    points = [(10**k, 10 * math.log(10**k)) for k in range(1, 9)]
    for weighting in ("poisson", "uniform"):
        fit = fit_alpha(points, weighting=weighting)
        assert abs(fit.alpha - 10) <= 1e-12 * 10
        assert fit.residual_sum_squares <= 1e-18
        assert fit.points_used == 8
    unit = fit_alpha([(10**k, math.log(10**k)) for k in range(1, 9)])
    assert abs(unit.alpha - 1) <= 1e-12


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_alpha([])
    with pytest.raises(ValueError):
        fit_alpha([(1, 5.0)])
    with pytest.raises(ValueError):
        fit_alpha([(10, 1.0)], weighting="cubic")
    for bad in [math.nan, math.inf, -math.inf]:
        with pytest.raises(ValueError):
            fit_alpha([(bad, 5.0), (100, 3.0)])
        with pytest.raises(ValueError):
            fit_alpha([(10, bad), (100, 3.0)])


def test_fit_on_known_decade_counts():
    points = [(10**k, c) for k, c in enumerate(KNOWN_CUMULATIVE, start=1)]
    fit = fit_alpha(points)
    assert 8 <= fit.alpha <= 12
    assert fit.alpha == pytest.approx(sum(KNOWN_CUMULATIVE) / (78 * math.log(10)))
    # the unweighted form overshoots on the same data; pinned for regression
    assert fit_alpha(points, weighting="uniform").alpha == pytest.approx(13.9068, abs=1e-3)


def test_fit_agrees_with_numeric_minimization():
    import numpy as np

    minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
    rng = random.Random(7)
    for weighting in ("poisson", "uniform"):
        for _ in range(20):
            points = [
                (rng.uniform(2, 1e9), rng.uniform(0, 500))
                for _ in range(rng.randint(1, 30))
            ]
            logs = np.array([math.log(k) for k, _ in points])
            counts = np.array([c for _, c in points])
            w = 1.0 / logs if weighting == "poisson" else np.ones_like(logs)
            fit = fit_alpha(points, weighting=weighting)
            # QR-based weighted least squares, independent of the closed form
            sw = np.sqrt(w)
            solved, *_ = np.linalg.lstsq((logs * sw)[:, None], counts * sw, rcond=None)
            assert abs(fit.alpha - solved[0]) <= 1e-9 * max(1.0, abs(fit.alpha))
            # scalar minimizer sanity check; the quadratic is numerically
            # flat near its minimum, so only ~1e-6 of x-precision exists
            objective = lambda a: float(np.sum(w * (counts - a * logs) ** 2))
            best = minimize_scalar(
                objective, bounds=(-1e4, 1e4), method="bounded", options={"xatol": 1e-12}
            )
            assert abs(fit.alpha - best.x) <= 1e-5 * max(1.0, abs(fit.alpha))


def test_schnirelmann_examples():
    assert schnirelmann_glb([1, 3, 15], 100) == (Fraction(3, 100), 100)
    assert schnirelmann_glb([1], 1) == (Fraction(1), 1)
    # 1/2 at n=2 ties 2/4 at n=4; smallest attaining n wins
    assert schnirelmann_glb([1, 3], 4) == (Fraction(1, 2), 2)


def test_schnirelmann_zero_prefix():
    assert schnirelmann_glb([], 10) == (Fraction(0), 1)
    assert schnirelmann_glb([5], 10) == (Fraction(0), 1)


def test_schnirelmann_matches_full_scan():
    rng = random.Random(11)
    for _ in range(50):
        limit = rng.randint(1, 400)
        members = sorted(rng.sample(range(1, limit + 1), rng.randint(0, min(20, limit))))
        expected = None
        count = 0
        idx = 0
        for n in range(1, limit + 1):
            while idx < len(members) and members[idx] == n:
                count += 1
                idx += 1
            ratio = Fraction(count, n)
            if expected is None or ratio < expected[0]:
                expected = (ratio, n)
        assert schnirelmann_glb(members, limit) == expected, (members, limit)


def test_schnirelmann_nonincreasing_over_growing_limits(search_1e6):
    records, _ = search_1e6
    members = [r.n for r in records]
    previous = None
    for k in range(2, 7):
        limit = 10**k
        ratio, _ = schnirelmann_glb([n for n in members if n <= limit], limit)
        if previous is not None:
            assert ratio <= previous
        previous = ratio


def test_csv_formats():
    assert decade_csv([(2, 2), (3, 1)]) == "k,cumulative,delta\n1,2,2\n2,3,1\n"
    hist = residue_histogram([1, 3, 15], 8)
    assert histogram_csv(hist) == "label,count\n1,1\n3,1\n5,0\n7,1\n"
    series = density_series([1, 3, 15], 100)
    assert density_csv(series) == "n,ratio\n1,1\n3,0.66666666666666667\n15,0.2\n"


def test_density_fit_dataclass():
    fit = DensityFit(alpha=10.0, residual_sum_squares=0.0, points_used=3)
    assert fit.weighting == "poisson"
