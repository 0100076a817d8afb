"""Command-line interface.

Subcommands: search, check, spoof-check, verify-descartes, analyze,
fit, density, compare. Machine-readable output goes to stdout and is
stable across runs; progress and diagnostics go to stderr. Exit codes:
0 success, 1 domain or validation error, 2 I/O error, 130 search
interrupted by Ctrl-C.
"""

from __future__ import annotations

import argparse
import sys
import time

from .arith import factorize, sigma_single
from .analysis import (
    decade_counts,
    decade_csv,
    density_csv,
    density_series,
    ending_digit_histogram,
    fit_alpha,
    histogram_csv,
    residue_histogram,
)
from .membership import MemberRecord, check_membership, classify_witness
from .search import (
    MAX_WORKERS,
    IntegrityError,
    SearchConfig,
    read_results,
    resume,
    search_range,
)
from .sieve import DEFAULT_SPAN
from .spoof import (
    classify_spoof,
    expand,
    format_factorization,
    parse_factorization,
    spoof_sigma,
    witness_factorization,
)

DESCARTES_N = 9018009
DESCARTES_X = 22021
DESCARTES_D = 198585576189


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; flag problems are
    # validation errors here, so use exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def cmd_search(args) -> int:
    config = SearchConfig(
        limit=args.limit,
        results_path=args.out,
        segment_span=args.segment_size,
        worker_count=args.threads,
        checkpoint_path=args.checkpoint,
    )
    started = time.monotonic()
    last_report = [0.0]

    def progress(done, total, found):
        now = time.monotonic()
        if now - last_report[0] >= 0.5 or done == total:
            rate = done / max(now - started, 1e-9)
            eta = round((total - done) / rate)
            print(
                f"segment {done}/{total}, {rate:.1f} segments/s, {found} members, "
                f"ETA {eta // 3600}:{eta // 60 % 60:02d}:{eta % 60:02d}",
                file=sys.stderr,
            )
            last_report[0] = now

    try:
        if args.resume:
            records = resume(config, progress=progress)
        else:
            records = search_range(config, progress=progress)
    except KeyboardInterrupt:
        hint = "; resume with --resume" if args.checkpoint else ""
        print(f"search interrupted{hint}", file=sys.stderr)
        return 130
    print(f"found {len(records)} members up to {args.limit}")
    print(f"results written to {args.out}")
    return 0


def cmd_check(args) -> int:
    n = args.n
    if n < 1 or n % 2 == 0:
        return _fail(f"n must be odd and >= 1, got {n}")
    sigma_n = sigma_single(n)
    x = check_membership(n, sigma_n)
    print(f"n = {n}")
    print(f"sigma = {sigma_n}")
    if x is None:
        print("member = no")
        return 0
    cls = classify_witness(x)
    print("member = yes")
    print(f"x = {x}")
    print(f"class = {cls.value}")
    print(f"D = {n * x}")
    return 0


def cmd_spoof_check(args) -> int:
    qpf = parse_factorization(args.expression)
    n = expand(qpf)
    sigma = spoof_sigma(qpf)
    print(f"expression = {format_factorization(qpf)}")
    print(f"n = {n}")
    print(f"spoof_sigma = {sigma}")
    print(f"2n = {2 * n}")
    print(f"class = {classify_spoof(qpf).value}")
    return 0


def cmd_verify_descartes(args) -> int:
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{label}  {'ok' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    sigma_n = sigma_single(DESCARTES_N)
    check(f"sigma({DESCARTES_N}) = {sigma_n}", sigma_n == 18035199)
    x = check_membership(DESCARTES_N, sigma_n)
    check(f"witness x = {x}", x == DESCARTES_X)
    factors = factorize(DESCARTES_X)
    check(
        f"{DESCARTES_X} = 19^2*61, composite",
        factors == [(19, 2), (61, 1)],
    )
    cls = classify_witness(DESCARTES_X)
    check(f"product class = {cls.value}", cls.value == "ODD_SPOOF")
    record = MemberRecord(n=DESCARTES_N, x=DESCARTES_X, product_class=cls)
    qpf = witness_factorization(record)
    check(
        f"witness factorization = {format_factorization(qpf)}",
        qpf.pairs == ((3, 2), (7, 2), (11, 2), (13, 2), (22021, 1)),
    )
    d_value = expand(qpf)
    check(f"D = {DESCARTES_N} * {DESCARTES_X} = {d_value}", d_value == DESCARTES_D)
    sigma_spoof = spoof_sigma(qpf)
    check(
        f"spoof_sigma = {sigma_spoof} = 2 * {DESCARTES_D}",
        sigma_spoof == 2 * DESCARTES_D,
    )
    check(
        f"spoof class = {classify_spoof(qpf).value}",
        classify_spoof(qpf).value == "SPOOF_PERFECT",
    )
    if failures:
        print(f"{failures} check(s) FAILED")
        return 1
    print("all checks passed")
    return 0


def _complete_decades(limit: int, members: list[int]) -> list[tuple[int, int]]:
    """decade_counts for every decade 10^k <= limit; the members in the
    partial tail above the last one are dropped, and a limit below 10 has
    no rows."""
    k_max = 0
    while 10 ** (k_max + 1) <= limit:
        k_max += 1
    if k_max < 1:
        return []
    return decade_counts([n for n in members if n <= 10**k_max], k_max)


def cmd_analyze(args) -> int:
    limit, records = read_results(args.infile)
    members = [rec.n for rec in records]
    decades = _complete_decades(limit, members)
    residues = residue_histogram(members, args.mod)
    digits = ending_digit_histogram(members)
    if args.csv:
        blocks = []
        if decades:
            blocks.append(decade_csv(decades))
        blocks.append(histogram_csv(residues))
        blocks.append(histogram_csv(digits))
        print("\n".join(blocks), end="")
        return 0
    print(f"dataset: {len(members)} members up to {limit}")
    if decades:
        print()
        print(f"{'k':>2}  {'10^k':>14}  {'cumulative':>10}  {'delta':>6}")
        for k, (cum, delta) in enumerate(decades, start=1):
            print(f"{k:>2}  {10**k:>14}  {cum:>10}  {delta:>6}")
    print()
    print(f"{'residue mod ' + str(args.mod):>14}  {'count':>6}")
    for label, count in zip(residues.labels, residues.counts):
        print(f"{label:>14}  {count:>6}")
    print()
    print(f"{'ending digit':>14}  {'count':>6}")
    for label, count in zip(digits.labels, digits.counts):
        print(f"{label:>14}  {count:>6}")
    return 0


def _read_points_csv(path: str) -> list[tuple[float, float]]:
    points = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path} line {lineno}: expected 'k,count'")
            try:
                points.append((float(parts[0]), float(parts[1])))
            except ValueError:
                # only line 1 may be a header row
                if lineno > 1:
                    raise ValueError(f"{path} line {lineno}: expected numbers 'k,count'") from None
    return points


def cmd_fit(args) -> int:
    if args.points:
        points = _read_points_csv(args.points)
    else:
        limit, records = read_results(args.infile)
        members = [rec.n for rec in records]
        if args.decades:
            rows = _complete_decades(limit, members)
            if not rows:
                return _fail(f"limit {limit} has no complete decades to fit")
            points = [(float(10**k), float(cum)) for k, (cum, _) in enumerate(rows, start=1)]
        else:
            points = [(float(n), float(i)) for i, n in enumerate(members, start=1) if n >= 2]
    fit = fit_alpha(points, weighting=args.weighting)
    print(f"alpha = {fit.alpha!r}")
    print(f"rss = {fit.residual_sum_squares!r}")
    print(f"points = {fit.points_used}")
    print(f"weighting = {fit.weighting}")
    print("model: count ~ alpha*log(k), natural log")
    return 0


def cmd_density(args) -> int:
    limit, records = read_results(args.infile)
    series = density_series([rec.n for rec in records], limit)
    csv_text = density_csv(series)
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(csv_text)
    print(f"wrote {len(series)} density points to {args.out}")
    return 0


def _read_bfile(path: str) -> list[tuple[int, int]]:
    terms = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path} line {lineno}: expected '<index> <value>'")
            try:
                index, value = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path} line {lineno}: non-integer field") from None
            if index < 1:
                raise ValueError(f"{path} line {lineno}: index must be >= 1")
            terms.append((index, value))
    return terms


def cmd_compare(args) -> int:
    _, records = read_results(args.infile)
    members = [rec.n for rec in records]
    terms = _read_bfile(args.bfile)
    if not terms:
        print("agreement over empty range")
        print("warning: b-file contains no terms", file=sys.stderr)
        return 0
    compared = 0
    for index, value in terms:
        if index > len(members):
            continue
        compared += 1
        if members[index - 1] != value:
            print(
                f"mismatch at index {index}: results {members[index - 1]} != b-file {value}"
            )
            return 1
    print(f"compared {compared} terms: agreement")
    if compared < len(terms):
        print(
            f"warning: {len(terms) - compared} b-file terms beyond the results range",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spoofscan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="search all odd n up to a limit")
    p.add_argument("--limit", type=int, required=True, help="search bound (inclusive)")
    p.add_argument(
        "--threads", type=int, default=1, help=f"worker threads (1 to {MAX_WORKERS})"
    )
    p.add_argument(
        "--segment-size", type=int, default=DEFAULT_SPAN, help="odd slots per segment"
    )
    p.add_argument("--out", required=True, help="results file (v1 format)")
    p.add_argument("--checkpoint", default=None, help="checkpoint file path")
    p.add_argument(
        "--resume", action="store_true", help="continue from the checkpoint"
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("check", help="membership test for a single odd n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "spoof-check", help="classify a quasi-prime factorization like 3^2*7^2*11^2*13^2*22021"
    )
    p.add_argument("expression")
    p.set_defaults(func=cmd_spoof_check)

    p = sub.add_parser(
        "verify-descartes", help="verify the Descartes number end to end"
    )
    p.set_defaults(func=cmd_verify_descartes)

    p = sub.add_parser("analyze", help="tables for a results file")
    p.add_argument("--in", dest="infile", required=True, help="results file")
    p.add_argument("--mod", type=int, default=8, help="residue histogram modulus")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="least-squares alpha for count ~ alpha*log(k)")
    p.add_argument("--in", dest="infile", help="results file (fit at member points)")
    p.add_argument(
        "--decades", action="store_true", help="fit at decade points instead"
    )
    p.add_argument("--points", help="CSV file of k,count pairs to fit instead")
    p.add_argument(
        "--weighting",
        choices=("poisson", "uniform"),
        default="poisson",
        help="least-squares weighting (default poisson, 1/log k)",
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("density", help="write the density series CSV")
    p.add_argument("--in", dest="infile", required=True, help="results file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("compare", help="compare results against an OEIS b-file")
    p.add_argument("--in", dest="infile", required=True, help="results file")
    p.add_argument("--bfile", required=True, help="b-file path ('<index> <value>' lines)")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_fit and not (args.points or args.infile):
        return _fail("fit needs --in or --points")
    try:
        return args.func(args)
    except (IntegrityError, ValueError) as exc:
        # ValueError covers spoof.ParseError
        return _fail(str(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
