"""Run one `spoofscan search` in a fresh interpreter and report its costs.

Usage: python3 perfbench/child.py REPORT TRACE -- SEARCH_ARG...

Times `import spoofscan.cli` and the prime table for the search limit
(the set-up a user pays on every run), then calls
`spoofscan.cli.main(["search", ...])` with stdout discarded. With TRACE
set to 1 the layers of `spoofscan.search` are wrapped by the tracer and
the spans are written into the report. The report is one JSON object
written to the file REPORT.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import threading
import time
from math import isqrt
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    report_path, trace = argv[0], argv[1] == "1"
    search_args = argv[3:]
    limit = int(search_args[search_args.index("--limit") + 1])
    workers = int(search_args[search_args.index("--threads") + 1])

    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import spoofscan.cli
    from spoofscan import search
    from spoofscan.arith import sieve_primes

    imported = time.perf_counter()
    sieve_primes(isqrt(limit))
    tabled = time.perf_counter()
    if not Path(spoofscan.cli.__file__).resolve().is_relative_to(SRC):
        print(f"spoofscan imported from {spoofscan.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # imported only now: the tracer pulls in numpy, whose import is part
    # of the set-up timed above
    from tracing import Tracer

    tracer = Tracer()
    if trace:
        tracer.install(search)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = tracer.span("cli.main", spoofscan.cli.main, ["search", *search_args])
        wall = time.perf_counter() - t0
    tracer.uninstall()

    # the search's own peak plus the largest peak among the worker processes
    # it has reaped; ru_maxrss cannot add up workers that ran at the same time
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    report = {
        "workers": workers,
        "wall_s": wall,
        "import_s": imported - started,
        "table_s": tabled - imported,
        "rss_bytes": rss_kib * 1024,
        "main_thread": threading.get_ident(),
        "spans": tracer.spans if trace else [],
    }
    Path(report_path).write_text(json.dumps(report), encoding="ascii")
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
