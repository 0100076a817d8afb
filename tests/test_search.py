import time
from math import isqrt

import pytest

from spoofscan import search
from spoofscan.arith import sieve_primes, sigma_single
from spoofscan.membership import ProductClass, check_membership, membership_bruteforce
from spoofscan.search import (
    MAX_LIMIT,
    MAX_WORKERS,
    Checkpoint,
    IntegrityError,
    SearchConfig,
    read_checkpoint,
    read_results,
    resume,
    _scan_segment,
    search_range,
)
from spoofscan.sieve import MAX_HI


def interrupt_at(segment):
    """A progress callback that stops a run after `segment` segments, as
    Ctrl-C does; it stops on a checkpoint when segment x span is a multiple
    of CHECKPOINT_SLOTS."""

    def progress(done, total, found):
        if done == segment:
            raise KeyboardInterrupt

    return progress


def run(tmp_path, name="out.txt", **kwargs):
    kwargs.setdefault("segment_span", 1024)
    config = SearchConfig(results_path=tmp_path / name, **kwargs)
    records = search_range(config)
    return config, records


def test_limit_10(tmp_path):
    _, records = run(tmp_path, limit=10)
    assert [(r.n, r.x, r.product_class) for r in records] == [
        (1, 1, ProductClass.UNIT),
        (3, 2, ProductClass.EVEN_SPOOF),
    ]


def test_limit_100(tmp_path):
    _, records = run(tmp_path, limit=100)
    assert [(r.n, r.x) for r in records] == [(1, 1), (3, 2), (15, 4)]


def test_results_file_format(tmp_path):
    config, records = run(tmp_path, limit=100)
    text = (tmp_path / "out.txt").read_text()
    assert text == "#spoofscan v1 limit=100\n1\t1\tUNIT\n3\t2\tEVEN_SPOOF\n15\t4\tEVEN_SPOOF\n"
    limit, parsed = read_results(config.results_path)
    assert limit == 100
    assert parsed == records


def test_matches_bruteforce_to_1e4(tmp_path):
    _, records = run(tmp_path, limit=10**4)
    assert records == membership_bruteforce(10**4)


def test_deterministic_across_workers_and_spans(tmp_path):
    reference = None
    for name, workers, span in [
        ("a.txt", 1, 2048),
        ("b.txt", 4, 2048),
        ("c.txt", 4, 8192),
        ("d.txt", 3, 1024),
    ]:
        config = SearchConfig(
            limit=10**5, results_path=tmp_path / name, worker_count=workers, segment_span=span
        )
        search_range(config)
        data = (tmp_path / name).read_bytes()
        if reference is None:
            reference = data
        assert data == reference, name


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        SearchConfig(limit=0, results_path=tmp_path / "x.txt")
    with pytest.raises(ValueError):
        SearchConfig(limit=10, results_path=tmp_path / "x.txt", worker_count=0)
    SearchConfig(limit=10, results_path=tmp_path / "x.txt", worker_count=MAX_WORKERS)
    with pytest.raises(ValueError, match="worker_count"):
        SearchConfig(limit=10, results_path=tmp_path / "x.txt", worker_count=MAX_WORKERS + 1)
    with pytest.raises(ValueError):
        SearchConfig(limit=10, results_path=tmp_path / "x.txt", segment_span=512)


@pytest.mark.parametrize("lo", [1, 945])
def test_scan_segment_matches_membership(lo):
    hi = lo + 2 * 1024
    sigmas = {n: sigma_single(n) for n in range(lo, hi, 2)}
    assert any(s >= 2 * n for n, s in sigmas.items())  # abundant slots, d <= 0
    expected = []
    for n, s in sigmas.items():
        if check_membership(n, s) is not None:
            expected.append((n, s))
    assert expected
    assert _scan_segment(lo, hi, sieve_primes(isqrt(hi))) == expected


def test_record_for_takes_the_witness_from_check_membership():
    # sigma(9) = 13 and d = 18 - 13 = 5 does not divide it: not a member,
    # so a kernel that reported it has a bug
    with pytest.raises(AssertionError, match="n=9"):
        search._record_for(9, 13)
    rec = search._record_for(9018009, 18035199)
    assert (rec.n, rec.x, rec.product_class) == (9018009, 22021, ProductClass.ODD_SPOOF)


def test_limit_bound(tmp_path):
    assert MAX_LIMIT >= 10**12
    assert MAX_LIMIT + 2 <= MAX_HI  # every segment of a search fits the sieve
    SearchConfig(limit=MAX_LIMIT, results_path=tmp_path / "x.txt")
    with pytest.raises(ValueError, match="limit"):
        SearchConfig(limit=MAX_LIMIT + 1, results_path=tmp_path / "x.txt")


def test_checkpoint_written_and_complete(tmp_path):
    config = SearchConfig(
        limit=10**4,
        results_path=tmp_path / "out.txt",
        checkpoint_path=tmp_path / "cp.txt",
        segment_span=1024,
    )
    search_range(config)
    cp = read_checkpoint(config.checkpoint_path)
    assert cp.limit == 10**4
    assert cp.next_lo > 10**4
    assert cp.found_count == 15


def test_interrupt_and_resume_byte_identical(tmp_path, monkeypatch):
    full_config = SearchConfig(limit=10**5, results_path=tmp_path / "full.txt", segment_span=1024)
    search_range(full_config)
    expected = (tmp_path / "full.txt").read_bytes()

    config = SearchConfig(
        limit=10**5,
        results_path=tmp_path / "part.txt",
        checkpoint_path=tmp_path / "cp.txt",
        segment_span=1024,
        worker_count=2,
    )
    monkeypatch.setattr(search, "CHECKPOINT_SLOTS", 20 * 1024)
    with pytest.raises(KeyboardInterrupt):
        search_range(config, progress=interrupt_at(20))
    cp = read_checkpoint(config.checkpoint_path)
    assert cp.next_lo == 1 + 2 * 20 * 1024
    partial_bytes = (tmp_path / "part.txt").read_bytes()
    assert partial_bytes != expected  # genuinely unfinished
    assert expected.startswith(partial_bytes)  # flushed output is a prefix
    assert len(read_results(config.results_path)[1]) == cp.found_count

    records = resume(config)
    assert (tmp_path / "part.txt").read_bytes() == expected
    assert records == search_range(full_config)  # same record list as a fresh run


def test_resume_completed_checkpoint_is_noop(tmp_path):
    config = SearchConfig(
        limit=10**4,
        results_path=tmp_path / "out.txt",
        checkpoint_path=tmp_path / "cp.txt",
    )
    records = search_range(config)
    before = (tmp_path / "out.txt").read_bytes()
    assert resume(config) == records
    assert (tmp_path / "out.txt").read_bytes() == before


def test_resume_detects_found_count_mismatch(tmp_path, monkeypatch):
    config = SearchConfig(
        limit=10**5,
        results_path=tmp_path / "out.txt",
        checkpoint_path=tmp_path / "cp.txt",
        segment_span=1024,
    )
    monkeypatch.setattr(search, "CHECKPOINT_SLOTS", 10 * 1024)
    with pytest.raises(KeyboardInterrupt):
        search_range(config, progress=interrupt_at(10))
    cp = read_checkpoint(config.checkpoint_path)
    (config.checkpoint_path).write_text(
        f"limit={cp.limit}\nnext={cp.next_lo}\nfound={cp.found_count + 1}\n"
    )
    with pytest.raises(IntegrityError, match="found"):
        resume(config)


def test_resume_detects_limit_mismatch(tmp_path):
    config = SearchConfig(
        limit=10**4,
        results_path=tmp_path / "out.txt",
        checkpoint_path=tmp_path / "cp.txt",
    )
    search_range(config)  # one segment
    other = SearchConfig(
        limit=2 * 10**4,
        results_path=tmp_path / "out.txt",
        checkpoint_path=tmp_path / "cp.txt",
    )
    with pytest.raises(IntegrityError, match="limit"):
        resume(other)


def test_resume_requires_checkpoint_path(tmp_path):
    config = SearchConfig(limit=10, results_path=tmp_path / "out.txt")
    with pytest.raises(ValueError):
        resume(config)


def test_read_results_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("#spoofscan v1 limit=100\n1\t1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_results(bad)
    bad.write_text("not a results file\n")
    with pytest.raises(ValueError, match="line 1"):
        read_results(bad)
    bad.write_text("#spoofscan v1 limit=100\n3\t2\tEVEN_SPOOF\n1\t1\tUNIT\n")
    with pytest.raises(ValueError, match="ascending"):
        read_results(bad)


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "cp.txt"
    path.write_text("limit=100\nnext=51\nfound=3\n")
    assert read_checkpoint(path) == Checkpoint(limit=100, next_lo=51, found_count=3)
    path.write_text("limit=100\n")
    with pytest.raises(IntegrityError):
        read_checkpoint(path)


# the names perfbench's tracer wraps on this module (TRACED in
# perfbench/tracing.py): its layer metrics are missing unless the search
# looks each up here at call time, as many times as checked below
TRACED = (
    "sieve_primes",
    "sigma_segment",
    "_scan_segment",
    "_record_for",
    "_write_checkpoint",
    "read_checkpoint",
    "read_results",
)


def test_traced_names_are_called_through_the_module(tmp_path, monkeypatch):
    calls = {name: [] for name in TRACED}

    def counted(name, inner):
        def call(*args, **kwargs):
            result = inner(*args, **kwargs)
            calls[name].append((args, result))
            return result

        return call

    for name in TRACED:
        monkeypatch.setattr(search, name, counted(name, getattr(search, name)))
    limit, span = 10**5, 1024
    config = SearchConfig(
        limit=limit,
        results_path=tmp_path / "out.txt",
        checkpoint_path=tmp_path / "cp.txt",
        segment_span=span,
        worker_count=2,
    )
    starts = list(range(1, limit + 1, 2 * span))

    def check(records, starts, resumed):
        for name in ("sigma_segment", "_scan_segment"):
            assert sorted(args[0] for args, _ in calls[name]) == starts, name
        assert calls["sieve_primes"]
        assert calls["_write_checkpoint"]
        assert len(calls["_record_for"]) == len(records)
        assert len(calls["read_checkpoint"]) == len(calls["read_results"]) == resumed
        for made in calls.values():
            made.clear()

    records = search_range(config)
    # the tracer counts deficient slots from the values of each lean segment
    _, lean = calls["sigma_segment"][3]
    assert lean.values.tolist() == [sigma_single(n) for n in range(lean.lo, lean.hi, 2)]
    check(records, starts, 0)
    # a resume of the last 8 segments, as after an interrupt there
    next_lo = starts[-8]
    header, *lines = (tmp_path / "out.txt").read_text().splitlines(keepends=True)
    kept = [line for line in lines if int(line.split("\t")[0]) < next_lo]
    (tmp_path / "out.txt").write_text(header + "".join(kept))
    (tmp_path / "cp.txt").write_text(f"limit={limit}\nnext={next_lo}\nfound={len(kept)}\n")
    assert resume(config) == records
    check([r for r in records if r.n >= next_lo], starts[-8:], 1)


def test_ctrl_c_leaves_resumable_pair(tmp_path, search_1e6, monkeypatch):
    config = SearchConfig(
        limit=10**6,
        results_path=tmp_path / "part.txt",
        checkpoint_path=tmp_path / "cp.txt",
        segment_span=1024,
        worker_count=2,
    )
    # checkpoints every 64 segments, as at the default span: segment 10 of
    # 489 comes before the first, so the run stops on the checkpoint the
    # search wrote before the results header
    monkeypatch.setattr(search, "CHECKPOINT_SLOTS", 64 * 1024)
    with pytest.raises(KeyboardInterrupt):
        search_range(config, progress=interrupt_at(10))
    assert read_checkpoint(config.checkpoint_path) == Checkpoint(10**6, 1, 0)
    # the resume runs from slot 0 and is interrupted in turn
    with pytest.raises(KeyboardInterrupt):
        resume(config, progress=interrupt_at(200))
    cp = read_checkpoint(config.checkpoint_path)
    assert cp.next_lo == 1 + 2 * 192 * 1024  # the last checkpoint before segment 200
    assert len(read_results(config.results_path)[1]) == cp.found_count
    resume(config)
    assert (tmp_path / "part.txt").read_bytes() == search_1e6[1].read_bytes()


def test_in_flight_window_is_bounded(tmp_path, monkeypatch):
    workers, span = 2, 1024
    total = (10**6 + 1) // 2
    started = []  # slots of each segment a worker has started
    violations = []

    def scan(lo, hi, primes):
        started.append((hi - lo) // 2)
        return []

    def progress(done, total_segments, found):
        bound = search.WINDOW_PER_WORKER * workers * max(span, search.TASK_SLOTS)
        if sum(started) > min(done * span, total) + bound:
            violations.append((done, len(started)))
        if done == 1:
            time.sleep(0.2)  # let the workers drain whatever has been submitted

    monkeypatch.setattr(search, "_scan_segment", scan)
    config = SearchConfig(
        limit=10**6, results_path=tmp_path / "out.txt", segment_span=span, worker_count=workers
    )
    for per_task in (1, 4):  # tasks of one segment, and of four
        monkeypatch.setattr(search, "TASK_SLOTS", per_task * span)
        started.clear()
        search_range(config, progress=progress)
        assert len(started) == 489 and sum(started) == total
        assert violations == [], per_task


def test_task_edges_keep_bytes_and_checkpoints(tmp_path, monkeypatch):
    # tasks of 3 segments against checkpoints every 8192 slots, 8 segments of
    # 1024: checkpoints fall in the middle of tasks, and the last of the 49
    # segments is a task alone
    written = []
    shipped = search.CHECKPOINT_SLOTS

    def write_checkpoint(path, cp, inner=search._write_checkpoint):
        written.append(cp.next_lo)
        inner(path, cp)

    monkeypatch.setattr(search, "_write_checkpoint", write_checkpoint)
    monkeypatch.setattr(search, "CHECKPOINT_SLOTS", 8192)

    def config(name, workers, span=1024, limit=10**5):
        return SearchConfig(
            limit=limit,
            results_path=tmp_path / name,
            checkpoint_path=tmp_path / (name + ".cp"),
            segment_span=span,
            worker_count=workers,
        )

    def searched(per_task, cfg, run=search_range, **kwargs):
        monkeypatch.setattr(search, "TASK_SLOTS", per_task * 1024)
        written.clear()
        run(cfg, **kwargs)
        return cfg.results_path.read_bytes()

    expected = searched(1, config("one.txt", 1))
    checkpoints = list(written)
    # before the header, at each of the 6 multiples of 8192 slots, the last
    assert checkpoints == [1] + [1 + 2 * 8192 * k for k in range(1, 7)] + [10**5 + 1]
    for workers in (1, 2):
        assert searched(3, config(f"three-{workers}.txt", workers)) == expected
        assert written == checkpoints
        # the same grid at every span that divides it
        for span in (2048, 4096, 8192):
            assert searched(1, config(f"span-{span}-{workers}.txt", workers, span)) == expected
            assert written == checkpoints, span

    # segment 8 is the middle one of the third task
    part = config("part.txt", 2)
    with pytest.raises(KeyboardInterrupt):
        searched(3, part, progress=interrupt_at(8))
    assert read_checkpoint(part.checkpoint_path).next_lo == 1 + 2 * 8 * 1024
    resume(part)
    assert part.results_path.read_bytes() == expected

    # a resume from a checkpoint off the grid, after 5 segments of 1024,
    # writes the grid's remaining checkpoints; with segments of 4096 from
    # there, each at the first segment end past a multiple of 8192
    next_lo = 1 + 2 * 5 * 1024
    header, *lines = expected.decode().splitlines(keepends=True)
    kept = [line for line in lines if int(line.split("\t")[0]) < next_lo]
    for span, grid in [
        (1024, checkpoints[1:]),
        (4096, [1 + 2 * (8192 * k + 1024) for k in range(1, 6)] + [10**5 + 1]),
    ]:
        resumed = config(f"resumed-{span}.txt", 2, span)
        resumed.results_path.write_text(header + "".join(kept))
        resumed.checkpoint_path.write_text(f"limit={10**5}\nnext={next_lo}\nfound={len(kept)}\n")
        assert searched(3, resumed, run=resume) == expected
        assert written == grid, span
        assert read_checkpoint(resumed.checkpoint_path).found_count == len(lines)

    # a search shaped like fine-1e7 (1221 segments of 4096, 64 to a task) at
    # the shipped cadence checkpoints before the header and at the end only
    monkeypatch.setattr(search, "CHECKPOINT_SLOTS", shipped)
    searched(256, config("fine.txt", 2, span=4096, limit=10**7))
    assert written == [1, 10**7 + 1]


def test_memory_bounded_at_max_limit(tmp_path, monkeypatch):
    config = SearchConfig(
        limit=MAX_LIMIT,
        results_path=tmp_path / "out.txt",
        checkpoint_path=tmp_path / "cp.txt",
        segment_span=1024,
        worker_count=2,
    )
    monkeypatch.setattr(search, "CHECKPOINT_SLOTS", 2 * 1024)
    with pytest.raises(KeyboardInterrupt):
        search_range(config, progress=interrupt_at(2))
    _, records = read_results(config.results_path)
    assert records == membership_bruteforce(4095)
    assert len(records) == 11 and records[-1].n == 2295
    assert read_checkpoint(config.checkpoint_path) == Checkpoint(MAX_LIMIT, 4097, 11)
