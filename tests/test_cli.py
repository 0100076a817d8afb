import itertools
import threading

import pytest

from spoofscan import cli, search
from spoofscan.cli import main
from spoofscan.search import MAX_LIMIT, MAX_WORKERS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_member(capsys):
    code, out, _ = run_cli(capsys, "check", "9018009")
    assert code == 0
    assert "sigma = 18035199" in out
    assert "member = yes" in out
    assert "x = 22021" in out
    assert "class = ODD_SPOOF" in out
    assert "D = 198585576189" in out


def test_check_non_member(capsys):
    code, out, _ = run_cli(capsys, "check", "5")
    assert code == 0
    assert "sigma = 6" in out
    assert "member = no" in out


def test_check_rejects_even(capsys):
    code, out, err = run_cli(capsys, "check", "4")
    assert code == 1
    assert out == ""
    assert err == "error: n must be odd and >= 1, got 4\n"


def test_check_rejects_zero(capsys):
    code, out, err = run_cli(capsys, "check", "0")
    assert code == 1
    assert out == ""
    assert err == "error: sigma is undefined for 0\n"


def test_spoof_check_descartes(capsys):
    code, out, _ = run_cli(capsys, "spoof-check", "3^2*7^2*11^2*13^2*22021")
    assert code == 0
    assert "spoof_sigma = 397171152378" in out
    assert "class = SPOOF_PERFECT" in out


def test_spoof_check_trivial(capsys):
    code, out, _ = run_cli(capsys, "spoof-check", "2*3")
    assert code == 0
    assert "class = SPOOF_PERFECT" in out


def test_spoof_check_syntax_error(capsys):
    code, _, err = run_cli(capsys, "spoof-check", "3^")
    assert code == 1
    assert "offset 2" in err


@pytest.mark.parametrize("expression", ["2^1000000000000", "3^1000000000", "2^128", "3^81"])
def test_spoof_check_rejects_expansion_past_128_bits(capsys, expression):
    code, out, err = run_cli(capsys, "spoof-check", expression)
    assert code == 1
    assert out == ""
    assert err == "error: expansion exceeds 128 bits\n"


def test_verify_descartes(capsys):
    code, out, _ = run_cli(capsys, "verify-descartes")
    assert code == 0
    assert "all checks passed" in out
    assert "witness x = 22021  ok" in out
    assert "ODD_SPOOF" in out
    assert "FAIL" not in out


def test_search_writes_results(tmp_path, capsys):
    out_path = tmp_path / "r.txt"
    code, out, _ = run_cli(capsys, "search", "--limit", "100", "--out", str(out_path))
    assert code == 0
    assert "found 3 members up to 100" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "#spoofscan v1 limit=100"
    assert len(lines) == 4


def test_search_rejects_zero_limit(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "search", "--limit", "0", "--out", str(tmp_path / "r.txt")
    )
    assert code == 1
    assert "limit" in err


def test_search_rejects_limit_above_bound(tmp_path, capsys):
    out_path = tmp_path / "r.txt"
    code, out, err = run_cli(
        capsys, "search", "--limit", str(MAX_LIMIT + 1), "--out", str(out_path)
    )
    assert code == 1
    assert out == ""
    assert f"limit must be in [1, {MAX_LIMIT}]" in err
    assert not out_path.exists()


@pytest.mark.parametrize("threads", [MAX_WORKERS + 1, 100000])
def test_search_rejects_too_many_threads(tmp_path, capsys, threads):
    # limit 100 is one segment, so even a missing check would start one thread
    out_path = tmp_path / "r.txt"
    running = threading.active_count()
    code, out, err = run_cli(
        capsys, "search", "--limit", "100", "--threads", str(threads), "--out", str(out_path)
    )
    assert code == 1
    assert out == ""
    assert f"worker_count must be in [1, {MAX_WORKERS}], got {threads}" in err
    assert not out_path.exists()
    assert threading.active_count() == running


def test_search_progress_has_eta(tmp_path, capsys):
    out_path = tmp_path / "r.txt"
    code, out, err = run_cli(
        capsys, "search", "--limit", "100000", "--segment-size", "4096", "--out", str(out_path)
    )
    assert code == 0
    assert out == f"found 28 members up to 100000\nresults written to {out_path}\n"
    last = err.splitlines()[-1]
    assert last.startswith("segment 13/13, ")
    assert last.endswith(", 28 members, ETA 0:00:00")


def test_search_threads_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    code1, out1, _ = run_cli(capsys, "search", "--limit", "100000", "--out", str(a))
    code2, out2, _ = run_cli(
        capsys,
        "search", "--limit", "100000", "--out", str(b),
        "--threads", "4", "--segment-size", "2048",
    )
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    assert out1.replace(str(a), "") == out2.replace(str(b), "")


def test_search_resume_flow(tmp_path, capsys):
    out_path, cp_path = tmp_path / "r.txt", tmp_path / "cp.txt"
    code, _, _ = run_cli(
        capsys,
        "search", "--limit", "10000", "--out", str(out_path),
        "--checkpoint", str(cp_path),
    )
    assert code == 0
    # completed checkpoint: --resume is a no-op success
    code, out, _ = run_cli(
        capsys,
        "search", "--limit", "10000", "--out", str(out_path),
        "--checkpoint", str(cp_path), "--resume",
    )
    assert code == 0
    assert "found 15 members" in out


def _make_results(tmp_path, capsys, limit=10000):
    path = tmp_path / "results.txt"
    code, _, _ = run_cli(capsys, "search", "--limit", str(limit), "--out", str(path))
    assert code == 0
    return path


def test_analyze_text(tmp_path, capsys):
    path = _make_results(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    assert "dataset: 15 members up to 10000" in out
    for row in ["1", "2", "3", "4"]:
        assert row in out
    assert "residue mod 8" in out
    assert "ending digit" in out


def test_analyze_mod_bounds(tmp_path, capsys):
    path = _make_results(tmp_path, capsys, limit=100)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path), "--mod", str(1 << 16))
    assert code == 0
    assert "residue mod 65536" in out
    assert "\n         65535       0\n" in out
    code, out, err = run_cli(capsys, "analyze", "--in", str(path), "--mod", str((1 << 16) + 1))
    assert code == 1
    assert out == ""
    assert err == "error: modulus must be in [2, 65536], got 65537\n"


def test_analyze_limit_between_decades(tmp_path, capsys):
    # members above the last complete decade must not break the table
    path = _make_results(tmp_path, capsys, limit=2000)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    assert "dataset: 10 members up to 2000" in out
    assert "residue mod 8" in out
    code, _, _ = run_cli(capsys, "fit", "--in", str(path), "--decades")
    assert code == 0


def test_analyze_csv(tmp_path, capsys):
    path = _make_results(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path), "--csv")
    assert code == 0
    assert "k,cumulative,delta" in out
    assert "label,count" in out
    assert "1,2,2" in out


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("#spoofscan v1 limit=10\ngarbage line\n")
    code, _, err = run_cli(capsys, "analyze", "--in", str(bad))
    assert code == 1
    assert "line 2" in err


def test_fit_on_synthetic_points(tmp_path, capsys):
    import math

    csv = tmp_path / "points.csv"
    rows = ["k,count"] + [f"{10**k},{10 * math.log(10**k)!r}" for k in range(1, 9)]
    csv.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "fit", "--points", str(csv))
    assert code == 0
    alpha = float(out.split("alpha = ")[1].splitlines()[0])
    assert abs(alpha - 10) <= 1e-9 * 10
    assert "points = 8" in out


@pytest.mark.parametrize("first", ["1e1,2", "10 ,2"])
def test_fit_points_first_row_numeric_is_data(tmp_path, capsys, first):
    # line 1 is a header only when it does not parse as numbers
    csv = tmp_path / "points.csv"
    csv.write_text(f"{first}\n100,3\n1000,4\n")
    code, out, _ = run_cli(capsys, "fit", "--points", str(csv))
    assert code == 0
    assert "points = 3" in out


def test_fit_points_rejects_text_after_line_1(tmp_path, capsys):
    csv = tmp_path / "points.csv"
    csv.write_text("k,count\n10,2\nk,count\n")
    code, _, err = run_cli(capsys, "fit", "--points", str(csv))
    assert code == 1
    assert "line 3" in err


@pytest.mark.parametrize(
    "row, message",
    [
        ("10,2,7", "line 3: expected 'k,count'"),
        ("nan,5", "every k and count must be finite"),
        ("inf,5", "every k and count must be finite"),
        ("10,nan", "every k and count must be finite"),
    ],
)
def test_fit_points_rejects_bad_row(tmp_path, capsys, row, message):
    csv = tmp_path / "points.csv"
    csv.write_text(f"k,count\n100,3\n{row}\n")
    code, out, err = run_cli(capsys, "fit", "--points", str(csv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_fit_points_rejects_decades(tmp_path, capsys):
    csv = tmp_path / "points.csv"
    csv.write_text("100,3\n1000,4\n")
    code, out, err = run_cli(capsys, "fit", "--points", str(csv), "--decades")
    assert code == 1
    assert out == ""
    assert "--decades" in err and "--in" in err


def test_fit_on_results_members_and_decades(tmp_path, capsys):
    path = _make_results(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "fit", "--in", str(path))
    assert code == 0
    assert "alpha = " in out
    code, out, _ = run_cli(capsys, "fit", "--in", str(path), "--decades")
    assert code == 0
    assert "points = 4" in out


def test_fit_requires_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit"])
    assert exc.value.code == 1
    assert "one of the arguments --in --points is required" in capsys.readouterr().err


def test_fit_rejects_both_inputs(tmp_path, capsys):
    path = _make_results(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--in", str(path), "--points", str(path)])
    assert exc.value.code == 1
    assert "not allowed with argument --in" in capsys.readouterr().err


def test_density_csv_output(tmp_path, capsys):
    path = _make_results(tmp_path, capsys, limit=100)
    out_csv = tmp_path / "density.csv"
    code, out, _ = run_cli(capsys, "density", "--in", str(path), "--out", str(out_csv))
    assert code == 0
    assert "wrote 3 density points" in out
    assert out_csv.read_text() == "n,ratio\n1,1\n3,0.66666666666666667\n15,0.2\n"


def test_compare_agreement(tmp_path, capsys):
    path = _make_results(tmp_path, capsys)
    bfile = tmp_path / "b.txt"
    members = [1, 3, 15, 135, 315]  # verified by the bruteforce oracle
    bfile.write_text(
        "# comment line\n" + "\n".join(f"{i} {n}" for i, n in enumerate(members, 1)) + "\n"
    )
    code, out, _ = run_cli(capsys, "compare", "--in", str(path), "--bfile", str(bfile))
    assert code == 0
    assert "compared 5 terms: agreement" in out


def test_compare_mismatch(tmp_path, capsys):
    path = _make_results(tmp_path, capsys)
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 1\n2 3\n3 16\n")
    code, out, _ = run_cli(capsys, "compare", "--in", str(path), "--bfile", str(bfile))
    assert code == 1
    assert "mismatch at index 3" in out
    assert "15" in out and "16" in out


@pytest.mark.parametrize(
    "row, message",
    [
        ("3 15 7", "expected '<index> <value>'"),
        ("3 fifteen", "non-integer field"),
        ("0 1", "index must be >= 1"),
    ],
)
def test_compare_rejects_bad_bfile_row(tmp_path, capsys, row, message):
    path = _make_results(tmp_path, capsys)
    bfile = tmp_path / "b.txt"
    bfile.write_text(f"# header\n1 1\n\n{row}\n")
    code, out, err = run_cli(capsys, "compare", "--in", str(path), "--bfile", str(bfile))
    assert code == 1
    assert out == ""
    assert err == f"error: {bfile} line 4: {message}\n"


def test_compare_empty_bfile(tmp_path, capsys):
    path = _make_results(tmp_path, capsys)
    bfile = tmp_path / "b.txt"
    bfile.write_text("# only comments\n")
    code, out, err = run_cli(capsys, "compare", "--in", str(path), "--bfile", str(bfile))
    assert code == 0
    assert "agreement over empty range" in out
    assert "warning" in err


def test_compare_unreadable_bfile(tmp_path, capsys):
    path = _make_results(tmp_path, capsys)
    code, _, err = run_cli(
        capsys, "compare", "--in", str(path), "--bfile", str(tmp_path / "missing.txt")
    )
    assert code == 2
    assert "missing.txt" in err


def test_idempotent_stdout(tmp_path, capsys):
    path = _make_results(tmp_path, capsys)
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "checkpoint, message",
    [(False, "search interrupted\n"), (True, "search interrupted; resume with --resume\n")],
)
def test_search_ctrl_c_exits_130(tmp_path, capsys, monkeypatch, checkpoint, message):
    def interrupted(config, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "search_range", interrupted)
    extra = ["--checkpoint", str(tmp_path / "cp.txt")] if checkpoint else []
    code, out, err = run_cli(
        capsys, "search", "--limit", "100000", "--out", str(tmp_path / "r.txt"), *extra
    )
    assert code == 130
    assert out == ""
    assert err == message


def test_search_ctrl_c_before_first_checkpoint_resumes(tmp_path, capsys, monkeypatch):
    # 49 segments of 1024, far fewer slots than CHECKPOINT_SLOTS: only the
    # checkpoint written before the results header exists when Ctrl-C lands
    # in segment 3
    argv = ["search", "--limit", "100000", "--segment-size", "1024"]
    full, out, cp = tmp_path / "full.txt", tmp_path / "r.txt", tmp_path / "cp.txt"
    assert run_cli(capsys, *argv, "--out", str(full))[0] == 0
    scan, calls = search._scan_segment, itertools.count(1)

    def interrupted(lo, hi, primes):
        if next(calls) == 3:
            raise KeyboardInterrupt
        return scan(lo, hi, primes)

    monkeypatch.setattr(search, "_scan_segment", interrupted)
    code, _, err = run_cli(capsys, *argv, "--out", str(out), "--checkpoint", str(cp))
    assert code == 130
    assert err.endswith("search interrupted; resume with --resume\n")
    monkeypatch.undo()
    code, _, _ = run_cli(capsys, *argv, "--out", str(out), "--checkpoint", str(cp), "--resume")
    assert code == 0
    assert out.read_bytes() == full.read_bytes()
