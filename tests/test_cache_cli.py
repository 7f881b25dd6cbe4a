import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from math import pi, sqrt
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mockform.cache import CacheError, default_cache_path, load_or_build, read_table, write_table
from mockform.class_numbers import MAX_TABLE_N, build_table
import mockform
from mockform import class_numbers, cli, verify
from mockform.cli import main
from mockform.config import MIN_QUAD_TOL, EvalConfig
from mockform.eisenstein import eisenstein_direct, lattice_tail_bound
from mockform.maass import completed_hurwitz_series, e2_star, e2_truncation, theta_series, theta_truncation


def _save(path, row, **kwargs):
    with open(path, "wb") as fh:
        np.save(fh, row, **kwargs)


def _good_row(max_n=40):
    return build_table(max_n).sixths.copy()


def _ratios(table, max_n):
    """H(0..max_n) as "p/q" strings, reduced by Fraction."""
    return [f"{v.numerator}/{v.denominator}" for v in map(table.value, range(max_n + 1))]


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "table.npy"
    table = build_table(100)
    write_table(path, table)
    first = path.read_bytes()
    assert read_table(path) == table
    write_table(path, read_table(path))
    assert path.read_bytes() == first  # rewrite is byte-identical
    assert list(tmp_path.iterdir()) == [path]     # no .npy appended, no temporary left


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(max_n=st.integers(0, 3000))
@example(max_n=0)
@example(max_n=3000)
def test_cache_roundtrip_over_max_n(tmp_path, max_n):
    path = tmp_path / "table.npy"
    table = build_table(max_n)
    write_table(path, table)
    loaded = read_table(path)
    assert loaded == table and loaded.max_n == max_n
    assert not loaded.sixths.flags.writeable


def test_cache_write_failure_keeps_previous_cache(tmp_path, monkeypatch):
    path = tmp_path / "table.npy"
    table = build_table(30)
    write_table(path, table)
    save = np.save

    def write_half_then_fail(fh, row, **kwargs):
        buffer = io.BytesIO()
        save(buffer, row, **kwargs)
        fh.write(buffer.getvalue()[: len(buffer.getvalue()) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(np, "save", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write_table(path, build_table(60))
    monkeypatch.undo()
    assert read_table(path) == table
    assert list(tmp_path.iterdir()) == [path]


def test_cache_rejects_truncation(tmp_path):
    # cut inside the data; the refusal matrix cuts inside the header
    path = tmp_path / "table.npy"
    write_table(path, build_table(50))
    path.write_bytes(path.read_bytes()[:-32])
    with pytest.raises(CacheError, match=rf"^cache file {re.escape(str(path))} is not a .npy int64 row"):
        read_table(path)


def test_cache_rejects_other_version(tmp_path):
    # .npy format version 9.0, which no numpy reads
    path = tmp_path / "table.npy"
    write_table(path, build_table(10))
    data = bytearray(path.read_bytes())
    data[6] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(CacheError, match="rebuild-cache"):
        read_table(path)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("not a cache\n")
    with pytest.raises(CacheError):
        read_table(path)


def test_cache_rejects_a_wrong_class_number(tmp_path, capsys):
    # an int64 row of the right shape, but H(23) is 3: the relations catch it on load
    path = tmp_path / "table.npy"
    row = _good_row(50)
    row[23] = 24
    _save(path, row)
    with pytest.raises(CacheError, match=r"H\(23\) = 4 is not the Hurwitz class number"):
        read_table(path)
    assert main(["hurwitz", "--max", "30", "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mockform: invalid table data in ")
    assert captured.err.count("\n") == 1


# H(23) = 4 is test_cache_rejects_a_wrong_class_number
@pytest.mark.parametrize("n, text, shown", [
    (5, "1/6", "1/6"),                    # a whole number of sixths, but H(5) = 0
    (8, "-1/1", "-1"),                    # a sign
])
def test_cache_rejects_each_wrong_entry_at_its_index(tmp_path, n, text, shown):
    path = tmp_path / "table.npy"
    row = _good_row()
    row[n] = 6 * Fraction(text)
    _save(path, row)
    with pytest.raises(CacheError, match=rf"^invalid table data in .*: H\({n}\) = {shown} is not the Hurwitz"):
        read_table(path)


def test_cache_rejects_a_wrong_first_entry(tmp_path):
    path = tmp_path / "table.npy"
    row = _good_row(10)
    row[0] = -1
    _save(path, row)
    with pytest.raises(CacheError, match=r"with entry 0 equal to 0"):
        read_table(path)


def _v1_text(path):
    # the p/q text cache of earlier versions, which nothing reads any more
    table = build_table(40)
    lines = [f"MOCKFORM-CACHE v1 max_n={table.max_n}"]
    path.write_text("\n".join(lines + [f"{n} {r}" for n, r in enumerate(_ratios(table, 40))]) + "\n")


def _npz(path):
    with open(path, "wb") as fh:
        np.savez(fh, sixths=_good_row())


def _truncated(path):
    write_table(path, build_table(40))
    path.write_bytes(path.read_bytes()[:40])


def _with_row(row, **kwargs):
    return lambda path: _save(path, row, **kwargs)


def _entry(n, value):
    row = _good_row()
    row[n] = value
    return row


@pytest.mark.parametrize("make", [
    _v1_text,
    lambda path: path.write_bytes(b""),
    _truncated,
    _npz,
    _with_row(np.array([0, 0, 0, 2], dtype=object), allow_pickle=True),
    _with_row(_good_row().astype(np.float64)),
    _with_row(_good_row().reshape(1, -1)),
    _with_row(_entry(0, 6)),
    _with_row(_entry(23, 24)),
], ids=["v1-text", "empty", "truncated-header", "npz", "object-array", "float64-row", "2-d-row",
        "nonzero-entry-0", "wrong-H23"])
def test_cache_refuses_every_file_but_a_certified_int64_row(tmp_path, capsys, make):
    path = tmp_path / "hurwitz_sixths.npy"
    make(path)
    data = path.read_bytes()
    with pytest.raises(CacheError, match=rf" {re.escape(str(path))}"):
        read_table(path)
    assert main(["hurwitz", "--max", "30", "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mockform: ") and str(path) in captured.err
    assert captured.err.count("\n") == 1
    assert path.read_bytes() == data                # never silently rebuilt
    assert list(tmp_path.iterdir()) == [path]


def test_cache_file_format_is_pinned(tmp_path):
    path = tmp_path / "table.npy"
    write_table(path, build_table(3000))
    data = path.read_bytes()
    assert len(data) == 24136                       # a 128-byte header and 3001 int64 entries
    digest = hashlib.sha256(data).hexdigest()
    assert digest == "b399a2983460091d0ce37ddc7da635092cfd1d4d77a2a0a43e036674f3fb7df1"


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MOCKFORM_CACHE", str(tmp_path / "custom.txt"))
    assert default_cache_path() == tmp_path / "custom.txt"


def test_load_or_build_extends(tmp_path):
    path = tmp_path / "t.txt"
    small = load_or_build(path, 10)
    assert small.max_n == 10
    bigger = load_or_build(path, 40)
    assert bigger.max_n == 40
    again = load_or_build(path, 20)
    assert again.max_n == 40  # reuses the larger cached table


def test_cli_hurwitz_csv(tmp_path, capsys):
    code = main(["hurwitz", "--max", "4", "--format", "csv",
                 "--cache", str(tmp_path / "c.txt")])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "n,H(n)"
    assert out[1:] == ["0,-1/12", "1,0/1", "2,0/1", "3,1/3", "4,1/2"]


def test_cli_hurwitz_csv_to_3000_is_exact(capsys):
    # the digest perfbench/reference.json pins for the `table` workload
    assert main(["hurwitz", "--max", "3000", "--no-cache", "--format", "csv"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "1a607931c444bb4d2ad2b5709a1ef0a024d7124833a6ca09020871269948eaee"


def test_cli_hurwitz_csv_is_the_same_on_a_cache_miss_and_hit(tmp_path, capsys):
    # miss, hit, a miss that grows the cache, and a hit served from the larger cache
    for max_n in (3000, 3000, 3100, 3000):
        argv = ["hurwitz", "--max", str(max_n), "--cache", str(tmp_path / "c.txt"), "--format", "csv"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if max_n == 3000:
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == "1a607931c444bb4d2ad2b5709a1ef0a024d7124833a6ca09020871269948eaee"
    assert read_table(tmp_path / "c.txt").max_n == 3100


def _csv_of_ratios(ratios):
    return "\n".join(["n,H(n)"] + [f"{n},{r}" for n, r in enumerate(ratios)]) + "\n"


@pytest.mark.parametrize("max_n", [0, 1, 2, 3])
def test_cli_hurwitz_csv_is_one_line_per_ratio(capsys, max_n):
    assert main(["hurwitz", "--max", str(max_n), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert out == _csv_of_ratios(_ratios(build_table(max_n), max_n))
    if max_n == 0:
        assert out == "n,H(n)\n0,-1/12\n"


def test_cli_hurwitz_csv_from_a_larger_cache_is_one_line_per_ratio(tmp_path, capsys):
    path = tmp_path / "c.npy"
    assert main(["hurwitz", "--max", "5000", "--cache", str(path)]) == 0
    capsys.readouterr()
    assert main(["hurwitz", "--max", "3000", "--cache", str(path)]) == 0
    assert capsys.readouterr().out == _csv_of_ratios(_ratios(read_table(path), 3000))


def test_cli_hurwitz_json_to_3000_is_exact(tmp_path, capsys):
    # no cache, a miss, a hit, a miss that grows the cache, and a hit served from the larger cache
    cache = ["--cache", str(tmp_path / "c.txt")]
    for max_n, where in ((3000, ["--no-cache"]), (3000, cache), (3000, cache), (3100, cache), (3000, cache)):
        assert main(["hurwitz", "--max", str(max_n), "--format", "json", *where]) == 0
        out = capsys.readouterr().out
        if max_n == 3000:
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == "74e9e9d83a7980311aea6551f5c045d588da45b378b1ac29d842500608b982cc"


def test_cli_hurwitz_json_schema(tmp_path, capsys):
    code = main(["hurwitz", "--max", "3", "--format", "json", "--no-cache"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(payload) == {"command", "params", "results", "summary"}
    assert payload["results"][0] == {"n": 0, "value": "-1/12"}
    # the text is json.dumps's at indent 2, also for a table of one entry
    for max_n in (0, 1, 12):
        assert main(["hurwitz", "--max", str(max_n), "--format", "json", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_cli_hurwitz_usage_error(capsys):
    assert main(["hurwitz", "--max", "-1", "--no-cache"]) == 1


HURWITZ_USAGE = """\
usage: mockform hurwitz [-h] --max MAX_N [--format {json,csv}] [--cache CACHE]
                        [--no-cache] [--rebuild-cache]
"""

HURWITZ_HELP = HURWITZ_USAGE + """\

options:
  -h, --help           show this help message and exit
  --max MAX_N          largest n in the table (n >= 0)
  --format {json,csv}
  --cache CACHE        cache file (default: MOCKFORM_CACHE or
                       ~/.cache/mockform)
  --no-cache           do not read or write a cache
  --rebuild-cache      recompute the table even if a cache exists
"""


def test_cli_serves_hits_from_one_parser(tmp_path, capsys, monkeypatch):
    # with gc off, a parser built per call stays held in its reference cycles: 200 hits
    # held about 6 MB allocated in argparse.py that way, at --max 30 as at --max 3000;
    # the short table keeps tracemalloc from tracing the rendering of 3001 rows 200 times
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["hurwitz", "--max", "30", "--cache", str(tmp_path / "c.npy"), "--format", "csv"]
    assert main(argv) == 0 and main(argv) == 0         # a miss, then a warm-up hit
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(200):
            assert main(argv) == 0
            capsys.readouterr()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    held = snapshot.filter_traces([tracemalloc.Filter(True, "*argparse.py")]).statistics("filename")
    assert sum(stat.size for stat in held) < 64 * 1024
    # the reused parser still refuses and explains as a fresh one did
    with pytest.raises(SystemExit) as exc:
        main(["hurwitz", "--max", "x"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == \
        HURWITZ_USAGE + "mockform hurwitz: error: argument --max: invalid int value: 'x'\n"
    with pytest.raises(SystemExit) as exc:
        main(["hurwitz", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HURWITZ_HELP


def test_cli_hurwitz_refuses_an_oversized_table(capsys):
    assert main(["hurwitz", "--max", "1000000000000000", "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "mockform: a table of H(n) to n=1000000000000000 is longer than "
        f"MAX_TABLE_N = {MAX_TABLE_N}"]


def test_oversized_cache_rows_are_refused_before_certifying(tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.npy"
    _save(path, np.zeros(MAX_TABLE_N + 2, np.int64))
    calls = []
    monkeypatch.setattr(class_numbers, "_first_wrong_entry", lambda row: calls.append(row.size))
    with pytest.raises(CacheError, match=f"MAX_TABLE_N = {MAX_TABLE_N}"):
        read_table(path)
    assert main(["hurwitz", "--max", "10", "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"MAX_TABLE_N = {MAX_TABLE_N}" in captured.err
    assert calls == []


def test_long_cache_files_are_refused_before_they_are_read(tmp_path, capsys):
    path = tmp_path / "long.npy"
    _save(path, np.zeros(2 ** 22, np.int64))
    tracemalloc.start()
    try:
        with pytest.raises(CacheError, match=f"MAX_TABLE_N = {MAX_TABLE_N}"):
            read_table(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert main(["hurwitz", "--max", "10", "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert f"MAX_TABLE_N = {MAX_TABLE_N}" in captured.err


def test_cli_hurwitz_refuses_past_max_table_n_before_opening_the_cache(tmp_path, capsys):
    path = tmp_path / "c.npy"
    path.write_bytes(b"not a table")
    assert main(["hurwitz", "--max", str(MAX_TABLE_N + 1), "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"mockform: a table of H(n) to n={MAX_TABLE_N + 1} is longer than MAX_TABLE_N = {MAX_TABLE_N}"]
    assert path.read_bytes() == b"not a table"


def test_cli_hurwitz_unwritable_cache_is_one_stderr_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    directory = tmp_path / "dir"
    directory.mkdir()
    for path, flags in ((blocker / "x.npy", []), (directory, ["--rebuild-cache"])):
        assert main(["hurwitz", "--max", "10", "--cache", str(path)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"mockform: cannot write cache file {path}: ")
    assert sorted(tmp_path.iterdir()) == [directory, blocker]
    assert blocker.read_bytes() == b"" and list(directory.iterdir()) == []


def test_cli_hurwitz_bad_cache_version(tmp_path, capsys):
    path = tmp_path / "c.npy"
    main(["hurwitz", "--max", "5", "--cache", str(path)])
    data = bytearray(path.read_bytes())
    data[6] = 9                                     # .npy format version 9.0
    path.write_bytes(bytes(data))
    code = main(["hurwitz", "--max", "5", "--cache", str(path)])
    assert code == 2
    assert "rebuild-cache" in capsys.readouterr().err
    assert main(["hurwitz", "--max", "5", "--cache", str(path), "--rebuild-cache"]) == 0


def test_cli_eval_completed_series(capsys):
    code = main(["eval", "--target", "H", "--tau", "0,10"])
    out = capsys.readouterr().out
    assert code == 0
    value_line = [l for l in out.splitlines() if l.startswith("value:")][0]
    real = float(value_line.split("[")[1].split(",")[0])
    assert abs(real - (-1 / 12 + 1 / (8 * pi * sqrt(10)))) < 1e-12


def test_cli_eval_theta(capsys):
    from math import exp
    code = main(["eval", "--target", "theta", "--tau", "0,10", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(payload["results"][0]["value"][0] - (1 + 2 * exp(-20 * pi))) < 1e-8


def test_cli_eval_theta_reports_its_tail_bound(capsys):
    assert main(["eval", "--target", "theta", "--tau", "0.3,1e-3", "--format", "json"]) == 0
    bound = json.loads(capsys.readouterr().out)["results"][0]["truncation_tail"]
    # the truncation tail plus the rounding of the sum
    assert bound == theta_series(0.3 + 1e-3j).bound > theta_truncation(1e-3, 1e-10)[1]
    assert 0 < bound <= 1e-10


def test_cli_eval_at_large_u_and_huge_heights(capsys):
    # the evaluators reduce tau mod 1, and an underflowing q^{n^2} is 0, not nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        args = ["eval", "--target", "eisenstein", "--format", "json", "--tau"]
        assert main([*args[:-1], "--k", "1", "--s", "1", "--tau", "1000000.3,0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["route_difference"] < 5e-3
        assert main([*args, "1e300,1"]) == 0
        rec = json.loads(capsys.readouterr().out)["results"][0]
        assert all(math.isfinite(x) for x in (*rec["value"], *rec["fourier_value"], rec["lattice_tail_bound"]))
        assert main(["eval", "--target", "theta", "--tau", "0,1e308", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["results"][0]["value"] == [1.0, 0.0] and captured.err == ""


def test_cli_eval_theta_refuses_below_its_range(capsys):
    assert main(["eval", "--target", "theta", "--tau", "0,1e-6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mockform: evaluation outside the convergence domain: ")


def test_cli_eval_e2star_reports_its_tail_bound(capsys):
    assert main(["eval", "--target", "e2star", "--tau", "0.3,0.05", "--format", "json"]) == 0
    bound = json.loads(capsys.readouterr().out)["results"][0]["truncation_tail"]
    assert bound == e2_star(0.3 + 0.05j).bound > e2_truncation(0.05, 1e-10)[1]
    assert 0 < bound <= 1e-10


def test_cli_eval_e2star_refuses_beyond_q_terms(capsys):
    assert main(["eval", "--target", "e2star", "--tau", "0,1e-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mockform: evaluation outside the convergence domain: ")


def test_cli_eval_float_overflow_is_one_stderr_line(capsys):
    # zeta(1 - 2k) at k = 200 exceeds the float range: refused, naming the limit
    assert main(["eval", "--target", "eisenstein", "--k", "200", "--s", "1", "--tau", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("mockform: evaluation outside the convergence domain: ")
    assert "k <= 130" in captured.err
    # at s = 150 the Fourier route's divisor sums sigma_{2k+4s-1}(f) would overflow,
    # at k = 130 and |tau| = 1e-3 the power |tau|^{-(k+1/2+2s)} of F would, and at
    # tau = 1e-9 i the lattice rows of F would hold 1.5e11 points, and at k = 130 and
    # tau = 0.27i the powers z^k of F's lattice sum overflow, and at tau = 1e308 i the
    # height of F's point -1/(4 tau) underflows to 0: all five are refused
    for argv, limit in ((["--k", "2", "--s", "150", "--tau", "0,1"], "2^1000"),
                        (["--k", "130", "--s", "1", "--tau", "0,0.001"], "2^1000"),
                        (["--tau", "0,1e-9"], "MAX_LATTICE_ROW"),
                        (["--k", "130", "--s", "1", "--tau", "0,0.27"], "overflows a float"),
                        (["--k", "1", "--s", "1", "--tau", "0,1e308"], "normal float range")):
        assert main(["eval", "--target", "eisenstein"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("mockform: evaluation outside the convergence domain: ")
        assert limit in captured.err


def test_cli_eval_h_at_large_v(capsys):
    assert main(["eval", "--target", "H", "--tau", "0,200", "--format", "json"]) == 0
    value = json.loads(capsys.readouterr().out)["results"][0]["value"]
    assert abs(value[0] - (-1 / 12 + 1 / (8 * pi * sqrt(200)))) < 1e-15


_SCIPY_PROBE = """
import contextlib, io, json, sys
from mockform import cli
imported = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()

cheap = [run(["hurwitz", "--max", "50", "--no-cache"])[0],
         run(["eval", "--target", "H", "--tau", "0.1,0.8"])[0],
         run(["eval", "--target", "theta", "--tau", "0.1,0.8"])[0]]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
code, out = run(["eval", "--target", "eisenstein", "--tau", "0.1,0.8", "--format", "json"])
after_eisenstein = "scipy" in sys.modules
verify_code = run(["verify", "--suite", "all"])[0]
print(json.dumps({"imported": imported, "cheap": cheap, "loaded": loaded, "code": code,
                  "after_eisenstein": after_eisenstein, "verify_code": verify_code,
                  "after_verify": "scipy" in sys.modules,
                  "value": json.loads(out)["results"][0]["value"]}))
"""


def test_cheap_paths_run_without_scipy():
    # in a fresh interpreter, because this one has scipy loaded already:
    # import mockform, the cheap paths, the Eisenstein routes (Omega included)
    # and every verify suite run on numpy alone
    src = str(Path(mockform.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE],
                          capture_output=True, text=True, env=env, timeout=240)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["imported"] == []
    assert probe["cheap"] == [0, 0, 0]
    assert probe["loaded"] == []
    assert probe["code"] == 0 and not probe["after_eisenstein"]
    # exit 2 is the reference outcome: the two pi-free -Theta/16 records fail by design
    assert probe["verify_code"] == 2 and not probe["after_verify"]
    expected = eisenstein_direct("H", 2, 1.0, complex(0.1, 0.8))
    assert complex(*probe["value"]) == expected


def test_cli_eval_eisenstein_dual(capsys):
    code = main(["eval", "--target", "eisenstein", "--k", "2", "--s", "1",
                 "--tau", "0,1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    rec = payload["results"][0]
    assert rec["route_difference"] < 5e-3 * abs(complex(*rec["value"]))
    # the truncation bound of the lattice value it prints
    assert rec["lattice_tail_bound"] == eisenstein_direct("H", 2, 1.0, 1j).bound
    # H's bound is its parts', at most 1.25 times the bound of both at M = 301
    single = 1 / 120 / 2 ** 5 * (sqrt(2.0) * lattice_tail_bound(2, 1.0, 1j, 301) + lattice_tail_bound(2, 1.0, 1j, 301, "F"))
    assert single <= rec["lattice_tail_bound"] <= 1.25 * single
    assert 0 < rec["lattice_tail_bound"] < 1e-5


def test_cli_eval_eisenstein_is_finite_at_large_v(capsys):
    # at v = 3, e(h tau) at h = -40 would overflow and make fourier_value NaN with exit 0
    assert main(["eval", "--target", "eisenstein", "--k", "1", "--s", "1",
                 "--tau", "0,3", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)["results"][0]
    assert all(map(math.isfinite, rec["fourier_value"]))
    assert rec["route_difference"] < 5e-3 * abs(complex(*rec["value"]))


@pytest.mark.parametrize("target", ["H", "theta", "e2star", "eisenstein"])
def test_cli_eval_reports_the_bound_and_terms_of_its_value(capsys, target):
    tau = 0.1 + 0.7j
    assert main(["eval", "--target", target, "--tau", "0.1,0.7", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)["results"][0]
    value = {"H": lambda: completed_hurwitz_series(tau).value,
             "theta": lambda: theta_series(tau),
             "e2star": lambda: e2_star(tau),
             "eisenstein": lambda: eisenstein_direct("H", 2, 1.0, tau)}[target]()
    bound = rec["lattice_tail_bound" if target == "eisenstein" else "truncation_tail"]
    assert (complex(*rec["value"]), bound, rec["terms"]) == (value, value.bound, value.terms)
    # the CLI reads the bound off the value instead of deriving it again
    assert not {"theta_truncation", "e2_truncation", "lattice_tail_bound"} & set(vars(cli))


def test_cli_eval_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--target", "theta", "--tau", "nonsense"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--target", "theta", "--tau", "0,-2"])
    assert exc.value.code == 1
    # convergence-domain violation: k = 1, s = 0 has no closed coefficients
    code = main(["eval", "--target", "eisenstein", "--k", "1", "--s", "0",
                 "--tau", "0,1"])
    assert code == 2


def test_cli_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--target", "bogus", "--tau", "0,1"])
    assert exc.value.code == 1


def test_cli_verify_json_and_determinism(capsys):
    code = main(["verify", "--suite", "limits", "--format", "json"])
    first = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(first) == {"command", "params", "results", "summary"}
    assert first["summary"]["failed"] == 0
    rec = first["results"][0]
    assert set(rec) == {"check_name", "parameters", "residual", "tolerance",
                        "passed", "elapsed_ms"}
    assert rec["passed"] == (rec["residual"] <= rec["tolerance"])
    code = main(["verify", "--suite", "limits", "--format", "json"])
    second = json.loads(capsys.readouterr().out)
    assert [r["residual"] for r in first["results"]] == \
           [r["residual"] for r in second["results"]]


def test_cli_verify_multiplier_passes(capsys):
    assert main(["verify", "--suite", "multiplier"]) == 0


def test_cli_verify_shadow_reports_failure(capsys):
    # the -Theta/16 reading fails, the -Theta/(16 pi) reading passes; the
    # suite surfaces both and exits 2
    code = main(["verify", "--suite", "shadow"])
    out = capsys.readouterr().out
    assert code == 2
    assert "[FAIL] shadow_fd_theta_over_16 " in out
    assert "[PASS] shadow_fd_theta_over_16pi " in out


def test_cli_verify_text_prints_plain_floats(capsys):
    assert main(["verify", "--suite", "shadow"]) == 2
    out = capsys.readouterr().out
    assert "np." not in out
    assert re.search(r"shadow_fd_theta_over_16 \{'samples': 20, 'closest': 0\.0336\d+\} ", out), out


def test_verify_records_split_each_suite_clock(monkeypatch):
    # a substituted clock: each record carries the interval from the reading before its own
    readings = []

    def clock():
        readings.append(float(len(readings) ** 2))     # distinct intervals 1, 3, 5, ...
        return readings[-1]

    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=clock))
    for suite in verify.SUITES:
        readings.clear()
        records = verify.run_suite(suite)
        assert len(readings) == len(records) + 1, suite
        assert [r.elapsed_ms for r in records] == [(b - a) * 1000 for a, b in zip(readings, readings[1:])]
        assert sum(r.elapsed_ms for r in records) == (readings[-1] - readings[0]) * 1000, suite


@pytest.mark.parametrize("argv", [
    ["eval", "--target", "H", "--tau", "0,1", "--fd-step", "0.5"],
    ["verify", "--suite", "shadow", "--fd-step", "1e-5"],
], ids=["eval", "verify"])
def test_cli_fd_step_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --fd-step" in captured.err


@pytest.mark.parametrize("argv", [
    ["eval", "--target", "eisenstein", "--tau", "0,1", "--fourier-bound", "3000"],
    ["verify", "--suite", "fourier", "--fourier-bound", "40"],
], ids=["eval", "verify"])
def test_cli_fourier_bound_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --fourier-bound" in captured.err


@pytest.mark.parametrize("argv", [
    ["eval", "--target", "e2star", "--tau", "0,1e-4", "--q-terms", "100000"],
    ["verify", "--suite", "modularity", "--q-terms", "5"],
], ids=["eval", "verify"])
def test_cli_q_terms_is_a_usage_error(capsys, argv):
    # the q-series caps are fixed (400 terms for theta, 4000 for the others), not options
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and sum(line.startswith("usage: ") for line in lines) == 1
    assert lines[-1] == f"mockform: error: unrecognized arguments: --q-terms {argv[-1]}"


def test_cli_verify_negative_seed_is_a_usage_error(capsys):
    assert main(["verify", "--suite", "multiplier", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["mockform: --seed must be >= 0, got -1"]


@pytest.mark.parametrize("target, tau", [("H", "nan,1"), ("H", "0,nan"), ("theta", "0,inf")])
def test_cli_eval_rejects_non_finite_tau(capsys, target, tau):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--target", target, "--tau", tau])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
def test_cli_eval_rejects_non_finite_s(capsys, s):
    # refused before either lattice sum runs, like a non-finite --tau
    assert main(["eval", "--target", "eisenstein", "--tau", "0,1", f"--s={s}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"mockform: --s needs a finite value, got {float(s)}"]


def test_cli_bad_config_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--target", "H", "--tau", "0,1", "--lattice-bound", "0"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.strip() == "mockform: bad configuration: lattice_bound must be positive"


def test_cli_even_lattice_bound_is_usage_error(capsys):
    # the proven lattice bound holds only when the rows end at an odd M
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--target", "eisenstein", "--tau", "0,1", "--lattice-bound", "60"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["mockform: bad configuration: lattice_bound must be odd, got 60"]


def test_cli_quad_tol_below_floor_is_usage_error(capsys):
    # at v = 113 the first nonholomorphic term bound is about 1e-314: a subnormal
    # quad_tol would admit that term, whose e^{2 pi v} overflows a float
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--target", "H", "--tau", "0,113", "--quad-tol", "1e-320"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "mockform: bad configuration: quad_tol must be at least 1e-300, got 1e-320"]
    with pytest.raises(ValueError, match="quad_tol must be at least 1e-300"):
        EvalConfig(quad_tol=float("nan"))
    assert EvalConfig(quad_tol=MIN_QUAD_TOL).quad_tol == 1e-300


@pytest.mark.parametrize("argv, message", [
    (["eval", "--target", "H", "--tau", "0,0.06", "--quad-tol", "inf"],
     "quad_tol must be positive and finite, got inf"),
], ids=["eval-quad-tol-inf"])
def test_cli_non_finite_float_config_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"mockform: bad configuration: {message}"]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "fourier", "--lattice-bound", "2000001"],
], ids=["lattice-bound"])
def test_cli_verify_domain_violation_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("mockform: check outside the convergence domain: ")


def test_cli_verify_quadrature_failure_exits_2(capsys):
    code = main(["verify", "--suite", "limits", "--quad-tol", "1e-16"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "mockform: omega quadrature did not converge" in captured.err
    assert "Traceback" not in captured.err


def test_cli_quadrature_failure_is_one_stderr_line():
    # in a fresh interpreter, so nothing earlier in the session shapes stderr
    src = str(Path(mockform.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "mockform", "verify", "--suite", "limits", "--quad-tol", "1e-16"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("mockform: omega quadrature did not converge"), lines


def test_cli_verify_elapsed_ms_is_fractional(capsys):
    assert main(["verify", "--suite", "limits", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["results"]
    assert all(isinstance(r["elapsed_ms"], float) and r["elapsed_ms"] > 0 for r in records)
    assert main(["verify", "--suite", "limits"]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert lines and all(re.search(r"\(\d+\.\d ms\)$", line) for line in lines)


def test_verify_modularity_rejects_inadmissible_sample(monkeypatch):
    class NearRealAxis(verify.Gamma04Matrix):
        def apply(self, tau):
            return complex(tau.real, 0.01)

    monkeypatch.setattr(verify, "Gamma04Matrix", NearRealAxis)
    monkeypatch.setattr(verify, "modularity_residual", lambda *args: 0.0)
    with pytest.raises(ValueError, match="inadmissible sample"):
        verify.verify_modularity()
