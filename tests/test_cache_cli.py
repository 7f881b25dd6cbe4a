import hashlib
import json
import os
import re
import subprocess
import sys
from math import pi, sqrt
from pathlib import Path

import pytest

from mockform.cache import CacheError, default_cache_path, load_or_build, read_table, write_table
from mockform.class_numbers import MAX_TABLE_N, build_table
import mockform
from mockform import verify
from mockform.cli import main
from mockform.config import MIN_QUAD_TOL, EvalConfig
from mockform.eisenstein import eisenstein_direct, lattice_tail_estimate
from mockform.maass import e2_truncation, theta_truncation


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "table.txt"
    table = build_table(100)
    write_table(path, table)
    first = path.read_bytes()
    assert read_table(path) == table
    write_table(path, read_table(path))
    assert path.read_bytes() == first  # rewrite is byte-identical


def test_cache_write_failure_keeps_previous_cache(tmp_path, monkeypatch):
    path = tmp_path / "table.txt"
    table = build_table(30)
    write_table(path, table)

    def write_half_then_fail(self, text, **kwargs):
        with open(self, "w", encoding="ascii") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write_table(path, build_table(60))
    monkeypatch.undo()
    assert read_table(path) == table
    assert list(tmp_path.iterdir()) == [path]


def test_cache_rejects_truncation(tmp_path):
    path = tmp_path / "table.txt"
    write_table(path, build_table(50))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-4]) + "\n")
    with pytest.raises(CacheError, match="truncated"):
        read_table(path)


def test_cache_rejects_other_version(tmp_path):
    path = tmp_path / "table.txt"
    write_table(path, build_table(10))
    text = path.read_text().replace("MOCKFORM-CACHE v1", "MOCKFORM-CACHE v2")
    path.write_text(text)
    with pytest.raises(CacheError, match="rebuild-cache"):
        read_table(path)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("not a cache\n")
    with pytest.raises(CacheError):
        read_table(path)


def test_cache_rejects_a_wrong_class_number(tmp_path, capsys):
    # signs and denominators are fine, but H(23) is 3: the relations catch it on load
    path = tmp_path / "table.txt"
    write_table(path, build_table(50))
    path.write_text(path.read_text().replace("\n23 3/1\n", "\n23 4/1\n"))
    with pytest.raises(CacheError, match=r"H\(23\) = 4 is not the Hurwitz class number"):
        read_table(path)
    assert main(["hurwitz", "--max", "30", "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mockform: invalid table data in ")
    assert captured.err.count("\n") == 1


# H(23) = 4 is test_cache_rejects_a_wrong_class_number
@pytest.mark.parametrize("n, text, shown", [
    (3, "1/12", "1/12"),                  # not a whole number of sixths
    (5, "1/6", "1/6"),                    # a whole number of sixths, but H(5) = 0
    (8, "-1/1", "-1"),                    # a sign
    (7, f"{2 ** 70}/1", f"{2 ** 70}/1"),  # beyond int64 sixths
])
def test_cache_rejects_each_wrong_entry_at_its_index(tmp_path, n, text, shown):
    path = tmp_path / "table.txt"
    write_table(path, build_table(40))
    lines = path.read_text().splitlines()
    lines[n + 1] = f"{n} {text}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match=rf"^invalid table data in .*: H\({n}\) = {shown} is not the Hurwitz"):
        read_table(path)


def test_cache_rejects_a_zero_denominator(tmp_path, capsys):
    path = tmp_path / "table.txt"
    write_table(path, build_table(10))
    path.write_text(path.read_text().replace("\n5 0/1\n", "\n5 1/0\n"))
    with pytest.raises(CacheError, match=rf"^malformed cache line 7 in {re.escape(str(path))}: '5 1/0'$"):
        read_table(path)
    assert main(["hurwitz", "--max", "10", "--cache", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mockform: malformed cache line 7 in {path}: '5 1/0'\n"


def test_cache_rejects_a_wrong_first_entry(tmp_path):
    path = tmp_path / "table.txt"
    write_table(path, build_table(10))
    path.write_text(path.read_text().replace("\n0 -1/12\n", "\n0 0/1\n"))
    with pytest.raises(CacheError, match=r"must start with H\(0\) = -1/12"):
        read_table(path)


def test_cache_file_format_is_pinned(tmp_path):
    path = tmp_path / "table.txt"
    write_table(path, build_table(3000))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "723e97d10eac3b3e6af6970986974e68c293b57a0b23feeed2beb9fbb2a32713"


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


def test_cli_hurwitz_json_schema(tmp_path, capsys):
    code = main(["hurwitz", "--max", "3", "--format", "json", "--no-cache"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(payload) == {"command", "params", "results", "summary"}
    assert payload["results"][0] == {"n": 0, "value": "-1/12"}


def test_cli_hurwitz_usage_error(capsys):
    assert main(["hurwitz", "--max", "-1", "--no-cache"]) == 1


def test_cli_hurwitz_refuses_an_oversized_table(capsys):
    assert main(["hurwitz", "--max", "1000000000000000", "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "mockform: a table of H(n) to n=1000000000000000 is longer than "
        f"MAX_TABLE_N = {MAX_TABLE_N}"]


def test_cli_hurwitz_bad_cache_version(tmp_path, capsys):
    path = tmp_path / "c.txt"
    main(["hurwitz", "--max", "5", "--cache", str(path)])
    path.write_text(path.read_text().replace("v1", "v3"))
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
    tail = json.loads(capsys.readouterr().out)["results"][0]["truncation_tail"]
    assert tail == theta_truncation(1e-3, 1e-10)[1]
    assert 0 < tail <= 1e-10 and tail != 1e-10


def test_cli_eval_theta_refuses_below_its_range(capsys):
    assert main(["eval", "--target", "theta", "--tau", "0,1e-6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mockform: evaluation outside the convergence domain: ")


def test_cli_eval_e2star_reports_its_tail_bound(capsys):
    assert main(["eval", "--target", "e2star", "--tau", "0.3,0.05", "--format", "json"]) == 0
    tail = json.loads(capsys.readouterr().out)["results"][0]["truncation_tail"]
    assert tail == e2_truncation(0.05, 1e-10, 4000)[1]
    assert 0 < tail <= 1e-10 and tail != 1e-10


def test_cli_eval_e2star_refuses_beyond_q_terms(capsys):
    assert main(["eval", "--target", "e2star", "--tau", "0,1e-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mockform: evaluation outside the convergence domain: ")


def test_cli_eval_h_refuses_beyond_q_terms(capsys):
    # v = 0.05 needs about 100 terms of sum H(n) q^n for a tail below 1e-10
    assert main(["eval", "--target", "H", "--tau", "0,0.05", "--q-terms", "50"]) == 2
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
    # tau = 1e-9 i the lattice rows of F would hold 1.5e11 points: all three are refused
    for argv, limit in ((["--k", "2", "--s", "150", "--tau", "0,1"], "2^1000"),
                        (["--k", "130", "--s", "1", "--tau", "0,0.001"], "2^1000"),
                        (["--tau", "0,1e-9"], "MAX_LATTICE_ROW")):
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
    # the truncation estimate of the lattice value it prints
    assert rec["lattice_tail_estimate"] == lattice_tail_estimate(2, 1.0, 1j, 301, "H")
    assert 0 < rec["lattice_tail_estimate"] < 1e-5


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


@pytest.mark.parametrize("target, tau", [("H", "nan,1"), ("H", "0,nan"), ("theta", "0,inf")])
def test_cli_eval_rejects_non_finite_tau(capsys, target, tau):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--target", target, "--tau", tau])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_cli_bad_config_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--target", "H", "--tau", "0,1", "--lattice-bound", "0"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.strip() == "mockform: bad configuration: lattice_bound must be positive"


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
    (["verify", "--suite", "shadow", "--fd-step", "inf"], "fd_step must be positive and finite, got inf"),
    (["verify", "--suite", "laplacian", "--fd-step", "nan"], "fd_step must be positive and finite, got nan"),
    (["eval", "--target", "H", "--tau", "0,0.06", "--quad-tol", "inf"],
     "quad_tol must be positive and finite, got inf"),
], ids=["shadow-fd-inf", "laplacian-fd-nan", "eval-quad-tol-inf"])
def test_cli_non_finite_float_config_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"mockform: bad configuration: {message}"]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "modularity", "--q-terms", "5"],
    ["verify", "--suite", "fourier", "--lattice-bound", "2000000"],
], ids=["q-terms", "lattice-bound"])
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
