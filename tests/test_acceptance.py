"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each criterion is defined once, as ReportRecords of mockform.verify: every suite runs
once per session (default seed and config) and the tests assert on its records.  The
shadow checks (03, 04) assert -Theta/(16 pi) against an mpmath constant; the pi-free
-Theta/16 records are negative controls that must fail, the FD one by > 1e-2 at every point.
"""

import functools
import hashlib
import json
from pathlib import Path

import mpmath

from mockform import cli
from mockform.verify import DEFAULT_SEED, SHADOW_DENOMINATOR, SUITES, run_suite

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# xi_{3/2} of the documented constant term 1/(8 pi sqrt v), from mpmath, not mockform:
# it depends on v alone, so d/d taubar = (i/2) d/dv and xi_{3/2} = 2 i v^{3/2}
# conj((i/2) d/dv) = v^{3/2} d/dv, at v = 1 the v-derivative itself, -1/(16 pi).
SHADOW_CONSTANT = float(mpmath.diff(lambda v: 1 / (8 * mpmath.pi * mpmath.sqrt(v)), 1))


@functools.cache
def _suite(name):
    return tuple(run_suite(name))


def _records(suite, *checks):
    return [r for r in _suite(suite) if r.check_name in checks]


def _accept(tag, records, seconds=None, extra=()):
    """Print the ACCEPTANCE line of the records and extra (label, ok) pairs; assert all hold."""
    assert records, f"{tag}: no records"
    checks = list(extra)
    for name in dict.fromkeys(r.check_name for r in records):
        mine = [r for r in records if r.check_name == name]
        worst = max(mine, key=lambda r: r.residual)
        checks.append((f"{name} {worst.residual:.2e} vs tol {worst.tolerance:.0e}",
                       all(r.passed for r in mine)))
    elapsed = sum(r.elapsed_ms for r in records) / 1000
    if seconds is not None:
        checks.append((f"{elapsed:.1f}s < {seconds}s", elapsed < seconds))
    failed = [label for label, ok in checks if not ok]
    print(f"ACCEPTANCE {tag}: {'FAIL' if failed else 'PASS'} ({'; '.join(l for l, _ in checks)})")
    assert not failed, f"{tag}: {failed}"


def test_01_hurwitz_cross_check():
    (rec,) = _records("dirichlet", "hurwitz_formula_cross_check")
    max_n = rec.parameters["max_n"]
    _accept("#1 hurwitz-cross-check", [rec], 60, [(f"exact for N <= {max_n}", max_n >= 5000)])


def test_02_dirichlet_series_closed_forms():
    recs = _records("dirichlet", "dirichlet_series_closed_form", "dirichlet_series_vanishing")
    tail = max(r.parameters["tail_bound"] for r in recs)
    _accept("#2 dirichlet-closed-forms", recs, 120, [(f"tail {tail:.1e} <= 1e-2", tail <= 1e-2)])


def test_02b_cohen_consistency():
    _accept("#2b cohen-consistency", _records("dirichlet", "cohen_class_number_analytic"))


def test_03_shadow_identity_fd():
    (pi_free,) = _records("shadow", "shadow_fd_theta_over_16")
    closest, oracle = pi_free.parameters["closest"], -1 / SHADOW_CONSTANT
    # the pi-free record carries the FD loop both records read
    (pi_normed,) = _records("shadow", "shadow_fd_theta_over_16pi")
    seconds = (pi_free.elapsed_ms + pi_normed.elapsed_ms) / 1000
    _accept("#3 shadow-fd-vs-theta/(16 pi)", [pi_normed], extra=[
        (f"mpmath 16 pi {oracle:.15g}", abs(oracle - SHADOW_DENOMINATOR) <= 1e-12 * oracle),
        (f"-Theta/16 misses by >= {closest:.2e} > 1e-2", not pi_free.passed and closest > 1e-2),
        (f"FD loop {seconds:.1f}s < 30s", seconds < 30)])


def test_03b_shadow_identity_fd_detected_constant():
    _accept("#3b shadow-fd-vs-theta/(16 pi)", _records("shadow", "shadow_fd_theta_over_16pi"))


def test_04_shadow_analytic_stream():
    (pi_free,) = _records("shadow", "shadow_analytic_theta_over_16")
    _accept("#4 shadow-analytic-vs-theta/(16 pi)",
            _records("shadow", "shadow_analytic_theta_over_16pi"),
            extra=[("-Theta/16 stream fails", not pi_free.passed)])


def test_04b_shadow_analytic_detected_stream():
    (rec,) = _records("shadow", "shadow_analytic_theta_over_16pi")
    _accept("#4b shadow-analytic-vs-theta/(16 pi)", [rec], extra=[
        (f"exact to q^{rec.parameters['max_exponent']}",
         rec.tolerance == 0.0 and rec.parameters["max_exponent"] >= 400)])


def test_05_harmonicity():
    _accept("#5 harmonicity", _records("laplacian", "harmonicity"))


def test_06_modularity():
    _accept("#6 modularity", _records("modularity", "eisenstein_transformation",
                                      "completed_series_transformation"), 60)


def test_07_dual_route():
    _accept("#7 dual-route",
            _records("fourier", "eisenstein_dual_route", "cohen_q_expansion_match"))


def test_08_coefficient_limits():
    _accept("#8 coefficient-limits",
            _records("limits", "coefficient_limit", "constant_term_u_average"))


def test_09_multiplier_identities():
    _accept("#9 multiplier-identities", list(_suite("multiplier")))


def test_10_weight_two_warm_up():
    _accept("#10 weight-two-inversion", _records("modularity", "weight_two_inversion"))


def test_verify_all_matches_benchmark_reference(monkeypatch, capsys):
    # the benchmark's verify workload accepts exactly these names, failures and exit code
    ref = json.loads(REFERENCE.read_text())["full"]["verify"]
    assert (ref["suite"], ref["seed"]) == ("all", DEFAULT_SEED)
    monkeypatch.setattr(cli, "run_suite", lambda *_: [r for s in SUITES for r in _suite(s)])
    rc = cli.main(["verify", "--suite", "all", "--format", "json"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["check_name"] for r in results] == ref["checks"]
    assert sorted(r["check_name"] for r in results if not r["passed"]) == sorted(ref["failing"])
    assert rc == ref["exit_code"] == 2
    # every record, bit for bit (elapsed_ms aside)
    records = [[r.check_name, r.parameters, r.residual, r.tolerance, r.passed]
               for s in SUITES for r in _suite(s)]
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() == (
        "85c926e99708070fc5a5761c221cfbb5a0a2f3c347c747bc47e90fc625ebdbf4")
