"""The CLI contract over sampled argv, run in-process through main(argv).

Every run exits 0, 1 or 2 and prints no traceback.  A nonzero exit leaves
stdout empty, with one `mockform:` line on stderr, or argparse's usage and
its error line.  Exit 0 prints only finite numbers and raises no warning.

Not asserted yet: that an `eisenstein` run's route_difference stays within
lattice_tail_bound + fourier_bound.  Neither bound counts the rounding of its
route's sums and coefficients, so the clause waits until they do.
"""

import contextlib
import io
import math
import re
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from mockform.cli import main
from mockform.config import MAX_TABLE_N

_NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse, and the refusals of --tau and the config
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        lines = err.splitlines()
        assert out == "", (argv, out)
        assert (len(lines) == 1 and lines[0].startswith("mockform: ")
                or lines[0].startswith("usage: mockform") and re.match(r"mockform \w+: error: ", lines[-1])), \
            (argv, err)
    else:
        assert not _NON_FINITE.search(out), (argv, out)
        assert not caught, (argv, [str(w.message) for w in caught])


def _option(name, values):
    """[] or [name, value]: the option left out, or given one of the values."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda value: [name, str(value)]))


_EXTREMES = (5e-324, 1e-300, 1e-9, 2.55e-5, 1e-3, 0.02, 0.049, 0.05, 1e300, 4.5e307, 1e308,
             1.7976931348623157e308)


@st.composite
def _eval_argv(draw):
    # most draws are well-formed, so that most runs reach the evaluators; the last
    # entry of each option list, and one --tau in four, is a usage error
    target = draw(st.sampled_from(["H", "theta", "e2star", "eisenstein"]))
    u = draw(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([1e6, -1e9, 3.84e295, -1.7976931348623157e308])))
    heights = st.floats(0.01, 1e3) if target == "eisenstein" else st.floats(0.01, 1e6)
    v = draw(st.one_of(st.sampled_from(_EXTREMES), heights))
    tau = draw(st.one_of(st.just(f"{u!r},{v!r}"), st.just(f"{u!r},{v!r}"), st.just(f"{u!r},{v!r}"),
                         st.sampled_from(["0,0", "0,-1", "0,nan", "inf,1", "1", "x,1"])))
    argv = ["eval", "--target", target, f"--tau={tau}"]     # "--tau -0.3,1" reads -0.3,1 as an option
    argv += draw(_option("--k", [-2, 0, 1, 2, 3, 6, 120, 130, 131, 200]))
    argv += draw(_option("--s", [0.0, 1e-12, 0.25, 0.5, 1.0, 2.5, 150.0, 1e3, -0.25, math.nan]))
    argv += draw(_option("--lattice-bound", [1, 3, 51, 301, 2]))
    argv += draw(_option("--quad-tol", [1e-300, 1e-14, 1e-6, 1.0, 1e10, 1e-320]))
    return argv + draw(_option("--format", ["json", "text"]))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(argv=_eval_argv())
# found by a wider random run: the lattice value of H, and the Fourier route, left the
# float range and printed inf or nan with exit 0
@example(argv=["eval", "--target", "eisenstein", "--tau=0.25,0.02", "--k", "120", "--s", "0.0"])
@example(argv=["eval", "--target", "eisenstein", "--tau=0.5,0.1", "--k", "130", "--s", "0.0"])
# the Fourier route at |h| <= 40 printed route_difference 84.0 with exit 0; it now needs more
# than 400 terms a side and refuses
@example(argv=["eval", "--target", "eisenstein", "--tau=0.1,0.02", "--k", "1", "--s", "1"])
# H summed E's whole disc (7.9 s) before refusing F's overflow; it now sums F first
@example(argv=["eval", "--target", "eisenstein", "--tau=0.37,1000", "--k", "1", "--s", "150"])
def test_eval_keeps_the_cli_contract(argv):
    _assert_contract(argv)


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache") / "rows.npy")


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(max_n=st.sampled_from([-5, -1, 0, 1, 2, 3, 4, 10, 100, 3000, MAX_TABLE_N + 1, 10 ** 9]),
       fmt=_option("--format", ["csv", "json"]),
       cache=st.sampled_from(["none", "read", "rebuild"]))
def test_hurwitz_keeps_the_cli_contract(cache_file, max_n, fmt, cache):
    where = {"none": ["--no-cache"], "read": ["--cache", cache_file],
             "rebuild": ["--cache", cache_file, "--rebuild-cache"]}[cache]
    _assert_contract(["hurwitz", "--max", str(max_n)] + fmt + where)


@pytest.mark.parametrize("argv", [
    ["verify", "--lattice-bound", "2"],
    ["verify", "--quad-tol", "1e-320"],
    ["verify", "--seed", "-1"],
    ["verify", "--suite", "bogus"],
    ["verify", "--suite", "all", "--quad-tol", "1e-300"],      # the Omega quadrature cannot certify it
])
def test_verify_refuses_a_bad_config_within_the_cli_contract(argv):
    _assert_contract(argv)
