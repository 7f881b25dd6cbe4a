"""Seeded inputs, sizes and output checks of the four benchmark workloads.

Pure standard library: run.py uses this module without importing
mockform, and the worker uses it to check request outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("table", "verify", "eisenstein", "completed")

# Sizes of one run.  "full" is what the benchmark measures; "small" is the
# self-test size, with its own exact-output references.
SIZES = {
    "full": {
        "table_max_n": 3000,      # cold build ~1.7 s beyond interpreter start
        "table_miss_share": 0.6,  # of the run's time spent on cache misses
        "verify_suite": "all",
        "cold_requests": 7,       # one-shot `mockform eval` processes
        "min_requests": 100,      # so that p90 has >= 10 samples beyond it
        "pool": {"eisenstein": 1024, "completed": 3072},
        "traced_requests": {"eisenstein": 100, "completed": 6000},
        "traced_table_hits": 3,
        "setup_probes": 5,        # fresh interpreters behind setup_s, at least
    },
    "small": {
        "table_max_n": 300,
        "table_miss_share": 0.5,
        "verify_suite": "shadow",
        "cold_requests": 1,
        "min_requests": 10,
        "pool": {"eisenstein": 32, "completed": 96},
        "traced_requests": {"eisenstein": 6, "completed": 60},
        "traced_table_hits": 1,
        "setup_probes": 2,
    },
}

# (k, s) pairs of H_{k+1/2,s}; each is inside both routes' convergence domain
EISENSTEIN_PAIRS = ((1, 1.0), (2, 1.0), (2, 0.5), (3, 0.25), (1, 0.75), (2, 0.25))
ROUTE_TOL = 5e-3                      # relative, as in `verify`'s dual-route check

# completed-series certifications and their acceptance tolerances
COMPLETED_TOL = {"law": 1e-6, "laplacian": 1e-4, "shadow": 1e-5}
COMPLETED_KINDS = ("law", "laplacian", "shadow")
V_FLOOR = 0.05                        # truncation floor of completed_hurwitz_series

# Gamma_0(4) generators T, L = (1,0;4,1) and their inverses, as (a, b, c, d)
_LETTERS = ((1, 1, 0, 1), (1, 0, 4, 1), (1, -1, 0, 1), (1, 0, -4, 1))
_MAX_WORD_LENGTH = 3
_TAU_TRIES_PER_WORD = 16
_MAX_WORDS = 1000

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _mul(g, h):
    a, b, c, d = g
    e, f, k, m = h
    return (a * e + b * k, a * f + b * m, c * e + d * k, c * f + d * m)


def _apply_imag(g, tau: complex) -> float:
    a, b, c, d = g
    return tau.imag / abs(c * tau + d) ** 2


def _law_request(rng: random.Random):
    """A short random Gamma_0(4) word and a tau with v >= V_FLOOR at tau and g tau.

    Long words push g tau towards the real axis, where rejection sampling
    stalls; so words stay short, each word gets a bounded number of tau
    draws, and a word whose draws all miss is replaced by a fresh one.
    """
    for _ in range(_MAX_WORDS):
        g = (1, 0, 0, 1)
        for _ in range(rng.randint(1, _MAX_WORD_LENGTH)):
            g = _mul(g, _LETTERS[rng.randrange(4)])
        if rng.random() < 0.5:
            g = tuple(-x for x in g)
        for _ in range(_TAU_TRIES_PER_WORD):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(V_FLOOR, 1.5))
            if min(tau.imag, _apply_imag(g, tau)) >= V_FLOOR:
                return {"kind": "law", "g": list(g), "tau": [tau.real, tau.imag]}
    raise RuntimeError("no admissible (word, tau) pair found")


def _completed_request(kind: str, rng: random.Random):
    if kind == "law":
        return _law_request(rng)
    lo, hi = (0.5, 2.0) if kind == "laplacian" else (0.3, 3.0)
    return {"kind": kind, "tau": [rng.uniform(-0.5, 0.5), rng.uniform(lo, hi)]}


def make_requests(workload: str, seed: int, count: int) -> list[dict]:
    """The seeded request pool of an in-process workload, in serving order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "eisenstein":
        return [{"k": k, "s": s, "tau": [rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.5)]}
                for k, s in (EISENSTEIN_PAIRS[i % len(EISENSTEIN_PAIRS)]
                             for i in range(count))]
    if workload == "completed":
        return [_completed_request(COMPLETED_KINDS[i % 3], rng) for i in range(count)]
    raise ValueError(f"{workload} has no in-process requests")


def cold_argvs(workload: str, seed: int, size: dict) -> list[list[str]]:
    """`mockform eval` command lines of the one-shot (fresh process) requests."""
    reqs = make_requests(workload, seed + 1_000_003, size["cold_requests"])
    if workload == "eisenstein":
        return [["eval", "--target", "eisenstein", "--k", str(r["k"]), "--s", repr(r["s"]),
                 "--tau=%r,%r" % tuple(r["tau"]), "--format", "json"] for r in reqs]
    # the CLI evaluates the completed series itself; any request kind gives a point
    return [["eval", "--target", "H", "--tau=%r,%r" % tuple(r["tau"]), "--format", "json"]
            for r in reqs]


# ---------------------------------------------------------------------------
# Output checks.  Each returns True when the output is correct.


def load_reference(size_name: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[size_name]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_table(rc: int, csv_text: str, ref: dict) -> bool:
    """Exit 0 and the CSV bit for bit as at the reference commit."""
    return rc == 0 and sha256_text(csv_text) == ref["csv_sha256"]


def check_verify(rc: int, stdout: str, ref: dict) -> bool:
    """Expected exit code, every check present, and exactly the expected ones failing."""
    if rc != ref["exit_code"]:
        return False
    try:
        results = json.loads(stdout)["results"]
        names = [r["check_name"] for r in results]
        failing = sorted(r["check_name"] for r in results if not r["passed"])
    except (ValueError, KeyError, TypeError):
        return False
    return names == ref["checks"] and failing == sorted(ref["failing"])


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def check_routes(direct: complex, fourier: complex) -> bool:
    """Both routes finite and agreeing to ROUTE_TOL relative."""
    return (_finite(direct) and _finite(fourier) and direct != 0
            and abs(direct - fourier) / abs(direct) <= ROUTE_TOL)


def check_certificate(kind: str, residual: float) -> bool:
    return math.isfinite(residual) and residual <= COMPLETED_TOL[kind]


def check_eval_json(workload: str, rc: int, stdout: str) -> bool:
    """One-shot `mockform eval`: routes agree (eisenstein), or parts add up (H)."""
    if rc != 0:
        return False
    try:
        rec = json.loads(stdout)["results"][0]
        value = complex(*rec["value"])
        if workload == "eisenstein":
            return check_routes(value, complex(*rec["fourier_value"]))
        parts = complex(*rec["holomorphic_part"]) + complex(*rec["nonholomorphic_part"])
        tail = float(rec["truncation_tail"])
    except (ValueError, KeyError, TypeError, IndexError):
        return False
    return (_finite(value) and 0 <= tail <= 1e-8
            and abs(value - parts) <= 1e-12 * max(1.0, abs(value)))

