"""mockform benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

Run it from the root of a mockform checkout; mockform is imported from
``src/`` as it stands.  One caller in one process at a time (closed loop),
BLAS threads pinned to 1.  Every process that runs mockform is a fresh
``worker.py`` interpreter, timed from outside.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same work runs once untraced and once under the layer tracer, and the
metrics are the per-layer ones.  The exit code is 0 when every output is
correct, 1 when one is not, and 2 when the benchmark cannot run at all.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from array import array
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracer import PER_LAYER, layer_metrics
from worker import IMPORT_TAG

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORK_DIR = ".perfbench_work"          # under the checkout root; see .gitignore
CHILD_TIMEOUT_S = 170

# Gated by their bounds in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("cold_s", "s"),
              ("latency_p90_ms", "ms"))

# Reported but not gated: on a host whose CPU speed switches between two
# modes, a run's latencies are bimodal, and their p10, median and mean
# follow the share of time spent in the slow mode, so they spread more
# between runs than any bound allows.  p90 stays inside the slow mode.
# See README.md.
REPORTED = (("latency_p10_ms", "ms"), ("latency_p50_ms", "ms"), ("items_per_s", "1/s"))

# The names the workload-specific metrics go by, printed as report lines.
ALIASES = {
    "table": (("cache_miss_s", "cold_s", 1.0, "s"), ("cache_hit_s", "latency_p50_ms", 1e-3, "s")),
    "verify": (("wall_s", "cold_s", 1.0, "s"),),
}


class BenchError(RuntimeError):
    """The benchmark cannot run: no mockform to run, or a worker died."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 1]) of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


class Bench:
    """State of one run: environment, work directory, samples and the gate."""

    def __init__(self, root: Path, size_name: str, fault: str | None):
        self.root = root
        self.size = wl.SIZES[size_name]
        self.ref = wl.load_reference(size_name)
        self.fault = fault
        (root / WORK_DIR).mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORK_DIR))
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("MOCKFORM_CACHE", "PYTHONPATH")}
        self.env.update(PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                        MOCKFORM_CACHE=str(self.work / "mockform-cache.txt"))
        self.setup = []          # `import mockform` seconds, one per fresh process
        self.attempted = 0
        self.failed = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def check(self, ok: bool, times: int = 1) -> None:
        self.attempted += times
        self.failed += 0 if ok else times

    def inject(self, kind: str, output):
        """Corrupt the first output of the given kind (self-test fault injection)."""
        if self.fault != kind:
            return output
        self.fault = None
        if kind == "csv_line":       # H(7) = 1 becomes 11
            lines = output.splitlines(keepends=True)
            lines[8] = lines[8].replace(",", ",1", 1)
            return "".join(lines)
        if kind == "passed_flag":
            payload = json.loads(output)
            payload["results"][0]["passed"] = not payload["results"][0]["passed"]
            return json.dumps(payload)
        raise ValueError(f"unknown fault {kind!r}")

    def _spawn(self, args: list[str]) -> tuple[int, str, float]:
        start = perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=self.root,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {args[:2]} timed out") from exc
        wall = perf_counter() - start
        tail = proc.stderr.strip().rsplit("\n", 1)[-1]
        if not tail.startswith(IMPORT_TAG):
            raise BenchError(f"worker {args[:2]} failed (exit {proc.returncode}):\n"
                             + proc.stderr[-2000:])
        self.setup.append(float(tail.split()[1]))
        return proc.returncode, proc.stdout, wall

    def launch(self, argv: list[str]) -> tuple[int, str, float]:
        """One `mockform <argv>` invocation in a fresh process: (exit code, stdout, wall s)."""
        return self._spawn(["cli", *argv])

    def batch(self, spec: dict) -> dict:
        """Run a batch spec in a fresh worker; return its result with its latencies.

        Request outputs are checked in the worker; CLI outputs are checked here.
        """
        spec_path, out_path = self.work / "spec.json", self.work / "out.json"
        if self.fault == "eval" and "requests" in spec:
            spec, self.fault = dict(spec, fault="eval"), None
        spec_path.write_text(json.dumps(spec))
        rc, _, _ = self._spawn(["batch", str(spec_path), str(out_path)])
        if rc != 0:
            raise BenchError(f"batch worker exited {rc}")
        res = json.loads(out_path.read_text())
        res["latencies"] = array("d", Path(f"{out_path}.latencies").read_bytes())
        check_cli = self.check_table if spec["workload"] == "table" else self.check_verify
        for rc, out, times in res["cli_outputs"]:
            check_cli(rc, out, times)
        if "requests" in spec:
            self.attempted += res["count"]
            self.failed += res["failed"]
        return res

    def probe_setup(self) -> None:
        """Top up the `import mockform` samples with import-only processes."""
        while len(self.setup) < self.size["setup_probes"]:
            self._spawn(["import"])

    def check_table(self, rc: int, stdout: str, times: int = 1) -> None:
        self.check(wl.check_table(rc, self.inject("csv_line", stdout), self.ref["table"]), times)

    def check_verify(self, rc: int, stdout: str, times: int = 1) -> None:
        self.check(wl.check_verify(rc, self.inject("passed_flag", stdout), self.ref["verify"]),
                   times)


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics.


def _table_argv(b: Bench) -> list[str]:
    return ["hurwitz", "--max", str(b.size["table_max_n"]),
            "--cache", str(b.work / "hurwitz-table.txt"), "--format", "csv"]


def _verify_argv(b: Bench, seed: int) -> list[str]:
    return ["verify", "--suite", b.size["verify_suite"], "--format", "json", "--seed", str(seed)]


def run_table(b: Bench, deadline: float) -> dict:
    """Cache misses as fresh processes, then in-process hits for the rest of the time.

    Each miss starts with no cache file and builds, cross-checks and writes
    the table.  The hits repeat the same command with the file present in
    one worker, so that each is timed without interpreter start and import,
    which `setup_s` reports.
    """
    argv = _table_argv(b)
    cache_file = Path(argv[4])
    misses_until = perf_counter() + b.size["table_miss_share"] * (deadline - perf_counter())
    cold = []
    while not cold or perf_counter() + cold[-1] <= misses_until:
        cache_file.unlink(missing_ok=True)
        rc, out, wall = b.launch(argv)
        cold.append(wall)
        b.check_table(rc, out)
    res = b.batch({"workload": "table", "argvs": [argv], "min_count": b.size["min_requests"],
                   "seconds": max(1.0, deadline - perf_counter() - median(b.setup))})
    return {"cold": cold, "warm": res["latencies"], "warm_wall": res["wall_s"]}


def run_verify(b: Bench, seed: int, deadline: float) -> dict:
    """`mockform verify` in fresh processes: every request is cold."""
    runs = []
    while True:
        rc, out, wall = b.launch(_verify_argv(b, seed))
        runs.append(wall)
        b.check_verify(rc, out)
        if perf_counter() + wall > deadline:
            break
    return {"cold": runs, "warm": runs, "warm_wall": sum(runs)}


def run_requests(b: Bench, workload: str, seed: int, deadline: float) -> dict:
    """One-shot `mockform eval` processes, then a timed in-process request loop."""
    cold = []
    for argv in wl.cold_argvs(workload, seed, b.size):
        rc, out, wall = b.launch(argv)
        cold.append(wall)
        b.check(wl.check_eval_json(workload, rc, out))
    requests = wl.make_requests(workload, seed, b.size["pool"][workload])
    loop_s = max(1.0, deadline - perf_counter() - median(b.setup))
    res = b.batch({"workload": workload, "requests": requests, "seconds": loop_s,
                   "min_count": b.size["min_requests"]})
    return {"cold": cold, "warm": res["latencies"], "warm_wall": res["wall_s"]}


def untraced_metrics(b: Bench, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Measure for about `seconds`: no request starts that would clearly end late."""
    deadline = perf_counter() + seconds
    if workload == "table":
        s = run_table(b, deadline)
    elif workload == "verify":
        s = run_verify(b, seed, deadline)
    else:
        s = run_requests(b, workload, seed, deadline)
    b.probe_setup()
    values = {
        "setup_s": median(b.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "cold_s": median(s["cold"]),
        "latency_p10_ms": 1e3 * percentile(s["warm"], 0.1),
        "latency_p50_ms": 1e3 * median(s["warm"]),
        "latency_p90_ms": 1e3 * percentile(s["warm"], 0.9),
        "items_per_s": len(s["warm"]) / s["warm_wall"],
    }
    counts = {"setup": len(b.setup), "cold": len(s["cold"]), "warm": len(s["warm"])}
    return values, counts


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics.


def traced_metrics(b: Bench, workload: str, seed: int) -> tuple[dict, dict]:
    """The same fixed work, untraced then traced, each in a fresh worker."""
    if workload == "table":        # one cache miss, then hits
        argvs = [_table_argv(b)] * (1 + b.size["traced_table_hits"])
        spec = {"argvs": argvs, "count": len(argvs)}
    elif workload == "verify":
        spec = {"argvs": [_verify_argv(b, seed)], "count": 1}
    else:
        spec = {"requests": wl.make_requests(workload, seed, b.size["pool"][workload]),
                "count": b.size["traced_requests"][workload]}
    spec["workload"] = workload

    results = []
    for trace in (False, True):
        if workload == "table":
            Path(_table_argv(b)[4]).unlink(missing_ok=True)
        spans = b.root / WORK_DIR / f"spans-{workload}.jsonl"
        results.append(b.batch(dict(spec, trace=trace, spans_path=str(spans))))
    untraced, traced = results
    values = layer_metrics(traced["trace"], traced["wall_s"], untraced["wall_s"])
    counts = {"requests": traced["count"], "untraced_wall_s": untraced["wall_s"],
              "spans": traced["trace"]["spans"],
              "dropped_spans": traced["trace"]["dropped_spans"]}
    return values, counts


# ---------------------------------------------------------------------------


def environment() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"python={platform.python_version()} numpy={metadata.version('numpy')} "
            f"scipy={metadata.version('scipy')} nproc={len(os.sched_getaffinity(0))} "
            f"cpu={cpu!r} blas_threads=1")


def _parse(argv):
    p = argparse.ArgumentParser(description="mockform benchmark")
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, size: str = "full", fault: str | None = None) -> int:
    """Run one benchmark invocation; ``size`` and ``fault`` serve the self-test."""
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "mockform" / "__init__.py").is_file():
        print(f"perfbench: no mockform sources under {root / 'src'}", file=sys.stderr)
        return 2
    b = Bench(root, size, fault)
    try:
        if args.trace:
            values, counts = traced_metrics(b, args.workload, args.seed)
            names = PER_LAYER
        else:
            values, counts = untraced_metrics(b, args.workload, args.seed, args.seconds)
            names = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        b.close()

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={size}")
    print(f"env {environment()}")
    print("samples " + " ".join(f"{k}={v:g}" for k, v in counts.items()))
    for name, unit in names + (() if args.trace else REPORTED):
        print(f"metric {name} = {values[name]:.6g} {unit}")
    for alias, name, scale, unit in ([] if args.trace else ALIASES.get(args.workload, ())):
        print(f"metric {alias} = {values[name] * scale:.6g} {unit}")
    print(f"metric fail_ratio = {b.failed / max(b.attempted, 1):.6g} ratio "
          f"({b.failed}/{b.attempted})")
    correct = b.attempted > 0 and b.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
