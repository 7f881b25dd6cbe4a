"""Self-test of the benchmark itself (not of mockform).

    python3 perfbench/selftest.py        # from the checkout root, about a minute

1. A small-size run of every workload, untraced and traced, must pass its
   gate and print every metric name with its unit, both as report lines and
   in the final JSON line, matching BENCHMARK.json.
2. Fault injection: one altered CSV line (table), one flipped `passed` flag
   (verify) and one perturbed evaluation (eisenstein, completed) must each
   make the gate fail: one failed output, `correct` false, exit code 1.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   command exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads as wl

ROOT = Path.cwd()


def _run(workload: str, trace: int, fault: str | None = None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)], size="small", fault=fault)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def check_metric_names() -> list[str]:
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", tracer.PER_LAYER)):
        if [(m["name"], m["unit"]) for m in declared[key]] != list(names):
            problems.append(f"BENCHMARK.json {key} differs from the benchmark's metrics")
    for workload in wl.WORKLOADS:
        for trace, names, reported in ((0, run.END_TO_END, run.REPORTED),
                                       (1, tracer.PER_LAYER, ())):
            code, lines, result = _run(workload, trace)
            where = f"{workload} trace={trace}"
            if code != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: gate failed on correct outputs ({result})")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != dict(names):
                problems.append(f"{where}: result metrics {sorted(units)} are not as declared")
            for name, unit in names + reported:
                if not any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                           for line in lines):
                    problems.append(f"{where}: no report line for {name} [{unit}]")
            if not any(line.startswith("metric fail_ratio = ") for line in lines):
                problems.append(f"{where}: no fail_ratio line")
    return problems


def check_fault_injection() -> list[str]:
    problems = []
    for workload, fault in (("table", "csv_line"), ("verify", "passed_flag"),
                            ("eisenstein", "eval"), ("completed", "eval")):
        code, _, result = _run(workload, 0, fault)
        if code != 1 or result["correct"] or result["failed"] != 1:
            problems.append(f"{workload}: injected {fault} not caught "
                            f"(exit {code}, {result['failed']} failed)")
    return problems


def check_missing_program() -> list[str]:
    (ROOT / run.WORK_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / run.WORK_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    failures = 0
    for check in (check_metric_names, check_fault_injection, check_missing_program):
        problems = check()
        failures += bool(problems)
        print(f"[{'FAIL' if problems else 'PASS'}] {check.__name__}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
