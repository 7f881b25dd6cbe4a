"""Regenerate reference.json, the exact outputs the correctness gate expects.

    python3 perfbench/make_reference.py        # from the checkout root

For each size: the SHA-256 of the `mockform hurwitz` CSV at that size's N,
and the `mockform verify` outcome (exit code, check names in order, and the
checks expected to fail).  Regenerate only at a commit whose outputs are
known to be right; the benchmark then holds every later commit to them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl

VERIFY_SEED = 12345


def _mockform(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "mockform", *argv], env=env,
                          capture_output=True, text=True, check=False)


def main() -> int:
    root = Path.cwd()
    (root / ".perfbench_work").mkdir(exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=root / ".perfbench_work") as tmp:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   MOCKFORM_CACHE=str(Path(tmp) / "cache.txt"))
        for name, size in wl.SIZES.items():
            n = size["table_max_n"]
            table = _mockform(["hurwitz", "--max", str(n), "--cache",
                               str(Path(tmp) / f"table-{n}.txt"), "--format", "csv"], env)
            if table.returncode != 0:
                print(table.stderr, file=sys.stderr)
                return 1
            verify = _mockform(["verify", "--suite", size["verify_suite"], "--format", "json",
                                "--seed", str(VERIFY_SEED)], env)
            results = json.loads(verify.stdout)["results"]
            reference[name] = {
                "table": {"max_n": n, "csv_sha256": wl.sha256_text(table.stdout)},
                "verify": {
                    "suite": size["verify_suite"],
                    "seed": VERIFY_SEED,
                    "exit_code": verify.returncode,
                    "checks": [r["check_name"] for r in results],
                    "failing": [r["check_name"] for r in results if not r["passed"]],
                },
            }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
