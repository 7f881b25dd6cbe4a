"""Fresh-process worker: everything that runs mockform runs in one of these.

    python3 worker.py import                     time `import mockform`, nothing else
    python3 worker.py cli <mockform args...>     one CLI invocation, as `mockform ...`
    python3 worker.py batch <spec.json> <out.json>
                                                 a timed batch of in-process calls;
                                                 latencies go to <out.json>.latencies

Every mode first times `import mockform` in this fresh interpreter and
reports it on the last line of stderr.  The `cli` mode leaves the command's
stdout and exit code untouched.  A batch serves seeded requests or CLI
command lines in-process, timing each from outside, optionally under the
layer tracer; it checks request outputs itself and writes the failures,
the CLI outputs and the trace summary as JSON.
"""

import sys
from time import perf_counter

IMPORT_TAG = "perfbench-import-s"


def _import_mockform() -> float:
    start = perf_counter()
    import mockform  # noqa: F401
    return perf_counter() - start


def _request_call(workload: str, req: dict):
    """A zero-argument callable serving one request; names are looked up at call time."""
    import math

    from mockform import eisenstein, maass

    tau = complex(*req["tau"])
    if workload == "eisenstein":
        k, s = req["k"], req["s"]

        def serve():
            d = eisenstein.eisenstein_direct("H", k, s, tau)
            f = eisenstein.eisenstein_fourier(k, s, tau)
            return [d.real, d.imag, f.real, f.imag]
        return serve

    def completed(t):
        return maass.completed_hurwitz_series(t).value

    kind = req["kind"]
    if kind == "law":
        g = eisenstein.Gamma04Matrix(*req["g"])
        return lambda: eisenstein.modularity_residual(completed, 1, 0.0, g, tau)
    if kind == "laplacian":
        return lambda: abs(maass.laplacian_fd(completed, 1.5, tau))
    return lambda: abs(maass.xi_shadow_fd(completed, 1.5, tau)
                       + maass.theta_series(tau) / (16.0 * math.pi))


def _cli_call(argv: list):
    import contextlib
    import io

    import mockform.cli

    def serve():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = mockform.cli.main(argv)
        return [rc, buf.getvalue()]
    return serve


def _perturb(out):
    """The self-test's faulty evaluation: Fourier route off by 1%, or a residual far off."""
    if isinstance(out, list):
        return out[:2] + [x * 1.01 for x in out[2:]]
    return out * 1e6 + 1e-3


def _batch(spec: dict, latency_path: str) -> dict:
    """Serve the batch; latencies go to latency_path as raw doubles.

    Outputs are checked (requests) or tallied by distinct value (CLI runs)
    as they arrive, so that the worker's memory does not grow with its
    throughput beyond 8 bytes of latency per call.
    """
    from array import array

    import workloads as wl

    workload = spec["workload"]
    if "argvs" in spec:
        requests = None
        calls = [_cli_call(argv) for argv in spec["argvs"]]
    else:
        requests = spec["requests"]
        calls = [_request_call(workload, req) for req in requests]
    count, seconds, min_count = spec.get("count"), spec.get("seconds"), spec.get("min_count", 1)
    perturb = spec.get("fault") == "eval"

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer().install()

    latencies, cli_outputs, failed = array("d"), {}, 0
    start = perf_counter()
    i = 0
    while (i < count if count is not None
           else i < min_count or perf_counter() - start < seconds):
        if tracer is not None:
            tracer.request = i
        call = calls[i % len(calls)]
        t0 = perf_counter()
        out = call()
        latencies.append(perf_counter() - t0)
        if requests is None:
            key = tuple(out)
            cli_outputs[key] = cli_outputs.get(key, 0) + 1
        else:
            if perturb:
                out, perturb = _perturb(out), False
            if workload == "eisenstein":
                ok = wl.check_routes(complex(out[0], out[1]), complex(out[2], out[3]))
            else:
                ok = wl.check_certificate(requests[i % len(requests)]["kind"], out)
            failed += not ok
        i += 1
    wall = perf_counter() - start

    with open(latency_path, "wb") as fh:
        latencies.tofile(fh)
    result = {"wall_s": wall, "count": i, "failed": failed,
              "cli_outputs": [[rc, stdout, n] for (rc, stdout), n in cli_outputs.items()]}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans_path"])
    return result


def main(argv: list) -> int:
    import_s = _import_mockform()
    mode = argv[0] if argv else ""
    rc = 0
    if mode == "cli":
        import mockform.cli
        try:
            rc = mockform.cli.main(argv[1:])
        except SystemExit as exc:       # usage errors exit from inside the CLI
            rc = exc.code
        sys.stdout.flush()
    elif mode == "batch":
        import json
        with open(argv[1], encoding="utf-8") as fh:
            result = _batch(json.load(fh), argv[2] + ".latencies")
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    elif mode != "import":
        print(f"unknown worker mode {mode!r}", file=sys.stderr)
        return 1
    print(f"{IMPORT_TAG} {import_s!r}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
