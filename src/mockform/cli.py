"""Command line interface.

    mockform hurwitz --max 100 --format csv
    mockform eval --target H --tau 0,1.2
    mockform verify --suite all --format json

Exit codes: 0 success, 1 usage error, 2 check, convergence or domain failure.
Tables and verification reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields

from .cache import default_cache_path, load_or_build
from .class_numbers import build_table
from .config import DEFAULT_CONFIG, EvalConfig
from .eisenstein import eisenstein_direct, eisenstein_fourier
from .maass import completed_hurwitz_series, e2_star, theta_series
from .special_functions import QuadratureError
from .verify import DEFAULT_SEED, SUITES, run_suite


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # failed checks, so usage problems map to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache                # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mockform",
                     description="Hurwitz class numbers and the weight 3/2 "
                                 "mock modular form, numerically certified.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_h = sub.add_parser("hurwitz", help="tabulate Hurwitz class numbers")
    p_h.add_argument("--max", type=int, required=True, dest="max_n",
                     help="largest n in the table (n >= 0)")
    p_h.add_argument("--format", choices=("json", "csv"), default="csv")
    p_h.add_argument("--cache", default=None,
                     help="cache file (default: MOCKFORM_CACHE or ~/.cache/mockform)")
    p_h.add_argument("--no-cache", action="store_true", help="do not read or write a cache")
    p_h.add_argument("--rebuild-cache", action="store_true",
                     help="recompute the table even if a cache exists")

    p_e = sub.add_parser("eval", help="evaluate a series at a point")
    p_e.add_argument("--target", choices=("H", "theta", "e2star", "eisenstein"),
                     required=True)
    p_e.add_argument("--tau", required=True, help="point u,v with v > 0")
    p_e.add_argument("--k", type=int, default=2, help="integer k in weight k+1/2")
    p_e.add_argument("--s", type=float, default=1.0, help="nonholomorphic shift s")
    p_e.add_argument("--format", choices=("json", "text"), default="text")
    _add_config_flags(p_e)

    p_v = sub.add_parser("verify", help="run a verification suite")
    p_v.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_v.add_argument("--format", choices=("json", "text"), default="text")
    p_v.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"PRNG seed for random-matrix checks (default {DEFAULT_SEED})")
    _add_config_flags(p_v)
    return parser


def _add_config_flags(p):
    for field in fields(EvalConfig):
        p.add_argument("--" + field.name.replace("_", "-"), type=type(field.default), default=None)


def _config_from(args):
    overrides = {field.name: getattr(args, field.name) for field in fields(EvalConfig)
                 if getattr(args, field.name) is not None}
    try:
        return DEFAULT_CONFIG.with_(**overrides) if overrides else DEFAULT_CONFIG
    except ValueError as exc:
        raise SystemExit(_fail(1, f"bad configuration: {exc}"))


def _parse_tau(text: str) -> complex:
    try:
        u_str, v_str = text.split(",")
        tau = complex(float(u_str), float(v_str))
    except ValueError:
        raise SystemExit(_fail(1, f"cannot parse --tau {text!r}; expected u,v"))
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise SystemExit(_fail(1, f"--tau needs finite u and v, got {text!r}"))
    if tau.imag <= 0:
        raise SystemExit(_fail(1, f"--tau needs v > 0, got {tau.imag}"))
    return tau


def _fail(code: int, message: str) -> int:
    print(f"mockform: {message}", file=sys.stderr)
    return code


def _cmd_hurwitz(args) -> int:
    if args.max_n < 0:
        return _fail(1, "--max must be >= 0")
    path = None if args.no_cache else args.cache or default_cache_path()
    try:
        table = build_table(args.max_n) if path is None else load_or_build(path, args.max_n, args.rebuild_cache)
    except (ValueError, ArithmeticError) as exc:   # CacheError is a ValueError
        return _fail(2, str(exc))
    except OSError as exc:                          # a read error would be a CacheError
        return _fail(2, f"cannot write cache file {path}: {exc}")
    rows = table.lowest_terms(args.max_n)
    if args.format == "csv":
        print("n,H(n)" + "\n%d,%d/%d" * len(rows) % tuple(rows.ravel().tolist()))
    else:       # the text json.dumps(payload, indent=2) gives, without its pure-Python encoder
        row = '\n    {\n      "n": %d,\n      "value": "%d/%d"\n    }'
        print('{\n  "command": "hurwitz",\n  "params": {\n    "max_n": %d\n  },\n  "results": [' % args.max_n
              + ",".join([row] * len(rows)) % tuple(rows.ravel().tolist())
              + '\n  ],\n  "summary": {\n    "entries": %d\n  }\n}' % len(rows))
    return 0


def _cmd_eval(args) -> int:
    cfg = _config_from(args)
    tau = _parse_tau(args.tau)
    if not math.isfinite(args.s):
        return _fail(1, f"--s needs a finite value, got {args.s}")
    record: dict = {"target": args.target, "tau": [tau.real, tau.imag]}
    try:
        if args.target == "eisenstein":
            value = eisenstein_direct("H", args.k, args.s, tau, cfg)
            fourier = eisenstein_fourier(args.k, args.s, tau, cfg)
            record.update(k=args.k, s=args.s, value=_c(value), lattice_tail_bound=value.bound,
                          terms=value.terms, fourier_value=_c(fourier),
                          route_difference=abs(value - fourier))
        elif args.target == "H":
            parts = completed_hurwitz_series(tau, cfg)
            value = parts.value
            record.update(value=_c(value), holomorphic_part=_c(parts.holomorphic_part),
                          nonholomorphic_part=_c(parts.nonholomorphic_part),
                          truncation_tail=value.bound, terms=value.terms)
        else:
            value = (theta_series if args.target == "theta" else e2_star)(tau, cfg)
            record.update(value=_c(value), truncation_tail=value.bound, terms=value.terms)
    except ValueError as exc:
        return _fail(2, f"evaluation outside the convergence domain: {exc}")
    except OverflowError as exc:
        return _fail(2, f"evaluation overflows a float: {exc}")
    except QuadratureError as exc:
        return _fail(2, str(exc))
    if args.format == "json":
        print(json.dumps({"command": "eval", "params": record.copy(),
                          "results": [record], "summary": {"entries": 1}}, indent=2))
    else:
        for key, value in record.items():
            print(f"{key}: {value}")
    return 0


def _c(z: complex):
    return [z.real, z.imag]


def _cmd_verify(args) -> int:
    cfg = _config_from(args)
    if args.seed < 0:
        return _fail(1, f"--seed must be >= 0, got {args.seed}")
    try:
        records = run_suite(args.suite, cfg, args.seed)
    except ValueError as exc:
        return _fail(2, f"check outside the convergence domain: {exc}")
    except QuadratureError as exc:
        return _fail(2, str(exc))
    n_passed = sum(r.passed for r in records)
    if args.format == "json":
        payload = {
            "command": "verify",
            "params": {"suite": args.suite, "seed": args.seed},
            "results": [r.as_dict() for r in records],
            "summary": {"total": len(records), "passed": n_passed,
                        "failed": len(records) - n_passed},
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in records:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.check_name} {r.parameters} "
                  f"residual={r.residual:.3e} tol={r.tolerance:.1e} ({r.elapsed_ms:.1f} ms)")
        print(f"{n_passed}/{len(records)} checks passed")
    return 0 if n_passed == len(records) else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"hurwitz": _cmd_hurwitz, "eval": _cmd_eval, "verify": _cmd_verify}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
