"""Layer tracer that wraps mockform's public functions from outside.

Installing a Tracer replaces every public function (and
``QuadraticCharacter.__call__``) of each layer module with a timing wrapper,
in every mockform namespace that binds it, so calls between modules pass
through the wrappers.  Nothing under ``src/`` is edited; ``uninstall``
restores the originals.

Each wrapped call pushes a frame.  On return its duration is added to its
parent's child time, and duration minus child time is added to its layer's
self time, so the layers' self times partition the time spent inside
mockform.  Ordinary calls are also recorded as spans (name, start, end,
parent, request id) kept in memory.  Leaf functions called 1e5+ times in a
single run are counted and timed in aggregate only, because a span each
would cost more memory and time than the call itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("arithmetic", "characters", "class_numbers", "dirichlet_series",
          "special_functions", "eisenstein", "maass", "cache", "cli", "verify")

# Namespaces that may bind a layer's functions (``config`` holds none but
# is imported by all; ``__main__`` is left out because importing it runs the CLI).
NAMESPACES = ("mockform", "mockform.config") + tuple(f"mockform.{m}" for m in LAYERS)

# Leaf calls made 1e5+ times in one run of some workload: aggregated, not spanned.
AGGREGATED = frozenset({
    "arithmetic.kronecker_symbol",
    "arithmetic.bernoulli_number",
    "arithmetic.moebius",
    "arithmetic.divisors",
    "characters.QuadraticCharacter.__call__",
    "class_numbers.hurwitz_class_number",
    "special_functions.upper_incomplete_gamma",
    "special_functions.erfc_scalar",
})

MAX_SPANS = 2_000_000   # memory guard; further spans are counted as dropped


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.inclusive_s = defaultdict(float)   # outermost calls only
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.spans = []          # (id, parent id, request id, name, start, end)
        self.dropped_spans = 0
        self.cache_bytes = 0
        self.request = 0
        self._stack = []         # frames: [child seconds, span id]
        self._patches = []       # (object, attribute, original)
        self._originals = {}
        self._hurwitz_info0 = None

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [importlib.import_module(name) for name in NAMESPACES]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mockform.{layer}")
            for name, obj in vars(module).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                self._originals[f"{layer}.{name}"] = obj
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, name, wrappers[id(obj)])

        characters = importlib.import_module("mockform.characters")
        qc = characters.QuadraticCharacter
        self._patch(qc, "__call__", self._wrap(
            qc.__call__, "characters.QuadraticCharacter.__call__", "characters"))

        special = importlib.import_module("mockform.special_functions")
        self._patch(special, "quad", self._counted(special.quad, "special_functions.quad"))

        self._hurwitz_info0 = self._hurwitz_info()
        return self

    def _hurwitz_info(self):
        return self._originals["class_numbers.hurwitz_class_number"].cache_info()

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    def _patch(self, obj, name, value):
        self._patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    # -- wrappers -----------------------------------------------------------

    def _counted(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, fn, name, layer):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        inclusive_s = self.inclusive_s
        depth = [0]
        measure_bytes = name in ("cache.read_table", "cache.write_table")

        if name in AGGREGATED:
            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else None]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    stack.pop()
                    self_s[layer] += duration - frame[0]
                    if stack:
                        stack[-1][0] += duration
                    calls[name] += 1
                    inclusive_s[name] += duration
            return aggregated

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = len(self.spans) + self.dropped_spans
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            depth[0] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                stack.pop()
                depth[0] -= 1
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                if not depth[0]:
                    inclusive_s[name] += duration
                if measure_bytes:
                    self.cache_bytes += os.path.getsize(args[0])
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent, self.request, name, start, end))
                else:
                    self.dropped_spans += 1
        return spanned

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        info = self._hurwitz_info()
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive_s),
            "self_s": dict(self.self_s),
            "hurwitz_hits": info.hits - self._hurwitz_info0.hits,
            "hurwitz_misses": info.misses - self._hurwitz_info0.misses,
            "cache_bytes": self.cache_bytes,
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
        }

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent, request, name, start, end."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(summary: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metric values, by benchmark name, from a traced run's summary."""
    calls, inc, self_s = summary["calls"], summary["inclusive_s"], summary["self_s"]
    lookups = summary["hurwitz_hits"] + summary["hurwitz_misses"]
    values = {
        "arithmetic.kronecker_calls": calls.get("arithmetic.kronecker_symbol", 0),
        "characters.char_eval_calls": calls.get("characters.QuadraticCharacter.__call__", 0),
        "characters.generalized_bernoulli_calls":
            calls.get("characters.generalized_bernoulli", 0),
        "characters.l_numeric_calls": calls.get("characters.l_numeric", 0),
        "class_numbers.enum_s": inc.get("class_numbers.hurwitz_class_number", 0.0),
        "class_numbers.formula_s": inc.get("class_numbers.cohen_class_number", 0.0),
        "class_numbers.hurwitz_hit_ratio":
            summary["hurwitz_hits"] / lookups if lookups else 0.0,
        "dirichlet_series.gamma_calls": calls.get("dirichlet_series.gauss_sum_gamma", 0),
        "dirichlet_series.closed_calls": calls.get("dirichlet_series.series_closed", 0),
        "special_functions.omega_calls": calls.get("special_functions.omega", 0),
        "special_functions.quad_calls": calls.get("special_functions.quad", 0),
        "special_functions.incgamma_calls":
            calls.get("special_functions.upper_incomplete_gamma", 0),
        "eisenstein.direct_s": inc.get("eisenstein.eisenstein_direct", 0.0),
        "eisenstein.fourier_s": inc.get("eisenstein.eisenstein_fourier", 0.0),
        "maass.completed_calls": calls.get("maass.completed_hurwitz_series", 0),
        "maass.completed_s": inc.get("maass.completed_hurwitz_series", 0.0),
        "cache.write_s": inc.get("cache.write_table", 0.0),
        "cache.read_s": inc.get("cache.read_table", 0.0),
        "cache.bytes": summary["cache_bytes"],
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
    values["trace.wall_s"] = traced_wall_s
    values["trace.unattributed_s"] = traced_wall_s - sum(self_s.values())
    values["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s - 1.0
    return values


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


PER_LAYER = tuple((name, _unit(name)) for name in (
    "arithmetic.kronecker_calls", "arithmetic.self_s",
    "characters.char_eval_calls", "characters.generalized_bernoulli_calls",
    "characters.l_numeric_calls", "characters.self_s",
    "class_numbers.enum_s", "class_numbers.formula_s", "class_numbers.hurwitz_hit_ratio",
    "class_numbers.self_s",
    "dirichlet_series.gamma_calls", "dirichlet_series.closed_calls", "dirichlet_series.self_s",
    "special_functions.omega_calls", "special_functions.quad_calls",
    "special_functions.incgamma_calls", "special_functions.self_s",
    "eisenstein.direct_s", "eisenstein.fourier_s", "eisenstein.self_s",
    "maass.completed_calls", "maass.completed_s", "maass.self_s",
    "cache.write_s", "cache.read_s", "cache.bytes", "cache.self_s",
    "cli.self_s", "verify.self_s",
    "trace.wall_s", "trace.unattributed_s", "trace.overhead_ratio",
))
