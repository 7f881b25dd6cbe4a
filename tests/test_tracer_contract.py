"""The benchmark tracer reads its per-layer rows by function name.

perfbench/tracer.py wraps every public function of the layer modules and
reads the rows of layer_metrics from the wrappers' counts by name, so a
renamed or deleted function would silently zero a row.  This test reads
perfbench/ only; the tracer needs nothing beyond the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# the two attributes Tracer.install patches by hand instead of by module scan
PATCHED_BY_HAND = {"characters.QuadraticCharacter.__call__", "special_functions.quad"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Recording(dict):
    """An empty dict that remembers every key asked for through get."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_tracer_reads_only_names_it_wraps():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer().install()
    try:
        originals = dict(tracer._originals)
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        layer, attr = name.split(".", 1)
        assert getattr(importlib.import_module(f"mockform.{layer}"), attr) is fn, name

    calls, inclusive = _Recording(), _Recording()
    summary = {"calls": calls, "inclusive_s": inclusive,
               "self_s": dict.fromkeys(tracer_module.LAYERS, 0.0),
               "hurwitz_hits": 0, "hurwitz_misses": 0, "cache_bytes": 0}
    rows = tracer_module.layer_metrics(summary, 1.0, 1.0)
    read = calls.read | inclusive.read
    assert read
    assert not read - set(originals) - PATCHED_BY_HAND, sorted(read - set(originals) - PATCHED_BY_HAND)
    assert set(rows) == {name for name, _ in tracer_module.PER_LAYER}
