"""The benchmark's per-layer tracer names only functions that exist.

``bench/tracing.py`` wraps ``homctl.<module>.<function>`` for every entry of
its ``TARGETS`` table; a renamed or deleted function would otherwise break
only the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, fn) for mod, fns in module.TARGETS.items() for fn in fns]


@pytest.mark.parametrize("mod, fn", _targets())
def test_traced_function_exists(mod, fn):
    assert callable(getattr(importlib.import_module(f"homctl.{mod}"), fn, None))
