"""The benchmark's tracer must still find every function it wraps.

``bench/spans.py`` looks up each ``(module, function)`` in ``WRAPPED`` by
name when a traced run starts; a renamed or removed function would only
surface there.  This test catches it with the fast suite.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_wrapped_function_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module_name, attr, _, _ in spans.WRAPPED:
        module = importlib.import_module(f"majoritylab.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
