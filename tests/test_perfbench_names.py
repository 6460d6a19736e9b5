"""The benchmark's traced run wraps package functions by name.

perfbench/spans.py looks each name up with getattr, so a renamed or deleted
function breaks only `perfbench/run.py --trace 1`.  Installing and restoring
its wrappers here makes such a rename fail the test suite instead.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists_and_is_restored():
    spans = load_spans()
    tracer = spans.Tracer()
    originals = {}
    try:
        spans.install(tracer)
    finally:
        for owner, attr, original in tracer._patched:
            originals.setdefault((id(owner), attr), (owner, attr, original))
        tracer.restore()
    assert originals
    for owner, attr, original in originals.values():
        assert getattr(owner, attr) is original, attr
