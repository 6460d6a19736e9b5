"""The benchmark's traced run wraps package functions by name.

perfbench/spans.py looks each name up with getattr, so a renamed or deleted
function breaks only `perfbench/run.py --trace 1`.  Installing and restoring
its wrappers here makes such a rename fail the test suite instead.  The
wrapped indsets set functions are also called once while installed, so a
signature change that breaks one of its after-hooks fails here too.
"""

import importlib.util
from pathlib import Path

import numpy as np

from qkneser import indsets

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


def test_wrapped_set_functions_run_under_their_hooks(u22):
    spans = load_spans()
    tracer = spans.Tracer()
    neighbor = int(np.flatnonzero(u22.adjacency_row(0))[0])
    try:
        spans.install(tracer)
        assert indsets.find_adjacent_pair([neighbor, 0], u22) == (0, neighbor)
        assert indsets.find_adjacent_pair(ids=[0], universe=u22) is None
        assert not indsets.is_independent([0, neighbor], u22)
        assert indsets.find_extension([0], u22) is not None
        assert not indsets.is_maximal([0], u22)
    finally:
        tracer.restore()
    names = {span[1] for span in tracer.dump()}
    for name in ("indsets.find_adjacent_pair", "indsets.independence", "indsets.find_extension",
                 "kernel.check_pairs"):
        assert name in names, name
    assert tracer.counters["kernel.pairs"] > 0
    assert not hasattr(indsets.find_adjacent_pair, "__wrapped__")
