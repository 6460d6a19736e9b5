"""In-memory span recorder and the timing wrappers of the traced run.

A span records its name, start, end, busy time, parent span and thread.  A
plain call is timed around the call, so its busy time equals end - start.  A
generator function is timed inside each next() only, so its busy time leaves
out the consumer's work between items.  Spans opened in pool threads take the
enclosing run_blocks span as parent: busy time summed over threads can exceed
the wall time of that parent.

Self time is a span's busy time minus the busy time of its children in the
same thread.  A layer's time is the busy time of its outermost spans, so a
recursive or nested call of the same layer is not counted twice.

The wrappers replace module and class attributes that the CLI reaches through
an attribute lookup (``cover.verify_cover``, ``FlagUniverse.__init__``, ...);
nothing inside the package is edited.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from math import comb
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: Dict[int, tuple] = {}
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    def _record(self, span_id, name, start, end, busy, parent) -> None:
        self.spans[span_id] = (name, start, end, busy, parent, threading.get_ident())

    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """fn timed as one span per call; after(tracer, args, kwargs, result) may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._record(span_id, name, start, end, end - start, parent)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def timed_generator(self, name: str, fn: Callable) -> Callable:
        """Generator function fn timed as one span whose busy time sums its next() calls."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            start = end = time.perf_counter()
            busy = 0.0
            try:
                while True:
                    t0 = time.perf_counter()
                    stack.append(span_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        end = time.perf_counter()
                        busy += end - t0
                    yield item
            finally:
                gen.close()
                self._record(span_id, name, start, end, busy, parent)

        return wrapper

    def adopting(self, run_blocks: Callable) -> Callable:
        """run_blocks whose block function runs under the caller's current span."""

        @functools.wraps(run_blocks)
        def wrapper(fn, blocks, threads):
            stack = self._stack()
            parent = stack[-1] if stack else None
            self.count("parallel.blocks", len(blocks))
            self.maximum("parallel.threads", threads)

            def block(b):
                worker_stack = self._stack()
                worker_stack.append(parent)
                try:
                    return fn(b)
                finally:
                    worker_stack.pop()

            return run_blocks(block, blocks, threads)

        return wrapper

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> List[list]:
        """Spans as [id, name, start, end, busy, parent, thread], in id order."""
        return [[i, *self.spans[i]] for i in sorted(self.spans)]


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, layer busy time (outermost spans only) and self time."""
    by_id = {s[0]: s for s in spans}
    child_busy: Dict[int, float] = {}
    for sid, _name, _start, _end, busy, parent, thread in spans:
        if parent in by_id and by_id[parent][6] == thread:
            child_busy[parent] = child_busy.get(parent, 0.0) + busy
    out: Dict[str, Dict[str, float]] = {}
    for sid, name, _start, _end, busy, parent, _thread in spans:
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += busy - child_busy.get(sid, 0.0)
        ancestor = parent
        while ancestor in by_id and by_id[ancestor][1] != name:
            ancestor = by_id[ancestor][5]
        if ancestor not in by_id:
            row["busy_s"] += busy
    return out


# ---------------------------------------------------------------------------
# counters computed from array sizes at the layer boundaries


def _universe_built(tracer: Tracer, args, kwargs, result) -> None:
    universe = args[0]
    tracer.count("universe.flags", len(universe))
    # one uint64 column per mask word and chain position
    tracer.count("universe.column_bytes", len(universe.types) * universe.n_words * len(universe) * 8)


def _pair_position(m: int, a: int, b: int) -> int:
    """Pairs up to and including (a, b) in row-major order over m items."""
    return a * (2 * m - a - 1) // 2 + (b - a)


def _pairs_scanned(tracer: Tracer, args, kwargs, result) -> None:
    universe, ids = args[0], list(args[1])
    m = len(ids)
    if m < 2:
        return
    if result is None:
        pairs = comb(m, 2)
    else:
        pairs = _pair_position(m, ids.index(result[0]), ids.index(result[1]))
    tracer.count("kernel.pairs", pairs)
    # each pair ANDs the lower-upper and upper-lower member words
    tracer.count("kernel.word_ops", pairs * 2 * universe.n_words)
    tracer.count("kernel.bytes_computed", pairs * 2 * universe.n_words * 8)


def _python_pairs(tracer: Tracer, args, kwargs, result) -> None:
    universe = args[1] if len(args) > 1 else kwargs.get("universe")
    if universe is not None:
        return
    flags = list(args[0])
    if result is None:
        pairs = comb(len(flags), 2)
    else:
        flags.sort(key=lambda f: f.sort_key())
        pairs = _pair_position(len(flags), flags.index(result[0]), flags.index(result[1]))
    tracer.count("indsets.python_pairs", pairs)


def _greedy_done(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("explore.greedy_sets", 1)
    tracer.count("explore.greedy_flags", len(result))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI crosses; tracer.restore() undoes it."""
    from qkneser import cli, cover, explore, indsets, kneser, pg

    universe = kneser.FlagUniverse

    def timed(name, after=None):
        return lambda fn: tracer.timed(name, fn, after)

    def classified(tr, args, kwargs, result):
        tr.count("indsets.classify_hits", isinstance(result, indsets.IndSetDescriptor))

    tracer.patch(cover, "certificate_from_json", timed("cli.parse"))
    tracer.patch(indsets, "descriptor_from_json", timed("cli.parse"))
    for owner in (cover.CoverCertificate, cover.VerifyReport, explore.SampleStats):
        tracer.patch(owner, "to_json", timed("cli.report_json"))
    tracer.patch(indsets, "descriptor_to_json", timed("cli.report_json"))
    tracer.patch(cli, "_emit", timed("cli.report_json"))
    tracer.patch(cli, "_out_json", timed("cli.report_json"))

    tracer.patch(kneser, "enumerate_flags", lambda fn: tracer.timed_generator("pg.enumerate", fn))
    tracer.patch(universe, "__init__", timed("universe.build", _universe_built))
    for attr in ("enumerate_superspaces", "subspaces_within"):
        tracer.patch(pg, attr, lambda fn: tracer.timed_generator("pg.lattice", fn))
    for attr in ("contains", "meet"):
        tracer.patch(pg, attr, timed("pg.lattice"))

    tracer.patch(universe, "check_pairwise_independent", timed("kernel.check_pairs", _pairs_scanned))
    for attr in ("_row_pair_scan", "_tiled_pair_scan", "_scalar_pair_scan"):
        tracer.patch(universe, attr, timed("kernel.pair_scan"))
    tracer.patch(universe, "adjacent_to_any", timed("kernel.extension"))
    for module in (kneser, indsets):
        tracer.patch(module, "run_blocks",
                     lambda fn: tracer.timed("parallel.run_blocks", tracer.adopting(fn)))

    tracer.patch(indsets, "build", timed("indsets.build"))
    tracer.patch(indsets, "is_independent", timed("indsets.independence"))
    tracer.patch(indsets, "find_adjacent_pair", timed("indsets.find_adjacent_pair", _python_pairs))
    tracer.patch(indsets, "find_extension", timed("indsets.find_extension"))
    for module in (cover, indsets):
        tracer.patch(module, "descriptor_masks", timed("indsets.masks"))
    tracer.patch(indsets, "classify", timed("indsets.classify", classified))

    tracer.patch(cover, "build_cover", timed("cover.build"))
    tracer.patch(cover, "verify_cover", timed("cover.verify"))
    tracer.patch(explore, "_greedy_complete_ids", timed("explore.greedy", _greedy_done))
