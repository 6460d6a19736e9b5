"""Stochastic desk-scale probes of maximal-independent-set structure.

Sampling cannot prove or refute the structure conjecture; the probe only
gathers evidence.  Every sample greedily completes a uniformly random seed
flag to a maximal independent set, tests it for point-pencil and dual
point-pencil containment, and buckets it against the size threshold
rho * q^(d^2+d-2).  Sets above the threshold without either pencil are
recorded with their seed so they can be re-examined by hand.  The output
also carries g0 and e0, the closed-form sizes of the known families, so the
sampled sizes can be read against them.

Sample i draws only from random.Random(master_seed * 1_000_003 + i), so
the samples are cut into contiguous blocks, one per usable CPU, each counted
in its own process, and the blocks' counts are merged in sample order: any
CPU count gives the same output.  While a sample step is wrapped (a tracer's
functools.wraps timer), the samples all run in the caller, so that whatever
the wrapper records covers every sample.

The greedy takes the flags in the stable argsort order of one random 64-bit
key each, drawn a run at a time, split by key value.  The head, the flags
keyed below floor(_HEAD * 2^64 / N), is dense: led by the seed,
FlagUniverse.pick_apart keeps its first flag, drops every later one adjacent
to it, and repeats, so the seed stays whole.  One blocked pass over every
flag, on the member bits of the picks (FlagUniverse.member_bits), leaves the
tail, which is sparse: FlagUniverse.adjacent_pairs lists its adjacent pairs,
and a tail flag is kept unless an earlier kept one is adjacent to it.  Every
head key is below every tail key, so this is the global (key, id) order, ties
included, and exactly the set of the one-flag-at-a-time greedy.  The pencil
tests of a sample count its flags per table entry, and classify reuses their
candidates.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from . import _numpy as np
from . import _parallel, indsets, qcalc
from .errors import InvalidArgs, NotIndependent
from .gf import make_field
from .kneser import _MEMBER_CHUNK, DEFAULT_VERTEX_CAP, FlagUniverse, check_cap, flag_binomials

# expected flags in the head of a greedy completion (see above)
_HEAD = 4096


@dataclass
class SampleStats:
    """Aggregated evidence from one probe run."""

    d: int
    q: int
    samples: int
    master_seed: int
    rho_candidate: int
    threshold: int
    g0: int
    e0: int
    size_histogram: Counter[int] = field(default_factory=Counter)
    with_point_pencil: int = 0
    with_dual_point_pencil: int = 0
    trichotomy_small: int = 0
    unstructured_large: List[Tuple[int, int]] = field(default_factory=list)
    classified_variants: Counter[str] = field(default_factory=Counter)

    def to_json(self) -> Dict:
        return {
            "d": self.d,
            "q": self.q,
            "samples": self.samples,
            "master_seed": self.master_seed,
            "rho_candidate": self.rho_candidate,
            "threshold": self.threshold,
            "size_histogram": {str(k): v for k, v in sorted(self.size_histogram.items())},
            "g0": self.g0,
            "e0": self.e0,
            "with_point_pencil": self.with_point_pencil,
            "with_dual_point_pencil": self.with_dual_point_pencil,
            "trichotomy_small": self.trichotomy_small,
            "unstructured_large": [list(t) for t in self.unstructured_large],
            "classified_variants": dict(sorted(self.classified_variants.items())),
            "max_observed_size": max(self.size_histogram) if self.size_histogram else 0,
        }


def _key_order(keys: np.ndarray) -> np.ndarray:
    """The stable argsort of keys.  The faster default sort gives the same
    order unless two keys tie, so the stable sort runs only on a tie."""
    order = np.argsort(keys)
    ranked = keys[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(keys, kind="stable")
    return order


def _draw_keys(rng: random.Random, n: int) -> np.ndarray:
    """np.frombuffer(rng.randbytes(8 * n), "<u8"), drawn in runs: randbytes takes whole 32-bit words."""
    keys = np.empty(n, dtype="<u8")
    for c0 in range(0, n, _MEMBER_CHUNK):
        keys[c0 : c0 + _MEMBER_CHUNK] = np.frombuffer(rng.randbytes(8 * min(_MEMBER_CHUNK, n - c0)), dtype="<u8")
    return keys


def _greedy_complete_ids(seed_ids: Iterable[int], rng: random.Random, universe: FlagUniverse) -> List[int]:
    ids = sorted(set(int(i) for i in seed_ids))
    if ids:
        hit = universe.check_pairwise_independent(ids)
        if hit is not None:
            raise NotIndependent(f"seed set contains the adjacent pair {hit}")
    n = len(universe)
    keys = _draw_keys(rng, n)
    free = np.ones(n, dtype=bool)
    free[ids] = False
    # the head: the flags keyed below t, every flag once _HEAD reaches n
    t = (_HEAD << 64) // n
    in_head = keys < np.uint64(t) if t >> 64 == 0 else np.ones(n, dtype=bool)
    head = np.flatnonzero(in_head & free)
    # led by the seed, which pick_apart keeps whole, dropping the head flags it blocks
    picked = universe.pick_apart(np.concatenate((np.array(ids, dtype=np.int64), head[_key_order(keys[head])])))
    # the tail: the flags keyed from t on that no member is adjacent to
    tail = free & ~in_head
    if tail.any():
        tail &= ~universe.member_bits(picked).blocked()
    tail = np.flatnonzero(tail)
    tail = tail[_key_order(keys[tail])]
    keep = np.ones(tail.size, dtype=bool)
    # the pairs come in order of their first flag, which is settled by then
    for a, b in zip(*(side.tolist() for side in universe.adjacent_pairs(tail))):
        if keep[a]:
            keep[b] = False
    return sorted(picked.tolist() + tail[keep].tolist())


def conjecture_probe(
    d: int,
    q: int,
    samples: int,
    master_seed: int = 0,
    rho_candidate: int = 5,
    universe: Optional[FlagUniverse] = None,
) -> SampleStats:
    """Sample maximal independent sets and bucket them by the trichotomy,
    in one process per usable CPU; a universe of another (d, q) raises."""
    if samples < 1:
        raise InvalidArgs("need at least one sample")
    known = qcalc.size_constants(d, q, rho_candidate)
    if universe is None:
        universe = FlagUniverse(2 * d + 1, (d, d + 1), make_field(q))
    elif (universe.n, universe.field.q) != (2 * d + 1, q):
        raise InvalidArgs(f"a ({d},{q}) probe on a universe in GF({universe.field.q})^{universe.n}")
    stats = SampleStats(
        d=d, q=q, samples=samples, master_seed=master_seed,
        rho_candidate=rho_candidate, threshold=known.e1, g0=known.g0, e0=known.e0,
    )
    # build the lazy tables the samples read here, so the workers share them
    universe.entries_through_points()
    universe.polarity
    # a wrapper's records of a forked block would end with its process
    wrapped = any(hasattr(step, "__wrapped__") for step in (_greedy_complete_ids, indsets.classify))
    workers = 1 if wrapped else _parallel.usable_cpus()
    for part in _parallel.fork_blocks(partial(_probe_block, stats, universe), range(samples), workers):
        stats.size_histogram.update(part.size_histogram)
        stats.with_point_pencil += part.with_point_pencil
        stats.with_dual_point_pencil += part.with_dual_point_pencil
        stats.trichotomy_small += part.trichotomy_small
        stats.unstructured_large += part.unstructured_large
        stats.classified_variants.update(part.classified_variants)
    return stats


def _probe_block(header: SampleStats, universe: FlagUniverse, block: range) -> SampleStats:
    """The counts of the samples in block, under the header's run parameters."""
    stats = replace(header, size_histogram=Counter(), unstructured_large=[], classified_variants=Counter())
    for i in block:
        rng = random.Random(stats.master_seed * 1_000_003 + i)
        seed_flag = rng.randrange(len(universe))
        ids = _greedy_complete_ids([seed_flag], rng, universe)
        size = len(ids)
        stats.size_histogram[size] += 1
        points = indsets.pencil_base_candidates(ids, universe)
        dual_points = indsets.dual_pencil_base_candidates(ids, universe)
        if points:
            stats.with_point_pencil += 1
        elif dual_points:
            stats.with_dual_point_pencil += 1
        elif size <= stats.threshold:
            stats.trichotomy_small += 1
        else:
            stats.unstructured_large.append((size, stats.master_seed * 1_000_003 + i))
        result = indsets.classify(ids, universe, (points, dual_points))
        key = result.variant if isinstance(result, indsets.IndSetDescriptor) else "unstructured"
        stats.classified_variants[key] += 1
    return stats


@dataclass
class ColoringResult:
    """A proper coloring produced by the greedy heuristic."""

    num_colors: int
    colors: List[int]
    order: str
    seed: int

    def to_json(self) -> Dict:
        return {
            "num_colors": self.num_colors,
            "order": self.order,
            "seed": self.seed,
            "colors": self.colors,
        }


def greedy_color(
    d: int,
    q: int,
    order: str = "enumeration",
    seed: int = 0,
    universe: Optional[FlagUniverse] = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> ColoringResult:
    """Greedy proper coloring; the color count is a raw observation only.

    First-fit in the order (a vertex takes the first color no earlier
    neighbor has), so color class c is the greedy maximal independent set
    (FlagUniverse.pick_apart) of the vertices classes 0..c-1 left.  More than
    cap vertices are refused before the universe is built, and a universe of
    another (d, q) raises."""
    n, J = 2 * d + 1, (d, d + 1)
    check_cap(q, flag_binomials(n, J), f"vertices of type {J} in GF({q})^{n}", cap)
    if universe is None:
        universe = FlagUniverse(n, J, make_field(q))
    elif (universe.n, universe.field.q) != (n, q):
        raise InvalidArgs(f"a ({d},{q}) coloring on a universe in GF({universe.field.q})^{universe.n}")
    n_vertices = len(universe)
    if order == "enumeration":
        remaining = np.arange(n_vertices)
    elif order == "degree-random":
        rng = random.Random(seed)
        # the graph is regular, so the degree-first order is the jitter order
        remaining = np.argsort([rng.random() for _ in range(n_vertices)], kind="stable")
    else:
        raise ValueError(f"unknown order {order!r}")

    colors = np.full(n_vertices, -1, dtype=np.int64)
    num_colors = 0
    while remaining.size:
        colors[universe.pick_apart(remaining)] = num_colors
        remaining = remaining[colors[remaining] < 0]
        num_colors += 1
    return ColoringResult(num_colors=num_colors, colors=colors.tolist(), order=order, seed=seed)
