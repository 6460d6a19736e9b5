"""Flags of vectorial type J in GF(q)^n and the general-position graph.

Two adjacency tests coexist on purpose.  general_position is the definition:
every cross pair of flag members meets trivially or spans the whole space,
decided by matrix-rank computations.  general_position_fast is the
specialized test for type {d, d+1} in rank 2d+1 (the two "meet of opposite
members is zero" conditions) and runs on precomputed point-set bitmasks, so
bulk verification is a stream of word ANDs.  The two are cross-checked
exhaustively by the test suite.

FlagUniverse.check_pairwise_independent is the bulk check.  For type
{d, d+1} in rank 2d+1 it first groups the flags into stars (flags whose
lower members share a point, or whose upper members lie in one hyperplane,
are never adjacent) and then tests only the pairs across groups, with one
tiled block kernel whose blocks run through run_blocks.  Other types test
every pair with a scalar row loop.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import pg
from .errors import DimensionMismatch, InvalidArgs, InvalidType, TooLarge
from .gf import FieldSpec
from ._parallel import run_blocks

DEFAULT_VERTEX_CAP = 20_000

_WORD = np.uint64
_WORD_BITS = 64

# pairs per pair-scan block: a few blocks per star group for run_blocks to
# share out, each long enough that its per-call cost does not show
_BLOCK_PAIRS = 1 << 21


class Flag:
    """A nested chain of canonical subspaces, one per rank in its type."""

    __slots__ = ("chain", "_hash")

    def __init__(self, chain: Tuple[pg.Subspace, ...]):
        self.chain = chain
        self._hash = None

    @property
    def n(self) -> int:
        return self.chain[0].n

    @property
    def types(self) -> Tuple[int, ...]:
        return tuple(s.rank for s in self.chain)

    def sort_key(self):
        return tuple(s.rows for s in self.chain)

    def __eq__(self, other):
        if not isinstance(other, Flag):
            return NotImplemented
        return self.chain == other.chain

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.chain)
        return h

    def __repr__(self):
        return f"Flag(type={self.types}, n={self.n})"


def _validate_type(n: int, J: Sequence[int]) -> Tuple[int, ...]:
    J = tuple(J)
    if not J or any(j2 <= j1 for j1, j2 in zip(J, J[1:])):
        raise InvalidType(f"type must be non-empty and strictly increasing, got {J}")
    if J[0] < 1 or J[-1] > n - 1:
        raise InvalidType(f"type {J} outside [1, {n - 1}]")
    if len(J) > 2:
        raise InvalidType("types with more than two ranks are not supported")
    return J


def enumerate_flags(n: int, J: Sequence[int], field: FieldSpec) -> Iterator[Flag]:
    """All flags of vectorial type J in GF(q)^n, each exactly once."""
    J = _validate_type(n, J)
    if len(J) == 1:
        for s in pg.enumerate_subspaces(n, J[0], field):
            yield Flag((s,))
        return
    j1, j2 = J
    for lo in pg.enumerate_subspaces(n, j1, field):
        for hi in pg.enumerate_superspaces(lo, j2):
            yield Flag((lo, hi))


def make_flag(subspaces: Iterable[pg.Subspace]) -> Flag:
    """Build a flag from canonical subspaces, validating nesting."""
    chain = tuple(sorted(subspaces, key=lambda s: s.rank))
    if not chain:
        raise InvalidType("empty flag")
    _validate_type(chain[0].n, tuple(s.rank for s in chain))
    for lo, hi in zip(chain, chain[1:]):
        if not pg.contains(hi, lo):
            raise InvalidType("flag members are not nested")
    return Flag(chain)


def dual_flag(f: Flag) -> Flag:
    """Memberwise orthogonal complement; reverses the chain order."""
    return Flag(tuple(pg.dual(s) for s in reversed(f.chain)))


def _check_compatible(f1: Flag, f2: Flag) -> None:
    if f1.n != f2.n or f1.chain[0].field.q != f2.chain[0].field.q:
        raise DimensionMismatch("flags live in different spaces")
    if f1.types != f2.types:
        raise DimensionMismatch(f"flags have different types {f1.types} vs {f2.types}")


def general_position(f1: Flag, f2: Flag) -> bool:
    """Definition-level adjacency test via matrix ranks (the slow oracle)."""
    _check_compatible(f1, f2)
    n = f1.n
    fld = f1.chain[0].field
    for u1 in f1.chain:
        for u2 in f2.chain:
            rank_join = pg.rank_of_rows(list(u1.rows) + list(u2.rows), n, fld)
            if rank_join != u1.rank + u2.rank and rank_join != n:
                return False
    return True


@lru_cache(maxsize=None)
def subspace_point_mask(s: pg.Subspace) -> int:
    """Bitmask over the projective points of PG(n-1, q) contained in s."""
    mask = 0
    for i in pg.subspace_point_ids(s):
        mask |= 1 << i
    return mask


def general_position_fast(f1: Flag, f2: Flag) -> bool:
    """Fast adjacency for type {d, d+1} flags in rank 2d+1."""
    _check_compatible(f1, f2)
    _require_kneser_type(f1)
    m1lo, m1hi = subspace_point_mask(f1.chain[0]), subspace_point_mask(f1.chain[1])
    m2lo, m2hi = subspace_point_mask(f2.chain[0]), subspace_point_mask(f2.chain[1])
    return (m1lo & m2hi) == 0 and (m2lo & m1hi) == 0


def _require_kneser_type(f: Flag) -> Tuple[int, int]:
    types = f.types
    if len(types) != 2 or types[1] != types[0] + 1 or f.n != 2 * types[0] + 1:
        raise InvalidType(f"expected type {{d, d+1}} in rank 2d+1, got {types} in rank {f.n}")
    return types


# ---------------------------------------------------------------------------
# bulk machinery


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount(arr: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr).astype(np.int64)
    b = arr.view(np.uint8).reshape(arr.shape + (8,))
    return _POP8[b].sum(axis=-1, dtype=np.int64)


def _mask_words(mask: int, n_words: int) -> Tuple[int, ...]:
    full = (1 << _WORD_BITS) - 1
    return tuple((mask >> (_WORD_BITS * w)) & full for w in range(n_words))


@dataclass(frozen=True)
class StarPlan:
    """The pairs a star-pruned scan tests, from FlagUniverse.star_plan.

    order lists caller positions: each star group in turn, then the
    ungrouped rest.  A block (r0, r1, c0) pairs rows r0..r1-1 of that order
    with the columns from c0 on that come after the row.
    """

    order: np.ndarray
    group_sizes: Tuple[int, ...]
    blocks: Tuple[Tuple[int, int, int], ...]
    pair_tests: int
    pairs_pruned: int


class FlagUniverse:
    """Dense id <-> flag bijection with bit-packed member masks.

    The enumeration order is deterministic for fixed (n, J, q), so ids are
    stable across runs; certificates still reference flags by explicit basis
    matrices, never by id.
    """

    def __init__(self, n: int, J: Sequence[int], field: FieldSpec):
        self.n = n
        self.types = _validate_type(n, J)
        self.field = field
        self.num_points = len(pg.all_points(n, field))
        self.n_words = (self.num_points + _WORD_BITS - 1) // _WORD_BITS

        flags: List[Flag] = []
        tables: List[List[pg.Subspace]] = [[] for _ in self.types]
        table_ids: List[dict] = [{} for _ in self.types]
        ids_per_pos: List[List[int]] = [[] for _ in self.types]
        for f in enumerate_flags(n, J, field):
            flags.append(f)
            for pos, member in enumerate(f.chain):
                tid = table_ids[pos].get(member)
                if tid is None:
                    tid = len(tables[pos])
                    table_ids[pos][member] = tid
                    tables[pos].append(member)
                ids_per_pos[pos].append(tid)
        self.flags = flags
        self.index = {f: i for i, f in enumerate(flags)}
        self.tables = tables
        self._table_ids = table_ids
        self.member_ids = [np.array(ids, dtype=np.int64) for ids in ids_per_pos]

        self._table_masks = [
            [subspace_point_mask(s) for s in table] for table in tables
        ]
        self._cols = [self._expand_cols(pos) for pos in range(len(self.types))]
        self._dual_top = None
        self._int_masks: List[Optional[List[int]]] = [None] * len(self.types)

        # popcount -> rank lookup for join-rank tests
        lut = np.full(self.num_points + 1, -1, dtype=np.int64)
        for r in range(n + 1):
            pts = 0 if r == 0 else (field.q**r - 1) // (field.q - 1)
            if pts <= self.num_points:
                lut[pts] = r
        self._rank_of_popcount = lut

        d = self.types[0]
        self._kneser_fast = len(self.types) == 2 and self.types == (d, d + 1) and n == 2 * d + 1

    def _expand_cols(self, pos: int) -> List[np.ndarray]:
        masks = self._table_masks[pos]
        words = [_mask_words(m, self.n_words) for m in masks]
        ids = self.member_ids[pos]
        cols = []
        for w in range(self.n_words):
            table_col = np.array([ws[w] for ws in words], dtype=_WORD)
            cols.append(table_col[ids])
        return cols

    def __len__(self) -> int:
        return len(self.flags)

    def __iter__(self) -> Iterator[Flag]:
        return iter(self.flags)

    def id_of(self, f: Flag) -> int:
        try:
            return self.index[f]
        except KeyError:
            raise InvalidArgs(f"flag {f!r} is not in this universe") from None

    def flag_of(self, i: int) -> Flag:
        return self.flags[i]

    # -- member mask predicates, vectorized over all flags ------------------

    def table_id_of(self, pos: int, s: pg.Subspace) -> Optional[int]:
        return self._table_ids[pos].get(s)

    def flag_int_masks(self, pos: int) -> List[int]:
        """Per-flag point masks of one chain position, as plain ints (cached)."""
        cached = self._int_masks[pos]
        if cached is None:
            table = self._table_masks[pos]
            cached = self._int_masks[pos] = [table[t] for t in self.member_ids[pos].tolist()]
        return cached

    def point_bit(self, point: pg.Subspace) -> int:
        if point.rank != 1:
            raise InvalidArgs("expected a rank-1 subspace")
        return pg.point_index(self.n, self.field)[point.rows[0]]

    def member_has_point(self, pos: int, point_bit: int) -> np.ndarray:
        w, b = divmod(point_bit, _WORD_BITS)
        return (self._cols[pos][w] >> _WORD(b)) & _WORD(1) != 0

    def member_within_mask(self, pos: int, mask: int) -> np.ndarray:
        words = _mask_words(mask, self.n_words)
        out = None
        for w in range(self.n_words):
            ok = (self._cols[pos][w] & ~_WORD(words[w])) == 0
            out = ok if out is None else (out & ok)
        return out

    def member_contains_mask(self, pos: int, mask: int) -> np.ndarray:
        words = _mask_words(mask, self.n_words)
        out = None
        for w in range(self.n_words):
            mw = _WORD(words[w])
            ok = (self._cols[pos][w] & mw) == mw
            out = ok if out is None else (out & ok)
        return out

    def member_id_in(self, pos: int, table_ids: Sequence[int]) -> np.ndarray:
        return np.isin(self.member_ids[pos], np.array(list(table_ids), dtype=np.int64))

    def or_reduce_member_masks(self, pos: int, selector: np.ndarray) -> int:
        """OR of the member masks over the selected flags, as one int."""
        mask = 0
        for w in range(self.n_words):
            col = self._cols[pos][w][selector]
            word = int(np.bitwise_or.reduce(col)) if col.size else 0
            mask |= word << (_WORD_BITS * w)
        return mask

    @property
    def dual_top_cols(self) -> List[np.ndarray]:
        """Masks of the duals of the top chain member (built lazily).

        s^perp is the meet of the hyperplanes x^perp over the basis rows x of
        s, and canonical basis rows are normalized, so they are points: its
        mask is the AND of their hyperplane masks, read off the table of dot
        products of points.
        """
        if self._dual_top is None:
            fld = self.field
            elems = range(fld.q)
            add = np.array([[fld.add(a, b) for b in elems] for a in elems], dtype=np.uint8)
            mul = np.array([[fld.mul(a, b) for b in elems] for a in elems], dtype=np.uint8)
            pts = np.array(pg.all_points(self.n, fld), dtype=np.uint8)
            dot = np.zeros((len(pts), len(pts)), dtype=np.uint8)
            for k in range(self.n):
                dot = add[dot, mul[pts[:, k, None], pts[None, :, k]]]
            on_hyperplane = np.zeros((len(pts), self.n_words * _WORD_BITS), dtype=bool)
            on_hyperplane[:, : len(pts)] = dot == 0
            hyperplanes = np.packbits(on_hyperplane, axis=1, bitorder="little")
            hyperplanes = hyperplanes.view("<u8").astype(_WORD)

            pos = len(self.types) - 1
            index = pg.point_index(self.n, fld)
            basis = np.array([[index[r] for r in s.rows] for s in self.tables[pos]])
            dual_words = hyperplanes[basis[:, 0]]
            for j in range(1, basis.shape[1]):
                dual_words &= hyperplanes[basis[:, j]]
            ids = self.member_ids[pos]
            self._dual_top = [dual_words[:, w][ids] for w in range(self.n_words)]
        return self._dual_top

    def dual_top_has_point(self, point_bit: int) -> np.ndarray:
        w, b = divmod(point_bit, _WORD_BITS)
        return (self.dual_top_cols[w] >> _WORD(b)) & _WORD(1) != 0

    # -- adjacency -----------------------------------------------------------

    def _meet_zero(self, cols_a, i: int, cols_b, sl) -> np.ndarray:
        acc = cols_a[0][i] & cols_b[0][sl]
        for w in range(1, self.n_words):
            acc = acc | (cols_a[w][i] & cols_b[w][sl])
        return acc == 0

    def _pair_ok(self, cols_a, rank_a: int, i: int, cols_b, rank_b: int, sl) -> np.ndarray:
        """General-position condition for one member pair: meet 0 or join full."""
        acc = cols_a[0][i] & cols_b[0][sl]
        for w in range(1, self.n_words):
            acc = acc | (cols_a[w][i] & cols_b[w][sl])
        pc = _popcount(acc)
        meet_rank = self._rank_of_popcount[pc]
        return (pc == 0) | (rank_a + rank_b - meet_rank == self.n)

    def adjacency_row(self, i: int, start: int = 0) -> np.ndarray:
        """Boolean adjacency of flag i against flags start..N-1 (self excluded)."""
        sl = slice(start, len(self.flags))
        if self._kneser_fast:
            lo, hi = self._cols
            row = self._meet_zero(lo, i, hi, sl) & self._meet_zero(hi, i, lo, sl)
        else:
            row = None
            for pa, ra in zip(range(len(self.types)), self.types):
                for pb, rb in zip(range(len(self.types)), self.types):
                    ok = self._pair_ok(self._cols[pa], ra, i, self._cols[pb], rb, sl)
                    row = ok if row is None else (row & ok)
        if start <= i:
            row[i - start] = False
        return row

    def degree(self, i: int) -> int:
        return int(np.count_nonzero(self.adjacency_row(i)))

    def count_edges(self) -> int:
        total = 0
        for i in range(len(self.flags) - 1):
            total += int(np.count_nonzero(self.adjacency_row(i, i + 1)))
        return total

    # -- pairwise independence over id subsets -------------------------------

    def _gather(self, ids: np.ndarray) -> List[List[np.ndarray]]:
        return [[col[ids] for col in cols] for cols in self._cols]

    def star_plan(self, ids: Sequence[int]) -> StarPlan:
        """Star groups of an id list and the blocks that check_pairwise_independent scans.

        Two flags whose lower members share a point are never adjacent (that
        point lies in pi_a and in tau_b), and neither are two flags whose upper
        members lie in one hyperplane H (then pi_a + tau_b lies in H, so
        pi_a and tau_b meet).  The second case is a shared point H^perp of the
        duals of the upper members.  Greedily, the point shared by the most
        flags not yet grouped makes those flags a group, until no point is
        shared by two of them.  The groups come from the flags' own masks, so
        the plan is sound for any id list.  Other types get no groups.
        """
        ids = np.asarray(ids, dtype=np.int64)
        m = int(ids.size)
        free = np.ones(m, dtype=bool)
        groups: List[np.ndarray] = []
        if self._kneser_fast and m > 1:
            words = np.stack([col[ids] for col in self._cols[0] + self.dual_top_cols], axis=1)
            incidence = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")
            counts = incidence.sum(axis=0, dtype=np.int64)
            while True:
                point = int(np.argmax(counts))
                if counts[point] < 2:
                    break
                members = np.nonzero(free & (incidence[:, point] != 0))[0]
                groups.append(members)
                free[members] = False
                counts -= incidence[members].sum(axis=0, dtype=np.int64)
        rest = np.nonzero(free)[0]
        order = np.concatenate(groups + [rest])

        blocks: List[Tuple[int, int, int]] = []
        pair_tests = 0
        start = 0
        for g in groups:
            # the rows of a group against every later position
            stop = start + g.size
            cols = m - stop
            pair_tests += g.size * cols
            if cols:
                step = max(1, _BLOCK_PAIRS // cols)
                blocks += [(r, min(r + step, stop), stop) for r in range(start, stop, step)]
            start = stop
        pair_tests += comb(m - start, 2)
        # the ungrouped rest: one triangle, each row against the rows after it
        r = start
        while r < m - 1:
            step = max(1, _BLOCK_PAIRS // (m - 1 - r))
            blocks.append((r, min(r + step, m - 1), r + 1))
            r += step
        return StarPlan(
            order=order,
            group_sizes=tuple(int(g.size) for g in groups),
            blocks=tuple(blocks),
            pair_tests=pair_tests,
            pairs_pruned=comb(m, 2) - pair_tests,
        )

    def check_pairwise_independent(
        self, ids: Sequence[int], threads: int = 1, plan: Optional[StarPlan] = None
    ) -> Optional[Tuple[int, int]]:
        """Exhaustive pair scan; returns the first adjacent (id_a, id_b) or None.

        "First" means smallest position pair in the given order, so callers
        that pass canonically sorted ids get reproducible witnesses.  For type
        {d, d+1} in rank 2d+1 the scan tests the pairs of star_plan(ids) (or
        of the given plan, which must come from these ids) and skips the pairs
        inside a star group, which are provably not adjacent.  Its blocks run
        through run_blocks; each reports its smallest adjacent (min, max)
        caller position pair, and the smallest over all blocks is the
        row-major first pair whatever the thread count.  Other types test
        every pair.
        """
        ids = np.asarray(list(ids), dtype=np.int64)
        m = int(ids.size)
        if m < 2:
            return None
        if not self._kneser_fast:
            found = self._scalar_pair_scan(self._gather(ids), m)
        else:
            if plan is None:
                plan = self.star_plan(ids)
            elif plan.order.size != m:
                raise InvalidArgs(f"plan covers {plan.order.size} ids, got {m}")
            order = plan.order
            sub = self._gather(ids[order])
            hits = [
                h
                for h in run_blocks(lambda b: self._tiled_pair_scan(sub, order, b), plan.blocks, threads)
                if h is not None
            ]
            found = min(hits) if hits else None
        if found is None:
            return None
        return int(ids[found[0]]), int(ids[found[1]])

    def _tiled_pair_scan(
        self, sub, order: np.ndarray, block: Tuple[int, int, int], brow: int = 64, bcol: int = 2048
    ) -> Optional[Tuple[int, int]]:
        """Rows r0..r1-1 against the columns c0..m-1 after them, in tiles.

        sub holds the gathered masks in plan order; order maps a plan row
        back to its caller position.  Returns the smallest (min, max) caller
        position pair among the adjacent ones, or None.
        """
        lo, hi = sub
        m = int(order.size)
        r0, r1, c0 = block
        best = None
        for rs in range(r0, r1, brow):
            re = min(rs + brow, r1)
            for cs in range(max(c0, rs + 1), m, bcol):
                ce = min(cs + bcol, m)
                # nonzero where the pair meets: pi_a & tau_b or tau_a & pi_b, any word
                z = lo[0][rs:re, None] & hi[0][None, cs:ce]
                t = np.empty_like(z)
                for w in range(self.n_words):
                    if w:
                        np.bitwise_and(lo[w][rs:re, None], hi[w][None, cs:ce], out=t)
                        z |= t
                    np.bitwise_and(hi[w][rs:re, None], lo[w][None, cs:ce], out=t)
                    z |= t
                if cs < re:
                    # this tile straddles the diagonal; keep only column > row
                    z[np.tri(re - rs, ce - cs, rs - cs, dtype=bool)] = 1
                if np.count_nonzero(z) == z.size:
                    continue
                r, c = np.nonzero(z == 0)
                a, b = order[r + rs], order[c + cs]
                first, second = np.minimum(a, b), np.maximum(a, b)
                k = int(np.lexsort((second, first))[0])
                cand = (int(first[k]), int(second[k]))
                if best is None or cand < best:
                    best = cand
        return best

    # perfbench/spans.py wraps this name by attribute, so it stays as an alias;
    # the star-pruned scan has the one kernel above
    _row_pair_scan = _tiled_pair_scan

    def _scalar_pair_scan(self, sub, m: int) -> Optional[Tuple[int, int]]:
        # general-type fallback; only small universes take this path
        for a in range(m - 1):
            sl = slice(a + 1, m)
            adj = None
            for pa, ra in zip(range(len(self.types)), self.types):
                for pb, rb in zip(range(len(self.types)), self.types):
                    acc = sub[pa][0][a] & sub[pb][0][sl]
                    for w in range(1, self.n_words):
                        acc = acc | (sub[pa][w][a] & sub[pb][w][sl])
                    pc = _popcount(acc)
                    meet_rank = self._rank_of_popcount[pc]
                    ok = (pc == 0) | (ra + rb - meet_rank == self.n)
                    adj = ok if adj is None else (adj & ok)
            if adj.size and adj.any():
                return a, a + 1 + int(np.argmax(adj))
        return None

    def adjacent_to_any(self, i: int, sub_cols: List[List[np.ndarray]]) -> bool:
        """True iff flag i is adjacent to at least one flag of the gathered set."""
        if self._kneser_fast:
            lo, hi = self._cols
            slo, shi = sub_cols
            z1 = lo[0][i] & shi[0]
            z2 = hi[0][i] & slo[0]
            for w in range(1, self.n_words):
                z1 = z1 | (lo[w][i] & shi[w])
                z2 = z2 | (hi[w][i] & slo[w])
            return bool(((z1 == 0) & (z2 == 0)).any())
        adj = None
        for pa, ra in zip(range(len(self.types)), self.types):
            for pb, rb in zip(range(len(self.types)), self.types):
                acc = self._cols[pa][0][i] & sub_cols[pb][0]
                for w in range(1, self.n_words):
                    acc = acc | (self._cols[pa][w][i] & sub_cols[pb][w])
                pc = _popcount(acc)
                meet_rank = self._rank_of_popcount[pc]
                ok = (pc == 0) | (ra + rb - meet_rank == self.n)
                adj = ok if adj is None else (adj & ok)
        return bool(adj.any())


def neighbors(f: Flag, universe: FlagUniverse) -> Iterator[int]:
    """Ids of all flags in general position with f, in id order."""
    i = universe.id_of(f)
    row = universe.adjacency_row(i)
    for j in np.nonzero(row)[0]:
        yield int(j)


def export_dimacs(
    n: int,
    J: Sequence[int],
    field: FieldSpec,
    out,
    cap: int = DEFAULT_VERTEX_CAP,
) -> FlagUniverse:
    """Write the graph in DIMACS edge format (1-based ids in universe order)."""
    if n < 3:
        raise InvalidType("q-Kneser graphs are defined for n >= 3")
    universe = FlagUniverse(n, J, field)
    if len(universe) > cap:
        raise TooLarge(f"{len(universe)} vertices exceed the cap of {cap}")
    m = universe.count_edges()

    def emit(fh):
        fh.write(f"p edge {len(universe)} {m}\n")
        for i in range(len(universe) - 1):
            row = universe.adjacency_row(i, i + 1)
            for j in np.nonzero(row)[0]:
                fh.write(f"e {i + 1} {i + 2 + int(j)}\n")

    if hasattr(out, "write"):
        emit(out)
    else:
        directory = os.path.dirname(os.path.abspath(out)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                emit(fh)
            os.replace(tmp, out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return universe
