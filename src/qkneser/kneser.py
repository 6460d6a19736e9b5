"""Flags of vectorial type J in GF(q)^n and the general-position graph.

general_position is the definition: every cross pair of flag members meets
trivially or spans the whole space, decided by matrix-rank computations.  It
is the oracle.  Every bulk test runs on FlagUniverse, the flags of type
{d, d+1} in rank 2d+1, whose kernels work on point-set bitmasks with the
fast rule (the two "meet of opposite members is zero" conditions), so
verification is a stream of word ANDs.  The test suite cross-checks the
kernels against the oracle exhaustively.

FlagUniverse numbers the flags of one graph without holding them: a flag is
a pair of table ids, into the tables of distinct lower and upper members.
Each table is pg.subspace_rows of its rank, and each entry is kept once, as
its RREF basis and its point-mask words (a lower entry also as its sorted
point ids), made in uint8 GF(q) arithmetic; no Subspace is built.  A
table id is pg.subspace_index of a basis: a flag lo + <w> (w a lifted point
of the quotient) gets its upper id from its upper member's basis.  A
predicate of one member (P in pi, L in tau, ...) is evaluated once per
table entry, and the flags of the entries that hold it are read off by
flags_with, as sorted ids.  A closed-form flag count above MAX_FLAGS is
refused first.  The polarity maps upper entry tau to the lower id of
tau^perp (sigma, by pg.dual_index) and back, so the dual side of a check
reads the lower table.

FlagUniverse.check_pairwise_independent is the bulk check.  It first groups
the flags into stars: flags whose lower members pi share a point P, or whose
upper members tau lie in one hyperplane H.  A star's flags are then tested
only against the later flags that its point does not prove non-adjacent:
those with P outside tau, or with pi outside H.  One tiled block kernel runs
the remaining pairs on mask words gathered from the tables, with its blocks
shared out by run_blocks.  Its tiles give the witness, or every adjacent
pair (adjacent_pairs).

MemberBits (FlagUniverse.member_bits) tests flags against a growing set.
Each member sets one bit in the row of every lower table entry disjoint from
its upper member, and in the row of every upper table entry disjoint from
its lower member, so a flag is adjacent to some member iff the AND of its
two rows is nonzero.  The greedy completion in explore and the maximality
scan in indsets.find_extension both use it.

export_dimacs writes any type's graph: {d, d+1} in rank 2d+1 from the
universe's adjacency rows, every other type from the point masks of
enumerate_flags, on the general-position rule as point counts of meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, prod
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import pg, qcalc
from .pg import _add, _mul, _neg
from .errors import DimensionMismatch, InvalidArgs, InvalidType, TooLarge
from .gf import FieldSpec
from ._parallel import run_blocks

DEFAULT_VERTEX_CAP = 20_000

# FlagUniverse refuses larger graphs before it allocates anything: (2,5) with
# 629,486 flags fits; (2,7), (3,3) and (4,2) do not
MAX_FLAGS = 1_000_000

_WORD = np.uint64
_WORD_BITS = 64

# lower members per step of the universe build; bounds its scratch arrays
_BUILD_CHUNK = 256

# pairs per pair-scan block: a few blocks per star group for run_blocks to
# share out, each long enough that its per-call cost does not show
_BLOCK_PAIRS = 1 << 21

# rows and columns per tile of the pair-scan kernel
_TILE_ROWS, _TILE_COLS = 64, 2048

# members per step of MemberBits.add; bounds its scratch arrays
_MEMBER_CHUNK = 4096

# bit k of a word as a uint64 weight: MemberBits.add inserts a run of members
# as one weighted sum
_BIT_WEIGHTS = np.left_shift(_WORD(1), np.arange(_WORD_BITS, dtype=_WORD))


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


def flag_binomials(n: int, J: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """The Gaussian binomials [a b] whose product counts the flags of type J."""
    J = _validate_type(n, J)
    return (n, J[0]), (n - J[0], J[-1] - J[0])


def check_cap(q: int, binomials: Sequence[Tuple[int, int]], what: str, cap: Optional[int] = None) -> None:
    """Refuse a product of Gaussian binomials [a b]_q above cap (MAX_FLAGS as
    it is at the call by default) before anything is built; as
    [a b]_q >= q^(b(a-b)), a large exponent alone refuses."""
    cap = MAX_FLAGS if cap is None else cap
    # q^e > cap once 2^e is, i.e. from e = cap.bit_length() on; an invalid
    # [a b] has a negative exponent and is left to gauss to refuse
    huge = sum(b * (a - b) for a, b in binomials) >= cap.bit_length()
    if huge or prod(qcalc.gauss(a, b, q) for a, b in binomials) > cap:
        raise TooLarge(f"more than {cap} {what} exceed the cap")


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


def general_position(f1: Flag, f2: Flag) -> bool:
    """Definition-level adjacency test via matrix ranks (the slow oracle)."""
    if f1.n != f2.n or f1.chain[0].field.q != f2.chain[0].field.q:
        raise DimensionMismatch("flags live in different spaces")
    if f1.types != f2.types:
        raise DimensionMismatch(f"flags have different types {f1.types} vs {f2.types}")
    n = f1.n
    for u1 in f1.chain:
        for u2 in f2.chain:
            rank_join = pg.join_rank(u1, u2)
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


# ---------------------------------------------------------------------------
# bulk machinery


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount(arr: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr).astype(np.int64)
    b = arr.view(np.uint8).reshape(arr.shape + (8,))
    return _POP8[b].sum(axis=-1, dtype=np.int64)


def _codes(vecs: np.ndarray, q: int) -> np.ndarray:
    """Base-q codes of the vectors along the last axis (int32 Horner loop)."""
    code = np.zeros(vecs.shape[:-1], dtype=np.int32)
    for k in range(vecs.shape[-1]):
        code *= q
        code += vecs[..., k]
    return code


@lru_cache(maxsize=None)
def _point_of_code(n: int, field: FieldSpec) -> np.ndarray:
    """Point id (all_points order) of every nonzero vector of GF(q)^n, by code."""
    pts = np.array(pg.all_points(n, field), dtype=np.uint8)
    lookup = np.full(field.q**n, -1, dtype=np.int32)
    for a in range(1, field.q):
        lookup[_codes(_mul(field, np.uint8(a), pts), field.q)] = np.arange(len(pts), dtype=np.int32)
    return lookup


def _any_word(words: np.ndarray) -> np.ndarray:
    """Whether each row of words (last axis) has a set bit, say a point.  On
    short rows .any() costs several times an OR over the word columns; from
    about 8 words on it is the faster one."""
    if words.shape[-1] >= 8:
        return words.any(axis=-1)
    out = np.zeros(words.shape[:-1], dtype=bool)
    for w in range(words.shape[-1]):
        out |= words[..., w] != 0
    return out


def _holds(words: np.ndarray, tids: np.ndarray, p: int) -> np.ndarray:
    """Whether entry tids[i] of the table with mask words words holds point p;
    a gather from the flat table, as np.take of a column first copies it."""
    flat = tids.astype(np.intp) * words.shape[1] + p // _WORD_BITS
    return words.ravel().take(flat) & _BIT_WEIGHTS[p % _WORD_BITS] != 0


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """a sorted, without repeats: a plain np.unique imports numpy.ma (numpy 2.4)."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _point_tally(points: np.ndarray, tids: np.ndarray, width: int) -> np.ndarray:
    """Per point below width, how many of the entries tids hold it (row t of
    points lists entry t's point ids), gathered _MEMBER_CHUNK at a time."""
    counts = np.zeros(width, dtype=np.int64)
    for c0 in range(0, tids.size, _MEMBER_CHUNK):
        counts += np.bincount(points.take(tids[c0 : c0 + _MEMBER_CHUNK], axis=0).ravel(), minlength=width)
    return counts


def _span_points(field: FieldSpec, rows: np.ndarray, n_words: int, keep_ids: bool = True):
    """(ids, words): the sorted point ids of the row spaces of the (N, j, n)
    bases rows (None unless keep_ids), and the point-mask words set from them.

    Each chunk of _BUILD_CHUNK bases is spanned, one row at a time: the span
    of rows 0..i is every vector of the span of rows 0..i-1 plus every
    multiple of row i.  A point is hit by its q - 1 nonzero multiples, so
    every (q - 1)-th of the sorted ids of the nonzero vectors is kept.
    """
    q, j = field.q, rows.shape[1]
    elems = np.arange(q, dtype=np.uint8)[None, :, None]
    point_of = _point_of_code(rows.shape[-1], field)
    ids = np.empty((len(rows), (q**j - 1) // (q - 1)), dtype=np.int32) if keep_ids else None
    words = np.empty((len(rows), n_words), dtype=_WORD)
    for c0 in range(0, len(rows), _BUILD_CHUNK):
        r = rows[c0 : c0 + _BUILD_CHUNK]
        span = np.zeros((len(r), 1, r.shape[2]), dtype=np.uint8)
        for i in range(j):
            multiples = _mul(field, elems, r[:, None, i, :])
            span = _add(field, span[:, :, None], multiples[:, None]).reshape(len(r), -1, r.shape[2])
        points = np.sort(point_of[_codes(span[:, 1:], q)], axis=1)[:, :: q - 1]
        if keep_ids:
            ids[c0 : c0 + len(r)] = points
        incidence = np.zeros((len(r), n_words * _WORD_BITS), dtype=bool)
        incidence[np.arange(len(r))[:, None], points] = True
        words[c0 : c0 + len(r)] = np.packbits(incidence, axis=-1, bitorder="little").view("<u8")
    return ids, words


def _word_bits(words: np.ndarray, num_points: int) -> np.ndarray:
    """The (entries, points) bits of rows of mask words, as uint8 0 or 1."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=-1, count=num_points, bitorder="little")


def _upper_ids(field: FieldSpec, rows: np.ndarray, quotient: np.ndarray) -> np.ndarray:
    """The upper table ids (pg.subspace_rows order) of the flags' upper members.

    Flag t * K + j joins the lower basis rows[t] (RREF) with the lift of the
    quotient basis quotient[j].  rows[t] reduced at the pivot columns of the
    lifted rows, with those rows, is its upper member's RREF basis up to row
    order, and pg.subspace_index reads its id off that; _BUILD_CHUNK lower
    members at a time, so no per-flag basis is ever held.
    """
    K, gap = quotient.shape[:2]
    ids = []
    for c0 in range(0, len(rows), _BUILD_CHUNK):
        r = rows[c0 : c0 + _BUILD_CHUNK]
        c = len(r)
        w = np.zeros((c,) + quotient.shape[:2] + r.shape[2:], dtype=np.uint8)  # (c, K, gap, n)
        np.put_along_axis(w, pg._free_columns(r)[:, None, None, :], quotient, axis=-1)  # the lifted rows
        pivots = np.argmax(w != 0, axis=-1)  # each row of w is zero at the others' pivots
        reduced = np.broadcast_to(r[:, None], (c, K) + r.shape[1:])
        for i in range(gap):
            coef = _neg(field, r[np.arange(c)[:, None], :, pivots[:, :, i]])
            reduced = _add(field, reduced, _mul(field, coef[..., None], w[:, :, i, None, :]))
        ids.append(pg.subspace_index(np.concatenate((reduced, w), axis=2), field.q).ravel())
    return np.concatenate(ids)


class MemberBits:
    """Adjacency to a growing member set, tested on the two member tables.

    Flags a and b are adjacent iff lo(a) is disjoint from hi(b) and lo(b)
    is disjoint from hi(a).  Member k sets bit k of lower[t] for every lower
    table entry t disjoint from its upper member, and bit k of upper[u] for
    every upper table entry u disjoint from its lower member.  Flag c is
    then adjacent to some member iff lower[lo_tid(c)] & upper[hi_tid(c)]
    has a set bit.  The entries that meet a member's entry are the OR of
    the entries through its points (FlagUniverse.entries_through_points),
    so a member costs its point count times one bit row per table.  Members
    are cheapest added in batches: add writes up to 64 members' bits with
    one weighted sum.
    """

    def __init__(self, universe: "FlagUniverse"):
        self._universe = universe
        self._through = universe.entries_through_points()
        self._sizes = [len(words) for words in universe._table_words]
        self.lower, self.upper = (np.zeros((n, 0), dtype=_WORD) for n in self._sizes)
        self.size = 0

    def _apart(self, pos: int, tids: np.ndarray) -> np.ndarray:
        """apart[r, t]: entry t of table pos misses entry tids[r] of the other
        table, whose points are read off its mask words 64 entries at a time."""
        words, num_points = self._universe._table_words[1 - pos], self._universe.num_points
        out = np.empty((tids.size, self._sizes[pos]), dtype=bool)
        for r0 in range(0, tids.size, _WORD_BITS):
            r = tids[r0 : r0 + _WORD_BITS]
            points = np.nonzero(_word_bits(words[r], num_points))[1].reshape(r.size, -1)
            meet = np.bitwise_or.reduce(self._through[pos][points], axis=1)
            meet = np.unpackbits(meet, axis=1, count=self._sizes[pos], bitorder="little")
            np.equal(meet, 0, out=out[r0 : r0 + r.size])
        return out

    def add(self, ids: Sequence[int]) -> None:
        """Make the flags ids members; their bits follow the given order.

        Each run of up to 64 new members whose bits share word w goes in as
        one weighted sum over their apart rows, with weight 2^b for bit b;
        the bits are distinct, so the sum is their OR.
        """
        ids = np.asarray(ids, dtype=np.int64)
        extra = (self.size + ids.size + _WORD_BITS - 1) // _WORD_BITS - self.lower.shape[1]
        if extra > 0:
            # grown to fit, not doubled: the old and the new table are alive
            # together, and a set of e0 members at (2,4) already takes 3 MB
            self.lower = np.pad(self.lower, ((0, 0), (0, extra)))
            self.upper = np.pad(self.upper, ((0, 0), (0, extra)))
        for c0 in range(0, ids.size, _MEMBER_CHUNK):
            chunk = ids[c0 : c0 + _MEMBER_CHUNK]
            for pos, bits in enumerate((self.lower, self.upper)):
                # members that share an opposite entry share its row
                uniq, inv = np.unique(self._universe.member_ids(1 - pos, chunk), return_inverse=True)
                apart = self._apart(pos, uniq)
                k = 0
                while k < chunk.size:
                    # the next members, whose bits share word w; einsum's
                    # integer loop runs about twice as fast as np.dot here
                    w, b = divmod(self.size + k, _WORD_BITS)
                    run = apart[inv[k : k + _WORD_BITS - b]]
                    weights = _BIT_WEIGHTS[b : b + run.shape[0]]
                    bits[:, w] |= np.einsum("i,ij->j", weights, run.view(np.uint8))
                    k += run.shape[0]
            self.size += chunk.size

    def blocked(self, ids=None) -> np.ndarray:
        """Whether each flag of ids (an id array or slice; all, in chunks, by default) is adjacent to a member."""
        universe = self._universe
        if ids is None:
            out = np.empty(len(universe), dtype=bool)
            for c0 in range(0, len(universe), _MEMBER_CHUNK):
                out[c0 : c0 + _MEMBER_CHUNK] = self.blocked(slice(c0, c0 + _MEMBER_CHUNK))
            return out
        both = universe.per_flag(0, self.lower, ids)
        both &= universe.per_flag(1, self.upper, ids)
        return _any_word(both)


@dataclass(frozen=True)
class StarPlan:
    """The pairs a star-pruned scan tests, from FlagUniverse.star_plan.

    order lists caller positions: each star group in turn, then the
    ungrouped rest.  A block (r0, r1, cols) pairs rows r0..r1-1 of that
    order with the plan positions in cols (ascending) that come after the
    row.  The blocks of one group share one cols array: the later positions
    its shared point does not prove non-adjacent.  The rest is a triangle,
    its rows against every later position.
    """

    order: np.ndarray
    group_sizes: Tuple[int, ...]
    blocks: Tuple[Tuple[int, int, np.ndarray], ...]
    pair_tests: int
    pairs_pruned: int


class FlagUniverse:
    """Dense id <-> flag bijection over the two member tables of type {d, d+1}
    in rank 2d+1, the only type it builds (the graphs of the theorem).

    A flag is its pair of table ids: flag i has members
    entry(pos, member_ids(pos, i)).  Its lower id is i // K for K uppers
    per lower member, so only the upper ids are stored, int32 when they
    fit, with their int32 inverse (_upper_flags, built on first use): these
    are the only per-flag arrays.  Each table lists every subspace of its
    rank in pg.subspace_rows order, so table ids are pg.subspace_index
    values.  Entry t of table pos has its (rank, n) uint8 RREF basis
    _bases[pos][t] and its point-mask words _table_words[pos][t], lower entry
    t its sorted point ids _lower_points[t]; per_flag reads a per-entry array
    off for flags, and flags_with lists the flags of some entries.  Ids follow
    enumerate_flags, so they are stable across runs; certificates reference
    flags by bases.
    """

    def __init__(self, n: int, J: Sequence[int], field: FieldSpec):
        self.n = n
        self.types = _validate_type(n, J)
        d = self.types[0]
        if self.types != (d, d + 1) or n != 2 * d + 1:
            raise InvalidType(f"a flag universe needs type {{d, d+1}} in rank 2d+1, got {self.types} in rank {n}")
        self.field = field
        check_cap(field.q, flag_binomials(n, J), f"flags of type {self.types} in GF({field.q})^{n}")
        self.num_points = len(pg.all_points(n, field))
        self.n_words = (self.num_points + _WORD_BITS - 1) // _WORD_BITS

        lows = pg.subspace_rows(n, d, field)
        # the upper members over a lower one, in enumerate_superspaces order:
        # its joins with the lifted points of the quotient GF(q)^(d+1)
        quotient = np.array(pg.all_points(d + 1, field), dtype=np.uint8)[:, None]
        self._per_lower = len(quotient)
        self._upper = _upper_ids(field, lows, quotient)
        self._bases = [lows, pg.subspace_rows(n, d + 1, field)]
        self._lower_points, words = _span_points(field, lows, self.n_words)
        self._table_words = [words, _span_points(field, self._bases[1], self.n_words, keep_ids=False)[1]]
        self._size = len(lows) * self._per_lower
        self._entries: List[dict] = [{}, {}]
        self._through = None

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Flag]:
        return (self.flag_of(i) for i in range(self._size))

    def id_of(self, f: Flag) -> int:
        return int(self.ids_of([f])[0])

    def ids_of(self, flags: Sequence[Flag]) -> np.ndarray:
        """The ids of flags, with one table lookup per chain position: flag
        t * K + j is the one of lower entry t whose upper id matches."""
        lower, per_lower = self.table_ids_of(0, [f.chain[0] for f in flags]).astype(np.int64), self._per_lower
        block = self.member_ids(1, lower[:, None] * per_lower + np.arange(per_lower))
        hit = block == self.table_ids_of(1, [f.chain[-1] for f in flags])[:, None]
        ids = np.where((lower >= 0) & hit.any(axis=1), lower * per_lower + hit.argmax(axis=1), -1)
        bad = [f for f, i in zip(flags, ids) if i < 0 or len(f.chain) != 2]
        if bad:
            raise InvalidArgs(f"flag {bad[0]!r} is not in this universe")
        return ids

    def flag_of(self, i: int) -> Flag:
        if not 0 <= i < self._size:
            raise InvalidArgs(f"flag id {i} outside [0, {self._size})")
        return Flag(tuple(self.entry(pos, int(self.member_ids(pos, i))) for pos in range(2)))

    def member_ids(self, pos: int, ids=slice(None)) -> np.ndarray:
        """The table ids of the flags' members at chain position pos, for an
        id, an id array or a slice of ids (every flag by default): flag i's
        lower id is i // K; upper ids are stored, so a slice of them is a view."""
        if pos:
            return self._upper[ids]
        return (np.arange(self._size)[ids] if isinstance(ids, slice) else np.asarray(ids)) // self._per_lower

    def flags_with(self, pos: int, tids) -> np.ndarray:
        """The sorted ids of the flags whose member at chain position pos is
        one of the table entries tids: lower entry t has flags t * K ..
        t * K + K - 1, and upper entry u those in row u of _upper_flags."""
        tids = _sorted_distinct(np.asarray(tids, dtype=np.int64))
        if pos:
            return np.sort(self._upper_flags[tids].ravel()).astype(np.int64)
        return (tids[:, None] * self._per_lower + np.arange(self._per_lower)).ravel()

    @cached_property
    def _upper_flags(self) -> np.ndarray:
        """Row u holds the ascending ids of the flags of upper entry u (built
        lazily; each upper entry has as many).  The flags of _BUILD_CHUNK lower
        entries at a time are sorted by upper id and appended to their rows."""
        filled = np.zeros(len(self._bases[1]), dtype=np.int64)
        out = np.empty((filled.size, self._size // filled.size), dtype=np.int32)
        step = _BUILD_CHUNK * self._per_lower
        for c0 in range(0, self._size, step):
            upper = self._upper[c0 : c0 + step]
            order = np.argsort(upper, kind="stable")
            ranked = upper[order]
            # the k-th flag of row u in this run goes k slots past its earlier flags
            out[ranked, filled[ranked] + np.arange(ranked.size) - np.searchsorted(ranked, ranked)] = c0 + order
            filled += np.bincount(upper, minlength=filled.size)
        return out

    def per_flag(self, pos: int, table: np.ndarray, ids=slice(None)) -> np.ndarray:
        """table[member_ids(pos, ids)] for a per-entry array table.  Over a
        slice of ids, a lower table is repeated K times instead of gathered,
        and a 1-d upper table is indexed by the view of the upper ids:
        np.take would copy the int32 ids to intp, 8 B per flag."""
        if not isinstance(ids, slice):
            return table.take(self.member_ids(pos, ids), axis=0)
        if pos:
            upper = self._upper[ids]
            return table[upper] if table.ndim == 1 else table.take(upper, axis=0)
        start, stop, _ = ids.indices(self._size)
        k = self._per_lower
        return table[start // k : -(-stop // k)].repeat(k, axis=0)[start % k : start % k + stop - start]

    # -- per-entry tables ----------------------------------------------------

    def entry(self, pos: int, t: int) -> pg.Subspace:
        """Entry t of member table pos as a Subspace, built and cached on first use."""
        s = self._entries[pos].get(t)
        if s is None:
            rows = tuple(map(tuple, self._bases[pos][t].tolist()))
            s = self._entries[pos][t] = pg.Subspace(self.field, self.n, rows)
        return s

    def table_id_of(self, pos: int, s: pg.Subspace) -> Optional[int]:
        """The id of s in member table pos; None if absent."""
        t = int(self.table_ids_of(pos, [s])[0])
        return None if t < 0 else t

    def table_ids_of(self, pos: int, subspaces: Sequence[pg.Subspace]) -> np.ndarray:
        """The id of each subspace in member table pos, -1 where absent: its
        pg.subspace_index, if it has the table's n, q and rank and the entry
        there has its rows as RREF basis (so a non-canonical basis is absent)."""
        table = self._bases[pos]
        rank = table.shape[1]
        fits = np.array([s.n == self.n and s.field.q == self.field.q and s.rank == rank for s in subspaces], dtype=bool)
        rows = np.array([s.rows if ok else table[0] for s, ok in zip(subspaces, fits)], dtype=np.int64)
        rows = rows.reshape((len(fits),) + table.shape[1:])
        ids = np.minimum(pg.subspace_index(rows, self.field.q), len(table) - 1)
        return np.where(fits & (table[ids] == rows).all(axis=(1, 2)), ids, -1)

    @cached_property
    def polarity(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sigma, its inverse), int32, built lazily: sigma[u] is the lower id of tau_u^perp."""
        top, step = self._bases[1], _BUILD_CHUNK
        sigma = np.concatenate([pg.dual_index(top[c0 : c0 + step], self.field) for c0 in range(0, len(top), step)])
        return sigma.astype(np.int32), np.argsort(sigma).astype(np.int32)

    def entries_through_points(self) -> List[np.ndarray]:
        """Per table, packed bits of the entries through each point (built lazily).

        Row p of table pos holds bit t (little-endian within each byte) iff
        entry t contains point p.  The rows are unpacked from the mask words
        and packed _BUILD_CHUNK entries, rounded up to whole bytes, at a time.
        """
        if self._through is None:
            step = -(-_BUILD_CHUNK // 8) * 8
            self._through = [np.empty((self.num_points, (len(w) + 7) // 8), np.uint8) for w in self._table_words]
            for words, through in zip(self._table_words, self._through):
                for c0 in range(0, len(words), step):
                    incidence = _word_bits(words[c0 : c0 + step], self.num_points).T
                    through[:, c0 // 8 : c0 // 8 + step // 8] = np.packbits(incidence, axis=1, bitorder="little")
        return self._through

    # -- adjacency -----------------------------------------------------------

    def adjacency_row(self, i: int, start: int = 0) -> np.ndarray:
        """Boolean adjacency of flag i against flags start..N-1 (self excluded):
        flag j is adjacent iff pi_j misses tau_i and tau_j misses pi_i."""
        later = slice(start, self._size)
        lo_words, hi_words = self._table_words
        lo, hi = self.per_flag(0, lo_words, i), self.per_flag(1, hi_words, i)
        row = ~(self.per_flag(0, _any_word(lo_words & hi), later) | self.per_flag(1, _any_word(hi_words & lo), later))
        if start <= i:
            row[i - start] = False
        return row

    # -- pairwise independence over id subsets -------------------------------

    def _gather(self, ids: np.ndarray) -> List[np.ndarray]:
        """Per chain position, the (n_words, m) mask words of the flags ids,
        word-major, gathered from the tables."""
        return [np.ascontiguousarray(self.per_flag(pos, words, ids).T) for pos, words in enumerate(self._table_words)]

    def star_plan(self, ids: Sequence[int]) -> StarPlan:
        """Star groups of an id list and the blocks that check_pairwise_independent scans.

        Flags a and b are never adjacent when pi_a and tau_b share a point.
        Greedily, the point shared by the most flags not yet grouped makes
        those flags a group, until no point is shared by two of them.  The
        point is either a point P of every lower member pi (a pi-star) or the
        dual point H^perp of a hyperplane H holding every upper member tau
        (an H-star; H^perp is on each lower entry sigma(tau)).  A pi-star's
        rows are tested only against the later flags b with P not in tau_b, and an H-star's rows only against the
        later b with pi_b not in H: otherwise P lies in pi_a and tau_b, or
        pi_b + tau_a lies in H, so it is not the whole space and pi_b meets
        tau_a.  As pi_b lies in tau_b, the pairs inside a group are skipped
        too.  A star point p below width = n_words * 64 is the point p of pi,
        and width + x the dual point x of tau^perp.  The counts are one
        bincount per side over the point ids of every flag's pi or sigma(tau),
        _MEMBER_CHUNK flags at a time, less the group's; ties go to the first
        point.  Groups and columns come from the flags' own entries, so the
        plan is sound for any id list.
        """
        ids = np.asarray(ids, dtype=np.int64)
        m = int(ids.size)
        free = np.ones(m, dtype=bool)
        groups: List[np.ndarray] = []
        points: List[int] = []
        if m > 1:
            width = self.n_words * _WORD_BITS
            sides = [self.member_ids(0, ids), self.polarity[0][self.member_ids(1, ids)]]

            def tally(rows) -> np.ndarray:
                return np.concatenate([_point_tally(self._lower_points, tids[rows], width) for tids in sides])

            counts = tally(slice(None))
            while True:
                point = int(counts.argmax())
                if counts[point] < 2:
                    break
                tids = sides[point // width]
                members = (free & _holds(self._table_words[0], tids, point % width)).nonzero()[0]
                groups.append(members)
                points.append(point)
                free[members] = False
                if np.count_nonzero(free) < 2:  # no point is on two free flags: skip the last tally
                    break
                counts -= tally(members)
        order = np.concatenate(groups + [free.nonzero()[0]])

        blocks: List[Tuple[int, int, np.ndarray]] = []
        pair_tests = 0
        start = 0
        for g, point in zip(groups, points):
            stop = start + g.size
            cols = stop + self._star_columns(point, ids[order[stop:]]).nonzero()[0]
            pair_tests += g.size * cols.size
            if cols.size:
                step = max(1, _BLOCK_PAIRS // cols.size)
                blocks += [(r, min(r + step, stop), cols) for r in range(start, stop, step)]
            start = stop
        pair_tests += comb(m - start, 2)
        # the ungrouped rest: one triangle, each row against the rows after it
        tail = np.arange(start + 1, m)
        r = start
        while r < m - 1:
            step = max(1, _BLOCK_PAIRS // (m - 1 - r))
            blocks.append((r, min(r + step, m - 1), tail[r - start :]))
            r += step
        return StarPlan(
            order=order,
            group_sizes=tuple(int(g.size) for g in groups),
            blocks=tuple(blocks),
            pair_tests=pair_tests,
            pairs_pruned=comb(m, 2) - pair_tests,
        )

    def _star_columns(self, point: int, ids: np.ndarray) -> np.ndarray:
        """Which flags of ids the rows of a star at point must still be tested against.

        point numbers star_plan's star points: below n_words * 64 it is the
        point P of a pi-star, which prunes the flags whose tau holds P; from
        there on it is the dual point x of the hyperplane H of an H-star, which
        prunes the flags whose pi lies in H: whose upper entry sigma^-1(pi) holds x.
        """
        width = self.n_words * _WORD_BITS
        if point < width:
            return ~_holds(self._table_words[1], self.member_ids(1, ids), point)
        return ~_holds(self._table_words[1], self.polarity[1][self.member_ids(0, ids)], point - width)

    def check_pairwise_independent(
        self, ids: Sequence[int], threads: int = 1, plan: Optional[StarPlan] = None
    ) -> Optional[Tuple[int, int]]:
        """Exhaustive pair scan; returns the first adjacent (id_a, id_b) or None.

        "First" means smallest position pair in the given order, so callers
        that pass canonically sorted ids get reproducible witnesses.  The
        scan tests only the pairs of star_plan(ids) (or of the given plan,
        which must come from these ids); the pairs it skips are provably not
        adjacent, so the witness is the same as that of a scan of every pair.
        Its blocks run through run_blocks; each reports its smallest adjacent
        (min, max) caller position pair, and the smallest over all blocks is
        the row-major first pair whatever the thread count.
        """
        ids = np.asarray(ids, dtype=np.int64)
        m = int(ids.size)
        if m < 2:
            return None
        if plan is None:
            plan = self.star_plan(ids)
        elif plan.order.size != m:
            raise InvalidArgs(f"plan covers {plan.order.size} ids, got {m}")
        if not plan.blocks:
            return None
        order = plan.order
        sub = self._gather(ids[order])
        run = run_blocks(lambda b: self._tiled_pair_scan(sub, order, b), plan.blocks, threads)
        hits = [h for h in run if h is not None]
        if not hits:
            return None
        a, b = min(hits)
        return int(ids[a]), int(ids[b])

    def adjacent_pairs(self, ids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Every adjacent pair of ids as sorted (min, max) caller positions:
        star_plan(ids) on the tiles of check_pairwise_independent.  Two row
        tiles of ids or fewer are one triangle (cheaper below about 150)."""
        ids = np.asarray(ids, dtype=np.int64)
        plan = self.star_plan(ids) if ids.size > 2 * _TILE_ROWS else None
        order = np.arange(ids.size) if plan is None else plan.order
        blocks = [(0, ids.size - 1, order[1:])] if plan is None else plan.blocks
        sub = self._gather(ids[order])
        codes = [c for block in blocks for c in self._block_pairs(sub, order, block)]
        return np.divmod(np.sort(np.concatenate(codes + [np.empty(0, dtype=np.int64)])), ids.size)

    def _tiled_pair_scan(self, sub, order: np.ndarray, block: Tuple[int, int, np.ndarray]) -> Optional[Tuple[int, int]]:
        """The smallest adjacent (min, max) caller position pair of the block, or None."""
        codes = [int(c.min()) for c in self._block_pairs(sub, order, block)]
        return divmod(min(codes), order.size) if codes else None

    def _block_pairs(self, sub, order: np.ndarray, block: Tuple[int, int, np.ndarray]) -> Iterator[np.ndarray]:
        """Rows r0..r1-1 against the plan positions cols after them, in tiles.

        sub holds the gathered masks in plan order; order maps a plan
        position back to its caller position.  Yields, per tile with an
        adjacent pair, the code a * m + b of each of its adjacent pairs, for
        caller positions a < b and m = order.size.
        """
        lo, hi = sub
        r0, r1, cols = block
        for cs in range(0, cols.size, _TILE_COLS):
            c = cols[cs : cs + _TILE_COLS]
            lo_c, hi_c = [word[c] for word in lo], [word[c] for word in hi]
            # rows from the last column on have no column after them
            for rs in range(r0, min(r1, int(c[-1])), _TILE_ROWS):
                re = min(rs + _TILE_ROWS, r1)
                # nonzero where the pair meets: pi_a & tau_b or tau_a & pi_b, any word
                z = lo[0][rs:re, None] & hi_c[0][None, :]
                t = np.empty_like(z)
                for w in range(self.n_words):
                    if w:
                        np.bitwise_and(lo[w][rs:re, None], hi_c[w][None, :], out=t)
                        z |= t
                    np.bitwise_and(hi[w][rs:re, None], lo_c[w][None, :], out=t)
                    z |= t
                if c[0] < re:
                    # some columns are not after some rows; keep only column > row
                    z[c[None, :] <= np.arange(rs, re)[:, None]] = 1
                if np.count_nonzero(z) == z.size:
                    continue
                r, k = np.nonzero(z == 0)
                a, b = order[r + rs], order[c[k]]
                yield np.minimum(a, b) * order.size + np.maximum(a, b)

    # perfbench/spans.py wraps these names by attribute, so they stay, kept
    # only for it until its spans read the package's own (ROADMAP item 1);
    # the star-pruned scan has the one kernel above
    _row_pair_scan = _scalar_pair_scan = _tiled_pair_scan

    def adjacent_to_any(self, i: int, ids: np.ndarray) -> bool:
        return bool(self.adjacency_row(i)[ids].any())  # kept only for perfbench/spans.py, as above

    def member_bits(self, ids: Sequence[int] = ()) -> MemberBits:
        """The member-bit tables of the flags ids."""
        bits = MemberBits(self)
        bits.add(ids)
        return bits


def _general_position_rows(n: int, J: Tuple[int, ...], field: FieldSpec):
    """(N, row) for the flags of any type J, in enumerate_flags order:
    row(i, start) is the general position of flag i against flags
    start..N-1, on the point-mask words of their members.  Members of ranks
    ra and rb are in general position iff they meet in the least rank,
    max(ra + rb - n, 0), a subspace of (q^rank - 1) / (q - 1) points."""
    n_words, q = (len(pg.all_points(n, field)) + _WORD_BITS - 1) // _WORD_BITS, field.q
    masks = b"".join(subspace_point_mask(s).to_bytes(8 * n_words, "little")
                     for f in enumerate_flags(n, J, field) for s in f.chain)
    words = np.frombuffer(masks, dtype="<u8").reshape(-1, len(J), n_words)
    members = [np.ascontiguousarray(words[:, b]) for b in range(len(J))]
    least = [[(q ** max(ra + rb - n, 0) - 1) // (q - 1) for rb in J] for ra in J]

    def row(i: int, start: int) -> np.ndarray:
        ok = np.ones(len(words) - start, dtype=bool)
        for a in range(len(J)):
            for b, member in enumerate(members):
                meet = member[start:] & words[i, a]
                ok &= _popcount(meet).sum(axis=1) == least[a][b] if least[a][b] else ~_any_word(meet)
        return ok

    return len(words), row


def export_dimacs(n: int, J: Sequence[int], field: FieldSpec, out, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Write the graph in DIMACS edge format (1-based ids in enumerate_flags
    order) to the text handle out and return its vertex count; more than cap
    vertices are refused before anything is built.  Type {d, d+1} in rank
    2d+1 takes the rows of its universe, any other type those of
    _general_position_rows.  The graph is regular, as GL(n, q) is transitive
    on the flags of one type, so it has N * |row(0)| / 2 edges."""
    if n < 3:
        raise InvalidType("q-Kneser graphs are defined for n >= 3")
    check_cap(field.q, flag_binomials(n, J), f"vertices of type {tuple(J)} in GF({field.q})^{n}", cap)
    J = tuple(J)
    if J == (J[0], J[0] + 1) and n == 2 * J[0] + 1:
        universe = FlagUniverse(n, J, field)
        size, row = len(universe), universe.adjacency_row
    else:
        size, row = _general_position_rows(n, J, field)
    out.write(f"p edge {size} {size * int(np.count_nonzero(row(0, 1))) // 2}\n")
    for i in range(size - 1):
        out.write("".join(f"e {i + 1} {j}\n" for j in (np.flatnonzero(row(i, i + 1)) + i + 2).tolist()))
    return size
