"""Flags of vectorial type J in GF(q)^n and the general-position graph.

general_position is the definition: every cross pair of flag members meets
trivially or spans the whole space, decided by matrix-rank computations.  It
is the oracle.  Every bulk test runs on FlagUniverse, whose kernels work on
point-set bitmasks; for type {d, d+1} in rank 2d+1 they use the fast rule
(the two "meet of opposite members is zero" conditions), so verification is
a stream of word ANDs.  The test suite cross-checks the kernels against the
oracle exhaustively.

FlagUniverse numbers the flags of one graph without holding them: a flag is
a pair of table ids, into the tables of distinct lower and upper members.
Each table is pg.subspace_rows of its rank, and each entry is kept once, as
its RREF basis, its sorted point ids and its point-mask words, all made in
uint8 GF(q) arithmetic; no Subspace is built (entry builds one on demand).
A table id is pg.subspace_index of a basis: a flag lo + <w> (w the lifted
quotient rows) gets its upper id from its upper member's basis.  A
predicate of one member (P in pi, L in tau, ...) is evaluated once per
table entry and read off for the flags through their table ids.  A
closed-form flag count above MAX_FLAGS is refused first.  Every point set
(of a table entry, of the dual of a top entry, of a hyperplane x^perp) is
spanned from a basis by _span_points; _dual_rows gives the duals' bases.

FlagUniverse.check_pairwise_independent is the bulk check.  For type
{d, d+1} in rank 2d+1 it first groups the flags into stars: flags whose
lower members pi share a point P, or whose upper members tau lie in one
hyperplane H.  A star's flags are then tested only against the later flags
that its point does not prove non-adjacent: those with P outside tau, or
with pi outside H.  One tiled block kernel runs the remaining pairs on mask
words gathered from the tables, with its blocks shared out by run_blocks.
Its tiles give the witness, or every adjacent pair (adjacent_pairs).
Other types test every pair with a scalar row loop, on the one
general-position rule that adjacency_row and adjacent_to_any also use.

MemberBits (FlagUniverse.member_bits) tests flags against a growing set, for
type {d, d+1} in rank 2d+1 only.  Each member sets one bit in the row of
every lower table entry disjoint from its upper member, and in the row of
every upper table entry disjoint from its lower member, so a flag is
adjacent to some member iff the AND of its two rows is nonzero.  The greedy
completion in explore and the maximality scan in indsets.find_extension
both use it; adjacent_to_any, which tests one flag against a set on the
general-position rule, is its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, prod
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import pg, qcalc
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


@lru_cache(maxsize=None)
def _field_arrays(field: FieldSpec) -> Tuple[np.ndarray, np.ndarray]:
    """GF(q) addition and multiplication tables as uint8 arrays."""
    elems = range(field.q)
    add = np.array([[field.add(a, b) for b in elems] for a in elems], dtype=np.uint8)
    mul = np.array([[field.mul(a, b) for b in elems] for a in elems], dtype=np.uint8)
    return add, mul


def _op(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """table[a, b] for broadcast uint8 arrays, as one flat take (faster than a 2-d index)."""
    return table.ravel().take(a * np.uint8(table.shape[0]) + b)  # q * q <= 81 fits uint8


# GF(q) arithmetic on broadcast uint8 arrays: XOR adds in characteristic 2 and
# AND multiplies in GF(2); every other sum and product is a table take.
# -a is (p - 1) * a.


def _add(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a ^ b if field.p == 2 else _op(_field_arrays(field)[0], a, b)


def _mul(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a & b if field.q == 2 else _op(_field_arrays(field)[1], a, b)


def _neg(field: FieldSpec, a: np.ndarray) -> np.ndarray:
    return a if field.p == 2 else _mul(field, np.uint8(field.p - 1), a)


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


def _pack_bits(incidence: np.ndarray) -> np.ndarray:
    """uint64 words of a boolean array whose last axis is a whole number of words."""
    return np.packbits(incidence, axis=-1, bitorder="little").view("<u8").astype(_WORD)


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


def _point_tally(points: np.ndarray, tids: np.ndarray, width: int) -> np.ndarray:
    """Per point below width, how many of the entries tids hold it (row t of
    points lists entry t's point ids), gathered _MEMBER_CHUNK at a time."""
    counts = np.zeros(width, dtype=np.int64)
    for c0 in range(0, tids.size, _MEMBER_CHUNK):
        counts += np.bincount(points.take(tids[c0 : c0 + _MEMBER_CHUNK], axis=0).ravel(), minlength=width)
    return counts


def _lift(rows: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Quotient vectors vecs (..., k, n - j) lifted to GF(q)^n: placed in the
    non-pivot columns, in increasing order, of the RREF bases rows (..., j, n)."""
    is_pivot = np.zeros(rows.shape[:-2] + rows.shape[-1:], dtype=bool)
    np.put_along_axis(is_pivot, np.argmax(rows != 0, axis=-1), True, axis=-1)
    free = np.argsort(is_pivot, axis=-1, kind="stable")[..., None, : vecs.shape[-1]]
    lifted = np.zeros(vecs.shape[:-1] + rows.shape[-1:], dtype=np.uint8)
    np.put_along_axis(lifted, free, vecs, axis=-1)
    return lifted


def _dual_rows(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """Bases (N, n - j, n) of the orthogonal complements of the row spaces of
    the (N, j, n) RREF bases rows, as pg.dual has them before its RREF: for
    each non-pivot column c, the unit vector e_c with -rows[i][c] at the
    pivot column of row i."""
    N, j, n = rows.shape
    duals = _lift(rows, np.broadcast_to(np.eye(n - j, dtype=np.uint8), (N, n - j, n - j)))
    coef = np.take_along_axis(rows, np.argmax(duals, axis=-1)[:, None, :], axis=-1)  # rows[i][c]
    pivots = np.argmax(rows != 0, axis=-1)[:, None, :]
    np.put_along_axis(duals, pivots, _neg(field, coef).transpose(0, 2, 1), axis=-1)
    return duals


def _span_points(field: FieldSpec, rows: np.ndarray, n_words: int) -> Tuple[np.ndarray, np.ndarray]:
    """(ids, words): the sorted point ids of the row spaces of the (N, j, n)
    bases rows, and the point-mask words set from those ids.

    Each chunk of _BUILD_CHUNK bases is spanned, one row at a time: the span
    of rows 0..i is every vector of the span of rows 0..i-1 plus every
    multiple of row i.  A point is hit by its q - 1 nonzero multiples, so
    every (q - 1)-th of the sorted ids of the nonzero vectors is kept.
    """
    q, j = field.q, rows.shape[1]
    elems = np.arange(q, dtype=np.uint8)[None, :, None]
    point_of = _point_of_code(rows.shape[-1], field)
    ids = np.empty((len(rows), (q**j - 1) // (q - 1)), dtype=np.int32)
    words = np.empty((len(rows), n_words), dtype=_WORD)
    for c0 in range(0, len(rows), _BUILD_CHUNK):
        r = rows[c0 : c0 + _BUILD_CHUNK]
        span = np.zeros((len(r), 1, r.shape[2]), dtype=np.uint8)
        for i in range(j):
            multiples = _mul(field, elems, r[:, None, i, :])
            span = _add(field, span[:, :, None], multiples[:, None]).reshape(len(r), -1, r.shape[2])
        ids[c0 : c0 + len(r)] = np.sort(point_of[_codes(span[:, 1:], q)], axis=1)[:, :: q - 1]
        incidence = np.zeros((len(r), n_words * _WORD_BITS), dtype=bool)
        incidence[np.arange(len(r))[:, None], ids[c0 : c0 + len(r)]] = True
        words[c0 : c0 + len(r)] = _pack_bits(incidence)
    return ids, words


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
        w = _lift(r[:, None], np.broadcast_to(quotient, (c,) + quotient.shape))  # (c, K, gap, n)
        pivots = np.argmax(w != 0, axis=-1)  # each row of w is zero at the others' pivots
        reduced = np.broadcast_to(r[:, None], (c, K) + r.shape[1:])
        for i in range(gap):
            coef = _neg(field, r[np.arange(c)[:, None], :, pivots[:, :, i]])
            reduced = _add(field, reduced, _mul(field, coef[..., None], w[:, :, i, None, :]))
        ids.append(pg.subspace_index(np.concatenate((reduced, w), axis=2), field.q).ravel())
    return np.concatenate(ids)


class MemberBits:
    """Adjacency to a growing member set, tested on the two member tables.

    For type {d, d+1} in rank 2d+1, flags a and b are adjacent iff lo(a) is
    disjoint from hi(b) and lo(b) is disjoint from hi(a).  Member k sets bit
    k of lower[t] for every lower table entry t disjoint from its upper
    member, and bit k of upper[u] for every upper table entry u disjoint
    from its lower member.  Flag c is then adjacent to some member iff
    lower[lo_tid(c)] & upper[hi_tid(c)] has a set bit.  The entries that
    meet a member's entry are the OR of the entries through its points
    (FlagUniverse.entries_through_points), so a member costs its point
    count times one bit row per table.  Members are cheapest added in
    batches: add writes up to 64 members' bits with one weighted sum.
    """

    def __init__(self, universe: "FlagUniverse"):
        self._universe = universe
        self._points = universe._point_ids
        self._through = universe.entries_through_points()
        self._sizes = [ids.shape[0] for ids in universe._point_ids]
        self.lower, self.upper = (np.zeros((n, 0), dtype=_WORD) for n in self._sizes)
        self.size = 0

    def _apart(self, pos: int, points: np.ndarray) -> np.ndarray:
        """apart[r, t]: entry t of table pos holds none of the point ids points[r]."""
        out = np.empty((points.shape[0], self._sizes[pos]), dtype=bool)
        for r0 in range(0, points.shape[0], _WORD_BITS):
            r = points[r0 : r0 + _WORD_BITS]
            meet = np.bitwise_or.reduce(self._through[pos][r], axis=1)
            meet = np.unpackbits(meet, axis=1, count=self._sizes[pos], bitorder="little")
            np.equal(meet, 0, out=out[r0 : r0 + r.shape[0]])
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
                apart = self._apart(pos, self._points[1 - pos][uniq])
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

    def blocked(self, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """For each flag of ids (of every flag by default), whether it is adjacent to some member."""
        universe = self._universe
        if ids is None:
            # a lower id is i // K (FlagUniverse), so each lower row serves the next K flags
            both = universe.per_flag(1, self.upper).reshape((self._sizes[0], universe._per_lower, self.upper.shape[1]))
            both &= self.lower[:, None, :]
            return _any_word(both).ravel()
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
    """Dense id <-> flag bijection over two member tables.

    A flag is its pair of table ids: flag i has members
    entry(pos, member_ids(pos, i)).  Its lower id is i // K for K uppers
    per lower member, so only the upper ids are stored, int32 when they
    fit: they are the only per-flag array.  Each table lists every subspace
    of its rank in pg.subspace_rows order, so table ids are
    pg.subspace_index values.  Entry t of table pos has its (rank, n) uint8
    RREF basis _bases[pos][t], its sorted point ids _point_ids[pos][t] and
    their mask words _table_words[pos][t]; per_flag reads a per-entry array
    off for flags.  Ids follow enumerate_flags, so they are stable across
    runs; certificates reference flags by bases.
    """

    def __init__(self, n: int, J: Sequence[int], field: FieldSpec):
        self.n = n
        self.types = _validate_type(n, J)
        self.field = field
        j1 = self.types[0]
        check_cap(field.q, flag_binomials(n, J), f"flags of type {self.types} in GF({field.q})^{n}")
        self.num_points = len(pg.all_points(n, field))
        self.n_words = (self.num_points + _WORD_BITS - 1) // _WORD_BITS

        lows = pg.subspace_rows(n, j1, field)
        self._bases = [lows]
        self._per_lower = 1
        if len(self.types) == 2:
            # the quotient bases in enumerate_superspaces order: the points for gap 1
            m, gap = n - j1, self.types[1] - j1
            points = np.array(pg.all_points(m, field), dtype=np.uint8)[:, None]
            quotient = points if gap == 1 else pg.subspace_rows(m, gap, field)
            self._per_lower = len(quotient)
            self._upper = _upper_ids(field, lows, quotient)
            self._bases.append(pg.subspace_rows(n, self.types[1], field))
        spans = [_span_points(field, bases, self.n_words) for bases in self._bases]
        self._point_ids, self._table_words = [ids for ids, _ in spans], [words for _, words in spans]
        self._size = len(lows) * self._per_lower
        self._entries: List[dict] = [{} for _ in self.types]
        self._through = None
        self._kneser_fast = self.types == (j1, j1 + 1) and n == 2 * j1 + 1

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Flag]:
        return (self.flag_of(i) for i in range(self._size))

    def id_of(self, f: Flag) -> int:
        return int(self.ids_of([f])[0])

    def ids_of(self, flags: Sequence[Flag]) -> np.ndarray:
        """The ids of flags, with one table lookup per chain position: flag
        t * K + j is the one of lower entry t whose upper id matches."""
        ids = self.table_ids_of(0, [f.chain[0] for f in flags]).astype(np.int64)
        if len(self.types) == 2:
            per_lower = self._per_lower
            block = self.member_ids(1, ids[:, None] * per_lower + np.arange(per_lower))
            hit = block == self.table_ids_of(1, [f.chain[-1] for f in flags])[:, None]
            ids = np.where((ids >= 0) & hit.any(axis=1), ids * per_lower + hit.argmax(axis=1), -1)
        bad = [f for f, i in zip(flags, ids) if i < 0 or len(f.chain) != len(self.types)]
        if bad:
            raise InvalidArgs(f"flag {bad[0]!r} is not in this universe")
        return ids

    def flag_of(self, i: int) -> Flag:
        if not 0 <= i < self._size:
            raise InvalidArgs(f"flag id {i} outside [0, {self._size})")
        return Flag(tuple(self.entry(pos, int(self.member_ids(pos, i))) for pos in range(len(self.types))))

    def member_ids(self, pos: int, ids=slice(None)) -> np.ndarray:
        """The table ids of the flags' members at chain position pos, for an
        id, an id array or a slice of ids (every flag by default): flag i's
        lower id is i // K; upper ids are stored, so a slice of them is a view."""
        if pos:
            return self._upper[ids]
        return (np.arange(self._size)[ids] if isinstance(ids, slice) else np.asarray(ids)) // self._per_lower

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
    def _dual_top(self) -> Tuple[np.ndarray, np.ndarray]:
        """(ids, words) of the duals of the top table entries (built lazily)."""
        return _span_points(self.field, _dual_rows(self.field, self._bases[-1]), self.n_words)

    @property
    def dual_top_ids(self) -> np.ndarray:
        """Row t holds the sorted point ids of the dual of top table entry t."""
        return self._dual_top[0]

    @property
    def dual_top_words(self) -> np.ndarray:
        """Row t holds the mask words of the dual of top table entry t."""
        return self._dual_top[1]

    @cached_property
    def _hyperplane_words(self) -> np.ndarray:
        """Row x holds the mask words of the hyperplane x^perp (built lazily):
        the span of the dual of point x, taken as a rank-1 basis."""
        points = np.array(pg.all_points(self.n, self.field), dtype=np.uint8)[:, None]
        return _span_points(self.field, _dual_rows(self.field, points), self.n_words)[1]

    def entries_through_points(self) -> List[np.ndarray]:
        """Per table, packed bits of the entries through each point (built lazily).

        Row p of table pos holds bit t (little-endian within each byte) iff
        entry t contains point p.  The rows are packed _BUILD_CHUNK entries,
        rounded up to whole bytes, at a time.
        """
        if self._through is None:
            step = -(-_BUILD_CHUNK // 8) * 8
            self._through = [np.empty((self.num_points, (len(ids) + 7) // 8), np.uint8) for ids in self._point_ids]
            for ids, through in zip(self._point_ids, self._through):
                for c0 in range(0, len(ids), step):
                    incidence = np.zeros((self.num_points, min(step, len(ids) - c0)), dtype=bool)
                    incidence[ids[c0 : c0 + step], np.arange(incidence.shape[1])[:, None]] = True
                    through[:, c0 // 8 : c0 // 8 + step // 8] = np.packbits(incidence, axis=1, bitorder="little")
        return self._through

    # -- adjacency -----------------------------------------------------------

    def _flag_words(self, i: int) -> List[np.ndarray]:
        """The mask words of flag i's members, one row per chain position."""
        return [self.per_flag(pos, words, i) for pos, words in enumerate(self._table_words)]

    def _general_row(self, words_a: List[np.ndarray], ids_b) -> np.ndarray:
        """General position of the flag with member masks words_a against the
        flags ids_b: every member pair meets trivially or spans the whole
        space, decided once per table entry and read off through per_flag.
        Ranks ra and rb span the space iff they meet in rank ra + rb - n,
        which holds (q^(ra+rb-n) - 1) / (q - 1) points."""
        q, row = self.field.q, None
        for ra, a in zip(self.types, words_a):
            for pos, (rb, table) in enumerate(zip(self.types, self._table_words)):
                pc = _popcount(table & a).sum(axis=1)
                spanning = (q ** max(ra + rb - self.n, 0) - 1) // (q - 1)
                ok = self.per_flag(pos, (pc == 0) | (pc == spanning), ids_b)
                row = ok if row is None else (row & ok)
        return row

    def adjacency_row(self, i: int, start: int = 0) -> np.ndarray:
        """Boolean adjacency of flag i against flags start..N-1 (self excluded)."""
        later = slice(start, self._size)
        if self._kneser_fast:
            # flag j is adjacent iff pi_j misses tau_i and tau_j misses pi_i
            lo, hi = self._flag_words(i)
            meet_lo, meet_hi = _any_word(self._table_words[0] & hi), _any_word(self._table_words[1] & lo)
            row = ~(self.per_flag(0, meet_lo, later) | self.per_flag(1, meet_hi, later))
        else:
            row = self._general_row(self._flag_words(i), later)
        if start <= i:
            row[i - start] = False
        return row

    def count_edges(self) -> int:
        total = 0
        for i in range(self._size - 1):
            total += int(np.count_nonzero(self.adjacency_row(i, i + 1)))
        return total

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
        (an H-star).  A pi-star's rows are tested only against the later
        flags b with P not in tau_b, and an H-star's rows only against the
        later b with pi_b not in H: otherwise P lies in pi_a and tau_b, or
        pi_b + tau_a lies in H, so it is not the whole space and pi_b meets
        tau_a.  As pi_b lies in tau_b, the pairs inside a group are skipped
        too.  A star point p below width = n_words * 64 is the point p of pi,
        and width + x the dual point x of tau^perp.  The counts are one
        bincount per side over every flag's point ids, gathered _MEMBER_CHUNK
        flags at a time, less the group's at each step; ties go to the first
        point.  Groups and columns come from the flags' own entries, so the
        plan is sound for any id list.  Other types get no groups.
        """
        ids = np.asarray(ids, dtype=np.int64)
        m = int(ids.size)
        free = np.ones(m, dtype=bool)
        groups: List[np.ndarray] = []
        points: List[int] = []
        if self._kneser_fast and m > 1:
            width = self.n_words * _WORD_BITS
            sides = [(self._point_ids[0], self._table_words[0], self.member_ids(0, ids)),
                     (self.dual_top_ids, self.dual_top_words, self.member_ids(1, ids))]

            def tally(rows) -> np.ndarray:
                return np.concatenate([_point_tally(pts, tids[rows], width) for pts, _, tids in sides])

            counts = tally(slice(None))
            while True:
                point = int(counts.argmax())
                if counts[point] < 2:
                    break
                _, words, tids = sides[point // width]
                members = (free & _holds(words, tids, point % width)).nonzero()[0]
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
        there on it is the dual point of the hyperplane H of an H-star, which
        prunes the flags whose pi lies in H.
        """
        width = self.n_words * _WORD_BITS
        if point < width:
            return ~_holds(self._table_words[1], self.member_ids(1, ids), point)
        outside = ~self._hyperplane_words[point - width]
        return _any_word(self.per_flag(0, self._table_words[0], ids) & outside)

    def check_pairwise_independent(
        self, ids: Sequence[int], threads: int = 1, plan: Optional[StarPlan] = None
    ) -> Optional[Tuple[int, int]]:
        """Exhaustive pair scan; returns the first adjacent (id_a, id_b) or None.

        "First" means smallest position pair in the given order, so callers
        that pass canonically sorted ids get reproducible witnesses.  For type
        {d, d+1} in rank 2d+1 the scan tests only the pairs of star_plan(ids)
        (or of the given plan, which must come from these ids); the pairs it
        skips are provably not adjacent, so the witness is the same as that
        of a scan of every pair.  Its blocks run through run_blocks; each
        reports its smallest adjacent (min, max) caller position pair, and
        the smallest over all blocks is the row-major first pair whatever the
        thread count.  Other types test every pair.
        """
        ids = np.asarray(ids, dtype=np.int64)
        m = int(ids.size)
        if m < 2:
            return None
        if not self._kneser_fast:
            found = self._scalar_pair_scan(ids)
        else:
            if plan is None:
                plan = self.star_plan(ids)
            elif plan.order.size != m:
                raise InvalidArgs(f"plan covers {plan.order.size} ids, got {m}")
            if not plan.blocks:
                return None
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

    def adjacent_pairs(self, ids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Every adjacent pair of ids as sorted (min, max) caller positions, for type
        {d, d+1} in rank 2d+1: star_plan(ids) on the tiles of check_pairwise_independent."""
        if not self._kneser_fast:
            raise InvalidType(f"adjacent_pairs needs type {{d, d+1}} in rank 2d+1, got {self.types}")
        ids = np.asarray(ids, dtype=np.int64)
        plan = self.star_plan(ids)
        sub = self._gather(ids[plan.order])
        codes = [c for block in plan.blocks for c in self._block_pairs(sub, plan.order, block)]
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

    # perfbench/spans.py wraps this name by attribute, so it stays as an alias;
    # the star-pruned scan has the one kernel above
    _row_pair_scan = _tiled_pair_scan

    def _scalar_pair_scan(self, ids: np.ndarray) -> Optional[Tuple[int, int]]:
        # general-type fallback; only small universes take this path
        for a in range(ids.size - 1):
            adj = self._general_row(self._flag_words(int(ids[a])), ids[a + 1 :])
            if adj.any():
                return a, a + 1 + int(np.argmax(adj))
        return None

    def member_bits(self, ids: Sequence[int] = ()) -> MemberBits:
        """The member-bit tables of the flags ids (type {d, d+1} in rank 2d+1)."""
        if not self._kneser_fast:
            raise InvalidType(f"member bits need type {{d, d+1}} in rank 2d+1, got {self.types}")
        bits = MemberBits(self)
        bits.add(ids)
        return bits

    def adjacent_to_any(self, i: int, ids: np.ndarray) -> bool:
        """True iff flag i is adjacent to at least one flag of ids.

        It tests the general-position rule for every member pair, one flag
        at a time: the reference that MemberBits.blocked is checked against.
        """
        return bool(self._general_row(self._flag_words(i), ids).any())


def export_dimacs(
    n: int,
    J: Sequence[int],
    field: FieldSpec,
    out,
    cap: int = DEFAULT_VERTEX_CAP,
) -> FlagUniverse:
    """Write the graph in DIMACS edge format (1-based ids in universe order)
    to the text handle out; more than cap vertices are refused before the
    universe is built."""
    if n < 3:
        raise InvalidType("q-Kneser graphs are defined for n >= 3")
    check_cap(field.q, flag_binomials(n, J), f"vertices of type {tuple(J)} in GF({field.q})^{n}", cap)
    universe = FlagUniverse(n, J, field)
    out.write(f"p edge {len(universe)} {universe.count_edges()}\n")
    for i in range(len(universe) - 1):
        row = universe.adjacency_row(i, i + 1)
        for j in np.nonzero(row)[0]:
            out.write(f"e {i + 1} {i + 2 + int(j)}\n")
    return universe
