"""Canonical subspace algebra and enumeration for PG(n-1, q).

Every subspace is stored as its reduced row-echelon basis, which is the
unique canonical representative: two subspaces are equal iff their basis
tuples are equal, so subspaces are hashable dictionary keys.  Vector-space
rank is used throughout; projective dimension (rank - 1) only shows up in
reporting layers.

_order writes the enumeration order of the rank-r bases once, in pure
Python: enumerate_subspaces yields them in it, and _shapes turns it into the
arrays of the tables.  subspace_rows lists them in it, subspace_index maps a
basis back to its position, in closed form, and superspace_ids reads the
positions of their joins with the quotient points off small per-pivot-shape
tables; point_ids is the closed-form position of a point in all_points.
The exact layer (Subspace, the lattice operations, the enumerations) never
touches an array, so numpy loads only once a table is built.

Row reduction has one table-driven implementation for every q.  Only
join_rank packs GF(2) rows into ints (one per row, kept on the Subspace),
as the oracle general_position calls it for every member pair, and
dual_index reduces whole arrays of bases in uint8 GF(q) arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, List, Sequence, Tuple

from . import _numpy as np
from .errors import DimensionMismatch, InvalidArgs, TooLarge
from .gf import FieldSpec
from .qcalc import gauss

Row = Tuple[int, ...]


class Subspace:
    """A linear subspace of GF(q)^n held in canonical (RREF) form.

    Construct through :func:`rref` unless the rows are already canonical.
    """

    __slots__ = ("field", "n", "rows", "_hash", "_packed")

    def __init__(self, field: FieldSpec, n: int, rows: Tuple[Row, ...]):
        self.field = field
        self.n = n
        self.rows = rows
        self._hash = None
        self._packed = None  # GF(2) rows as ints, filled by join_rank

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.n == other.n and self.field.q == other.field.q and self.rows == other.rows

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.field.q, self.n, self.rows))
        return h

    def __repr__(self):
        return f"Subspace(n={self.n}, q={self.field.q}, rows={self.rows})"


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if a.n != b.n or a.field.q != b.field.q:
        raise DimensionMismatch(
            f"subspaces live in different spaces: GF({a.field.q})^{a.n} vs GF({b.field.q})^{b.n}"
        )


# ---------------------------------------------------------------------------
# row reduction


def _rref_generic(rows: Iterable[Sequence[int]], n: int, fld: FieldSpec) -> Tuple[Row, ...]:
    mul, sub, inv = fld.mul, fld.sub, fld.inv
    work = [list(r) for r in rows if any(r)]
    pr = 0
    for col in range(n):
        piv = None
        for r in range(pr, len(work)):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        row = work[pr]
        lead = row[col]
        if lead != 1:
            s = inv(lead)
            work[pr] = row = [mul(s, v) for v in row]
        for r in range(len(work)):
            if r != pr and work[r][col]:
                c = work[r][col]
                work[r] = [sub(x, mul(c, y)) for x, y in zip(work[r], row)]
        pr += 1
        if pr == len(work):
            break
    return tuple(tuple(r) for r in work[:pr])


def _pack2(row: Sequence[int]) -> int:
    v = 0
    for i, x in enumerate(row):
        if x:
            v |= 1 << i
    return v


def rref(rows: Sequence[Sequence[int]], n: int, field: FieldSpec) -> Subspace:
    """Canonical span of the given GF(q)-vectors of length n."""
    q = field.q
    for r in rows:
        if len(r) != n:
            raise DimensionMismatch(f"row of length {len(r)} in ambient of rank {n}")
        for v in r:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < q:
                raise InvalidArgs(f"scalar {v!r} is not an element of GF({q})")
    return Subspace(field, n, _rref_generic(rows, n, field))


def join_rank(a: Subspace, b: Subspace) -> int:
    """rank(a + b) by row reduction of b's basis against a's.

    Over GF(2) each subspace packs its rows once and keeps them.  a's rows are
    in RREF, so each of b's rows is reduced against them in a single pass (a
    pivot column of a is zero in a's other rows); the rank of the reduced
    rows then comes from a small basis with distinct leading bits.
    """
    _check_same_space(a, b)
    if a.field.q != 2:
        return len(_rref_generic(list(a.rows) + list(b.rows), a.n, a.field))
    for s in (a, b):
        if s._packed is None:
            s._packed = [_pack2(r) for r in s.rows]
    pivots = [(r & -r, r) for r in a._packed]
    basis: List[int] = []
    for x in b._packed:
        for bit, r in pivots:
            if x & bit:
                x ^= r
        for y in basis:
            x = min(x, x ^ y)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
    return len(pivots) + len(basis)


def zero_subspace(n: int, field: FieldSpec) -> Subspace:
    return Subspace(field, n, ())


def full_space(n: int, field: FieldSpec) -> Subspace:
    return Subspace(field, n, tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n)))


def is_canonical_rows(rows: Sequence[Sequence[int]], n: int, field: FieldSpec) -> bool:
    """True iff rows are exactly an RREF basis (used to vet external input)."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        return False
    try:
        s = rref(rows, n, field)
    except (DimensionMismatch, InvalidArgs):
        return False
    return s.rows == tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# lattice operations


def join(a: Subspace, b: Subspace) -> Subspace:
    _check_same_space(a, b)
    return Subspace(a.field, a.n, _rref_generic(list(a.rows) + list(b.rows), a.n, a.field))


def _pivot_col(row: Row) -> int:
    for i, v in enumerate(row):
        if v:
            return i
    raise ValueError("zero row has no pivot")


def dual(a: Subspace) -> Subspace:
    """Orthogonal complement for the standard dot product on GF(q)^n."""
    fld, n = a.field, a.n
    pivots = [_pivot_col(r) for r in a.rows]
    pivot_set = set(pivots)
    vecs = []
    for c in range(n):
        if c in pivot_set:
            continue
        v = [0] * n
        v[c] = 1
        for i, pc in enumerate(pivots):
            v[pc] = fld.neg(a.rows[i][c])
        vecs.append(v)
    return Subspace(fld, n, _rref_generic(vecs, n, fld))


def meet(a: Subspace, b: Subspace) -> Subspace:
    # (A cap B) is the annihilator of A^perp + B^perp.
    _check_same_space(a, b)
    return dual(join(dual(a), dual(b)))


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a, i.e. a + b has the rank of a."""
    return join_rank(a, b) == a.rank


# ---------------------------------------------------------------------------
# enumeration


# bases per step of subspace_rows; bounds its scratch arrays
_ROW_BLOCK = 1 << 14

# enumerate_subspaces holds the options of a pivot shape's last rows with at
# most this many each, and makes the rows before them again per pass: a row
# can have q^(n-r) options, so this bounds its memory
_HELD_OPTIONS = 1 << 12


@lru_cache(maxsize=None)
def _order(n: int, r: int, q: int) -> Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]], ...]:
    """The order of the rank-r RREF bases of GF(q)^n, written once: per
    pivot shape s, in combinations order, (s, free), where free lists the
    free entries (p, c), column c of the row with pivot p, row-major with
    the pivot columns left out.  The k-th basis of s holds the base-q digits
    of k in its free entries, the first the most significant.  More than
    2^63 bases exceed an int64 index and are refused, by the exponent alone
    when it is large."""
    if not 0 <= r <= n:
        raise InvalidArgs(f"need 0 <= r <= n, got r={r}, n={n}")
    if r * (n - r) >= 63 or gauss(n, r, q) >= 1 << 63:
        raise TooLarge(f"more than 2^63 subspaces of rank {r} in GF({q})^{n} exceed an int64 index")
    return tuple(
        (shape, tuple((p, c) for p in shape for c in range(p + 1, n) if c not in shape))
        for shape in combinations(range(n), r)
    )


@lru_cache(maxsize=None)
def _shapes(n: int, r: int, q: int) -> Tuple[List[Tuple[int, ...]], np.ndarray, np.ndarray, np.ndarray]:
    """_order as arrays, per pivot shape s: (pivots, keys, first, place).
    Basis first[s] + k is the k-th of s; place[s, p, c] is the place value
    of the free entry in column c of the row with pivot p, else 0.  keys[s]
    = -sum(2^(n-1-p) over its pivots p) ascend.  Indices are int32 when all
    fit."""
    order = _order(n, r, q)
    pivots = [shape for shape, _ in order]
    place = np.zeros((len(pivots), n, n), dtype=np.int32 if gauss(n, r, q) < 1 << 31 else np.int64)
    for s, (_, free) in enumerate(order):
        for e, (p, c) in enumerate(reversed(free)):
            place[s, p, c] = q**e
    sizes = q ** np.count_nonzero(place, axis=(1, 2)).astype(place.dtype)
    first = (np.cumsum(sizes) - sizes).astype(place.dtype)
    # two shapes or more have 0 < r < n, so r(n - r) < 63 keeps n <= 63
    bits = [sum(1 << (n - 1 - p) for p in shape) for shape in pivots] if len(pivots) > 1 else [0]
    keys = -np.array(bits, dtype=np.int64)
    return pivots, keys, first, place


def subspace_index(rows: np.ndarray, q: int) -> np.ndarray:
    """The subspace_rows index of each (..., r, n) RREF basis, whose rows may
    come in any order: the first index of its pivot shape plus the base-q
    number of its free entries, with _shapes' index width.  Rows that are no
    RREF basis get some index, so check the basis there where that matters."""
    r, n = rows.shape[-2:]
    _, keys, first, place = _shapes(n, r, q)
    pivots = np.argmax(rows != 0, axis=-1)
    key = np.zeros(rows.shape[:-2], dtype=np.int64)
    for k in range(r):
        key -= np.left_shift(1, n - 1 - pivots[..., k])
    shape = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    # summed over the rows first: a sum along a short axis is slow, so do one
    terms = np.zeros(rows.shape[:-2] + (n,), dtype=first.dtype)
    for k in range(r):
        terms += rows[..., k, :] * np.take(place.reshape(-1, n), shape * n + pivots[..., k], axis=0)
    return first[shape] + terms.sum(axis=-1, dtype=first.dtype)


def subspace_rows(n: int, r: int, field: FieldSpec) -> np.ndarray:
    """The (N, r, n) uint8 RREF bases of all rank-r subspaces, in _order,
    their free entries set _ROW_BLOCK bases at a time."""
    pivots, _, first, place = _shapes(n, r, field.q)
    out = np.zeros((gauss(n, r, field.q), r, n), dtype=np.uint8)
    for shape, start, stop, digits in zip(pivots, first.tolist(), first[1:].tolist() + [len(out)], place):
        digits = digits[list(shape)]  # row i has pivot shape[i]
        i, c = np.nonzero(digits)
        out[start:stop, np.arange(r), list(shape)] = 1
        for k0 in range(0, stop - start, _ROW_BLOCK):
            k = np.arange(k0, min(k0 + _ROW_BLOCK, stop - start), dtype=np.int64)
            out[start + k0 : start + k0 + k.size, i, c] = k[:, None] // digits[i, c] % field.q
    return out


def superspace_tables(n: int, r: int, field: FieldSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of superspace_ids for the rank-r bases: (first, size,
    shares), per pivot shape s.  Row k of basis first[s] + x is the vector
    on the free columns coded by the k-th base-q digit group of x (of sizes
    size[s], the first the most significant).  Joined with the lift w_j of
    quotient point j (enumerate_superspaces order; w_j, its pivot p_j and
    the upper shape are fixed over s), its index is the sum over k of
    shares[s, k, code, j]: row k reduced at p_j, at its place values, row 0
    with the first index of the upper shape and w_j's place values added."""
    q = field.q
    pivots, _, first, lower_place = _shapes(n, r, q)
    uppers, _, up_first, place = _shapes(n, r + 1, q)
    points = np.array(all_points(n - r, field), dtype=np.uint8)
    lead = np.argmax(points != 0, axis=1)
    vecs = np.array(list(product(range(q), repeat=n - r)), dtype=np.uint8)  # in code order
    reduced = _add(field, vecs[:, None], _mul(field, _neg(field, vecs[:, lead])[..., None], points))
    shares = np.empty((len(pivots), r, len(vecs), len(points)), dtype=up_first.dtype)
    for s, shape in enumerate(pivots):
        free = np.array([c for c in range(n) if c not in shape])
        lifted = free[lead]  # p_j
        up = np.array([uppers.index(tuple(sorted(shape + (p,)))) for p in lifted.tolist()])
        # place[up[j], shape[k], f]: the place value of free column f in row k of upper shape up[j]
        shares[s] = np.einsum("vjf,jkf->kvj", reduced, place[up[:, None, None], np.array(shape)[:, None], free])
        shares[s, 0] += up_first[up] + (points * place[up[:, None], lifted[:, None], free]).sum(1, dtype=shares.dtype)
    size = q ** np.count_nonzero(np.take_along_axis(lower_place, np.array(pivots)[..., None], axis=1), axis=2)
    return first, size, shares


def superspace_ids(tables, lower: np.ndarray, points=None) -> np.ndarray:
    """The index of lower basis lower joined with the lift of quotient point
    points, broadcast, or with points None of all K along a new last axis:
    the pivot shape by a searchsorted on first, then a share per digit group."""
    first, size, shares = tables
    r, per_row, K = shares.shape[1:]
    lower = np.asarray(lower, dtype=np.int64)[()]  # one id stays a scalar: 0-d array steps cost more
    s = first.searchsorted(lower, side="right") - 1
    x, row, out = lower - first[s], s * (r * per_row), 0  # row: of share (s, 0, 0)
    for k in range(r - 1, -1, -1):
        x, v = divmod(x, size[s, k])
        v += row + k * per_row
        out = out + (shares.reshape(-1, K).take(v, axis=0) if points is None else shares.take(v * K + points))
    return out


@lru_cache(maxsize=None)
def _field_arrays(field: FieldSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GF(q) addition and multiplication tables, and the inverses (0 at 0), as uint8 arrays."""
    elems = range(field.q)
    add = np.array([[field.add(a, b) for b in elems] for a in elems], dtype=np.uint8)
    mul = np.array([[field.mul(a, b) for b in elems] for a in elems], dtype=np.uint8)
    return add, mul, np.array([field.inv(a) if a else 0 for a in elems], dtype=np.uint8)


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


def dual_index(bases: np.ndarray, field: FieldSpec) -> np.ndarray:
    """The subspace_index of the orthogonal complement of each (N, j, n) RREF
    basis, spanned as dual has it before its RREF (per non-pivot column c, e_c
    with -bases[i][c] at the pivot of row i; the free columns are read once)
    and reduced: step i moves the row with the leftmost leading column among
    rows i.. to row i, scales that column to 1 and clears it in the others."""
    pivots, at = np.argmax(bases != 0, axis=-1), np.arange(len(bases))
    is_free = np.ones(bases.shape[::2], dtype=bool)
    np.put_along_axis(is_free, pivots, False, axis=-1)
    free = np.nonzero(is_free)[1].reshape(len(bases), -1)  # the non-pivot columns, increasing
    coef = np.take_along_axis(bases, free[:, None, :], axis=-1)  # bases[i][c]
    rows = np.zeros((len(bases), free.shape[1], bases.shape[2]), dtype=np.uint8)
    np.put_along_axis(rows, free[:, :, None], 1, axis=-1)
    np.put_along_axis(rows, pivots[:, None, :], _neg(field, coef).transpose(0, 2, 1), axis=-1)
    for i in range(rows.shape[1]):
        lead = np.argmax(rows[:, i:] != 0, axis=-1)
        r = np.argmin(lead, axis=-1)
        c = lead[at, r]
        pivot = rows[at, i + r]
        rows[at, i + r] = rows[:, i]
        rows[:, i] = pivot = _mul(field, _field_arrays(field)[2][pivot[at, c]][:, None], pivot)
        coef = _neg(field, rows[at, :, c])
        coef[:, i] = 0
        rows = _add(field, rows, _mul(field, coef[:, :, None], pivot[:, None, :]))
    return subspace_index(rows, field.q)


def _row(n: int, p: int, cols: Sequence[int], digits: Sequence[int]) -> Row:
    """The basis row with pivot p and the digits in its free columns cols."""
    row = [0] * n
    row[p] = 1
    for c, x in zip(cols, digits):
        row[c] = x
    return tuple(row)


def enumerate_subspaces(n: int, r: int, field: FieldSpec) -> Iterator[Subspace]:
    """All rank-r subspaces of GF(q)^n, each exactly once, in _order (whose
    refusal comes before the first).  A row's free entries are adjacent in the
    digits, so a pivot shape's bases are the product of its rows' options
    (product takes the first the most significant); see _HELD_OPTIONS."""
    q = field.q
    for shape, free in _order(n, r, q):
        cols = [[c for p, c in free if p == pivot] for pivot in shape]
        k = r
        while k and q ** len(cols[k - 1]) <= _HELD_OPTIONS:
            k -= 1
        held = [
            tuple(_row(n, p, cs, x) for x in product(range(q), repeat=len(cs))) for p, cs in zip(shape[k:], cols[k:])
        ]
        for digits in product(range(q), repeat=sum(map(len, cols[:k]))):
            head, at = [], 0
            for p, cs in zip(shape[:k], cols[:k]):
                head.append(_row(n, p, cs, digits[at : at + len(cs)]))
                at += len(cs)
            head = tuple(head)
            for tail in product(*held):
                yield Subspace(field, n, head + tail)


def _extend_rref(rows: Tuple[Row, ...], w: Sequence[int], fld: FieldSpec) -> Tuple[Row, ...]:
    """Insert one reduced, normalized vector into an RREF basis.

    w must already be zero on all pivot columns of rows and have leading
    coefficient 1; both hold for lifted quotient points.
    """
    mul, sub = fld.mul, fld.sub
    lead = _pivot_col(tuple(w))
    out = []
    for row in rows:
        c = row[lead]
        if c:
            row = tuple(sub(x, mul(c, y)) for x, y in zip(row, w))
        out.append(row)
    # rows whose pivot comes before lead are the rows nonzero before lead
    pos = sum(1 for row in rows if any(row[:lead]))
    out.insert(pos, tuple(w))
    return tuple(out)


def enumerate_superspaces(a: Subspace, r: int) -> Iterator[Subspace]:
    """All rank-r subspaces containing a: a joined with the lift of each
    canonical basis of the quotient space GF(q)^(n-s), whose coordinates
    are the non-pivot columns of a in increasing order.

    Order: for r = s + 1 the quotient points in all_points order, otherwise
    the quotient subspaces in enumerate_subspaces order.
    """
    fld, n, s = a.field, a.n, a.rank
    if not s <= r <= n:
        raise InvalidArgs(f"need rank(a) <= r <= n, got r={r}")
    if r == s:
        yield a
        return
    pivot_set = {_pivot_col(row) for row in a.rows}
    free_columns = [c for c in range(n) if c not in pivot_set]

    def lift(qrow):
        v = [0] * n
        for c, x in zip(free_columns, qrow):
            v[c] = x
        return v

    if r == s + 1:
        for pt in all_points(n - s, fld):
            yield Subspace(fld, n, _extend_rref(a.rows, lift(pt), fld))
        return
    for t in enumerate_subspaces(n - s, r - s, fld):
        rows = [lift(qrow) for qrow in t.rows] + [list(row) for row in a.rows]
        yield Subspace(fld, n, _rref_generic(rows, n, fld))


def subspaces_within(a: Subspace, r: int) -> Iterator[Subspace]:
    """All rank-r subspaces of a, mapped from coordinates on a's basis."""
    fld = a.field
    if not 0 <= r <= a.rank:
        raise InvalidArgs(f"need 0 <= r <= rank(a), got r={r}")
    add, mul = fld.add, fld.mul
    for t in enumerate_subspaces(a.rank, r, fld):
        rows = []
        for coeffs in t.rows:
            v = [0] * a.n
            for c, brow in zip(coeffs, a.rows):
                if c:
                    v = [add(x, mul(c, y)) for x, y in zip(v, brow)]
            rows.append(v)
        yield Subspace(fld, a.n, _rref_generic(rows, a.n, fld))


# ---------------------------------------------------------------------------
# projective points


@lru_cache(maxsize=None)
def all_points(n: int, field: FieldSpec) -> Tuple[Row, ...]:
    """Normalized representatives (first nonzero coordinate 1) in lex order."""
    pts = []
    for v in product(range(field.q), repeat=n):
        for x in v:
            if x:
                if x == 1:
                    pts.append(v)
                break
    return tuple(pts)


def point_ids(vecs: np.ndarray, q: int) -> np.ndarray:
    """The all_points index of each normalized vector along the last axis of
    vecs (q^n < 2^63), in closed form: all_points is in lex order, so a point
    of base-q code c, q^m <= c < q^(m + 1), follows the theta(m) = (q^m - 1) /
    (q - 1) points of later pivots, and its index is c - q^m + theta(m)."""
    n = vecs.shape[-1]
    code = np.zeros(vecs.shape[:-1], dtype=np.int32 if q**n < 1 << 31 else np.int64)
    for k in range(n):
        code *= q
        code += vecs[..., k]
    offsets = np.array([(q**m - 1) // (q - 1) - q**m for m in range(n)], dtype=code.dtype)
    return code + offsets[np.searchsorted(q ** np.arange(1, n, dtype=code.dtype), code, side="right")]


@lru_cache(maxsize=None)
def point_index(n: int, field: FieldSpec) -> dict:
    return {pt: i for i, pt in enumerate(all_points(n, field))}


def normalize_vector(v: Sequence[int], field: FieldSpec) -> Row:
    for x in v:
        if x:
            if x == 1:
                return tuple(v)
            s = field.inv(x)
            return tuple(field.mul(s, y) for y in v)
    raise InvalidArgs("cannot normalize the zero vector")


def span_vectors(a: Subspace) -> List[Row]:
    """All q^rank vectors of a (the zero vector first)."""
    fld = a.field
    add, mul = fld.add, fld.mul
    vecs = [tuple([0] * a.n)]
    for row in a.rows:
        cur = list(vecs)
        for c in range(1, fld.q):
            crow = tuple(mul(c, x) for x in row)
            vecs.extend(tuple(add(x, y) for x, y in zip(v, crow)) for v in cur)
    return vecs


def subspace_point_ids(a: Subspace) -> Tuple[int, ...]:
    """Sorted indices (w.r.t. all_points) of the projective points inside a."""
    idx = point_index(a.n, a.field)
    fld = a.field
    ids = {idx[normalize_vector(v, fld)] for v in span_vectors(a)[1:]}
    return tuple(sorted(ids))
