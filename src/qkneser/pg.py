"""Canonical subspace algebra and enumeration for PG(n-1, q).

Every subspace is stored as its reduced row-echelon basis, which is the
unique canonical representative: two subspaces are equal iff their basis
tuples are equal, so subspaces are hashable dictionary keys.  Vector-space
rank is used throughout; projective dimension (rank - 1) only shows up in
reporting layers.

For q = 2 row reduction runs on bit-packed rows (one int per row); the
result is bit-identical to the generic table-driven path, which the test
suite checks exhaustively on small spaces.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, List, Sequence, Tuple

from .errors import DimensionMismatch, InvalidArgs
from .gf import FieldSpec

Row = Tuple[int, ...]


class Subspace:
    """A linear subspace of GF(q)^n held in canonical (RREF) form.

    Construct through :func:`rref` unless the rows are already canonical.
    """

    __slots__ = ("field", "n", "rows", "_hash")

    def __init__(self, field: FieldSpec, n: int, rows: Tuple[Row, ...]):
        self.field = field
        self.n = n
        self.rows = rows
        self._hash = None

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


def _rref_generic(rows: List[list], n: int, fld: FieldSpec) -> Tuple[Row, ...]:
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


def _unpack2(v: int, n: int) -> Row:
    return tuple((v >> i) & 1 for i in range(n))


def _rref_gf2_packed(rows: List[int], n: int) -> List[int]:
    work = [r for r in rows if r]
    pr = 0
    for col in range(n):
        bit = 1 << col
        piv = None
        for r in range(pr, len(work)):
            if work[r] & bit:
                piv = r
                break
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        row = work[pr]
        for r in range(len(work)):
            if r != pr and (work[r] & bit):
                work[r] ^= row
        pr += 1
        if pr == len(work):
            break
    return work[:pr]


def _rref_rows(rows, n: int, fld: FieldSpec) -> Tuple[Row, ...]:
    if fld.q == 2:
        packed = _rref_gf2_packed([_pack2(r) for r in rows], n)
        return tuple(_unpack2(v, n) for v in packed)
    return _rref_generic(rows, n, fld)


def rref(rows: Sequence[Sequence[int]], n: int, field: FieldSpec) -> Subspace:
    """Canonical span of the given GF(q)-vectors of length n."""
    q = field.q
    for r in rows:
        if len(r) != n:
            raise DimensionMismatch(f"row of length {len(r)} in ambient of rank {n}")
        for v in r:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < q:
                raise InvalidArgs(f"scalar {v!r} is not an element of GF({q})")
    return Subspace(field, n, _rref_rows(rows, n, field))


def rank_of_rows(rows: Sequence[Sequence[int]], n: int, field: FieldSpec) -> int:
    """Matrix rank over GF(q); cheaper entry point when only the rank is needed."""
    if field.q == 2:
        return len(_rref_gf2_packed([_pack2(r) for r in rows], n))
    return len(_rref_generic(list(rows), n, field))


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
    return Subspace(a.field, a.n, _rref_rows(list(a.rows) + list(b.rows), a.n, a.field))


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
    return Subspace(fld, n, _rref_rows(vecs, n, fld))


def meet(a: Subspace, b: Subspace) -> Subspace:
    # (A cap B) is the annihilator of A^perp + B^perp.
    _check_same_space(a, b)
    return dual(join(dual(a), dual(b)))


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a."""
    _check_same_space(a, b)
    if b.rank > a.rank:
        return False
    fld = a.field
    mul, sub = fld.mul, fld.sub
    pivots = [_pivot_col(r) for r in a.rows]
    for row in b.rows:
        cur = list(row)
        for i, pc in enumerate(pivots):
            c = cur[pc]
            if c:
                arow = a.rows[i]
                cur = [sub(x, mul(c, y)) for x, y in zip(cur, arow)]
        if any(cur):
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration


def enumerate_subspaces(n: int, r: int, field: FieldSpec) -> Iterator[Subspace]:
    """All rank-r subspaces of GF(q)^n, each exactly once.

    Order: pivot shapes lexicographically, then the free entries
    lexicographically by the flattened row-major scalar sequence.
    """
    if not 0 <= r <= n:
        raise InvalidArgs(f"need 0 <= r <= n, got r={r}, n={n}")
    if r == 0:
        yield zero_subspace(n, field)
        return
    q = field.q
    for pivots in combinations(range(n), r):
        pivot_set = set(pivots)
        free = [(i, c) for i in range(r) for c in range(pivots[i] + 1, n) if c not in pivot_set]
        base = []
        for i in range(r):
            row = [0] * n
            row[pivots[i]] = 1
            base.append(row)
        if not free:
            yield Subspace(field, n, tuple(tuple(row) for row in base))
            continue
        for values in product(range(q), repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, c), v in zip(free, values):
                rows[i][c] = v
            yield Subspace(field, n, tuple(tuple(row) for row in rows))


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
    pos = sum(1 for row in rows if _pivot_col(row) < lead)
    out.insert(pos, tuple(w))
    return tuple(out)


def enumerate_superspaces(a: Subspace, r: int) -> Iterator[Subspace]:
    """All rank-r subspaces containing a, via the quotient space GF(q)^(n-s)."""
    fld, n, s = a.field, a.n, a.rank
    if not s <= r <= n:
        raise InvalidArgs(f"need rank(a) <= r <= n, got r={r}")
    if r == s:
        yield a
        return
    pivot_set = {_pivot_col(row) for row in a.rows}
    free_cols = [c for c in range(n) if c not in pivot_set]
    m = len(free_cols)

    def lift(qrow):
        v = [0] * n
        for c, x in zip(free_cols, qrow):
            v[c] = x
        return v

    if r == s + 1:
        for pt in all_points(m, fld):
            yield Subspace(fld, n, _extend_rref(a.rows, lift(pt), fld))
        return
    for t in enumerate_subspaces(m, r - s, fld):
        rows = [lift(qrow) for qrow in t.rows] + [list(row) for row in a.rows]
        yield Subspace(fld, n, _rref_rows(rows, n, fld))


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
        yield Subspace(fld, a.n, _rref_rows(rows, a.n, fld))


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
