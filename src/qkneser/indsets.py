"""Construction, measurement and classification of the independent-set families.

A descriptor is a symbolic recipe: a base point P with a family U of
rank-(d+1) subspaces through P whose pairwise meets have rank >= 2 (the flags
through P form the generic part, the flags whose top member lies in U form
the special part), or the dual picture based on a rank-2d hyperplane H with a
family E of rank-d subspaces of H with pairwise nonzero meets.

The families "all top members through a line on P" and "all top members
through P inside a hyperplane on P" are structured enough to get their own
variant names; descriptors are normalized to the most specific variant, and
the extensionally identical pair point_pencil/generic_only collapses to
point_pencil (likewise for the dual pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from . import pg, qcalc
from ._parallel import run_blocks
from .errors import DimensionMismatch, InvalidDescriptor
from .gf import FieldSpec, make_field
from .kneser import (
    Flag,
    FlagUniverse,
    general_position,
    general_position_fast,
    subspace_point_mask,
)

POINT_VARIANTS = ("point_pencil", "point_line", "point_hyperplane", "point_family")
DUAL_VARIANTS = ("dual_point_pencil", "hyperplane_family")
VARIANT_ALIASES = {"generic_only": "point_pencil", "dual_generic_only": "dual_point_pencil"}


class Unstructured:
    """Sentinel classification for sets without a detected base."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unstructured"


UNSTRUCTURED = Unstructured()


@dataclass(frozen=True)
class IndSetDescriptor:
    """Symbolic recipe for one independent set of flags of type {d, d+1}."""

    variant: str
    d: int
    q: int
    base: pg.Subspace
    line: Optional[pg.Subspace] = None
    hyperplane: Optional[pg.Subspace] = None
    family: Tuple[pg.Subspace, ...] = ()

    @property
    def n(self) -> int:
        return 2 * self.d + 1

    def is_point_based(self) -> bool:
        return self.variant in POINT_VARIANTS


@dataclass(frozen=True)
class SplitSet:
    """Generic/special decomposition of a built independent set."""

    generic: FrozenSet[Flag]
    special: FrozenSet[Flag]

    @property
    def all(self) -> FrozenSet[Flag]:
        return self.generic | self.special

    def __len__(self) -> int:
        return len(self.generic) + len(self.special)


def _require(cond: bool, invariant: str) -> None:
    if not cond:
        raise InvalidDescriptor(invariant)


def _space_params(s: pg.Subspace) -> Tuple[int, int]:
    n = s.n
    _require(n % 2 == 1 and n >= 5, f"ambient rank {n} is not 2d+1 with d >= 2")
    return (n - 1) // 2, s.field.q


def _sorted_family(family: Iterable[pg.Subspace]) -> Tuple[pg.Subspace, ...]:
    fam = sorted(set(family), key=lambda s: s.rows)
    return tuple(fam)


def validate_descriptor(desc: IndSetDescriptor) -> None:
    """Raise InvalidDescriptor naming the violated invariant, if any."""
    d, q, n = desc.d, desc.q, desc.n
    _require(d >= 2, f"d must be >= 2, got {d}")
    base = desc.base
    _require(base.n == n and base.field.q == q, "base subspace lives in the wrong space")
    if desc.is_point_based():
        _require(base.rank == 1, f"base point must have rank 1, got {base.rank}")
    else:
        _require(base.rank == 2 * d, f"base hyperplane must have rank {2 * d}, got {base.rank}")

    if desc.variant == "point_pencil":
        _require(desc.line is None and desc.hyperplane is None and not desc.family,
                 "point_pencil carries no extra data")
    elif desc.variant == "point_line":
        line = desc.line
        _require(line is not None and line.n == n and line.rank == 2, "line must have rank 2")
        _require(pg.contains(line, base), "base point must lie on the line")
    elif desc.variant == "point_hyperplane":
        hyp = desc.hyperplane
        _require(hyp is not None and hyp.n == n and hyp.rank == 2 * d,
                 f"hyperplane must have rank {2 * d}")
        _require(pg.contains(hyp, base), "base point must lie in the hyperplane")
    elif desc.variant == "point_family":
        for u in desc.family:
            _require(u.n == n and u.rank == d + 1, f"family members must have rank {d + 1}")
            _require(pg.contains(u, base), "every family member must contain the base point")
        fam = desc.family
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                _require(pg.meet(fam[i], fam[j]).rank >= 2,
                         "family members must pairwise meet in rank >= 2")
    elif desc.variant == "dual_point_pencil":
        _require(desc.line is None and desc.hyperplane is None and not desc.family,
                 "dual_point_pencil carries no extra data")
    elif desc.variant == "hyperplane_family":
        for e in desc.family:
            _require(e.n == n and e.rank == d, f"family members must have rank {d}")
            _require(pg.contains(base, e), "every family member must lie in the hyperplane")
        fam = desc.family
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                _require(pg.meet(fam[i], fam[j]).rank >= 1,
                         "family members must pairwise meet nontrivially")
    else:
        raise InvalidDescriptor(f"unknown variant {desc.variant!r}")


def point_pencil(p: pg.Subspace) -> IndSetDescriptor:
    d, q = _space_params(p)
    desc = IndSetDescriptor(variant="point_pencil", d=d, q=q, base=p)
    validate_descriptor(desc)
    return desc


# F(P, empty family) and the point-pencil F(P) are the same flag set.
generic_only = point_pencil


def dual_point_pencil(h: pg.Subspace) -> IndSetDescriptor:
    d, q = _space_params(h)
    desc = IndSetDescriptor(variant="dual_point_pencil", d=d, q=q, base=h)
    validate_descriptor(desc)
    return desc


dual_generic_only = dual_point_pencil


def point_line(p: pg.Subspace, line: pg.Subspace) -> IndSetDescriptor:
    d, q = _space_params(p)
    desc = IndSetDescriptor(variant="point_line", d=d, q=q, base=p, line=line)
    validate_descriptor(desc)
    return desc


def point_hyperplane(p: pg.Subspace, h: pg.Subspace) -> IndSetDescriptor:
    d, q = _space_params(p)
    desc = IndSetDescriptor(variant="point_hyperplane", d=d, q=q, base=p, hyperplane=h)
    validate_descriptor(desc)
    return desc


def point_family(p: pg.Subspace, family: Iterable[pg.Subspace]) -> IndSetDescriptor:
    d, q = _space_params(p)
    desc = IndSetDescriptor(variant="point_family", d=d, q=q, base=p,
                            family=_sorted_family(family))
    validate_descriptor(desc)
    return normalize_descriptor(desc)


def hyperplane_family(h: pg.Subspace, family: Iterable[pg.Subspace]) -> IndSetDescriptor:
    d, q = _space_params(h)
    desc = IndSetDescriptor(variant="hyperplane_family", d=d, q=q, base=h,
                            family=_sorted_family(family))
    validate_descriptor(desc)
    return normalize_descriptor(desc)


def line_family(p: pg.Subspace, line: pg.Subspace) -> Tuple[pg.Subspace, ...]:
    """The family behind F(P, line): all rank-(d+1) subspaces through the line."""
    d = (p.n - 1) // 2
    return _sorted_family(pg.enumerate_superspaces(line, d + 1))


def hyperplane_point_family(p: pg.Subspace, h: pg.Subspace) -> Tuple[pg.Subspace, ...]:
    """The family behind F(P, H): all rank-(d+1) subspaces with P <= t <= H."""
    d = (p.n - 1) // 2
    return _sorted_family(t for t in pg.enumerate_superspaces(p, d + 1) if pg.contains(h, t))


def normalize_descriptor(desc: IndSetDescriptor) -> IndSetDescriptor:
    """Collapse family descriptors to their structured variant when possible."""
    if desc.variant == "point_family":
        fam = desc.family
        if not fam:
            return point_pencil(desc.base)
        expected = qcalc.gauss(2 * desc.d - 1, desc.d - 1, desc.q)
        if len(fam) == expected:
            common = fam[0]
            for u in fam[1:]:
                common = pg.meet(common, u)
                if common.rank < 2:
                    break
            if common.rank == 2 and pg.contains(common, desc.base):
                return point_line(desc.base, common)
            spanned = fam[0]
            for u in fam[1:]:
                spanned = pg.join(spanned, u)
            if spanned.rank == 2 * desc.d and all(pg.contains(u, desc.base) for u in fam):
                return point_hyperplane(desc.base, spanned)
    elif desc.variant == "hyperplane_family" and not desc.family:
        return dual_point_pencil(desc.base)
    return desc


# ---------------------------------------------------------------------------
# building the flag sets


def _family_of(desc: IndSetDescriptor) -> Tuple[pg.Subspace, ...]:
    if desc.variant == "point_line":
        return line_family(desc.base, desc.line)
    if desc.variant == "point_hyperplane":
        return hyperplane_point_family(desc.base, desc.hyperplane)
    return desc.family


def build(desc: IndSetDescriptor) -> SplitSet:
    """Materialize the generic and special parts of the described set."""
    validate_descriptor(desc)
    d = desc.d
    if desc.is_point_based():
        p = desc.base
        generic = frozenset(
            Flag((lo, hi))
            for lo in pg.enumerate_superspaces(p, d)
            for hi in pg.enumerate_superspaces(lo, d + 1)
        )
        special = set()
        for top in _family_of(desc):
            for lo in pg.subspaces_within(top, d):
                if not pg.contains(lo, p):
                    special.add(Flag((lo, top)))
        return SplitSet(generic=generic, special=frozenset(special))

    h = desc.base
    generic = frozenset(
        Flag((lo, hi))
        for hi in pg.subspaces_within(h, d + 1)
        for lo in pg.subspaces_within(hi, d)
    )
    special = set()
    for low in _family_of(desc):
        for hi in pg.enumerate_superspaces(low, d + 1):
            if not pg.contains(h, hi):
                special.add(Flag((low, hi)))
    return SplitSet(generic=generic, special=frozenset(special))


def family_size_bound(d: int, q: int) -> int:
    """Largest family size allowed by the strict bound (1+1/q) th_{d-2} th_{d-1}^{d-1}."""
    if d < 2:
        raise InvalidDescriptor(f"d must be >= 2, got {d}")
    bound = (1 + Fraction(1, q)) * qcalc.theta(d - 2, q) * qcalc.theta(d - 1, q) ** (d - 1)
    return (bound.numerator - 1) // bound.denominator


# ---------------------------------------------------------------------------
# independence / maximality


def _sorted_flags(flags: Iterable[Flag]) -> List[Flag]:
    out = list(flags)
    out.sort(key=Flag.sort_key)
    if out:
        n, types, q = out[0].n, out[0].types, out[0].chain[0].field.q
        for f in out[1:]:
            if f.n != n or f.types != types or f.chain[0].field.q != q:
                raise DimensionMismatch("flags come from different graphs")
    return out


def _is_kneser_type(f: Flag) -> bool:
    t = f.types
    return len(t) == 2 and t[1] == t[0] + 1 and f.n == 2 * t[0] + 1


def find_adjacent_pair(
    flags: Iterable[Flag], universe: Optional[FlagUniverse] = None, threads: int = 1
) -> Optional[Tuple[Flag, Flag]]:
    """First adjacent pair in canonical order, or None if independent."""
    ordered = _sorted_flags(flags)
    if len(ordered) < 2:
        return None
    if universe is not None:
        ids = [universe.id_of(f) for f in ordered]
        hit = universe.check_pairwise_independent(ids, threads=threads)
        if hit is None:
            return None
        return universe.flag_of(hit[0]), universe.flag_of(hit[1])
    fast = _is_kneser_type(ordered[0])
    test = general_position_fast if fast else general_position
    for i in range(len(ordered) - 1):
        fi = ordered[i]
        for j in range(i + 1, len(ordered)):
            if test(fi, ordered[j]):
                return fi, ordered[j]
    return None


def is_independent(
    flags: Iterable[Flag], universe: Optional[FlagUniverse] = None, threads: int = 1
) -> bool:
    return find_adjacent_pair(flags, universe=universe, threads=threads) is None


def find_extension(
    flags: Iterable[Flag], universe: FlagUniverse, threads: int = 1
) -> Optional[Flag]:
    """First flag (in enumeration order) outside the set that extends it."""
    ids = sorted(universe.id_of(f) for f in set(flags))
    in_set = np.zeros(len(universe), dtype=bool)
    ids_arr = np.array(ids, dtype=np.int64)
    if ids_arr.size:
        in_set[ids_arr] = True
    if not ids:
        return universe.flag_of(0) if len(universe) else None
    sub = universe._gather(ids_arr)
    outside = np.nonzero(~in_set)[0]

    def scan(block):
        lo, hi = block
        for i in outside[lo:hi]:
            if not universe.adjacent_to_any(int(i), sub):
                return int(i)
        return None

    if threads <= 1:
        found = scan((0, outside.size))
    else:
        bounds = np.linspace(0, outside.size, threads * 4 + 1, dtype=int)
        blocks = [(int(a), int(b)) for a, b in zip(bounds, bounds[1:]) if a < b]
        hits = [r for r in run_blocks(scan, blocks, threads) if r is not None]
        found = min(hits) if hits else None
    return universe.flag_of(found) if found is not None else None


def is_maximal(flags: Iterable[Flag], universe: FlagUniverse, threads: int = 1) -> bool:
    return find_extension(flags, universe, threads=threads) is None


# ---------------------------------------------------------------------------
# structure recovery


def pencil_base_candidates(in_set: np.ndarray, universe: FlagUniverse) -> List[int]:
    """Point bits whose full point-pencil lies inside the selected flags."""
    outside = ~in_set
    covered = universe.or_reduce_member_masks(0, outside)
    return [b for b in range(universe.num_points) if not (covered >> b) & 1]


def dual_pencil_base_candidates(in_set: np.ndarray, universe: FlagUniverse) -> List[int]:
    """Dual-point bits (H^perp) whose full dual pencil lies inside the set."""
    outside = ~in_set
    mask = 0
    for w in range(universe.n_words):
        col = universe.dual_top_cols[w][outside]
        word = int(np.bitwise_or.reduce(col)) if col.size else 0
        mask |= word << (64 * w)
    return [b for b in range(universe.num_points) if not (mask >> b) & 1]


def _point_subspace(universe: FlagUniverse, bit: int) -> pg.Subspace:
    row = pg.all_points(universe.n, universe.field)[bit]
    return pg.Subspace(universe.field, universe.n, (row,))


def descriptor_masks(desc: IndSetDescriptor, universe: FlagUniverse) -> Tuple[np.ndarray, np.ndarray]:
    """(generic, special) membership over all universe flags, vectorized.

    Membership is decided by the descriptor predicate (P in pi, line in tau,
    and so on), never by materializing the flag set.
    """
    if desc.is_point_based():
        bit = universe.point_bit(desc.base)
        generic = universe.member_has_point(0, bit)
        if desc.variant == "point_line":
            in_family = universe.member_contains_mask(1, subspace_point_mask(desc.line))
        elif desc.variant == "point_hyperplane":
            in_family = universe.member_has_point(1, bit) & universe.member_within_mask(
                1, subspace_point_mask(desc.hyperplane)
            )
        elif desc.family:
            tids = [universe.table_id_of(1, s) for s in desc.family]
            if any(t is None for t in tids):
                raise InvalidDescriptor("family member is not a subspace of this universe")
            in_family = universe.member_id_in(1, tids)
        else:
            in_family = None
        special = (in_family & ~generic) if in_family is not None else np.zeros(len(universe), dtype=bool)
        return generic, special

    hmask = subspace_point_mask(desc.base)
    generic = universe.member_within_mask(1, hmask)
    fam = desc.family
    if fam:
        tids = [universe.table_id_of(0, s) for s in fam]
        if any(t is None for t in tids):
            raise InvalidDescriptor("family member is not a subspace of this universe")
        in_family = universe.member_id_in(0, tids)
        special = in_family & ~generic
    else:
        special = np.zeros(len(universe), dtype=bool)
    return generic, special


def classify(flags: Iterable[Flag], universe: FlagUniverse):
    """Recover a structured descriptor from a set of flags, if possible.

    Guaranteed only for sets produced by build and for maximal independent
    sets above the e1 threshold; returns UNSTRUCTURED otherwise whenever no
    base is detected or the special part does not validate.
    """
    flag_set = set(flags)
    if not flag_set:
        return UNSTRUCTURED
    in_set = np.zeros(len(universe), dtype=bool)
    for f in flag_set:
        in_set[universe.id_of(f)] = True

    for bit in pencil_base_candidates(in_set, universe):
        p = _point_subspace(universe, bit)
        generic_mask = universe.member_has_point(0, bit)
        special_ids = np.nonzero(in_set & ~generic_mask)[0]
        if special_ids.size == 0:
            if int(np.count_nonzero(generic_mask)) == len(flag_set):
                return point_pencil(p)
            continue
        tops = {universe.flags[i].chain[1] for i in special_ids}
        try:
            desc = point_family(p, tops)
        except InvalidDescriptor:
            continue
        gen2, spec2 = descriptor_masks(desc, universe)
        if np.array_equal(gen2 | spec2, in_set):
            return desc

    universe.dual_top_cols  # force dual masks
    for bit in dual_pencil_base_candidates(in_set, universe):
        h = pg.dual(_point_subspace(universe, bit))
        generic_mask = universe.dual_top_has_point(bit)
        special_ids = np.nonzero(in_set & ~generic_mask)[0]
        if special_ids.size == 0:
            if int(np.count_nonzero(generic_mask)) == len(flag_set):
                return dual_point_pencil(h)
            continue
        lows = {universe.flags[i].chain[0] for i in special_ids}
        try:
            desc = hyperplane_family(h, lows)
        except InvalidDescriptor:
            continue
        gen2, spec2 = descriptor_masks(desc, universe)
        if np.array_equal(gen2 | spec2, in_set):
            return desc

    return UNSTRUCTURED


def dualize_descriptor(desc: IndSetDescriptor) -> IndSetDescriptor:
    """Apply the polarity to every subspace and swap the variant polarity."""
    validate_descriptor(desc)
    if desc.is_point_based():
        h = pg.dual(desc.base)
        fam = tuple(pg.dual(u) for u in _family_of(desc))
        if not fam:
            return dual_point_pencil(h)
        return hyperplane_family(h, fam)
    p = pg.dual(desc.base)
    fam = tuple(pg.dual(e) for e in desc.family)
    if not fam:
        return point_pencil(p)
    return point_family(p, fam)


# ---------------------------------------------------------------------------
# JSON interchange


def _rows_to_json(s: pg.Subspace) -> List[List[int]]:
    return [list(r) for r in s.rows]


def _rows_from_json(rows, n: int, field: FieldSpec, what: str) -> pg.Subspace:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvalidDescriptor(f"{what}: expected a list of rows")
    if not pg.is_canonical_rows(rows, n, field):
        raise InvalidDescriptor(f"{what}: basis rows are not canonical (RREF required)")
    return pg.Subspace(field, n, tuple(tuple(r) for r in rows))


def descriptor_to_json(desc: IndSetDescriptor) -> Dict:
    out: Dict = {"variant": desc.variant, "d": desc.d, "q": desc.q}
    if desc.is_point_based():
        out["P"] = _rows_to_json(desc.base)
    else:
        out["H"] = _rows_to_json(desc.base)
    if desc.variant == "point_line":
        out["L"] = _rows_to_json(desc.line)
    elif desc.variant == "point_hyperplane":
        out["H"] = _rows_to_json(desc.hyperplane)
    elif desc.variant == "point_family":
        out["U"] = [_rows_to_json(u) for u in desc.family]
    elif desc.variant == "hyperplane_family":
        out["E"] = [_rows_to_json(e) for e in desc.family]
    return out


def descriptor_from_json(data: Dict) -> IndSetDescriptor:
    try:
        variant = data["variant"]
        d = int(data["d"])
        q = int(data["q"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDescriptor(f"descriptor JSON missing variant/d/q: {exc}") from exc
    if not isinstance(variant, str):
        raise InvalidDescriptor(f"descriptor variant must be a string, got {variant!r}")
    variant = VARIANT_ALIASES.get(variant, variant)
    n = 2 * d + 1
    field = make_field(q)

    def sub(key: str) -> pg.Subspace:
        if key not in data:
            raise InvalidDescriptor(f"descriptor JSON missing key {key!r}")
        return _rows_from_json(data[key], n, field, key)

    if variant == "point_pencil":
        return point_pencil(sub("P"))
    if variant == "dual_point_pencil":
        return dual_point_pencil(sub("H"))
    if variant == "point_line":
        return point_line(sub("P"), sub("L"))
    if variant == "point_hyperplane":
        return point_hyperplane(sub("P"), sub("H"))
    if variant == "point_family":
        fam = [_rows_from_json(rows, n, field, "U") for rows in data.get("U", [])]
        return point_family(sub("P"), fam)
    if variant == "hyperplane_family":
        fam = [_rows_from_json(rows, n, field, "E") for rows in data.get("E", [])]
        return hyperplane_family(sub("H"), fam)
    raise InvalidDescriptor(f"unknown variant {variant!r}")


def flag_to_json(f: Flag) -> List[List[List[int]]]:
    return [_rows_to_json(s) for s in f.chain]
