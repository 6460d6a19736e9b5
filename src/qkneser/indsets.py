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

A set of flags is a sorted array of FlagUniverse ids: find_adjacent_pair,
is_independent, find_extension, is_maximal, classify and the pencil
candidates take ids and the universe and answer in ids, and
descriptor_masks gives a descriptor's two parts as ids.  The dual side
reads the lower table through the polarity sigma: upper entry u lies in
H iff lower entry sigma(u) holds H^perp.  Flag objects appear only in
build, the definitional construction, and in the JSON writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from . import pg, qcalc
from ._parallel import run_blocks  # unused here; perfbench/spans.py wraps this name
from .errors import InvalidArgs, InvalidDescriptor
from .gf import FieldSpec, make_field
from .kneser import Flag, FlagUniverse, _sorted_distinct, check_cap, flag_binomials, subspace_point_mask

# flags per step of the maximality scan
_SCAN_CHUNK = 8192

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
    return tuple(sorted(set(family), key=lambda s: s.rows))


def validate_descriptor(desc: IndSetDescriptor) -> IndSetDescriptor:
    """desc if it is valid; else raise InvalidDescriptor naming the violated invariant."""
    d, q, n = desc.d, desc.q, desc.n
    _require(d >= 2, f"d must be >= 2, got {d}")
    if desc.family:
        # family checks index the points of PG(2d, q), which are fewer than the flags
        check_cap(q, flag_binomials(n, (d, d + 1)), f"flags of type {(d, d + 1)} in GF({q})^{n}")
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
        # members hold P, so they meet in rank >= 2 iff their masks share another point
        _require(_pairwise_meet(desc.family, base),
                 "family members must pairwise meet in rank >= 2")
    elif desc.variant == "dual_point_pencil":
        _require(desc.line is None and desc.hyperplane is None and not desc.family,
                 "dual_point_pencil carries no extra data")
    elif desc.variant == "hyperplane_family":
        for e in desc.family:
            _require(e.n == n and e.rank == d, f"family members must have rank {d}")
            _require(pg.contains(base, e), "every family member must lie in the hyperplane")
        _require(_pairwise_meet(desc.family, None), "family members must pairwise meet nontrivially")
    else:
        raise InvalidDescriptor(f"unknown variant {desc.variant!r}")
    return desc


def _pairwise_meet(family: Tuple[pg.Subspace, ...], outside: Optional[pg.Subspace]) -> bool:
    """Whether every two members' point masks share a point not in outside."""
    within = -1 if outside is None or len(family) < 2 else ~subspace_point_mask(outside)
    masks = [subspace_point_mask(s) & within for s in family]
    return all(a & b for i, a in enumerate(masks) for b in masks[i + 1 :])


def point_pencil(p: pg.Subspace) -> IndSetDescriptor:
    return validate_descriptor(IndSetDescriptor("point_pencil", *_space_params(p), base=p))


# F(P, empty family) and the point-pencil F(P) are the same flag set.
generic_only = point_pencil


def dual_point_pencil(h: pg.Subspace) -> IndSetDescriptor:
    return validate_descriptor(IndSetDescriptor("dual_point_pencil", *_space_params(h), base=h))


dual_generic_only = dual_point_pencil


def point_line(p: pg.Subspace, line: pg.Subspace) -> IndSetDescriptor:
    return validate_descriptor(IndSetDescriptor("point_line", *_space_params(p), base=p, line=line))


def point_hyperplane(p: pg.Subspace, h: pg.Subspace) -> IndSetDescriptor:
    return validate_descriptor(IndSetDescriptor("point_hyperplane", *_space_params(p), base=p, hyperplane=h))


def point_family(p: pg.Subspace, family: Iterable[pg.Subspace]) -> IndSetDescriptor:
    desc = IndSetDescriptor("point_family", *_space_params(p), base=p, family=_sorted_family(family))
    return normalize_descriptor(validate_descriptor(desc))


def hyperplane_family(h: pg.Subspace, family: Iterable[pg.Subspace]) -> IndSetDescriptor:
    desc = IndSetDescriptor("hyperplane_family", *_space_params(h), base=h, family=_sorted_family(family))
    return normalize_descriptor(validate_descriptor(desc))


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


def _id_array(ids: Iterable[int], universe: FlagUniverse) -> np.ndarray:
    """ids as a sorted, duplicate-free int64 array; ids that are not integers
    (a boolean mask, floats, strings, Flags) or outside the universe raise InvalidArgs."""
    arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    if arr.size and (arr.ndim != 1 or arr.dtype.kind not in "iu"):
        raise InvalidArgs(f"flag ids must be a flat sequence of integers, got {arr.dtype} of shape {arr.shape}")
    out = arr.astype(np.int64)
    if np.any(out[1:] <= out[:-1]):  # a sort costs tens of µs even on sorted ids
        out = _sorted_distinct(out)
    if out.size and (out[0] < 0 or out[-1] >= len(universe)):
        raise InvalidArgs(f"flag id {int(out[0] if out[0] < 0 else out[-1])} outside [0, {len(universe)})")
    return out


def find_adjacent_pair(ids: Iterable[int], universe: FlagUniverse) -> Optional[Tuple[int, int]]:
    """First adjacent pair (id_a, id_b) in ascending id order, or None if the
    set is independent; the pairs run in the universe's kernel."""
    return universe.check_pairwise_independent(_id_array(ids, universe))


def is_independent(ids: Iterable[int], universe: FlagUniverse) -> bool:
    return find_adjacent_pair(ids, universe) is None


def find_extension(ids: Iterable[int], universe: FlagUniverse) -> Optional[int]:
    """First flag id outside the set that extends it, or None if the set is maximal.

    The set's member bits (FlagUniverse.member_bits) test every flag, a
    chunk of ids at a time.
    """
    ids = _id_array(ids, universe)
    bits = universe.member_bits(ids)
    for c0 in range(0, len(universe), _SCAN_CHUNK):
        chunk = np.arange(c0, min(c0 + _SCAN_CHUNK, len(universe)))
        free = np.setdiff1d(chunk[~bits.blocked(chunk)], ids, assume_unique=True)
        if free.size:
            return int(free[0])
    return None


def is_maximal(ids: Iterable[int], universe: FlagUniverse) -> bool:
    return find_extension(ids, universe) is None


# ---------------------------------------------------------------------------
# structure recovery


def _points_off(universe: FlagUniverse, pos: int, ids: np.ndarray) -> List[int]:
    """Points on no entry of table pos (on no dual of one, for the upper table)
    that a flag outside the set ids uses.  An entry is full when all its flags,
    as many for each, are in ids; every point is on as many, so count full
    ones.  The dual of upper entry u is lower entry sigma(u)."""
    points = universe._lower_points
    tids = universe.polarity[0][universe.member_ids(1, ids)] if pos else universe.member_ids(0, ids)
    full = np.bincount(tids, minlength=len(points)) == len(universe) // len(points)
    if not full.any():
        return []
    on_full = np.bincount(points[full].ravel(), minlength=universe.num_points)
    return np.flatnonzero(on_full == points.size // universe.num_points).tolist()


def pencil_base_candidates(ids: Iterable[int], universe: FlagUniverse) -> List[int]:
    """Point bits whose full point-pencil lies inside the set of flag ids:
    the points on no lower member of a flag outside the set."""
    return _points_off(universe, 0, _id_array(ids, universe))


def dual_pencil_base_candidates(ids: Iterable[int], universe: FlagUniverse) -> List[int]:
    """Dual-point bits (H^perp) whose full dual pencil lies inside the set of
    flag ids: the points on the dual of no upper member of a flag outside it."""
    return _points_off(universe, 1, _id_array(ids, universe))


def _entries_holding(words: np.ndarray, universe: FlagUniverse, s: pg.Subspace) -> np.ndarray:
    """Which entries of a table (rows of point-mask words) hold s: those with
    the bit of each of its basis rows, which are normalized and so are points."""
    points = [pg.point_index(universe.n, universe.field)[row] for row in s.rows]
    return np.logical_and.reduce([words[:, p // 64] & np.uint64(1 << p % 64) != 0 for p in points])


def _on_base(universe: FlagUniverse, pos: int, x: pg.Subspace) -> np.ndarray:
    """Per entry of table pos, whether it is generic for the base point x (a
    lower entry through x) or hyperplane x^perp (an upper entry u inside it:
    its dual, lower entry sigma(u), holds x)."""
    through = _entries_holding(universe._table_words[0], universe, x)
    return through[universe.polarity[0]] if pos else through


def descriptor_masks(desc: IndSetDescriptor, universe: FlagUniverse) -> Tuple[np.ndarray, np.ndarray]:
    """(generic, special): the sorted flag ids of the described set's two parts.

    Each predicate (P in pi, L in tau, P in tau in H, tau in H as H^perp in
    tau^perp) is decided once per table entry, and a part's flags are read
    off its entries (FlagUniverse.flags_with); a family is a set of table
    ids.  The special part is the flags of the family entries whose other
    member is not generic."""
    pos = 0 if desc.is_point_based() else 1
    on_base = _on_base(universe, pos, pg.dual(desc.base) if pos else desc.base)
    if desc.variant == "point_line":
        family = np.flatnonzero(_entries_holding(universe._table_words[1], universe, desc.line))
    elif desc.variant == "point_hyperplane":
        held = _entries_holding(universe._table_words[1], universe, desc.base)
        family = np.flatnonzero(held & _on_base(universe, 1, pg.dual(desc.hyperplane)))
    else:
        family = universe.table_ids_of(1 - pos, desc.family)
        if (family < 0).any():
            raise InvalidDescriptor("family member is not a subspace of this universe")
    special = universe.flags_with(1 - pos, family)
    special = special[~on_base[universe.member_ids(pos, special)]]
    return universe.flags_with(pos, np.flatnonzero(on_base)), special


def classify(ids: Iterable[int], universe: FlagUniverse, candidates: Optional[Tuple[List[int], List[int]]] = None):
    """Recover a structured descriptor from a set of flag ids, if possible.

    candidates, if the caller has them, are its pencil_base_candidates and
    dual_pencil_base_candidates.  Guaranteed only for sets produced by build
    and for maximal independent sets above the e1 threshold; returns
    UNSTRUCTURED otherwise whenever no base is detected or the special part
    does not validate.
    """
    ids = _id_array(ids, universe)
    if not ids.size:
        return UNSTRUCTURED
    if candidates is None:
        candidates = _points_off(universe, 0, ids), _points_off(universe, 1, ids)
    for pos, bits in enumerate(candidates):
        for bit in bits:
            x = pg.Subspace(universe.field, universe.n, (pg.all_points(universe.n, universe.field)[bit],))
            desc = _match_family(ids, universe, pos, x)
            if desc is not None:
                return desc
    return UNSTRUCTURED


def _match_family(ids: np.ndarray, universe: FlagUniverse, pos: int, x: pg.Subspace) -> Optional[IndSetDescriptor]:
    """The family descriptor at base point x (pos 0) or hyperplane x^perp (pos
    1) whose family is the other members of the flags of ids not generic for
    it, if it describes exactly the set (else None); it may be a pencil."""
    outside = ids[~_on_base(universe, pos, x)[universe.member_ids(pos, ids)]]
    family = [universe.entry(1 - pos, t) for t in _sorted_distinct(universe.member_ids(1 - pos, outside)).tolist()]
    try:
        desc = hyperplane_family(pg.dual(x), family) if pos else point_family(x, family)
    except InvalidDescriptor:
        return None
    gen, spec = descriptor_masks(desc, universe)
    # the parts are disjoint, so a sort joins them (a hashed union1d costs more)
    same = gen.size + spec.size == ids.size and np.array_equal(np.sort(np.concatenate((gen, spec))), ids)
    return desc if same else None


def dualize_descriptor(desc: IndSetDescriptor) -> IndSetDescriptor:
    """Apply the polarity to every subspace and swap the variant polarity.

    The input is validated once.  The polarity maps a valid descriptor to a
    valid one, so the dual is built directly and only normalized."""
    validate_descriptor(desc)
    variant = "hyperplane_family" if desc.is_point_based() else "point_family"
    dual = IndSetDescriptor(variant=variant, d=desc.d, q=desc.q, base=pg.dual(desc.base),
                            family=_sorted_family(pg.dual(s) for s in _family_of(desc)))
    return normalize_descriptor(dual)


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


def json_ints(data, keys: Tuple[str, ...], error: type) -> List[int]:
    """data[key] for each key, which must be JSON integers: a missing key, a
    bool, a float or a string raises error, as does data that is not an object."""
    if not isinstance(data, dict):
        raise error(f"expected a JSON object, got {type(data).__name__}")
    values = []
    for key in keys:
        value = data.get(key)
        if type(value) is not int:
            raise error(f"{key!r} must be a JSON integer, got {type(value).__name__}")
        values.append(value)
    return values


def descriptor_from_json(data: Dict) -> IndSetDescriptor:
    d, q = json_ints(data, ("d", "q"), InvalidDescriptor)
    variant = data.get("variant")
    if not isinstance(variant, str):
        raise InvalidDescriptor(f"descriptor variant must be a string, got {type(variant).__name__}")
    variant = VARIANT_ALIASES.get(variant, variant)
    n = 2 * d + 1
    field = make_field(q)

    def sub(key: str) -> pg.Subspace:
        if key not in data:
            raise InvalidDescriptor(f"descriptor JSON missing key {key!r}")
        return _rows_from_json(data[key], n, field, key)

    def family(key: str) -> List[pg.Subspace]:
        bases = data.get(key, [])
        if not isinstance(bases, list):
            raise InvalidDescriptor(f"{key}: expected a list of bases")
        return [_rows_from_json(rows, n, field, key) for rows in bases]

    if variant == "point_pencil":
        return point_pencil(sub("P"))
    if variant == "dual_point_pencil":
        return dual_point_pencil(sub("H"))
    if variant == "point_line":
        return point_line(sub("P"), sub("L"))
    if variant == "point_hyperplane":
        return point_hyperplane(sub("P"), sub("H"))
    if variant == "point_family":
        return point_family(sub("P"), family("U"))
    if variant == "hyperplane_family":
        return hyperplane_family(sub("H"), family("E"))
    raise InvalidDescriptor(f"unknown variant {variant!r}")


def flag_to_json(f: Flag) -> List[List[List[int]]]:
    return [_rows_to_json(s) for s in f.chain]
