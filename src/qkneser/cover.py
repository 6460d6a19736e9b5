"""Optimal coverings of the flag set by independent classes, and their verifier.

build_cover pins one explicit construction: inside a fixed rank-(d+2)
subspace U take the line l spanned by the first two coordinates, let W be
all but the first of its points, and pair, in every plane of U through l,
the points of W with the other lines through the first point (both sides in
lexicographic order of canonical forms; any bijection works, this one is
reproducible).  Each line l' of U meeting W then contributes the class
F(nu(l'), l'); the construction uses up every point of U, so no bare
point-pencil classes remain.  The verifier accepts arbitrary certificates,
including ones with point-pencil classes supplied externally.  A class is
the sorted ids of its parts, so only the coverage tally spans all flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from . import _numpy as np
from . import pg, qcalc
from .errors import InvalidDescriptor, MalformedCertificate
from .gf import make_field
from .indsets import (
    IndSetDescriptor,
    descriptor_from_json,
    descriptor_masks,
    descriptor_to_json,
    dualize_descriptor,
    flag_to_json,
    json_ints,
    point_line,
    point_pencil,
    validate_descriptor,
)
from .kneser import Flag, FlagUniverse, check_cap

MISSING_TRUNCATE = 10


@dataclass
class CoverCertificate:
    """A claimed covering of all type-{d, d+1} flags by independent classes.

    U is the distinguished subspace of the construction: rank d+2 for the
    point-based covers, rank d-1 for their duals.  Classes carry explicit
    canonical basis matrices so certificates are portable bit-for-bit.
    """

    d: int
    q: int
    U: pg.Subspace
    classes: List[IndSetDescriptor]
    provenance: str = ""

    def to_json(self) -> Dict:
        return {
            "d": self.d,
            "q": self.q,
            "U": [list(r) for r in self.U.rows],
            "classes": [descriptor_to_json(c) for c in self.classes],
            "provenance": self.provenance,
        }


def certificate_from_json(data: Dict) -> CoverCertificate:
    d, q = json_ints(data, ("d", "q"), MalformedCertificate)
    if "U" not in data or "classes" not in data:
        raise MalformedCertificate("certificate JSON missing U/classes")
    u_rows, classes_json = data["U"], data["classes"]
    if not isinstance(classes_json, list):
        raise MalformedCertificate("certificate classes must be a list of descriptors")
    fld = make_field(q)
    n = 2 * d + 1
    if not pg.is_canonical_rows(u_rows, n, fld):
        raise MalformedCertificate("U basis rows are not canonical (RREF required)")
    u = pg.Subspace(fld, n, tuple(tuple(r) for r in u_rows))
    classes = []
    for i, cj in enumerate(classes_json):
        try:
            desc = descriptor_from_json(cj)
        except InvalidDescriptor as exc:
            raise MalformedCertificate(f"class {i}: {exc}") from exc
        if desc.d != d or desc.q != q:
            raise MalformedCertificate(f"class {i} has parameters ({desc.d},{desc.q}) != ({d},{q})")
        classes.append(desc)
    return CoverCertificate(d=d, q=q, U=u, classes=classes,
                            provenance=str(data.get("provenance", "")))


def build_cover(d: int, q: int) -> CoverCertificate:
    """The pinned covering with theta(d+1, q) - q point-line classes."""
    fld = make_field(q)
    n = 2 * d + 1
    check_cap(q, [(d + 2, 3)], f"planes of a rank-{d + 2} subspace over GF({q})")

    units = pg.full_space(n, fld).rows
    u = pg.rref(units[: d + 2], n, fld)
    ell = pg.rref(units[:2], n, fld)

    ell_points = list(pg.subspaces_within(ell, 1))
    p0, w_points = ell_points[0], ell_points[1:]
    w_sorted = sorted(w_points, key=lambda s: s.rows)
    w_set = set(w_points)

    # per plane of U through ell: pair W with the other lines through p0
    pair: Dict[pg.Subspace, Dict[pg.Subspace, pg.Subspace]] = {}
    for plane in pg.subspaces_within(u, 3):
        if not pg.contains(plane, ell):
            continue
        others = sorted(
            (l for l in pg.subspaces_within(plane, 2) if l != ell and pg.contains(l, p0)),
            key=lambda s: s.rows,
        )
        pair[plane] = dict(zip(w_sorted, others))

    classes: List[IndSetDescriptor] = []
    nu_points = []
    for line in pg.subspaces_within(u, 2):
        if line == ell:
            nu = p0
        else:
            hit = pg.meet(line, ell)
            if hit.rank != 1 or hit not in w_set:
                continue
            plane = pg.join(ell, line)
            nu = pg.meet(line, pair[plane][hit])
        nu_points.append(nu)
        classes.append(point_line(nu, line))

    used = set(nu_points) | w_set
    for pt in pg.subspaces_within(u, 1):
        if pt not in used:
            classes.append(point_pencil(pt))

    expected = qcalc.chromatic_value(d, q)
    assert len(classes) == expected, f"built {len(classes)} classes, expected {expected}"
    return CoverCertificate(
        d=d, q=q, U=u, classes=classes,
        provenance=f"pencil-of-planes covering, d={d} q={q}",
    )


@dataclass
class VerifyReport:
    """Outcome of the exhaustive certificate check.

    Each class_sizes entry also holds the pair_tests and pairs_pruned of the
    class's star-pruned scan, which sum to C(|class|, 2), and star_groups,
    the sizes of its star groups: the pruned pairs are those that a group's
    shared point proves non-adjacent.
    """

    total_flags: int
    covered: int
    missing: List[Flag]
    missing_count: int
    bad_classes: List[Tuple[int, Tuple[Flag, Flag]]]
    class_sizes: List[Dict]
    size_mismatches: List[int] = dc_field(default_factory=list)

    @property
    def valid(self) -> bool:
        return self.missing_count == 0 and not self.bad_classes

    def to_json(self) -> Dict:
        return {
            "valid": self.valid,
            "total_flags": self.total_flags,
            "covered": self.covered,
            "missing_count": self.missing_count,
            "missing": [flag_to_json(f) for f in self.missing],
            "bad_classes": [
                {"class": i, "witness": [flag_to_json(a), flag_to_json(b)]}
                for i, (a, b) in self.bad_classes
            ],
            "class_sizes": self.class_sizes,
            "size_mismatches": self.size_mismatches,
            "pair_tests": sum(c["pair_tests"] for c in self.class_sizes),
            "pairs_pruned": sum(c["pairs_pruned"] for c in self.class_sizes),
        }


def _expected_special(desc: IndSetDescriptor) -> Optional[int]:
    d, q = desc.d, desc.q
    if desc.variant in ("point_pencil", "dual_point_pencil"):
        return 0
    if desc.variant in ("point_line", "point_hyperplane"):
        known = qcalc.size_constants(d, q, 1)
        return known.e0 - known.g0
    return len(desc.family) * q**d


def verify_cover(
    cert: CoverCertificate,
    universe: Optional[FlagUniverse] = None,
    threads: int = 1,
) -> VerifyReport:
    """Exhaustively check coverage, per-class independence and class sizes.

    The verdict depends on coverage and independence only; closed-form size
    mismatches are reported but do not invalidate a covering.
    """
    if cert.d < 2:
        raise MalformedCertificate(f"need d >= 2, got {cert.d}")
    fld = make_field(cert.q)
    n = 2 * cert.d + 1
    for i, desc in enumerate(cert.classes):
        try:
            validate_descriptor(desc)
        except InvalidDescriptor as exc:
            raise MalformedCertificate(f"class {i}: {exc}") from exc
        if desc.d != cert.d or desc.q != cert.q:
            raise MalformedCertificate(f"class {i} parameters do not match the certificate")
    if universe is None:
        universe = FlagUniverse(n, (cert.d, cert.d + 1), fld)

    g0 = qcalc.size_constants(cert.d, cert.q, 1).g0
    covered = np.zeros(len(universe), dtype=bool)
    class_sizes: List[Dict] = []
    size_mismatches: List[int] = []
    bad_classes = []
    for i, desc in enumerate(cert.classes):
        generic, special = descriptor_masks(desc, universe)
        ids = np.sort(np.concatenate((generic, special)))
        covered[ids] = True
        n_gen, n_spec = int(generic.size), int(special.size)
        expected_spec = _expected_special(desc)
        ok = n_gen == g0 and (expected_spec is None or n_spec == expected_spec)
        if not ok:
            size_mismatches.append(i)
        plan = universe.star_plan(ids)
        class_sizes.append({
            "class": i,
            "variant": desc.variant,
            "generic": n_gen,
            "special": n_spec,
            "total": n_gen + n_spec,
            "expected_generic": g0,
            "expected_special": expected_spec,
            "sizes_ok": ok,
            "pair_tests": plan.pair_tests,
            "pairs_pruned": plan.pairs_pruned,
            "star_groups": list(plan.group_sizes),
        })
        hit = universe.check_pairwise_independent(ids, threads=threads, plan=plan)
        if hit is not None:
            bad_classes.append((i, (universe.flag_of(hit[0]), universe.flag_of(hit[1]))))

    missing_ids = np.nonzero(~covered)[0]
    return VerifyReport(
        total_flags=len(universe),
        covered=int(np.count_nonzero(covered)),
        missing=[universe.flag_of(int(i)) for i in missing_ids[:MISSING_TRUNCATE]],
        missing_count=int(missing_ids.size),
        bad_classes=bad_classes,
        class_sizes=class_sizes,
        size_mismatches=size_mismatches,
    )


def dualize_cover(cert: CoverCertificate) -> CoverCertificate:
    """Apply the polarity to U and to every class descriptor."""
    try:
        classes = [dualize_descriptor(c) for c in cert.classes]
    except InvalidDescriptor as exc:
        raise MalformedCertificate(str(exc)) from exc
    return CoverCertificate(
        d=cert.d,
        q=cert.q,
        U=pg.dual(cert.U),
        classes=classes,
        provenance=cert.provenance + " (dualized)",
    )
