"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All expected values are exact; the time budgets are the
stated ones.
"""

import random
import time

import numpy as np
import pytest

from qkneser import cover, gf, indsets, kneser, pg, qcalc

from conftest import unit_rows
from test_indsets import all_variant_descriptors, standard_objects


def report(num, description, ok, elapsed=None, budget=None):
    stamp = ""
    if elapsed is not None:
        stamp = f" [{elapsed:.1f}s" + (f" / budget {budget:.0f}s]" if budget else "]")
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}{stamp}")
    assert ok, f"criterion {num} failed: {description}"
    if budget is not None:
        assert elapsed <= budget, f"criterion {num} exceeded budget: {elapsed:.1f}s > {budget}s"


def test_criterion_01_flag_counts(f2, f3):
    t0 = time.time()
    counts = {
        (2, 2): sum(1 for _ in kneser.enumerate_flags(5, (2, 3), f2)),
        (2, 3): sum(1 for _ in kneser.enumerate_flags(5, (2, 3), f3)),
        (3, 2): sum(1 for _ in kneser.enumerate_flags(7, (3, 4), f2)),
    }
    elapsed = time.time() - t0
    expected = {(2, 2): 1085, (2, 3): 15730, (3, 2): 177165}
    ok = counts == expected and all(
        counts[(d, q)] == qcalc.flag_count(d, q) for d, q in counts
    )
    report(1, f"flag enumeration matches closed form {counts}", ok, elapsed, 10)


def test_criterion_02_cover_small(u22):
    t0 = time.time()
    cert = cover.build_cover(2, 2)
    rep = cover.verify_cover(cert, universe=u22)
    elapsed = time.time() - t0
    ok = rep.valid and len(cert.classes) == 13 == qcalc.theta(3, 2) - 2
    report(2, f"cover (2,2): valid={rep.valid}, classes={len(cert.classes)}", ok, elapsed, 5)


def test_criterion_03_cover_large(u32):
    t0 = time.time()
    cert = cover.build_cover(3, 2)
    rep = cover.verify_cover(cert, universe=u32)
    elapsed = time.time() - t0
    ok = (
        rep.valid
        and len(cert.classes) == 29 == 2**4 + 2**3 + 2**2 + 1
        and rep.covered == rep.total_flags == 177165
        and not rep.bad_classes
    )
    report(
        3,
        f"cover (3,2): valid={rep.valid}, classes={len(cert.classes)}, "
        f"covered={rep.covered}/{rep.total_flags}",
        ok,
        elapsed,
        600,
    )


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2)])
def test_criterion_04_closed_form_sizes(d, q):
    field = gf.make_field(q)
    g0 = qcalc.gauss(2 * d, d + 1, q) * qcalc.theta(d, q)
    u_size = qcalc.gauss(2 * d - 1, d - 1, q)
    ok = True
    for name, desc in all_variant_descriptors(field, d).items():
        split = indsets.build(desc)
        ok = ok and len(split.generic) == g0
        if desc.variant in ("point_line", "point_hyperplane"):
            ok = ok and len(split.special) == u_size * q**d
        elif desc.variant in ("point_pencil", "dual_point_pencil"):
            ok = ok and len(split.special) == 0
        else:
            ok = ok and len(split.special) == len(desc.family) * q**d
    report(4, f"generic/special sizes match the closed forms at (d,q)=({d},{q})", ok)


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2)])
def test_criterion_05_subspace_counts_through_u(d, q):
    field = gf.make_field(q)
    n = 2 * d + 1
    e = unit_rows(n)
    t0 = time.time()
    u = pg.rref(e[: d + 2], n, field)
    y = pg.rref([e[0]], n, field)
    mask_u = kneser.subspace_point_mask(u)
    mask_y = kneser.subspace_point_mask(y)
    t_masks = [
        kneser.subspace_point_mask(s)
        for s in pg.enumerate_subspaces(n, d, field)
        if kneser.subspace_point_mask(s) & mask_u == mask_y
    ]
    ok = len(t_masks) == q ** (d * d - 1)

    tangent = kneser.subspace_point_mask(pg.rref([e[0], e[n - 1]], n, field))
    on_tangent = sum(1 for m in t_masks if m & tangent == tangent)
    ok = ok and on_tangent == q ** (d * d - d - 2)

    secant = kneser.subspace_point_mask(pg.rref([e[1], e[n - 1]], n, field))
    meeting = sum(1 for m in t_masks if bin(m & secant).count("1") == 1)
    ok = ok and meeting == q ** (d * d - d - 1)

    h_over = kneser.subspace_point_mask(pg.rref(e[: 2 * d], n, field))
    h_away = kneser.subspace_point_mask(pg.rref(e[: d + 1] + e[d + 2 :], n, field))
    inside_over = sum(1 for m in t_masks if m & ~h_over == 0)
    inside_away = sum(1 for m in t_masks if m & ~h_away == 0)
    ok = ok and inside_over == 0 and inside_away == q ** (d * d - d)
    elapsed = time.time() - t0
    report(5, f"pencil-through-U counts match at (d,q)=({d},{q})", ok, elapsed, 60)


def test_criterion_06_inequality_grid():
    t0 = time.time()
    rep = qcalc.check_gauss_bounds(range(2, 65), n_max=14, c_max=6)
    elapsed = time.time() - t0
    total = sum(rep.checked.values())
    report(6, f"inequality grid: {total} points, {len(rep.violations)} violations", rep.ok, elapsed, 10)


def test_criterion_07_duality(u22):
    cert = cover.build_cover(2, 2)
    dual_cert = cover.dualize_cover(cert)
    rep = cover.verify_cover(dual_cert, universe=u22)

    def keys(c):
        return sorted(
            (
                x.variant,
                x.base.rows,
                x.line.rows if x.line else None,
                tuple(s.rows for s in x.family),
            )
            for x in c.classes
        )

    round_trip = cover.dualize_cover(dual_cert)
    ok = rep.valid and keys(round_trip) == keys(cert) and round_trip.U == cert.U
    report(7, f"dual cover valid={rep.valid}, dualize is an involution", ok)


def test_criterion_08_oracle_equivalence(u22, u32):
    t0 = time.time()
    flags22 = list(u22)
    mismatches = 0
    for i in range(len(flags22) - 1):
        fast_row = u22.adjacency_row(i, i + 1)
        fi = flags22[i]
        for off, j in enumerate(range(i + 1, len(flags22))):
            if kneser.general_position(fi, flags22[j]) != bool(fast_row[off]):
                mismatches += 1
    # 1,000 random rows x 1,000 random columns of the (3,2) graph
    rng = random.Random(12345)
    cols = [rng.randrange(len(u32)) for _ in range(1000)]
    col_flags = [u32.flag_of(b) for b in cols]
    for _ in range(1000):
        a = rng.randrange(len(u32))
        fa = u32.flag_of(a)
        fast_row = u32.adjacency_row(a)[cols]
        for fb, fast in zip(col_flags, fast_row):
            if kneser.general_position(fa, fb) != bool(fast):
                mismatches += 1
    elapsed = time.time() - t0
    report(
        8,
        f"adjacency_row == definitional on all C(1085,2) pairs and 1e6 random (3,2) pairs; "
        f"{mismatches} discrepancies",
        mismatches == 0,
        elapsed,
    )


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3)])
def test_criterion_09_maximality(d, q, u22, u23):
    field = gf.make_field(q)
    universe = u22 if q == 2 else u23
    p, ell, hyp = standard_objects(field, d)
    line_set, hyper_set, pencil_set = (
        np.sort(universe.ids_of(list(indsets.build(desc).all))).tolist()
        for desc in (indsets.point_line(p, ell), indsets.point_hyperplane(p, hyp), indsets.generic_only(p))
    )
    ok = indsets.is_maximal(line_set, universe)
    ok = ok and indsets.is_maximal(hyper_set, universe)
    witness = indsets.find_extension(pencil_set, universe)
    ok = ok and witness is not None and indsets.is_independent(pencil_set + [witness], universe)
    report(9, f"line/hyperplane maximal, bare pencil extendable at (d,q)=({d},{q})", ok)


def test_criterion_10_thresholds():
    first, second = qcalc.chromatic_thresholds(3, 5)
    ok = first == 3 * 7**15 * 2**56 and second == 107
    report(10, f"thresholds ({first}, {second})", ok)
