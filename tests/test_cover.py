import json
import random
from math import comb

import numpy as np
import pytest

from qkneser import cover, indsets, pg, qcalc
from qkneser.errors import InvalidArgs, MalformedCertificate


def canonical_class_key(desc):
    return (
        desc.variant,
        desc.base.rows,
        desc.line.rows if desc.line else None,
        desc.hyperplane.rows if desc.hyperplane else None,
        tuple(s.rows for s in desc.family),
    )


@pytest.mark.parametrize("d,q,expected", [(2, 2, 13), (3, 2, 29), (2, 3, 37)])
def test_build_cover_class_counts(d, q, expected):
    cert = cover.build_cover(d, q)
    assert len(cert.classes) == expected == qcalc.theta(d + 1, q) - q
    assert cert.U.rank == d + 2
    assert all(c.variant == "point_line" for c in cert.classes)


def test_build_cover_base_points_distinct_and_inside_u():
    cert = cover.build_cover(2, 2)
    bases = [c.base for c in cert.classes]
    assert len(set(bases)) == len(bases)  # nu is injective
    for c in cert.classes:
        assert pg.contains(cert.U, c.base)
        assert pg.contains(cert.U, c.line)
        assert pg.contains(c.line, c.base)


def test_build_cover_uses_every_point_of_u():
    cert = cover.build_cover(2, 3)
    w_count = qcalc.theta(2 + 1, 3) - len(cert.classes)
    assert w_count == 3  # |W| = q
    points_of_u = set(pg.subspaces_within(cert.U, 1))
    assert set(c.base for c in cert.classes) <= points_of_u
    assert len(points_of_u) - len(set(c.base for c in cert.classes)) == 3


def test_verify_cover_22(u22):
    report = cover.verify_cover(cover.build_cover(2, 2), universe=u22)
    assert report.valid
    assert report.covered == report.total_flags == 1085
    assert report.missing_count == 0 and not report.missing
    assert not report.bad_classes
    assert not report.size_mismatches
    for entry in report.class_sizes:
        assert (entry["generic"], entry["special"]) == (105, 28)


def test_verify_report_pair_counts(u22):
    data = cover.verify_cover(cover.build_cover(2, 2), universe=u22).to_json()
    for entry in data["class_sizes"]:
        assert entry["pair_tests"] + entry["pairs_pruned"] == comb(entry["total"], 2)
    assert data["pair_tests"] == sum(e["pair_tests"] for e in data["class_sizes"])
    assert data["pair_tests"] + data["pairs_pruned"] == sum(
        comb(e["total"], 2) for e in data["class_sizes"]
    )
    assert data["pairs_pruned"] > 0


def test_pinned_32_star_plans(u32):
    tests = 0
    for desc in cover.build_cover(3, 2).classes:
        plan = u32.star_plan(np.sort(np.concatenate(indsets.descriptor_masks(desc, u32))))
        assert plan.group_sizes == (9765, 620, 620)
        tests += plan.pair_tests
    # the groups' shared points prove every pair; the star groups alone left 362,297,000
    assert tests == 0


def test_verify_report_star_groups(u22):
    cert = cover.build_cover(2, 2)
    data = cover.verify_cover(cert, universe=u22).to_json()
    for desc, entry in zip(cert.classes, data["class_sizes"]):
        plan = u22.star_plan(np.sort(np.concatenate(indsets.descriptor_masks(desc, u22))))
        assert entry["star_groups"] == list(plan.group_sizes) == [105, 14, 14]
        assert entry["pair_tests"] == 0
    json.dumps(data)


@pytest.mark.parametrize("name", ["u22", "u23"])
def test_dualized_cover_needs_no_pair_tests(name, request):
    # the polarity turns the pinned classes' point stars into hyperplane stars
    universe = request.getfixturevalue(name)
    cert = cover.dualize_cover(cover.build_cover(2, universe.field.q))
    data = cover.verify_cover(cert, universe=universe).to_json()
    assert data["valid"] and data["pair_tests"] == 0


def test_dualized_cover_32_is_valid(u32):
    # 29 hyperplane_family classes of 155 members each
    cert = cover.dualize_cover(cover.build_cover(3, 2))
    assert {len(c.family) for c in cert.classes if c.variant == "hyperplane_family"} == {155}
    data = cover.verify_cover(cert, universe=u32).to_json()
    assert data["valid"] and data["pair_tests"] == 0


def test_verify_cover_24_needs_no_pair_tests():
    report = cover.verify_cover(cover.build_cover(2, 4))
    data = report.to_json()
    assert report.valid and report.total_flags == qcalc.flag_count(2, 4)
    assert data["pair_tests"] == 0
    assert data["pairs_pruned"] == sum(comb(e["total"], 2) for e in data["class_sizes"])
    assert all(e["star_groups"] == [1785, 84, 84, 84, 84] for e in data["class_sizes"])


def test_verify_cover_23(u23):
    report = cover.verify_cover(cover.build_cover(2, 3), universe=u23)
    assert report.valid
    assert report.covered == 15730


def test_verify_cover_missing_class(u22):
    cert = cover.build_cover(2, 2)
    del cert.classes[4]
    report = cover.verify_cover(cert, universe=u22)
    assert not report.valid
    assert report.missing_count > 0
    assert report.missing  # truncated witness list is populated
    assert report.covered < report.total_flags


@pytest.mark.parametrize("name", ["u22", "u23"])
def test_verify_cover_coverage_bits_match_a_flag_mask(name, request):
    # coverage is one bit per flag: covered, missing_count and the first
    # missing flags are those of a mask of one byte per flag, for covers
    # with classes dropped, a dual class added, and every class dropped
    universe = request.getfixturevalue(name)
    full = cover.build_cover(2, universe.field.q)
    rng = random.Random(len(universe))
    cases = [[], list(range(len(full.classes)))] + [rng.sample(range(len(full.classes)), k) for k in (1, 2, 5)]
    for drop in cases:
        cert = cover.build_cover(2, universe.field.q)
        cert.classes = [c for i, c in enumerate(cert.classes) if i not in drop]
        cert.classes += cover.dualize_cover(full).classes[:1] if drop else []
        mask = np.zeros(len(universe), dtype=bool)
        for desc in cert.classes:
            for part in indsets.descriptor_masks(desc, universe):
                mask[part] = True
        report = cover.verify_cover(cert, universe=universe)
        missing = np.flatnonzero(~mask)
        assert (report.covered, report.missing_count) == (int(mask.sum()), missing.size)
        assert report.missing == [universe.flag_of(int(i)) for i in missing[: cover.MISSING_TRUNCATE]]


def test_verify_cover_reports_size_mismatch_without_invalidating(u22, f2):
    # replace one point-line class by the full family plus the pencil of a
    # second cover's class: still a cover, but sizes no longer match the
    # line formula for that entry if we drop family members
    cert = cover.build_cover(2, 2)
    target = cert.classes[0]
    fam = indsets.line_family(target.base, target.line)
    smaller = indsets.point_family(target.base, fam[:3])
    cert.classes.append(smaller)
    report = cover.verify_cover(cert, universe=u22)
    assert report.valid  # coverage and independence unaffected
    assert report.class_sizes[-1]["special"] == 3 * 4


def test_verify_cover_rejects_malformed(u22, f2):
    cert = cover.build_cover(2, 2)
    data = cert.to_json()
    data["classes"][0]["P"] = [[0, 0, 0, 0, 0]]
    with pytest.raises(MalformedCertificate):
        cover.certificate_from_json(data)
    data2 = cert.to_json()
    data2["classes"][0]["d"] = 3
    with pytest.raises(MalformedCertificate):
        cover.certificate_from_json(data2)
    data3 = cert.to_json()
    del data3["U"]
    with pytest.raises(MalformedCertificate):
        cover.certificate_from_json(data3)
    data4 = cert.to_json()
    data4["classes"] = 5
    with pytest.raises(MalformedCertificate):
        cover.certificate_from_json(data4)


@pytest.mark.parametrize("d,q,name", [(2, 2, "u23"), (3, 2, "u22")])
def test_verify_cover_refuses_a_universe_of_other_parameters(d, q, name, request):
    with pytest.raises(InvalidArgs, match=r"universe in GF\(\d\)\^\d"):
        cover.verify_cover(cover.build_cover(d, q), universe=request.getfixturevalue(name))


def test_certificate_json_round_trip():
    cert = cover.build_cover(2, 2)
    data = json.loads(json.dumps(cert.to_json()))
    back = cover.certificate_from_json(data)
    assert back.d == cert.d and back.q == cert.q and back.U == cert.U
    assert [canonical_class_key(c) for c in back.classes] == [
        canonical_class_key(c) for c in cert.classes
    ]


def test_dualize_cover_verifies_valid(u22):
    cert = cover.build_cover(2, 2)
    dual_cert = cover.dualize_cover(cert)
    assert len(dual_cert.classes) == len(cert.classes)
    assert dual_cert.U.rank == 2 - 1  # rank d-1 after the polarity
    assert all(c.variant == "hyperplane_family" for c in dual_cert.classes)
    report = cover.verify_cover(dual_cert, universe=u22)
    assert report.valid


def test_dualize_cover_is_involution_up_to_ordering():
    cert = cover.build_cover(2, 2)
    round_trip = cover.dualize_cover(cover.dualize_cover(cert))
    assert round_trip.U == cert.U
    assert sorted(canonical_class_key(c) for c in round_trip.classes) == sorted(
        canonical_class_key(c) for c in cert.classes
    )


def test_dual_certificate_invalid_iff_primal_invalid(u22):
    cert = cover.build_cover(2, 2)
    del cert.classes[0]
    primal = cover.verify_cover(cert, universe=u22)
    dual_rep = cover.verify_cover(cover.dualize_cover(cert), universe=u22)
    assert not primal.valid and not dual_rep.valid
    assert primal.missing_count == dual_rep.missing_count


def test_verify_threads_identical(u22):
    cert = cover.build_cover(2, 2)
    a = cover.verify_cover(cert, universe=u22, threads=1)
    b = cover.verify_cover(cert, universe=u22, threads=4)
    assert a.to_json() == b.to_json()
