import json
from math import comb

import numpy as np
import pytest

from qkneser import cover, indsets, pg, qcalc
from qkneser.errors import MalformedCertificate


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
        generic, special = indsets.descriptor_masks(desc, u32)
        plan = u32.star_plan(np.nonzero(generic | special)[0])
        assert plan.group_sizes == (9765, 620, 620)
        tests += plan.pair_tests
    assert tests == 362_297_000


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


def test_chromatic_bracket():
    assert cover.chromatic_bracket(2, 2) == (9, 13)
    assert cover.chromatic_bracket(3, 2) == (17, 29)
    for d, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        lower, upper = cover.chromatic_bracket(d, q)
        assert lower <= upper
        assert upper == qcalc.chromatic_value(d, q)


def test_verify_threads_identical(u22):
    cert = cover.build_cover(2, 2)
    a = cover.verify_cover(cert, universe=u22, threads=1)
    b = cover.verify_cover(cert, universe=u22, threads=4)
    assert a.to_json() == b.to_json()
