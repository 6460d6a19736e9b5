import random

import numpy as np
import pytest

from qkneser import explore, gf, indsets, kneser, pg, qcalc
from qkneser.errors import InvalidArgs, InvalidDescriptor, InvalidType
from qkneser.indsets import UNSTRUCTURED, IndSetDescriptor

from conftest import dual_flag, unit_rows


def standard_objects(field, d):
    n = 2 * d + 1
    e = unit_rows(n)
    p = pg.rref([e[0]], n, field)
    ell = pg.rref([e[0], e[1]], n, field)
    hyp = pg.rref(e[: 2 * d], n, field)
    return p, ell, hyp


def small_point_family(field, d, size=3):
    """A family through a common rank-d core: pairwise meets have rank >= d >= 2."""
    n = 2 * d + 1
    e = unit_rows(n)
    core = pg.rref(e[:d], n, field)
    supers = list(pg.enumerate_superspaces(core, d + 1))
    return supers[:size]


def small_hyperplane_family(field, d, size=3):
    """Rank-d subspaces of a common rank-(d+1) space: pairwise meet rank >= d-1 >= 1."""
    n = 2 * d + 1
    e = unit_rows(n)
    box = pg.rref(e[: d + 1], n, field)
    return list(pg.subspaces_within(box, d))[:size]


def all_variant_descriptors(field, d):
    p, ell, hyp = standard_objects(field, d)
    return {
        "point_pencil": indsets.point_pencil(p),
        "generic_only": indsets.generic_only(p),
        "dual_point_pencil": indsets.dual_point_pencil(hyp),
        "dual_generic_only": indsets.dual_generic_only(hyp),
        "point_line": indsets.point_line(p, ell),
        "point_hyperplane": indsets.point_hyperplane(p, hyp),
        "point_family": indsets.point_family(p, small_point_family(field, d)),
        "hyperplane_family": indsets.hyperplane_family(hyp, small_hyperplane_family(field, d)),
    }


def test_generic_only_is_point_pencil(f2):
    p, _, hyp = standard_objects(f2, 2)
    assert indsets.generic_only(p) == indsets.point_pencil(p)
    assert indsets.dual_generic_only(hyp) == indsets.dual_point_pencil(hyp)


def test_build_sizes_22(f2):
    p, ell, _ = standard_objects(f2, 2)
    pencil = indsets.build(indsets.point_pencil(p))
    assert (len(pencil.generic), len(pencil.special)) == (105, 0)
    line = indsets.build(indsets.point_line(p, ell))
    assert (len(line.generic), len(line.special)) == (105, 28)
    assert len(line) == 133
    # every generic member goes through the base point
    for f in pencil.generic:
        assert pg.contains(f.chain[0], p)


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2)])
def test_closed_form_sizes_all_variants(d, q):
    field = gf.make_field(q)
    g0 = qcalc.gauss(2 * d, d + 1, q) * qcalc.theta(d, q)
    u_size = qcalc.gauss(2 * d - 1, d - 1, q)
    for name, desc in all_variant_descriptors(field, d).items():
        split = indsets.build(desc)
        assert not (split.generic & split.special), name
        assert len(split.all) == len(split.generic) + len(split.special), name
        assert len(split.generic) == g0, name
        if desc.variant in ("point_line", "point_hyperplane"):
            assert len(split.special) == u_size * q**d, name
        elif desc.variant in ("point_pencil", "dual_point_pencil"):
            assert len(split.special) == 0, name
        else:
            assert len(split.special) == len(desc.family) * q**d, name


def test_line_and_hyperplane_specials_have_equal_size(f2, f3):
    for field, d in [(f2, 2), (f3, 2), (f2, 3)]:
        p, ell, hyp = standard_objects(field, d)
        a = indsets.build(indsets.point_line(p, ell))
        b = indsets.build(indsets.point_hyperplane(p, hyp))
        assert len(a.special) == len(b.special)
        assert len(indsets.line_family(p, ell)) == qcalc.gauss(2 * d - 1, d - 1, field.q)


def built_ids(desc, universe):
    """The ids of the flags that the oracle build makes for desc."""
    return np.sort(universe.ids_of(list(indsets.build(desc).all))).tolist()


def test_built_sets_are_independent(f2, f3, u22, u23):
    for field, universe in [(f2, u22), (f3, u23)]:
        for name, desc in all_variant_descriptors(field, 2).items():
            assert indsets.is_independent(built_ids(desc, universe), universe), name


def test_is_independent_witness(f2, u22):
    e = unit_rows(5)
    f1 = kneser.Flag((pg.rref([e[0], e[1]], 5, f2), pg.rref([e[0], e[1], e[2]], 5, f2)))
    f2_ = kneser.Flag((pg.rref([e[3], e[4]], 5, f2), pg.rref([e[2], e[3], e[4]], 5, f2)))
    a, b = u22.id_of(f1), u22.id_of(f2_)
    # the witness is in ascending id order, whatever order the caller gives
    assert a < b
    assert indsets.find_adjacent_pair([b, a], u22) == (a, b)
    assert indsets.find_adjacent_pair(np.array([a, b, a]), u22) == (a, b)
    assert indsets.is_independent([], u22) is True
    assert indsets.is_independent([a], u22) is True


def reference_pair(ids, universe):
    """The first pair in ascending id order that is in general position, by definition."""
    ordered = sorted(set(ids))
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if kneser.general_position(universe.flag_of(a), universe.flag_of(b)):
                return a, b
    return None


@pytest.mark.parametrize("n,J,q", [(5, (2, 3), 2), (5, (2, 3), 3), (3, (1, 2), 3)], ids=["d2-q2", "d2-q3", "d1-q3"])
def test_find_adjacent_pair_matches_the_oracle(n, J, q):
    field = gf.make_field(q)
    universe = kneser.FlagUniverse(n, J, field)
    rng = random.Random(5)
    # flags through the first point are independent for every type here; a
    # subset keeps the oracle's pair count small
    p = pg.rref([unit_rows(n)[0]], n, field)
    pencil = [i for i, f in enumerate(universe) if pg.contains(f.chain[0], p)][:120]
    samples = [pencil] + [
        rng.sample(range(len(universe)), size)
        for size in (2, 2, 3, 3, 5, 8, 20)
        for _ in range(5)
    ]
    found = 0
    for ids in samples:
        expected = reference_pair(ids, universe)
        found += expected is not None
        assert indsets.find_adjacent_pair(ids, universe) == expected
        assert indsets.is_independent(ids, universe) == (expected is None)
    assert reference_pair(pencil, universe) is None and 0 < found < len(samples)


@pytest.mark.parametrize(
    "call", [indsets.find_adjacent_pair, indsets.is_independent, indsets.find_extension, indsets.is_maximal]
)
def test_ids_outside_the_universe_are_refused(call, u22):
    for ids in ([-1], [0, -1], [len(u22)], np.array([3, len(u22) + 7])):
        with pytest.raises(InvalidArgs, match="outside"):
            call(ids, u22)


def test_is_maximal_22(f2, u22):
    p, ell, hyp = standard_objects(f2, 2)
    assert indsets.is_maximal(built_ids(indsets.point_line(p, ell), u22), u22)
    assert indsets.is_maximal(built_ids(indsets.point_hyperplane(p, hyp), u22), u22)
    pencil = built_ids(indsets.point_pencil(p), u22)
    assert not indsets.is_maximal(pencil, u22)
    witness = indsets.find_extension(pencil, u22)
    assert witness is not None
    assert witness not in pencil
    # the witness really extends the pencil
    assert indsets.is_independent(pencil + [witness], u22)


def test_is_maximal_empty_set(u22):
    assert not indsets.is_maximal([], u22)
    assert indsets.find_extension([], u22) == 0


def test_find_extension_general_type(f2):
    # member bits, and so the maximality scan, exist for type {d, d+1} in rank
    # 2d+1 only: no other type gets as far as a universe
    with pytest.raises(InvalidType):
        indsets.find_extension([0], kneser.FlagUniverse(4, (1, 2), f2))


def reference_extension(ids, universe):
    """First flag id outside the set that extends it, tested one flag at a time on its adjacency row."""
    members = np.array(sorted(set(ids)), dtype=np.int64)
    outside = np.ones(len(universe), dtype=bool)
    outside[members] = False
    for i in np.flatnonzero(outside).tolist():
        if not universe.adjacency_row(i)[members].any():
            return i
    return None


@pytest.mark.parametrize("name,q", [("u22", 2), ("u23", 3)])
def test_find_extension_matches_reference_on_known_sets(name, q, request):
    universe = request.getfixturevalue(name)
    p, ell, hyp = standard_objects(gf.make_field(q), 2)
    pencil = built_ids(indsets.point_pencil(p), universe)
    assert indsets.find_extension([], universe) == reference_extension([], universe) == 0
    witness = indsets.find_extension(pencil, universe)
    assert witness is not None and witness == reference_extension(pencil, universe)
    for desc in (indsets.point_line(p, ell), indsets.point_hyperplane(p, hyp)):
        ids = built_ids(desc, universe)
        assert indsets.find_extension(ids, universe) is None
        assert reference_extension(ids, universe) is None


@pytest.mark.parametrize("name,sets", [("u22", 20), ("u23", 6)])
def test_find_extension_matches_reference_on_random_independent_sets(name, sets, request):
    universe = request.getfixturevalue(name)
    rng = random.Random(17)
    for s in range(sets):
        full = explore._greedy_complete_ids([], random.Random(s), universe)
        # any subset of an independent set is independent
        part = rng.sample(full, rng.choice([1, 2, len(full) // 2, len(full) - 1]))
        assert indsets.find_extension(part, universe) == reference_extension(part, universe)


def test_descriptor_masks_refuse_a_universe_of_other_parameters(f2, u23, u32):
    p = pg.Subspace(f2, 5, (tuple(unit_rows(5)[0]),))
    desc = indsets.point_line(p, pg.rref(unit_rows(5)[:2], 5, f2))
    for universe in (u23, u32):
        with pytest.raises(InvalidDescriptor, match=r"universe in GF\(\d\)\^\d"):
            indsets.descriptor_masks(desc, universe)


@pytest.mark.parametrize("name,q", [("u22", 2), ("u23", 3)])
def test_descriptor_masks_match_build(name, q, request):
    universe = request.getfixturevalue(name)
    for variant, desc in all_variant_descriptors(gf.make_field(q), 2).items():
        for d in (desc, indsets.dualize_descriptor(desc)):
            split = indsets.build(d)
            generic, special = indsets.descriptor_masks(d, universe)
            assert np.array_equal(generic, np.sort(universe.ids_of(list(split.generic)))), variant
            assert np.array_equal(special, np.sort(universe.ids_of(list(split.special)))), variant


def test_classify_round_trips(f2, u22):
    for name, desc in all_variant_descriptors(f2, 2).items():
        split = indsets.build(desc)
        result = indsets.classify(u22.ids_of(list(split.all)), u22)
        assert isinstance(result, IndSetDescriptor), name
        assert result == desc, name


def test_classify_unstructured(u22):
    assert indsets.classify([3], u22) is UNSTRUCTURED
    assert indsets.classify([], u22) is UNSTRUCTURED


ID_TAKING = [
    indsets.find_adjacent_pair,
    indsets.is_independent,
    indsets.find_extension,
    indsets.is_maximal,
    indsets.classify,
    indsets.pencil_base_candidates,
    indsets.dual_pencil_base_candidates,
]


@pytest.mark.parametrize("fn", ID_TAKING, ids=lambda fn: fn.__name__)
def test_id_taking_functions_reject_non_integer_ids(fn, u22):
    mask = np.zeros(len(u22), dtype=bool)
    mask[[5, 900]] = True
    bad = [mask, [True, False], [1.7, 2.2], np.array([1.0, 2.0]), ["5", "900"],
           [u22.flag_of(5), u22.flag_of(900)], [[5, 900]], [2**70], [-1], [len(u22)]]
    for ids in bad:
        with pytest.raises(InvalidArgs):
            fn(ids, u22)
    # integer ids of any width, in any order, are accepted
    for ids in ([900, 5], np.array([5, 900], dtype=np.int32), np.array([5, 900], dtype=np.uint16), []):
        fn(ids, u22)


def test_classify_dualized_point_line(f2, u22):
    p, ell, _ = standard_objects(f2, 2)
    split = indsets.build(indsets.point_line(p, ell))
    dual_set = {dual_flag(f) for f in split.all}
    result = indsets.classify(u22.ids_of(list(dual_set)), u22)
    assert isinstance(result, IndSetDescriptor)
    assert result.variant == "hyperplane_family"
    assert result.base == pg.dual(p)
    # and it matches the direct dual-variant build
    direct = indsets.build(result)
    assert direct.all == frozenset(dual_set)
    assert result == indsets.dualize_descriptor(indsets.point_line(p, ell))


def per_flag_candidates(in_set, words, num_points):
    """Points on no member of an outside flag, from every flag's own mask words."""
    words = words[~in_set]
    on = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    return [b for b in range(num_points) if not on[:, b].any()]


@pytest.mark.parametrize("name,q", [("u22", 2), ("u23", 3)])
def test_pencil_candidates_match_per_flag_scan(name, q, request):
    universe = request.getfixturevalue(name)
    field = gf.make_field(q)
    rng = random.Random(q)
    points = [pg.Subspace(field, 5, (row,)) for row in rng.sample(pg.all_points(5, field), 3)]
    sets = []
    for p in points:
        other = next(pt for pt in pg.all_points(5, field) if pt != p.rows[0])
        for desc in (
            indsets.point_pencil(p),
            indsets.dual_point_pencil(pg.dual(p)),
            indsets.point_line(p, pg.rref([list(p.rows[0]), list(other)], 5, field)),
        ):
            in_set = np.zeros(len(universe), dtype=bool)
            in_set[universe.ids_of(list(indsets.build(desc).all))] = True
            sets.append(in_set)
    for density in (0.0, 0.3, 0.9, 1.0):
        noise = np.array([rng.random() < density for _ in range(len(universe))])
        sets += [noise, noise | sets[0], noise | sets[1]]
    # one row of mask words per flag: its lower member, and the dual of its
    # upper member, whose words come from the definition
    lower = universe._table_words[0][universe.member_ids(0)]
    duals = [kneser.subspace_point_mask(pg.dual(universe.entry(1, u))) for u in range(len(universe._bases[1]))]
    dual_words = np.array([[m >> (64 * w) & (2**64 - 1) for w in range(universe.n_words)] for m in duals], np.uint64)
    dual_upper = dual_words[universe.member_ids(1)]
    found = 0
    for in_set in sets:
        got = indsets.pencil_base_candidates(np.flatnonzero(in_set), universe)
        assert got == per_flag_candidates(in_set, lower, universe.num_points)
        got_dual = indsets.dual_pencil_base_candidates(np.flatnonzero(in_set), universe)
        assert got_dual == per_flag_candidates(in_set, dual_upper, universe.num_points)
        found += len(got) + len(got_dual)
    assert found


def outside_flag_candidates(in_set, points, tids, num_points):
    """The points on no table entry that some flag outside the set uses."""
    covered = np.zeros(num_points, dtype=bool)
    covered[points[np.unique(tids[~in_set])]] = True
    return np.flatnonzero(~covered).tolist()


@pytest.mark.parametrize("name,q,n", [("u22", 2, 5), ("u23", 3, 5), ("u32", 2, 7)])
def test_pencil_candidates_match_outside_flag_definition(name, q, n, request, monkeypatch):
    universe = request.getfixturevalue(name)
    field = gf.make_field(q)
    rng = random.Random(n * q)
    sets = []
    for row in rng.sample(pg.all_points(n, field), 2):
        p = pg.Subspace(field, n, (row,))
        for desc in (indsets.point_pencil(p), indsets.dual_point_pencil(pg.dual(p))):
            in_set = np.zeros(len(universe), dtype=bool)
            in_set[np.concatenate(indsets.descriptor_masks(desc, universe))] = True
            sets.append(in_set)
    pencil_ids = np.flatnonzero(sets[0]).tolist()
    sets.append(np.zeros(len(universe), dtype=bool))
    sets[-1][explore._greedy_complete_ids(pencil_ids, random.Random(1), universe)] = True
    noise = np.frombuffer(rng.randbytes(len(universe)), dtype=np.uint8)
    for dense in [noise < k for k in (0, 3, 128, 253)] + [np.ones(len(universe), dtype=bool)]:
        sets += [dense, dense | sets[0], dense | sets[1], dense & sets[2]]
    found = 0
    # the full entries through each point are tallied _MEMBER_CHUNK entries at a time
    for chunk in (kneser._MEMBER_CHUNK, 1, 7):
        monkeypatch.setattr(kneser, "_MEMBER_CHUNK", chunk)
        for in_set in sets:
            got = indsets.pencil_base_candidates(np.flatnonzero(in_set), universe)
            lower = universe._lower_points, universe.member_ids(0)
            assert got == outside_flag_candidates(in_set, *lower, universe.num_points)
            got_dual = indsets.dual_pencil_base_candidates(np.flatnonzero(in_set), universe)
            dual_upper = universe._lower_points[universe.polarity[0]], universe.member_ids(1)
            assert got_dual == outside_flag_candidates(in_set, *dual_upper, universe.num_points)
            found += len(got) + len(got_dual)
    assert found


def test_dualize_descriptor_involution(f2):
    for name, desc in all_variant_descriptors(f2, 2).items():
        assert indsets.dualize_descriptor(indsets.dualize_descriptor(desc)) == desc, name


def test_duality_flagwise_matches_descriptor_dual(f2):
    p, ell, _ = standard_objects(f2, 2)
    desc = indsets.point_line(p, ell)
    flagwise = {dual_flag(f) for f in indsets.build(desc).all}
    descriptor = indsets.build(indsets.dualize_descriptor(desc)).all
    assert flagwise == descriptor


def test_descriptor_validation_errors(f2, f3):
    p, ell, hyp = standard_objects(f2, 2)
    e = unit_rows(5)
    off_line = pg.rref([e[1], e[2]], 5, f2)
    with pytest.raises(InvalidDescriptor):
        indsets.point_line(p, off_line)  # P not on the line
    with pytest.raises(InvalidDescriptor):
        indsets.point_line(p, pg.rref([e[1]], 5, f2))  # wrong rank
    with pytest.raises(InvalidDescriptor):
        indsets.point_hyperplane(p, pg.rref(e[1:5], 5, f2))  # P not inside
    bad_family = [
        pg.rref([e[0], e[1], e[2]], 5, f2),
        pg.rref([e[0], e[3], e[4]], 5, f2),  # meets the first only in P
    ]
    with pytest.raises(InvalidDescriptor):
        indsets.point_family(p, bad_family)
    with pytest.raises(InvalidDescriptor):
        indsets.point_pencil(pg.rref([e[0], e[1]], 5, f2))  # rank-2 base
    with pytest.raises(InvalidDescriptor):
        indsets.dual_point_pencil(p)  # rank-1 base for dual variant


@pytest.mark.parametrize("name", ["u22", "u23"])
def test_family_mask_rule_matches_meet(name, request):
    """validate_descriptor's pairwise rule on point masks against pg.meet: on
    every pair of table entries at (2,2), and at (2,3) on every pair of lower
    entries in one hyperplane and of upper entries through one point."""
    universe = request.getfixturevalue(name)
    entries = [[universe.entry(pos, t) for t in range(words.shape[0])]
               for pos, words in enumerate(universe._table_words)]
    if universe.field.q > 2:
        e = unit_rows(5)
        h, p = pg.rref(e[:4], 5, universe.field), pg.rref(e[:1], 5, universe.field)
        entries = [[s for s in entries[0] if pg.contains(h, s)], [s for s in entries[1] if pg.contains(s, p)]]
    points = pg.all_points(5, universe.field)
    pairs = 0
    for table in entries:
        for i, a in enumerate(table):
            for b in table[i + 1 :]:
                rank = pg.meet(a, b).rank
                shared = kneser.subspace_point_mask(a) & kneser.subspace_point_mask(b)
                assert indsets._pairwise_meet((a, b), None) == (rank >= 1)
                if shared:
                    # a point both hold, as the base point of a point_family
                    point = points[(shared & -shared).bit_length() - 1]
                    assert indsets._pairwise_meet((a, b), pg.rref([point], 5, universe.field)) == (rank >= 2)
                pairs += 1
    assert pairs == sum(len(t) * (len(t) - 1) // 2 for t in entries)


def test_normalization_detects_structured_families(f2):
    p, ell, hyp = standard_objects(f2, 2)
    assert indsets.point_family(p, indsets.line_family(p, ell)) == indsets.point_line(p, ell)
    assert indsets.point_family(p, indsets.hyperplane_point_family(p, hyp)) == (
        indsets.point_hyperplane(p, hyp)
    )
    assert indsets.point_family(p, []) == indsets.point_pencil(p)
    assert indsets.hyperplane_family(hyp, []) == indsets.dual_point_pencil(hyp)


def test_descriptor_json_round_trip(f2):
    for name, desc in all_variant_descriptors(f2, 2).items():
        data = indsets.descriptor_to_json(desc)
        back = indsets.descriptor_from_json(data)
        assert back == desc, name


def test_descriptor_json_accepts_aliases(f2):
    p, _, _ = standard_objects(f2, 2)
    data = indsets.descriptor_to_json(indsets.point_pencil(p))
    data["variant"] = "generic_only"
    assert indsets.descriptor_from_json(data) == indsets.point_pencil(p)


def test_descriptor_json_requires_canonical_bases(f2):
    data = {"variant": "point_pencil", "d": 2, "q": 2, "P": [[0, 1, 1, 0, 0]]}
    assert indsets.descriptor_from_json(data).base.rows == ((0, 1, 1, 0, 0),)
    data_bad = {"variant": "point_pencil", "d": 2, "q": 2, "P": [[0, 1, 1, 0, 0], [0, 0, 0, 0, 0]]}
    with pytest.raises(InvalidDescriptor):
        indsets.descriptor_from_json(data_bad)


def test_classify_round_trips_23(f3, u23):
    for name, desc in all_variant_descriptors(f3, 2).items():
        split = indsets.build(desc)
        result = indsets.classify(u23.ids_of(list(split.all)), u23)
        assert result == desc, name
