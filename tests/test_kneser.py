import io
import random

import numpy as np
import pytest

from qkneser import cover, indsets, kneser, pg, qcalc
from qkneser.errors import DimensionMismatch, InvalidType, TooLarge

from conftest import unit_rows


def make_flag(field, n, *rowsets):
    return kneser.Flag(tuple(pg.rref(rows, n, field) for rows in rowsets))


@pytest.fixture(scope="module")
def hand_flags(f2):
    e = unit_rows(5)
    f1 = make_flag(f2, 5, [e[0], e[1]], [e[0], e[1], e[2]])
    f2_ = make_flag(f2, 5, [e[3], e[4]], [e[2], e[3], e[4]])
    f2_prime = make_flag(f2, 5, [e[2], e[3]], [e[2], e[3], e[4]])
    return f1, f2_, f2_prime


def test_enumerate_flags_counts(f2, f3):
    assert sum(1 for _ in kneser.enumerate_flags(3, (1,), f2)) == 7
    assert sum(1 for _ in kneser.enumerate_flags(5, (2, 3), f2)) == 1085
    assert sum(1 for _ in kneser.enumerate_flags(5, (2, 3), f3)) == 15730


def test_enumerate_flags_nested_unique(f2):
    seen = set()
    for f in kneser.enumerate_flags(5, (2, 3), f2):
        assert f.types == (2, 3)
        assert pg.contains(f.chain[1], f.chain[0])
        assert f not in seen
        seen.add(f)


def test_enumerate_flags_validates_type(f2):
    with pytest.raises(InvalidType):
        list(kneser.enumerate_flags(5, (3, 2), f2))
    with pytest.raises(InvalidType):
        list(kneser.enumerate_flags(5, (0, 1), f2))
    with pytest.raises(InvalidType):
        list(kneser.enumerate_flags(5, (2, 3, 4), f2))
    with pytest.raises(InvalidType):
        list(kneser.enumerate_flags(5, (), f2))


def test_general_position_hand_examples(hand_flags):
    f1, f2_, f2_prime = hand_flags
    assert kneser.general_position(f1, f2_)
    assert not kneser.general_position(f1, f2_prime)
    assert not kneser.general_position(f1, f1)


def test_general_position_fast_matches_hand_examples(hand_flags):
    f1, f2_, f2_prime = hand_flags
    assert kneser.general_position_fast(f1, f2_)
    assert not kneser.general_position_fast(f1, f2_prime)
    assert not kneser.general_position_fast(f1, f1)


def test_fast_equals_slow_on_sampled_pairs(u22):
    rng = random.Random(9)
    flags = u22.flags
    for _ in range(3000):
        a, b = rng.randrange(len(flags)), rng.randrange(len(flags))
        fa, fb = flags[a], flags[b]
        assert kneser.general_position_fast(fa, fb) == kneser.general_position(fa, fb)
        assert kneser.general_position_fast(fa, fb) == kneser.general_position_fast(fb, fa)


def test_adjacency_invariant_under_linear_maps(f2, u22):
    rng = random.Random(4)
    flags = u22.flags

    def random_gl(n):
        while True:
            rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
            if pg.rank_of_rows(rows, n, f2) == n:
                return rows

    def apply(flag, m):
        out = []
        for s in flag.chain:
            rows = [
                [
                    sum(r[i] * m[i][j] for i in range(5)) % 2
                    for j in range(5)
                ]
                for r in s.rows
            ]
            out.append(pg.rref(rows, 5, f2))
        return kneser.Flag(tuple(out))

    for _ in range(25):
        m = random_gl(5)
        fa, fb = rng.choice(flags), rng.choice(flags)
        assert kneser.general_position_fast(fa, fb) == kneser.general_position_fast(
            apply(fa, m), apply(fb, m)
        )


def test_flags_from_different_graphs_raise(f2, f3):
    a = make_flag(f2, 5, [unit_rows(5)[0], unit_rows(5)[1]], unit_rows(5)[:3])
    b = make_flag(f2, 7, [unit_rows(7)[0], unit_rows(7)[1], unit_rows(7)[2]], unit_rows(7)[:4])
    with pytest.raises(DimensionMismatch):
        kneser.general_position(a, b)
    c = make_flag(f2, 5, [unit_rows(5)[0]], unit_rows(5)[:2])
    with pytest.raises(DimensionMismatch):
        kneser.general_position(a, c)


def test_universe_index_roundtrip_and_determinism(f2):
    u_a = kneser.FlagUniverse(5, (2, 3), f2)
    u_b = kneser.FlagUniverse(5, (2, 3), f2)
    assert [f.sort_key() for f in u_a.flags] == [f.sort_key() for f in u_b.flags]
    for i in (0, 1, 500, len(u_a) - 1):
        assert u_a.id_of(u_a.flag_of(i)) == i


def test_neighbors_degree_constant(u22):
    rng = random.Random(2)
    degrees = set()
    for _ in range(100):
        i = rng.randrange(len(u22))
        degrees.add(u22.degree(i))
    assert len(degrees) == 1
    # f not adjacent to itself; neighbor relation symmetric on samples
    f0 = u22.flag_of(0)
    ns = list(kneser.neighbors(f0, u22))
    assert 0 not in ns
    for j in ns[:20]:
        assert 0 in set(kneser.neighbors(u22.flag_of(j), u22))


def test_neighbors_match_fast_test(u22):
    f0 = u22.flag_of(7)
    expected = [
        j
        for j in range(len(u22))
        if j != 7 and kneser.general_position_fast(f0, u22.flag_of(j))
    ]
    assert list(kneser.neighbors(f0, u22)) == expected


def test_check_pairwise_independent_finds_first_pair(u22, hand_flags):
    f1, f2_, _ = hand_flags
    ids = sorted((u22.id_of(f1), u22.id_of(f2_)))
    assert u22.check_pairwise_independent(ids) == tuple(ids)
    assert u22.check_pairwise_independent(ids[:1]) is None


def test_check_pairwise_independent_threads_match(u22):
    rng = random.Random(31)
    ids = sorted(rng.sample(range(len(u22)), 400))
    serial = u22.check_pairwise_independent(ids, threads=1)
    threaded = u22.check_pairwise_independent(ids, threads=4)
    assert serial == threaded


def reference_pair_scan(universe, ids):
    """Row-major first adjacent pair by position in ids, testing every pair."""
    ids = np.asarray(ids, dtype=np.int64)
    lo, hi = universe._gather(ids)
    for a in range(ids.size - 1):
        sl = slice(a + 1, ids.size)
        z1 = lo[0][a] & hi[0][sl]
        z2 = hi[0][a] & lo[0][sl]
        for w in range(1, universe.n_words):
            z1 = z1 | (lo[w][a] & hi[w][sl])
            z2 = z2 | (hi[w][a] & lo[w][sl])
        adj = (z1 == 0) & (z2 == 0)
        if adj.any():
            return int(ids[a]), int(ids[a + 1 + int(np.argmax(adj))])
    return None


def star_pruned(universe, i, start):
    """Flags start.. whose lower member shares a point with flag i's, or
    whose upper member lies in a common hyperplane with flag i's."""
    sl = slice(start, len(universe))
    out = np.zeros(len(universe) - start, dtype=bool)
    for cols in (universe._cols[0], universe.dual_top_cols):
        for w in range(universe.n_words):
            out |= (cols[w][i] & cols[w][sl]) != 0
    return out


@pytest.mark.parametrize("name", ["u22", "u23"])
def test_dual_top_cols_match_duals(name, request):
    universe = request.getfixturevalue(name)
    masks = [kneser.subspace_point_mask(pg.dual(s)) for s in universe.tables[1]]
    for w in range(universe.n_words):
        table = np.array([(m >> (64 * w)) & (2**64 - 1) for m in masks], dtype=np.uint64)
        assert np.array_equal(universe.dual_top_cols[w], table[universe.member_ids[1]])


def test_star_rule_sound_against_definition(u22):
    pruned = 0
    for i in range(len(u22) - 1):
        for j in np.nonzero(star_pruned(u22, i, i + 1))[0] + i + 1:
            assert not kneser.general_position(u22.flag_of(i), u22.flag_of(int(j)))
            pruned += 1
    assert pruned > 0


def test_star_rule_sound_against_adjacency_rows(u23):
    pruned = 0
    for i in range(len(u23) - 1):
        rule = star_pruned(u23, i, i + 1)
        assert not (rule & u23.adjacency_row(i, i + 1)).any()
        pruned += int(np.count_nonzero(rule))
    assert pruned > 0


@pytest.mark.parametrize("name", ["u22", "u23"])
def test_star_scan_matches_reference(name, request):
    universe = request.getfixturevalue(name)
    cert = cover.build_cover(2, universe.field.q)
    classes = [
        np.nonzero(np.logical_or(*indsets.descriptor_masks(c, universe)))[0].tolist()
        for c in cert.classes
    ]
    rng = random.Random(17)
    cases = []
    for _ in range(15):
        members = rng.choice(classes)
        invalid = members + rng.sample(range(len(universe)), rng.choice([1, 3]))
        cases.append(sorted(rng.sample(range(len(universe)), rng.choice([2, 30, 300]))))
        cases.append(sorted(invalid))
        for ids in (list(members), invalid):
            rng.shuffle(ids)
            cases.append(ids)
    witnesses = [reference_pair_scan(universe, ids) for ids in cases]
    assert any(w is None for w in witnesses) and any(w is not None for w in witnesses)
    for ids, expected in zip(cases, witnesses):
        for threads in (1, 4):
            assert universe.check_pairwise_independent(ids, threads=threads) == expected


def test_star_plan_counts_every_pair(u22):
    rng = random.Random(5)
    for size in (0, 1, 2, 40, 500):
        ids = rng.sample(range(len(u22)), size)
        plan = u22.star_plan(ids)
        assert sorted(plan.order.tolist()) == list(range(size))
        assert plan.pair_tests + plan.pairs_pruned == size * (size - 1) // 2
        # a block pairs each of its rows with the columns from c0 on after it
        tested = sum(size - max(c0, r + 1) for r0, r1, c0 in plan.blocks for r in range(r0, r1))
        assert tested == plan.pair_tests


def test_export_dimacs_fano(f2):
    buf = io.StringIO()
    kneser.export_dimacs(3, (1,), f2, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "p edge 7 21"
    edges = {tuple(line.split()[1:]) for line in lines[1:]}
    assert len(edges) == 21  # K7: distinct Fano points always meet trivially
    assert all(line.startswith("e ") for line in lines[1:])


def test_export_dimacs_kneser_graph(u22, f2, tmp_path):
    out = tmp_path / "g22.dimacs"
    kneser.export_dimacs(5, (2, 3), f2, str(out))
    lines = out.read_text().splitlines()
    header = lines[0].split()
    assert header[:2] == ["p", "edge"]
    assert int(header[2]) == 1085
    degree = u22.degree(0)
    assert int(header[3]) == 1085 * degree // 2
    assert len(lines) - 1 == int(header[3])


def test_export_dimacs_guards(f2):
    with pytest.raises(TooLarge):
        kneser.export_dimacs(5, (2, 3), f2, io.StringIO(), cap=100)
    with pytest.raises(InvalidType):
        kneser.export_dimacs(2, (1,), f2, io.StringIO())


def test_make_flag_validates_nesting(f2):
    e = unit_rows(5)
    lo = pg.rref([e[0], e[1]], 5, f2)
    hi = pg.rref([e[0], e[1], e[2]], 5, f2)
    assert kneser.make_flag([hi, lo]).chain == (lo, hi)  # sorted by rank
    bad_hi = pg.rref([e[2], e[3], e[4]], 5, f2)
    with pytest.raises(InvalidType):
        kneser.make_flag([lo, bad_hi])
    with pytest.raises(InvalidType):
        kneser.make_flag([])


def test_dual_flag(u22):
    f = u22.flag_of(11)
    df = kneser.dual_flag(f)
    assert df.types == (2, 3)
    assert pg.contains(df.chain[1], df.chain[0])
    assert kneser.dual_flag(df) == f


def test_flag_count_matches_closed_form(u22, u23):
    assert len(u22) == qcalc.flag_count(2, 2)
    assert len(u23) == qcalc.flag_count(2, 3)


def test_popcount_helper():
    arr = np.array([0, 1, 3, 2**63, 2**64 - 1], dtype=np.uint64)
    assert list(kneser._popcount(arr)) == [0, 1, 2, 1, 64]
