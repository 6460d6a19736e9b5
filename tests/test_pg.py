import random
from itertools import combinations, product

import pytest

from qkneser import pg, qcalc
from qkneser.errors import DimensionMismatch, InvalidArgs

from conftest import unit_rows


def brute_force_subspace_count(n, r, field):
    """Independent oracle: spans of all r-tuples of vectors, deduplicated."""
    vectors = [v for v in product(range(field.q), repeat=n) if any(v)]
    seen = set()
    if r == 0:
        return 1
    for rows in combinations(vectors, r):
        s = pg.rref(list(rows), n, field)
        if s.rank == r:
            seen.add(s.rows)
    return len(seen)


def random_rows(rng, n, k, q):
    return [[rng.randrange(q) for _ in range(n)] for _ in range(k)]


def test_rref_hand_example(f2):
    s = pg.rref([(1, 1, 0), (0, 1, 0)], 3, f2)
    assert s.rows == ((1, 0, 0), (0, 1, 0))
    assert s.rank == 2


def test_rref_degenerate_inputs(f2):
    assert pg.rref([], 3, f2).rank == 0
    assert pg.rref([(0, 0, 0)], 3, f2).rank == 0


def test_rref_rejects_bad_rows(f2, f3):
    with pytest.raises(DimensionMismatch):
        pg.rref([(1, 0)], 3, f2)
    with pytest.raises(InvalidArgs):
        pg.rref([(2, 0, 0)], 3, f2)
    assert pg.rref([(2, 0, 0)], 3, f3).rows == ((1, 0, 0),)
    for scalar in ("a", 0.0, 1.0, True, None):
        with pytest.raises(InvalidArgs):
            pg.rref([(scalar, 0, 0)], 3, f2)
        assert not pg.is_canonical_rows([[scalar, 0, 0]], 3, f2)
    assert not pg.is_canonical_rows(5, 3, f2)
    assert not pg.is_canonical_rows([5], 3, f2)


def test_rref_canonical_under_shuffle(f3):
    rng = random.Random(11)
    for _ in range(200):
        rows = random_rows(rng, 4, 3, 3)
        s = pg.rref(rows, 4, f3)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        # also mix rows together: replace row0 by row0 + row1
        if len(shuffled) >= 2:
            mixed = [f3.add(a, b) for a, b in zip(shuffled[0], shuffled[1])]
            shuffled[0] = mixed
        assert pg.rref(shuffled, 4, f3) == s


def test_gf2_packed_path_matches_generic(f2):
    rng = random.Random(5)
    for _ in range(300):
        rows = random_rows(rng, 6, rng.randrange(1, 5), 2)
        fast = pg._rref_rows(rows, 6, f2)
        slow = pg._rref_generic(rows, 6, f2)
        assert fast == slow


def test_meet_examples(f2):
    e = unit_rows(4)
    a = pg.rref([e[0], e[1]], 4, f2)
    b = pg.rref([e[1], e[2]], 4, f2)
    assert pg.meet(a, b).rows == ((0, 1, 0, 0),)
    assert pg.meet(a, a) == a
    zero = pg.zero_subspace(4, f2)
    assert pg.meet(a, zero) == zero


def test_join_examples(f2):
    e = unit_rows(5)
    a = pg.rref([e[0], e[1]], 5, f2)
    zero = pg.zero_subspace(5, f2)
    assert pg.join(a, zero) == a
    b = pg.rref([e[2], e[3], e[4]], 5, f2)
    assert pg.join(a, b) == pg.full_space(5, f2)


def test_modular_rank_law_on_random_pairs(f3):
    rng = random.Random(23)
    for _ in range(1000):
        a = pg.rref(random_rows(rng, 5, rng.randrange(4), 3), 5, f3)
        b = pg.rref(random_rows(rng, 5, rng.randrange(4), 3), 5, f3)
        assert a.rank + b.rank == pg.meet(a, b).rank + pg.join(a, b).rank


def test_contains_cases(f2):
    e = unit_rows(4)
    a = pg.rref([e[0], e[1], e[2]], 4, f2)
    assert pg.contains(a, a)
    zero = pg.zero_subspace(4, f2)
    assert not pg.contains(zero, a)
    assert pg.contains(a, zero)
    rng = random.Random(3)
    for _ in range(100):
        rows = random_rows(rng, 4, 2, 2)
        inner = pg.rref(rows, 4, f2)
        outer = pg.rref(rows + [random_rows(rng, 4, 1, 2)[0]], 4, f2)
        assert pg.contains(outer, inner)


def test_enumeration_counts_against_brute_force(f2, f3):
    assert sum(1 for _ in pg.enumerate_subspaces(4, 2, f2)) == brute_force_subspace_count(4, 2, f2)
    assert sum(1 for _ in pg.enumerate_subspaces(3, 2, f3)) == brute_force_subspace_count(3, 2, f3)


def test_enumeration_counts_match_gauss(f2, f3):
    assert sum(1 for _ in pg.enumerate_subspaces(5, 2, f2)) == 155
    assert sum(1 for _ in pg.enumerate_subspaces(4, 2, f2)) == 35
    for n, fld in [(7, f2), (5, f3)]:
        for r in range(n + 1):
            count = sum(1 for _ in pg.enumerate_subspaces(n, r, fld))
            assert count == qcalc.gauss(n, r, fld.q)


def test_enumeration_yields_canonical_unique(f2, f3):
    rng = random.Random(6)
    for n, r, fld in [(4, 2, f2), (5, 2, f2), (4, 2, f3)]:
        seen = set()
        for s in pg.enumerate_subspaces(n, r, fld):
            assert s.rows not in seen
            seen.add(s.rows)
            rows = [list(row) for row in s.rows]
            rng.shuffle(rows)
            assert pg.rref(rows, n, fld) == s
    assert [s.rank for s in pg.enumerate_subspaces(4, 0, f2)] == [0]


def test_lattice_laws_exhaustive_small(f2):
    subs = [s for r in range(4) for s in pg.enumerate_subspaces(3, r, f2)]
    for a in subs:
        for b in subs:
            assert pg.meet(a, b) == pg.meet(b, a)
            assert pg.join(a, b) == pg.join(b, a)
            assert pg.join(a, pg.meet(a, b)) == a
            assert pg.meet(a, pg.join(a, b)) == a
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rng.choice(subs) for _ in range(3))
        assert pg.meet(pg.meet(a, b), c) == pg.meet(a, pg.meet(b, c))
        assert pg.join(pg.join(a, b), c) == pg.join(a, pg.join(b, c))


def test_dual_examples(f2):
    assert pg.dual(pg.full_space(3, f2)) == pg.zero_subspace(3, f2)
    assert pg.dual(pg.zero_subspace(3, f2)) == pg.full_space(3, f2)
    s = pg.rref([(1, 1, 0)], 3, f2)
    assert pg.dual(s).rows == ((1, 1, 0), (0, 0, 1))


def test_dual_involution_and_reversal(f3):
    rng = random.Random(77)
    for _ in range(300):
        a = pg.rref(random_rows(rng, 5, rng.randrange(6), 3), 5, f3)
        assert pg.dual(pg.dual(a)) == a
        assert pg.dual(a).rank == 5 - a.rank
        b = pg.rref(random_rows(rng, 5, rng.randrange(6), 3), 5, f3)
        if pg.contains(a, b):
            assert pg.contains(pg.dual(b), pg.dual(a))


def test_superspace_enumeration(f2, f3):
    e = unit_rows(5)
    a = pg.rref([e[0], e[1]], 5, f2)
    supers = list(pg.enumerate_superspaces(a, 3))
    assert len(supers) == qcalc.theta(2, 2)  # points of the rank-3 quotient
    assert len(set(supers)) == len(supers)
    assert all(s.rank == 3 and pg.contains(s, a) for s in supers)
    b = pg.rref([[1, 2, 0, 1, 0]], 5, f3)
    supers3 = list(pg.enumerate_superspaces(b, 3))
    assert len(supers3) == qcalc.gauss(4, 2, 3)
    assert all(pg.contains(s, b) for s in supers3)


def test_subspaces_within(f3):
    e = unit_rows(5)
    a = pg.rref([e[0], e[1], e[2]], 5, f3)
    subs = list(pg.subspaces_within(a, 2))
    assert len(subs) == qcalc.gauss(3, 2, 3)
    assert len(set(subs)) == len(subs)
    assert all(pg.contains(a, s) and s.rank == 2 for s in subs)


def test_all_points(f2, f3):
    assert len(pg.all_points(5, f2)) == qcalc.theta(4, 2)
    assert len(pg.all_points(5, f3)) == qcalc.theta(4, 3)
    # normalized: first nonzero coordinate is 1
    for pt in pg.all_points(4, f3):
        lead = next(x for x in pt if x)
        assert lead == 1


def test_subspace_point_ids(f3):
    e = unit_rows(5)
    a = pg.rref([e[0], e[1]], 5, f3)
    ids = pg.subspace_point_ids(a)
    assert len(ids) == qcalc.theta(1, 3)  # q + 1 points on a line
    pts = pg.all_points(5, f3)
    for i in ids:
        assert pg.contains(a, pg.rref([list(pts[i])], 5, f3))


def test_normalize_vector(f3):
    assert pg.normalize_vector((0, 2, 1), f3) == (0, 1, 2)
    with pytest.raises(InvalidArgs):
        pg.normalize_vector((0, 0, 0), f3)


def test_mismatched_spaces_raise(f2, f3):
    a = pg.rref([(1, 0, 0)], 3, f2)
    b = pg.rref([(1, 0, 0, 0)], 4, f2)
    c = pg.rref([(1, 0, 0)], 3, f3)
    for other in (b, c):
        with pytest.raises(DimensionMismatch):
            pg.meet(a, other)
        with pytest.raises(DimensionMismatch):
            pg.join(a, other)
        with pytest.raises(DimensionMismatch):
            pg.contains(a, other)
