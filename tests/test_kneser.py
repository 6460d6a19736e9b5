import hashlib
import io
import operator
import random
import tracemalloc
from functools import reduce
from itertools import product
from math import comb

import numpy as np
import pytest

from qkneser import cover, gf, indsets, kneser, pg, qcalc
from qkneser.errors import DimensionMismatch, InvalidArgs, InvalidType, TooLarge

from conftest import dual_flag, unit_rows


def param_id(value):
    """A test id without spaces: a type (1, 2) reads J12."""
    return "J" + "".join(map(str, value)) if isinstance(value, tuple) else str(value)


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


def adjacent(universe, fa, fb):
    """adjacency_row's verdict on the pair, reached through id_of."""
    return bool(universe.adjacency_row(universe.id_of(fa))[universe.id_of(fb)])


def test_adjacency_row_matches_hand_examples(hand_flags, u22):
    f1, f2_, f2_prime = hand_flags
    assert adjacent(u22, f1, f2_) and adjacent(u22, f2_, f1)
    assert not adjacent(u22, f1, f2_prime)
    assert not adjacent(u22, f1, f1)


def test_fast_equals_slow_on_sampled_pairs(u22):
    rng = random.Random(9)
    flags = list(u22)
    for _ in range(3000):
        a, b = rng.randrange(len(flags)), rng.randrange(len(flags))
        fa, fb = flags[a], flags[b]
        assert adjacent(u22, fa, fb) == kneser.general_position(fa, fb)
        assert adjacent(u22, fa, fb) == adjacent(u22, fb, fa)


def test_adjacency_invariant_under_linear_maps(f2, u22):
    rng = random.Random(4)
    flags = list(u22)

    def random_gl(n):
        while True:
            rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
            if pg.rref(rows, n, f2).rank == n:
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
        assert adjacent(u22, fa, fb) == adjacent(u22, apply(fa, m), apply(fb, m))


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
    assert [f.sort_key() for f in u_a] == [f.sort_key() for f in u_b]
    for i in (0, 1, 500, len(u_a) - 1):
        assert u_a.id_of(u_a.flag_of(i)) == i


# every type a universe builds: {d, d+1} in rank 2d+1, at d = 2 and d = 1
UNIVERSE_TYPES = [(5, (2, 3), 2), (5, (2, 3), 3), (3, (1, 2), 2), (3, (1, 2), 3)]


def has_universe(n, J):
    return J == (J[0], J[0] + 1) and n == 2 * J[0] + 1


@pytest.mark.parametrize(
    "n,J,q",
    [(5, (2, 3), 2), (5, (2, 3), 3), (3, (1,), 2), (5, (1, 3), 2), (5, (1, 3), 3)]
    + UNIVERSE_TYPES[2:]
    # every other field order, the table arithmetic of q = 4, 8 and 9 included
    + [(3, (1, 2), q) for q in (4, 5, 7, 8, 9)],
)
def test_universe_ids_follow_enumerate_flags(n, J, q):
    field = gf.make_field(q)
    flags = list(kneser.enumerate_flags(n, J, field))
    if has_universe(n, J):
        u = kneser.FlagUniverse(n, J, field)
        assert [u.flag_of(i) for i in range(len(u))] == flags
        return
    # other types have no universe; graph export numbers their flags in
    # enumerate_flags order all the same
    with pytest.raises(InvalidType):
        kneser.FlagUniverse(n, J, field)
    size, row = kneser._general_position_rows(n, J, field)
    assert size == len(flags)
    for i in sorted({0, size // 2, size - 1}):
        expected = [j != i and kneser.general_position(flags[i], g) for j, g in enumerate(flags)]
        assert row(i, 0).tolist() == expected


def test_id_of_inverts_flag_of(u23, f2):
    assert all(u23.id_of(u23.flag_of(i)) == i for i in range(len(u23)))
    other_q = next(kneser.enumerate_flags(5, (2, 3), f2))
    with pytest.raises(InvalidArgs):
        u23.id_of(other_q)


def table(universe, pos):
    """Member table pos, each entry built on demand."""
    return [universe.entry(pos, t) for t in range(universe._table_words[pos].shape[0])]


@pytest.mark.parametrize("name", ["u22", "u23"])
def test_table_masks_match_point_masks(name, request):
    universe = request.getfixturevalue(name)
    for pos in range(2):
        words = universe._table_words[pos].astype("<u8")
        entries = table(universe, pos)
        assert [int.from_bytes(row.tobytes(), "little") for row in words] == [
            kneser.subspace_point_mask(s) for s in entries
        ]
        assert [universe.table_id_of(pos, s) for s in entries] == list(range(len(entries)))
        assert all(universe.entry(pos, t) is s for t, s in enumerate(entries))


def word_point_ids(words):
    """The sorted point ids of each row of mask words."""
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    return [np.flatnonzero(row).tolist() for row in bits]


@pytest.mark.parametrize(
    "n,J,q",
    [(5, (2, 3), 2), (5, (2, 3), 3), (5, (1, 3), 2), (5, (1, 3), 3), (3, (1,), 2)]
    + UNIVERSE_TYPES[2:]
    + [(3, (1, 2), q) for q in (4, 5, 7, 8, 9)],
)
def test_point_ids_match_subspace_point_ids(n, J, q):
    field = gf.make_field(q)
    if not has_universe(n, J):
        # other types have no tables: graph export reads the point mask of
        # each member of each flag
        for s in {s for f in kneser.enumerate_flags(n, J, field) for s in f.chain}:
            mask = kneser.subspace_point_mask(s)
            assert [b for b in range(mask.bit_length()) if mask >> b & 1] == list(pg.subspace_point_ids(s))
        return
    universe = kneser.FlagUniverse(n, J, field)
    tables = [table(universe, pos) for pos in range(2)]
    # only the lower table keeps its point ids; every table has its words
    assert universe._lower_points.tolist() == [list(pg.subspace_point_ids(s)) for s in tables[0]]
    for pos, entries in enumerate(tables):
        assert word_point_ids(universe._table_words[pos]) == [list(pg.subspace_point_ids(s)) for s in entries]
        assert [universe.table_id_of(pos, s) for s in entries] == list(range(len(entries)))
    # the dual of every top entry, by its index among the subspaces of its rank
    duals = [pg.dual(s) for s in tables[-1]]
    rows = np.array([s.rows for s in duals], dtype=np.uint8)
    assert pg.dual_index(universe._bases[-1], field).tolist() == pg.subspace_index(rows, q).tolist()
    dual_points = universe._lower_points[universe.polarity[0]].tolist()
    assert dual_points == [list(pg.subspace_point_ids(s)) for s in duals]
    # a subspace of another rank, or with the same basis over another field, is in no table
    other_field = gf.make_field(3 if q == 2 else 2)
    for pos, entries in enumerate(tables):
        strangers = [pg.full_space(n, field), pg.Subspace(other_field, n, entries[0].rows)]
        strangers += [s for other, rest in enumerate(tables) if other != pos for s in rest[:5]]
        assert [universe.table_id_of(pos, s) for s in strangers] == [None] * len(strangers)


@pytest.mark.parametrize("q", [7, 8, 9])
def test_span_points_match_subspace_point_ids_at_large_q(q):
    # the d = 2 universes at these q are over MAX_FLAGS, so span sampled
    # entries of both tables
    field, rng = gf.make_field(q), np.random.default_rng(q)
    n_words = (qcalc.theta(4, q) + 63) // 64
    for r in (2, 3):
        rows = pg.subspace_rows(5, r, field)
        rows = rows[np.sort(rng.choice(len(rows), 300, replace=False))]
        ids, words = kneser._span_points(field, rows, n_words)
        expected = [list(pg.subspace_point_ids(pg.Subspace(field, 5, tuple(map(tuple, b))))) for b in rows.tolist()]
        assert ids.tolist() == word_point_ids(words) == expected


def count_calls(monkeypatch, cls):
    made = []
    init = cls.__init__

    def counting(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counting)
    return made


def test_universe_build_makes_no_flags(monkeypatch):
    flags = count_calls(monkeypatch, kneser.Flag)
    subspaces = count_calls(monkeypatch, pg.Subspace)
    for n, J, q, size in [(5, (2, 3), 3, 15730), (7, (3, 4), 2, 177165)]:
        u = kneser.FlagUniverse(n, J, gf.make_field(q))
        u.polarity
        assert len(u) == size and not flags and not subspaces
        # a flag builds its two entries, and the lower entry its upper one
        # is built from, once
        u.flag_of(len(u) - 1)
        assert len(flags) == 1 and 2 <= len(subspaces) <= 3
        built = len(subspaces)
        u.flag_of(len(u) - 1)
        assert len(flags) == 2 and len(subspaces) == built
        flags.clear()
        subspaces.clear()


def test_universe_build_makes_no_index_lookups(monkeypatch):
    # the upper ids come per pivot shape (pg.superspace_ids), not from a
    # subspace_index of each flag's upper basis
    calls = []
    index = pg.subspace_index

    def counting(*args):
        calls.append(1)
        return index(*args)

    monkeypatch.setattr(pg, "subspace_index", counting)
    for n, J, q in [(5, (2, 3), 3), (7, (3, 4), 2)]:
        kneser.FlagUniverse(n, J, gf.make_field(q))
    assert not calls


def test_universe_build_indexes_no_ambient_points(monkeypatch):
    # point ids come in closed form (pg.point_ids), and the point count from
    # theta, with no table of the points of the whole space
    all_points = pg.all_points

    def not_ambient(n, field):
        assert n not in (5, 7), f"the points of GF({field.q})^{n} were listed"
        return all_points(n, field)

    def no_point_index(n, field):
        raise AssertionError(f"the points of GF({field.q})^{n} were indexed")

    monkeypatch.setattr(pg, "all_points", not_ambient)
    monkeypatch.setattr(pg, "point_index", no_point_index)
    for n, J, q in [(5, (2, 3), 3), (7, (3, 4), 2)]:
        kneser.FlagUniverse(n, J, gf.make_field(q))


def test_id_of_inverts_flag_of_on_a_sample(u32):
    rng = random.Random(32)
    for i in rng.sample(range(len(u32)), 300):
        assert u32.id_of(u32.flag_of(i)) == i


# sha256 of each table part (see table_parts), so a layout change shows which
# part moved; the dual-top words are the lower words at sigma, and match the
# table of the duals' words that they replace
TABLE_DIGESTS = {
    (2, 2): {
        "lower_words": "f4e2ed3fd69fc950c0acf80572b9dda1d67b111d83902dcdcc4d8a5c71774f8b",
        "upper_words": "6f28280ecaa006ff1d18860dc021d57caf705520855f71ad7bec3966cbab9fa6",
        "lower_ids": "794c1e88865aacefd774c43cd5a9ff69552bb0e040932f69b6f00a35c9c906b4",
        "upper_ids": "03475c80ade2141f14c77e84f896f1bc8b6c8bee383e58b98614c81c125fdff7",
        "dual_top_words": "08073d6eb94a4eb54a5a140765831aab91591461c46b93ca67e235e898baf90f",
    },
    (2, 3): {
        "lower_words": "75c676863a0d0deb57e494ae7a7f7a5a6dbc3c9119285c6252252613c1cc9e6d",
        "upper_words": "f26275ae821a4e80fc397c189f20690f012ed968bc790b8007b2780cac460c48",
        "lower_ids": "eeec5d2d5d12ded17bacd82394a904ac709a8dcb7df284cf344185fe079cefc1",
        "upper_ids": "ba8f2800f87a80ac762812592917f3e05bf56040c654ba20a0391effc5fe5111",
        "dual_top_words": "5956fa8a07adc3e36e1e40ae9a891e761e232106da1400071f5e96eec4c3a4b3",
    },
    (2, 4): {
        "lower_words": "551787eebbcc3e91112830817f70c748f1f2fa3c9065f9e8b35494fd2413f83b",
        "upper_words": "c14b2f90e3a9e56bafafde8fabcb636b19b38847639c48e45a851aa4751e4e55",
        "lower_ids": "a0cded6dba45428de51db86b5e3e72d43fbaa05264edecacafd8fe14eda4091f",
        "upper_ids": "03bc6902645d5282da2e70a51f09f810d1c2578b3343c203e337e50facca81e6",
        "dual_top_words": "0c8e6ad73462d596ae1c11ed18363f4e9f57b954320b18762b177f9bbac7d526",
    },
    (2, 5): {
        "lower_words": "6d0960e2bb0b3ee57405263046e6dc790982ef78cc6d8389967f4cd0ba67d29e",
        "upper_words": "c66b9dec836a49757d19050845c723795151cb66e2f03ad9fcfd16624b4622a7",
        "lower_ids": "ab30769cdfaf615cb689355aebdb7a34072a3d7e2636e1080976bd65bab72c8c",
        "upper_ids": "e9d803c208cb72595237af4afae37f2c791cddd117b00c66c8aeace53b16eebf",
        "dual_top_words": "376e092528e6c8573c87a327f54a932417e20727d2dd4f86d429a77e0d9f0f9e",
    },
    (3, 2): {
        "lower_words": "f994316327218d9181aba5ea20655984f9ee68de9717bdc2b4cc9c7f78b4caf7",
        "upper_words": "14d4d10103acb9a62adcf80cc28b49c72f9b18b74cc5eea691cb7abd97442814",
        "lower_ids": "2b1866fb44a7ef87a5527b5142b371a101aa605287125235830dd6ace0e5dc2c",
        "upper_ids": "9398baf3ebc0a87b37f1c76109c7b797fb7c0d01b4e17709d0320a65342adbe8",
        "dual_top_words": "c33d8f2e0c3e034a35a24946626a32ad7fb1a44788fcf213a7de191208931a61",
    },
}


def table_parts(universe):
    """The sha256 of each table part: shape, then little-endian bytes."""
    arrays = {
        "lower_words": universe._table_words[0],
        "upper_words": universe._table_words[-1],
        "lower_ids": universe.member_ids(0),
        "upper_ids": universe.member_ids(1),
        "dual_top_words": dual_top_words(universe),
    }
    digests = {}
    for name, a in arrays.items():
        h = hashlib.sha256(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).astype(a.dtype.newbyteorder("<")).tobytes())
        digests[name] = h.hexdigest()
    return digests


@pytest.mark.parametrize("d,q", sorted(TABLE_DIGESTS))
def test_tables_match_golden_digest(d, q, request):
    fixture = {(2, 2): "u22", (2, 3): "u23", (3, 2): "u32"}.get((d, q))
    if fixture:
        universe = request.getfixturevalue(fixture)
    else:
        universe = kneser.FlagUniverse(2 * d + 1, (d, d + 1), gf.make_field(q))
    assert table_parts(universe) == TABLE_DIGESTS[d, q]


@pytest.mark.parametrize("chunk", [1, 7])
def test_tables_do_not_depend_on_build_chunk(chunk, f2, monkeypatch):
    # each chunk of entries is spanned on its own, and each chunk of upper
    # entries reads its sigma on its own
    monkeypatch.setattr(kneser, "_BUILD_CHUNK", chunk)
    monkeypatch.setattr(kneser, "_DUAL_CHUNK", chunk)
    assert table_parts(kneser.FlagUniverse(5, (2, 3), f2)) == TABLE_DIGESTS[2, 2]
    assert table_parts(kneser.FlagUniverse(5, (2, 3), gf.make_field(3))) == TABLE_DIGESTS[2, 3]
    if chunk == 7:
        assert table_parts(kneser.FlagUniverse(5, (2, 3), gf.make_field(4))) == TABLE_DIGESTS[2, 4]


@pytest.mark.parametrize("n,J,q", UNIVERSE_TYPES)
def test_upper_table_is_pg_enumeration(n, J, q):
    field = gf.make_field(q)
    universe = kneser.FlagUniverse(n, J, field)
    assert np.array_equal(universe._bases[1], pg.subspace_rows(n, J[1], field))
    # flag i is the i-th flag of enumerate_flags, so its upper basis is that flag's
    uppers = [f.chain[1].rows for f in kneser.enumerate_flags(n, J, field)]
    assert [tuple(map(tuple, b)) for b in universe._bases[1][universe.member_ids(1)].tolist()] == uppers


def test_table_ids_of_refuses_non_canonical_bases(u22):
    field, n = u22.field, u22.n
    entry = u22.entry(1, 5)
    swapped = pg.Subspace(field, n, entry.rows[::-1])
    # the same row space through a basis that is not reduced
    first = tuple(field.add(x, y) for x, y in zip(*entry.rows[:2]))
    unreduced = pg.Subspace(field, n, (first,) + entry.rows[1:])
    garbage = pg.Subspace(field, n, ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (0, 0, 0, 0, 0)))
    assert u22.table_id_of(1, entry) == 5
    assert [u22.table_id_of(1, s) for s in (swapped, unreduced, garbage)] == [None] * 3
    assert u22.table_ids_of(1, [entry, swapped, entry]).tolist() == [5, -1, 5]
    assert u22.table_ids_of(0, []).shape == (0,)
    with pytest.raises(InvalidArgs):
        u22.id_of(kneser.Flag((u22.entry(0, 0), swapped)))


@pytest.mark.parametrize("q", gf.SUPPORTED_ORDERS)
def test_array_field_ops_match_field_spec(q):
    field = gf.make_field(q)
    a = np.arange(q, dtype=np.uint8)
    sums, products = pg._add(field, a[:, None], a[None, :]), pg._mul(field, a[:, None], a[None, :])
    negs = pg._neg(field, a)
    for got in (sums, products, negs):
        assert got.dtype == np.uint8
    assert sums.tolist() == [[field.add(x, y) for y in range(q)] for x in range(q)]
    assert products.tolist() == [[field.mul(x, y) for y in range(q)] for x in range(q)]
    assert negs.tolist() == [field.neg(x) for x in range(q)]


def test_universe_refuses_large_graphs_before_building(f2, monkeypatch):
    def no_tables(*args):
        raise AssertionError("tables built before the flag-count check")

    monkeypatch.setattr(pg, "enumerate_subspaces", no_tables)
    monkeypatch.setattr(pg, "subspace_rows", no_tables)
    with pytest.raises(TooLarge):
        kneser.FlagUniverse(9, (4, 5), f2)
    assert qcalc.flag_count(2, 5) <= kneser.MAX_FLAGS < qcalc.flag_count(2, 7)


def test_flag_cap_is_read_when_called(f2, monkeypatch):
    # (2,2) has 1,085 flags
    monkeypatch.setattr(kneser, "MAX_FLAGS", 1_000)
    with pytest.raises(TooLarge, match="more than 1000 flags"):
        kneser.FlagUniverse(5, (2, 3), f2)
    # an explicit cap is checked instead of MAX_FLAGS
    with pytest.raises(TooLarge, match="more than 500 vertices"):
        kneser.export_dimacs(5, (2, 3), f2, io.StringIO(), cap=500)
    monkeypatch.setattr(kneser, "MAX_FLAGS", 1_085)
    out = io.StringIO()
    assert kneser.export_dimacs(5, (2, 3), f2, out, cap=1_085) == 1_085
    assert out.getvalue().startswith("p edge 1085 ")


def test_neighbors_degree_constant(u22):
    rng = random.Random(2)
    degrees = set()
    for _ in range(100):
        i = rng.randrange(len(u22))
        degrees.add(int(np.count_nonzero(u22.adjacency_row(i))))
    assert len(degrees) == 1
    # f not adjacent to itself; neighbor relation symmetric on samples
    ns = np.flatnonzero(u22.adjacency_row(0))
    assert ns.size == degrees.pop() and 0 not in ns
    for j in ns[:20]:
        assert u22.adjacency_row(int(j))[0]


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


def dual_top_words(universe):
    """Row u holds the mask words of the dual of upper entry u: lower entry sigma(u)."""
    return universe._table_words[0][universe.polarity[0]]


def star_words(universe):
    """Per flag, the mask words of its lower member and of the dual of its
    upper member, side by side: the points that star_plan groups by."""
    lower = universe._table_words[0][universe.member_ids(0)]
    dual_upper = dual_top_words(universe)[universe.member_ids(1)]
    return np.concatenate((lower, dual_upper), axis=1)


def star_pruned(words, i, start):
    """Flags start.. whose lower member shares a point with flag i's, or
    whose upper member lies in a common hyperplane with flag i's (words:
    star_words, transposed to one row per word)."""
    return (words[:, i, None] & words[:, start:]).any(axis=0)


@pytest.mark.parametrize("q", gf.SUPPORTED_ORDERS)
def test_dual_rows_span_the_duals(q):
    field = gf.make_field(q)
    rng = np.random.default_rng(q)
    for n, j in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (5, 4)]:
        rows = pg.subspace_rows(n, j, field)
        rows = rows[rng.choice(len(rows), min(len(rows), 60), replace=False)]
        # dual_index spans and reduces the duals in uint8 arithmetic, in any field
        expected = np.array([pg.dual(pg.rref(basis, n, field)).rows for basis in rows.tolist()], dtype=np.uint8)
        assert expected.shape == (len(rows), n - j, n)
        assert np.array_equal(pg.dual_index(rows, field), pg.subspace_index(expected, q))


@pytest.mark.parametrize("q", [8, 9])
def test_dual_index_matches_dual_on_sampled_bases(q):
    # no universe and no table: random bases, reduced by pg.rref
    field = gf.make_field(q)
    rng = random.Random(q)
    for d in (2, 3):
        n = 2 * d + 1
        for j in (d, d + 1):
            spaces = []
            while len(spaces) < 60:
                s = pg.rref([[rng.randrange(q) for _ in range(n)] for _ in range(j)], n, field)
                if s.rank == j:
                    spaces.append(s)
            rows = np.array([s.rows for s in spaces], dtype=np.uint8)
            duals = np.array([pg.dual(s).rows for s in spaces], dtype=np.uint8)
            assert pg.dual_index(rows, field).tolist() == pg.subspace_index(duals, q).tolist()
            # the polarity is an involution
            assert pg.dual_index(duals, field).tolist() == pg.subspace_index(rows, q).tolist()


@pytest.mark.parametrize("name", ["u22", "u23"])
def test_hyperplane_words_match_dual_points(name, request):
    """The H-star column rule: lower entry t lies in the hyperplane x^perp,
    whose words come from the definition, iff upper entry sigma^-1(t) holds x."""
    universe = request.getfixturevalue(name)
    hyperplanes = [
        kneser.subspace_point_mask(pg.dual(pg.rref([point], universe.n, universe.field)))
        for point in pg.all_points(universe.n, universe.field)
    ]
    lower = [kneser.subspace_point_mask(s) for s in table(universe, 0)]
    upper = [kneser.subspace_point_mask(s) for s in table(universe, 1)]
    inverse = universe.polarity[1].tolist()
    for x, h in enumerate(hyperplanes):
        assert [m & ~h == 0 for m in lower] == [upper[u] >> x & 1 == 1 for u in inverse]


@pytest.mark.parametrize("name", ["u22", "u23"])
def test_dual_top_words_match_duals(name, request):
    universe = request.getfixturevalue(name)
    words = dual_top_words(universe).astype("<u8")
    assert [int.from_bytes(row.tobytes(), "little") for row in words] == [
        kneser.subspace_point_mask(pg.dual(s)) for s in table(universe, 1)
    ]


@pytest.mark.parametrize("name", ["u22", "u23", "u32", "u24", "u25"])
def test_polarity_is_the_dual_of_each_upper_entry(name, request):
    if name in ("u24", "u25"):
        universe = kneser.FlagUniverse(5, (2, 3), gf.make_field(int(name[-1])))
    else:
        universe = request.getfixturevalue(name)
    sigma, inverse = universe.polarity
    assert sigma.dtype == inverse.dtype == np.int32
    assert np.array_equal(np.sort(sigma), np.arange(sigma.size)) and sigma.size == len(universe._bases[1])
    assert np.array_equal(inverse[sigma], np.arange(sigma.size))
    upper = range(sigma.size) if name in ("u22", "u23", "u32") else random.Random(7).sample(range(sigma.size), 300)
    for u in upper:
        expected = list(pg.subspace_point_ids(pg.dual(universe.entry(1, u))))
        assert universe._lower_points[sigma[u]].tolist() == expected


@pytest.mark.parametrize("d,q", [(2, 3), (3, 2)])
def test_flag_polarity_maps_cover_classes_to_dual_classes(d, q, request):
    # (pi, tau) -> (tau^perp, pi^perp) is (sigma(u), sigma^-1(t)) in table ids
    universe = request.getfixturevalue(f"u{d}{q}")
    sigma, inverse = universe.polarity
    cert = cover.build_cover(d, q)
    for desc, dual in zip(cert.classes, cover.dualize_cover(cert).classes, strict=True):
        ids = np.sort(np.concatenate(indsets.descriptor_masks(desc, universe)))
        lower, upper = sigma[universe.member_ids(1, ids)], inverse[universe.member_ids(0, ids)]
        per_lower = len(universe) // len(sigma)
        block = universe.member_ids(1, lower[:, None] * per_lower + np.arange(per_lower))
        mapped = lower * per_lower + np.argmax(block == upper[:, None], axis=1)
        assert (block == upper[:, None]).any(axis=1).all()
        expected = np.sort(np.concatenate(indsets.descriptor_masks(dual, universe)))
        assert np.array_equal(np.sort(mapped), expected), desc.variant


def test_star_rule_sound_against_definition(u22):
    pruned = 0
    words = np.ascontiguousarray(star_words(u22).T)
    for i in range(len(u22) - 1):
        for j in np.nonzero(star_pruned(words, i, i + 1))[0] + i + 1:
            assert not kneser.general_position(u22.flag_of(i), u22.flag_of(int(j)))
            pruned += 1
    assert pruned > 0


def test_star_rule_sound_against_adjacency_rows(u23):
    pruned = 0
    words = np.ascontiguousarray(star_words(u23).T)
    for i in range(len(u23) - 1):
        rule = star_pruned(words, i, i + 1)
        assert not (rule & u23.adjacency_row(i, i + 1)).any()
        pruned += int(np.count_nonzero(rule))
    assert pruned > 0


def column_rule_rows(universe):
    """(a, pruned) for every flag a: the flags that a star at any of a's star
    points prunes as columns of the row a, by the column rule of star_plan."""
    everyone = np.arange(len(universe))
    words = star_words(universe).astype("<u8").view(np.uint8)
    incidence = np.unpackbits(words, axis=-1, bitorder="little").astype(bool)
    points = np.flatnonzero(incidence.any(axis=0))
    pruned = np.array([~universe._star_columns(int(p), everyone) for p in points])
    for a in range(len(universe)):
        yield a, pruned[incidence[a, points]].any(axis=0)


def test_column_rule_sound_against_definition(u22):
    flags = list(u22)
    pairs = set()
    for a, rule in column_rule_rows(u22):
        pairs.update((min(a, b), max(a, b)) for b in np.flatnonzero(rule).tolist() if b != a)
    assert pairs
    for a, b in pairs:
        assert not kneser.general_position(flags[a], flags[b])


def test_column_rule_sound_against_adjacency_rows(u23):
    pruned = 0
    for a, rule in column_rule_rows(u23):
        assert not (rule & u23.adjacency_row(a)).any()
        pruned += int(np.count_nonzero(rule))
    assert pruned > 0


def surviving_extras(universe, members, candidates):
    """Flags of candidates that, added to members, some star group still tests."""
    out = []
    for x in candidates:
        plan = universe.star_plan(members + [x])
        pos = int(np.flatnonzero(plan.order == len(members))[0])
        grouped = sum(plan.group_sizes)
        if any(pos in cols for r0, _r1, cols in plan.blocks if r0 < grouped):
            out.append(x)
    return out


@pytest.mark.parametrize("name", ["u22", "u23"])
def test_star_scan_matches_reference(name, request):
    universe = request.getfixturevalue(name)
    cert = cover.build_cover(2, universe.field.q)
    classes = [
        np.sort(np.concatenate(indsets.descriptor_masks(c, universe))).tolist()
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
    # an extra flag that the column filter keeps is tested against a group
    for members in classes[:4]:
        extras = surviving_extras(universe, members, rng.sample(range(len(universe)), 40))[:3]
        assert extras
        for x in extras:
            invalid = members + [x]
            cases.append(invalid)
            cases.append(rng.sample(invalid, len(invalid)))
    witnesses = [reference_pair_scan(universe, ids) for ids in cases]
    assert any(w is None for w in witnesses) and any(w is not None for w in witnesses)
    for ids, expected in zip(cases, witnesses):
        for threads in (1, 4):
            assert universe.check_pairwise_independent(ids, threads=threads) == expected


@pytest.mark.parametrize("tiles", [(64, 2048), (7, 11)])
def test_tiled_scan_blocks_match_reference(u22, tiles, monkeypatch):
    """A block (r0, r1, cols) reports the smallest adjacent caller pair among
    its rows r against its columns c > r; so does the block cut down to its
    rows from r on, whose first pairs are row r's."""
    monkeypatch.setattr(kneser, "_TILE_ROWS", tiles[0])
    monkeypatch.setattr(kneser, "_TILE_COLS", tiles[1])
    adjacency = np.array([u22.adjacency_row(i) for i in range(len(u22))])
    rng = random.Random(23)
    desc = cover.build_cover(2, 2).classes[0]
    members = np.sort(np.concatenate(indsets.descriptor_masks(desc, u22))).tolist()
    cases = []
    for ids in (rng.sample(range(len(u22)), 300), members + rng.sample(range(len(u22)), 40)):
        plan = u22.star_plan(ids)
        cases.append((np.array(ids)[plan.order], plan.order, plan.blocks))
    # plan positions in caller order: a triangle, and columns that overlap the rows
    ids = np.array(rng.sample(range(len(u22)), 120))
    order = np.arange(ids.size)
    overlap = np.array(sorted(rng.sample(range(ids.size), 50)))
    cases.append((ids, order, [(0, 119, np.arange(1, 120)), (20, 90, overlap)]))
    adjacent_blocks = 0
    for placed, order, blocks in cases:
        sub = u22._gather(placed)
        order_list = order.tolist()
        for r0, r1, cols in blocks:
            pairs = [
                (r, (min(order_list[r], order_list[c]), max(order_list[r], order_list[c])))
                for r in range(r0, r1)
                for c in cols.tolist()
                if c > r and adjacency[placed[r], placed[c]]
            ]
            adjacent_blocks += bool(pairs)
            for start in range(r0, r1):
                expected = min((p for r, p in pairs if r >= start), default=None)
                assert u22._tiled_pair_scan(sub, order, (start, r1, cols)) == expected
    assert adjacent_blocks >= 2


def reference_star_plan(universe, ids):
    """(order, group_sizes, blocks, pair_tests) of star_plan, computed on an
    unpacked incidence matrix: one row per flag of the points of its pi and
    of its tau^perp, with the columns of each group read off whole tables."""
    ids = np.asarray(ids, dtype=np.int64)
    m = int(ids.size)
    free = np.ones(m, dtype=bool)
    groups, points = [], []
    if m > 1:
        lower = universe._table_words[0][universe.member_ids(0)[ids]]
        dual_upper = dual_top_words(universe)[universe.member_ids(1)[ids]]
        words = np.concatenate((lower, dual_upper), axis=1)
        incidence = np.unpackbits(words.astype("<u8").view(np.uint8), axis=-1, bitorder="little")
        counts = incidence.sum(axis=0, dtype=np.int32)
        while True:
            point = int(np.argmax(counts))
            if counts[point] < 2:
                break
            members = np.nonzero(free & (incidence[:, point] != 0))[0]
            groups.append(members)
            points.append(point)
            free[members] = False
            counts = incidence[free].sum(axis=0, dtype=np.int32)
    order = np.concatenate(groups + [np.nonzero(free)[0]])
    width = universe.n_words * 64
    lo_words, hi_words = universe._table_words
    blocks, pair_tests, start = [], 0, 0
    for g, point in zip(groups, points):
        stop = start + g.size
        later = ids[order[stop:]]
        if point < width:
            tau_misses = (hi_words[:, point // 64] >> np.uint64(point % 64)) & np.uint64(1) == 0
            keep = tau_misses[universe.member_ids(1)[later]]
        else:
            # H is the dual of the star's point; its mask comes from the definition
            x = pg.all_points(universe.n, universe.field)[point - width]
            in_h = kneser.subspace_point_mask(pg.dual(pg.rref([x], universe.n, universe.field)))
            outside = ~np.frombuffer(in_h.to_bytes(universe.n_words * 8, "little"), dtype="<u8")
            keep = (lo_words & outside).any(axis=1)[universe.member_ids(0)[later]]
        cols = stop + np.flatnonzero(keep)
        pair_tests += g.size * cols.size
        if cols.size:
            step = max(1, kneser._BLOCK_PAIRS // cols.size)
            blocks += [(r, min(r + step, stop), cols.tolist()) for r in range(start, stop, step)]
        start = stop
    pair_tests += comb(m - start, 2)
    r = start
    while r < m - 1:
        step = max(1, kneser._BLOCK_PAIRS // (m - 1 - r))
        blocks.append((r, min(r + step, m - 1), list(range(r + 1, m))))
        r += step
    return order.tolist(), tuple(g.size for g in groups), blocks, pair_tests


def assert_plan_matches_reference(universe, ids):
    plan = universe.star_plan(ids)
    got = (plan.order.tolist(), plan.group_sizes, [(r0, r1, c.tolist()) for r0, r1, c in plan.blocks],
           plan.pair_tests)
    assert got == reference_star_plan(universe, ids)
    return plan


@pytest.mark.parametrize("q", [3, 4])
def test_star_plan_matches_reference_on_pinned_classes(q, u23):
    universe = u23 if q == 3 else kneser.FlagUniverse(5, (2, 3), gf.make_field(q))
    cert = cover.build_cover(2, q)
    grouped = 0
    for c in cert.classes + cover.dualize_cover(cert).classes:
        ids = np.sort(np.concatenate(indsets.descriptor_masks(c, universe)))
        grouped += len(assert_plan_matches_reference(universe, ids).group_sizes)
    assert grouped >= 2 * len(cert.classes)


@pytest.mark.parametrize("name", ["u23", "u32"])
def test_star_plan_matches_reference_on_random_ids(name, request, monkeypatch):
    universe = request.getfixturevalue(name)
    rng = random.Random(29)
    # a few flags can leave two that share a point after the first group; a
    # small chunk counts the star points of a list over many chunks
    for chunk in (kneser._MEMBER_CHUNK, 7):
        monkeypatch.setattr(kneser, "_MEMBER_CHUNK", chunk)
        for size in (0, 1, 2, 50, 400, 3000) + (4, 5, 6) * 10:
            ids = rng.sample(range(len(universe)), size)
            assert_plan_matches_reference(universe, ids)
            assert_plan_matches_reference(universe, sorted(ids))


def traced_peak_and_kept(fn):
    """(peak, kept): the bytes traced while fn runs, at most and after it returns."""
    tracemalloc.start()
    try:
        kept = fn()
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return peak, size


def test_star_plan_and_universe_allocation_bounds(u32):
    # a star plan gathers no (m x 2 theta) star-point matrix: 2.83 MiB before,
    # 0.62 MiB after; a build keeps no lower id per flag: 3.93 -> 2.58 MiB, and
    # no upper point ids: 2.58 -> 1.91 MiB
    cert = cover.build_cover(3, 2)
    for desc in (cert.classes[0], cover.dualize_cover(cert).classes[0]):
        ids = np.sort(np.concatenate(indsets.descriptor_masks(desc, u32)))
        u32.star_plan(ids)  # builds the lazy tables it reads
        peak, _ = traced_peak_and_kept(lambda: u32.star_plan(ids))
        assert peak < 1.5 * 2**20, desc.variant
    # u32 has filled the caches of pg that a build reads
    _, kept = traced_peak_and_kept(lambda: kneser.FlagUniverse(7, (3, 4), u32.field))
    assert kept < 2.25 * 2**20


def test_descriptor_masks_allocation_bound(u32):
    # a class's parts are id arrays read off per-entry predicates: with a
    # boolean mask over all flags per part, this traced 693 KiB
    cert = cover.build_cover(3, 2)
    for desc in (cert.classes[0], cover.dualize_cover(cert).classes[0]):
        indsets.descriptor_masks(desc, u32)  # builds the lazy tables it reads
        peak, _ = traced_peak_and_kept(lambda: indsets.descriptor_masks(desc, u32))
        assert peak < 400 * 2**10, desc.variant


@pytest.mark.parametrize("name", ["u22", "u23", "u32", "u13"])
def test_flags_with_matches_definition(name, request):
    # u13 is d = 1 over GF(3): 13 points with 4 lines each, 4 points per line
    if name == "u13":
        universe = kneser.FlagUniverse(3, (1, 2), gf.make_field(3))
    else:
        universe = request.getfixturevalue(name)
    rng = random.Random(31)
    for pos in range(2):
        entries = len(universe._bases[pos])
        cases = [[], list(range(entries)), rng.sample(range(entries), 1), rng.sample(range(entries), entries // 3)]
        for tids in cases:
            got = universe.flags_with(pos, tids)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.flatnonzero(np.isin(universe.member_ids(pos), tids)))
    index = universe._upper_flags
    assert index.dtype == np.int32
    assert np.array_equal(np.sort(index.ravel()), np.arange(len(universe)))


def test_star_plan_counts_every_pair(u22):
    rng = random.Random(5)
    for size in (0, 1, 2, 40, 500):
        ids = rng.sample(range(len(u22)), size)
        plan = u22.star_plan(ids)
        assert sorted(plan.order.tolist()) == list(range(size))
        assert plan.pair_tests + plan.pairs_pruned == size * (size - 1) // 2
        # a block pairs each of its rows with the positions of cols after it
        tested = [
            (r, c) for r0, r1, cols in plan.blocks for r in range(r0, r1) for c in cols.tolist() if c > r
        ]
        assert len(tested) == len(set(tested)) == plan.pair_tests
        # every untested pair has its row in a group, and a point shared by
        # that group proves it non-adjacent: a point of every pi in the
        # column's tau, or the dual point of a hyperplane holding every tau
        # and the column's pi
        flags = [u22.flag_of(ids[k]) for k in plan.order.tolist()]
        tested = set(tested)
        start = 0
        for g in plan.group_sizes:
            group = flags[start : start + g]
            shared_lo = reduce(operator.and_, (kneser.subspace_point_mask(f.chain[0]) for f in group))
            shared_dual = reduce(
                operator.and_, (kneser.subspace_point_mask(pg.dual(f.chain[1])) for f in group)
            )
            assert shared_lo or shared_dual
            for c in range(start, size):
                tau, pi_dual = flags[c].chain[1], pg.dual(flags[c].chain[0])
                proved = shared_lo & kneser.subspace_point_mask(tau) or (
                    shared_dual & kneser.subspace_point_mask(pi_dual)
                )
                for r in range(start, min(start + g, c)):
                    assert (r, c) in tested or proved
            start += g
        assert all((r, c) in tested for r in range(start, size) for c in range(r + 1, size))


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
    with open(out, "w") as fh:
        kneser.export_dimacs(5, (2, 3), f2, fh)
    lines = out.read_text().splitlines()
    header = lines[0].split()
    assert header[:2] == ["p", "edge"]
    assert int(header[2]) == 1085
    degree = int(np.count_nonzero(u22.adjacency_row(0)))
    assert int(header[3]) == 1085 * degree // 2
    assert len(lines) - 1 == int(header[3])


def test_export_dimacs_guards(f2):
    with pytest.raises(TooLarge):
        kneser.export_dimacs(5, (2, 3), f2, io.StringIO(), cap=100)
    with pytest.raises(InvalidType):
        kneser.export_dimacs(2, (1,), f2, io.StringIO())
    # the vertex count is returned; no universe is built for a type other
    # than {d, d+1} in rank 2d+1
    assert kneser.export_dimacs(4, (1, 2), f2, io.StringIO()) == 105


@pytest.mark.parametrize(
    "n,J,q,edges",
    [(5, (2, 3), 2, 138_880), (3, (1, 2), 2, 84), (3, (1,), 2, 21), (5, (1, 3), 2, 312_480), (4, (1, 2), 3, 84_240)],
    ids=param_id,
)
def test_edge_count_is_closed_form(n, J, q, edges):
    # the graph is regular, so the header's N * |row(0)| / 2 edges are the rows' sum
    field = gf.make_field(q)
    if has_universe(n, J):
        universe = kneser.FlagUniverse(n, J, field)
        size, row = len(universe), universe.adjacency_row
    else:
        size, row = kneser._general_position_rows(n, J, field)
    assert sum(int(np.count_nonzero(row(i, i + 1))) for i in range(size - 1)) == edges
    buf = io.StringIO()
    assert kneser.export_dimacs(n, J, field, buf) == size
    assert buf.getvalue().startswith(f"p edge {size} {edges}\n")


# sha256 of the DIMACS text of export_dimacs: the {d, d+1} graph in rank 2d+1
# and the other types, which take a path of their own
DIMACS_DIGESTS = {
    (5, (2, 3), 2): "e09aa583271f90d280c69c6d89f085b32623741c4b473131c35168936cd16a8d",
    (3, (1,), 2): "d217999b620a330d2c10116edef62b1de12f54a43fd1358757377157e8f18a07",
    (3, (1, 2), 2): "b3e345c4223dd26b8cf388ce82395b7f415be19bf2baf3bd40d22987ce48bc97",
    (4, (1, 3), 2): "a07b61f302a115329793cf8501e19fc46bcaa3c30fcd9f082f940dcb94908cb2",
    (5, (1, 3), 2): "d0532e05ed49e2b4f3eef5a232fa692c350c39b472d15d06c563f8ba0a2b06d7",
    (4, (1, 2), 3): "2c1a59f401915aad09fa80a2b517fe69ac3c2ce2fbb74f8d4f8eeace9fcf8c48",
    (6, (2,), 2): "f0bb32a5f82f1c31216729f12a4a5b9910013382c377465d9508b9c7e20e3dcb",
    (5, (1,), 3): "151880d6bd394d090c1411b830a1321b2739d380e79fd0bd6bd01d4d96f3f64c",
}


@pytest.mark.parametrize("n,J,q", sorted(DIMACS_DIGESTS), ids=param_id)
def test_export_dimacs_matches_golden_digest(n, J, q):
    buf = io.StringIO()
    kneser.export_dimacs(n, J, gf.make_field(q), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DIMACS_DIGESTS[n, J, q]


def test_dual_flag(u22):
    f = u22.flag_of(11)
    df = dual_flag(f)
    assert df.types == (2, 3)
    assert pg.contains(df.chain[1], df.chain[0])
    assert dual_flag(df) == f


def test_flag_count_matches_closed_form(u22, u23):
    assert len(u22) == qcalc.flag_count(2, 2)
    assert len(u23) == qcalc.flag_count(2, 3)


def test_popcount_helper(monkeypatch):
    arr = np.array([0, 1, 3, 2**63, 2**64 - 1], dtype=np.uint64)
    assert list(kneser._popcount(arr)) == [0, 1, 2, 1, 64]
    if hasattr(np, "bitwise_count"):  # the fallback of numpy before 2.0
        monkeypatch.delattr(np, "bitwise_count")
        assert list(kneser._popcount(arr.reshape(5, 1))) == [[0], [1], [2], [1], [64]]


def dense_entries_through_points(universe):
    """entries_through_points from one dense (points x entries) incidence per table."""
    rows = []
    for ids in (universe._lower_points, np.array(word_point_ids(universe._table_words[1]))):
        through = np.zeros((universe.num_points, len(ids)), dtype=bool)
        through[ids, np.arange(len(ids))[:, None]] = True
        rows.append(np.packbits(through, axis=1, bitorder="little"))
    return rows


@pytest.mark.parametrize("name,chunk", [("u22", None), ("u23", None), ("u32", None), ("u22", 13), ("u23", 1)])
def test_entries_through_points_match_dense_construction(name, chunk, request, monkeypatch):
    # the rows are packed a chunk of entries at a time; a chunk that is not a
    # whole number of bytes is rounded up to one
    universe = request.getfixturevalue(name)
    if chunk is not None:
        monkeypatch.setattr(kneser, "_BUILD_CHUNK", chunk)
        universe = kneser.FlagUniverse(universe.n, universe.types, universe.field)
    for got, expected in zip(universe.entries_through_points(), dense_entries_through_points(universe), strict=True):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()


def test_entries_through_points_match_point_masks(u22):
    for pos, rows in enumerate(u22.entries_through_points()):
        masks = [kneser.subspace_point_mask(s) for s in table(u22, pos)]
        through = np.unpackbits(rows, axis=1, count=len(masks), bitorder="little")
        expected = [[(m >> p) & 1 for m in masks] for p in range(u22.num_points)]
        assert through.tolist() == expected


def member_rows_reference(universe, members):
    """Bit k of lower[t] (upper[u]): entry t (u) misses the opposite member of members[k]."""
    lo_words, hi_words = universe._table_words
    lo_tids, hi_tids = universe.member_ids(0), universe.member_ids(1)
    lower = ~(lo_words[:, None, :] & hi_words[hi_tids[members]][None]).any(axis=2)
    upper = ~(hi_words[:, None, :] & lo_words[lo_tids[members]][None]).any(axis=2)
    return lower, upper


def member_rows(bits):
    return [
        np.unpackbits(rows.astype("<u8").view(np.uint8), axis=1, bitorder="little")[:, : bits.size] != 0
        for rows in (bits.lower, bits.upper)
    ]


@pytest.mark.parametrize("chunk", [kneser._MEMBER_CHUNK, 5])
def test_member_bits_blocked_matches_adjacency(u22, u23, chunk, monkeypatch):
    monkeypatch.setattr(kneser, "_MEMBER_CHUNK", chunk)
    rng = random.Random(8)
    # the batches start and end inside a 64-bit word, on a boundary, and
    # run across one or two boundaries; later batches repeat table entries,
    # which share rows
    for universe, sizes in product((u22, u23), ((3, 70, 1, 130), (1, 63, 64, 65, 130))):
        everyone = np.arange(len(universe))
        bits = universe.member_bits()
        members = []
        adjacent = np.zeros(len(universe), dtype=bool)
        # blocked() with no ids repeats each lower row over the next K flags
        assert np.array_equal(universe.member_ids(0), everyone // (len(universe) // bits.lower.shape[0]))
        assert not bits.blocked(everyone).any() and not bits.blocked().any()
        for k in sizes:
            batch = rng.sample(range(len(universe)), k)
            bits.add(batch)
            members += batch
            for m in batch:
                adjacent |= universe.adjacency_row(m)
            assert bits.size == len(members)
            assert bits.blocked(everyone).tolist() == adjacent.tolist()
            # with no ids, every flag is tested
            assert bits.blocked().tolist() == adjacent.tolist()
            # each member's bit sits at its own position in both tables
            for got, expected in zip(member_rows(bits), member_rows_reference(universe, members)):
                assert np.array_equal(got, expected)
        assert universe.member_bits(members).blocked(everyone).tolist() == adjacent.tolist()


def test_member_bits_need_kneser_type(f2):
    with pytest.raises(InvalidType):
        kneser.FlagUniverse(4, (1, 2), f2).member_bits()


@pytest.mark.parametrize("n,J", [(4, (1, 2)), (6, (2, 3)), (3, (1,)), (5, (1, 3))], ids=param_id)
def test_universe_needs_kneser_type(n, J, f2, monkeypatch):
    # member bits, the polarity, the pair scan and the maximality scan exist
    # for type {d, d+1} in rank 2d+1 only; any other type is refused before
    # the flag count is checked or a table is built
    def not_yet(*args):
        raise AssertionError("the type was not refused first")

    for module, attr in [(kneser, "check_cap"), (pg, "subspace_rows"), (pg, "all_points")]:
        monkeypatch.setattr(module, attr, not_yet)
    with pytest.raises(InvalidType, match="rank 2d\\+1"):
        kneser.FlagUniverse(n, J, f2)


@pytest.mark.parametrize("n,J", [(4, (1, 2)), (5, (1, 2)), (4, (1, 3))])
def test_general_type_rows_and_pair_scan_match_definition(f2, n, J):
    # the rows of export_dimacs for types without a universe, and the edges
    # it writes, which scan every pair
    flags = list(kneser.enumerate_flags(n, J, f2))
    size, row = kneser._general_position_rows(n, J, f2)
    assert size == len(flags)
    oracle = np.zeros((size, size), dtype=bool)
    for i in range(size):
        for j in range(i + 1, size):
            oracle[i, j] = oracle[j, i] = kneser.general_position(flags[i], flags[j])
    for i in range(size):
        assert np.array_equal(row(i, 0), oracle[i])
        assert np.array_equal(row(i, i + 1), oracle[i, i + 1 :])
    buf = io.StringIO()
    kneser.export_dimacs(n, J, f2, buf)
    header, *lines = buf.getvalue().splitlines()
    pairs = [tuple(int(v) - 1 for v in line.split()[1:]) for line in lines]
    assert header == f"p edge {size} {len(pairs)}"
    assert pairs == [tuple(p) for p in np.argwhere(np.triu(oracle)).tolist()]
    assert 0 < len(pairs) < size * (size - 1) // 2


def arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from arrays_in(item)


def test_member_ids_are_the_only_per_flag_arrays(u23):
    # build every lazy cache first; a lower id is i // K, so only the upper ids
    # and their inverse, the upper-to-flags index of flags_with, are stored
    u23.polarity, u23.entries_through_points(), u23.flags_with(1, [0])
    u23.star_plan(range(0, len(u23), 7))
    assert u23.member_ids(1).shape == (len(u23),) and u23.member_ids(1).dtype == np.int32
    assert u23.member_ids(1).base is u23._upper  # a view, not a copy
    assert u23._upper_flags.size == len(u23) and u23._upper_flags.dtype == np.int32
    for name, value in vars(u23).items():
        if name in ("_upper", "_upper_flags"):
            continue
        for array in arrays_in(value):
            assert array.shape[0] != len(u23), name
        if isinstance(value, list):
            assert len(value) != len(u23) and all(len(item) != len(u23) for item in value), name
