import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache, partial, wraps
from pathlib import Path

import numpy as np
import pytest

from qkneser import cli, cover, explore, gf, indsets, kneser, pg, qcalc
from qkneser.errors import InvalidArgs, NotIndependent, TooLarge

from conftest import unit_rows


@pytest.fixture(scope="module")
def u24():
    return kneser.FlagUniverse(5, (2, 3), gf.make_field(4))


@lru_cache(maxsize=None)
def _flag_int_masks(universe, pos):
    table = [int.from_bytes(row.tobytes(), "little") for row in universe._table_words[pos].astype("<u8")]
    return [table[t] for t in universe.member_ids(pos).tolist()]


def reference_greedy(seed_ids, order, universe):
    """The one-flag-at-a-time greedy: each candidate in order against every member."""
    lo, hi = _flag_int_masks(universe, 0), _flag_int_masks(universe, 1)
    current = sorted(set(int(i) for i in seed_ids))
    in_set = set(current)
    for cand in order:
        if cand in in_set:
            continue
        cl, ch = lo[cand], hi[cand]
        for m in current:
            if (cl & hi[m]) == 0 and (ch & lo[m]) == 0:
                break
        else:
            current.append(cand)
            in_set.add(cand)
    return sorted(current)


def kernel_and_reference(seed_ids, rng, universe):
    """The kernel's completion and the reference's on the order the kernel draws."""
    state = rng.getstate()
    keys = np.frombuffer(rng.randbytes(8 * len(universe)), dtype="<u8")
    order = explore._key_order(keys).tolist()
    rng.setstate(state)
    return explore._greedy_complete_ids(seed_ids, rng, universe), reference_greedy(seed_ids, order, universe)


def pencil_ids(universe, field):
    p = pg.rref([unit_rows(5)[0]], 5, field)
    return [universe.id_of(f) for f in indsets.build(indsets.point_pencil(p)).all]


def test_greedy_complete_empty_seed_is_maximal(u22):
    result = explore._greedy_complete_ids([], random.Random(3), u22)
    assert indsets.is_independent(result, u22)
    assert indsets.is_maximal(result, u22)


def test_greedy_complete_contains_seed(f2, u22):
    pencil = pencil_ids(u22, f2)
    completed = explore._greedy_complete_ids(pencil, random.Random(0), u22)
    assert set(pencil) <= set(completed)
    assert indsets.is_maximal(completed, u22)


def test_greedy_complete_fixed_point_on_maximal_set(f2, u22):
    e = unit_rows(5)
    p = pg.rref([e[0]], 5, f2)
    ell = pg.rref([e[0], e[1]], 5, f2)
    full = np.sort(np.concatenate(indsets.descriptor_masks(indsets.point_line(p, ell), u22))).tolist()
    assert explore._greedy_complete_ids(full, random.Random(5), u22) == full


def test_greedy_complete_rejects_dependent_seed(u22):
    neighbor = int(np.flatnonzero(u22.adjacency_row(0))[0])
    with pytest.raises(NotIndependent):
        explore._greedy_complete_ids([0, neighbor], random.Random(0), u22)


def test_greedy_complete_deterministic(u22):
    a = explore._greedy_complete_ids([], random.Random(42), u22)
    b = explore._greedy_complete_ids([], random.Random(42), u22)
    assert a == b
    c = explore._greedy_complete_ids([], random.Random(43), u22)
    assert isinstance(c, list)


@pytest.fixture
def two_cpus_counting_forks(monkeypatch):
    """Two usable CPUs, so the fork path runs on any runner; counts real forks."""
    forks, real_fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def test_probe_reproducible_and_consistent(u22, u23, two_cpus_counting_forks, monkeypatch):
    for universe, q, samples in ((u22, 2, 40), (u23, 3, 6)):
        probe = partial(explore.conjecture_probe, 2, q, samples, master_seed=11, rho_candidate=5, universe=universe)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        forks = len(two_cpus_counting_forks)
        a, b = probe(), probe()
        assert len(two_cpus_counting_forks) == forks
        assert a.to_json() == b.to_json()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forked = probe()
        assert len(two_cpus_counting_forks) == forks + 1
        assert forked.to_json() == a.to_json()
        # the unstructured sets are listed in sample order
        seeds = [seed for _, seed in a.unstructured_large]
        assert seeds == sorted(seeds)
        assert a.samples == samples
        buckets = (
            a.with_point_pencil + a.with_dual_point_pencil + a.trichotomy_small
            + len(a.unstructured_large)
        )
        assert buckets == a.samples
        assert sum(a.size_histogram.values()) == a.samples
        assert a.threshold == 5 * q**4
    assert len(two_cpus_counting_forks) == 2


def test_probe_runs_wrapped_steps_in_the_caller(u22, two_cpus_counting_forks, monkeypatch):
    # a tracer wraps the sample steps; its records must cover every sample
    calls, real = [], explore._greedy_complete_ids

    @wraps(real)
    def counted(*args):
        calls.append(1)
        return real(*args)

    forked = explore.conjecture_probe(2, 2, 10, master_seed=3, universe=u22)
    assert two_cpus_counting_forks == [1]
    monkeypatch.setattr(explore, "_greedy_complete_ids", counted)
    assert explore.conjecture_probe(2, 2, 10, master_seed=3, universe=u22) == forked
    assert len(calls) == 10 and two_cpus_counting_forks == [1]


# which samples fail, and a slow one that a failed run must not wait for
@pytest.mark.parametrize("fails, slow", [
    pytest.param(lambda i: i >= 20, lambda i: False, id="in-child"),
    pytest.param(lambda i: i < 20, lambda i: i == 20, id="in-parent"),
])
def test_probe_sample_failure_exits_1_and_reaps_children(fails, slow, u22, capsys, two_cpus_counting_forks, monkeypatch):
    master_seed, n = 5, len(u22)
    # sample i's rng state after its seed flag, as _greedy_complete_ids receives it
    sample_of = {}
    for i in range(40):
        rng = random.Random(master_seed * 1_000_003 + i)
        rng.randrange(n)
        sample_of[rng.getstate()] = i
    real = explore._greedy_complete_ids

    def failing(seed_ids, rng, universe):
        i = sample_of[rng.getstate()]
        if slow(i):
            time.sleep(60)
        if fails(i):
            raise NotIndependent("sample refused")
        return real(seed_ids, rng, universe)

    monkeypatch.setattr(explore, "_greedy_complete_ids", failing)
    start = time.monotonic()
    code = cli.main(["explore", "--d", "2", "--q", "2", "--samples", "40", "--seed", str(master_seed)])
    # a failed run stops its children: it does not wait out the slow sample
    assert time.monotonic() - start < 30
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.strip() == "qkneser: error: sample refused"
    assert two_cpus_counting_forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_probe_maximality_spot_check(u22):
    import random

    samples = 100
    stats = explore.conjecture_probe(2, 2, samples, master_seed=2, universe=u22)
    # re-derive each sampled set and confirm independence and maximality
    for i in range(samples):
        rng = random.Random(2 * 1_000_003 + i)
        seed_flag = rng.randrange(len(u22))
        ids = explore._greedy_complete_ids([seed_flag], rng, u22)
        assert indsets.is_independent(ids, u22)
        assert indsets.is_maximal(ids, u22)
        assert len(ids) in stats.size_histogram


def test_probe_with_pencil_seed_reports_pencil(f2, u22):
    # a sample seeded with a full pencil must land in the pencil bucket;
    # emulate by checking the classifier helpers directly on a completion
    completed = explore._greedy_complete_ids(pencil_ids(u22, f2), random.Random(1), u22)
    assert indsets.pencil_base_candidates(completed, u22)


def test_probe_histogram_sizes_within_e0(u22):
    stats = explore.conjecture_probe(2, 2, 30, master_seed=9, universe=u22)
    e0 = qcalc.size_constants(2, 2, 5).e0
    # raw observation, not a general claim: every greedy
    # completion at (2,2) stayed within e0 in this seeded run
    assert max(stats.size_histogram) <= e0


def test_probe_runs_at_q3(u23):
    stats = explore.conjecture_probe(2, 3, 5, master_seed=1, universe=u23)
    assert sum(stats.size_histogram.values()) == 5
    buckets = (
        stats.with_point_pencil + stats.with_dual_point_pencil
        + stats.trichotomy_small + len(stats.unstructured_large)
    )
    assert buckets == 5


def test_greedy_color_proper_and_bounded(u22):
    result = explore.greedy_color(2, 2, universe=u22)
    assert result.num_colors >= 9  # the fractional bracket lower bound
    assert len(result.colors) == len(u22)
    by_color = {}
    for i, c in enumerate(result.colors):
        by_color.setdefault(c, []).append(i)
    for c, ids in by_color.items():
        assert u22.check_pairwise_independent(ids) is None
    again = explore.greedy_color(2, 2, universe=u22)
    assert again.colors == result.colors


def test_greedy_color_degree_random_order(u22):
    a = explore.greedy_color(2, 2, order="degree-random", seed=4, universe=u22)
    b = explore.greedy_color(2, 2, order="degree-random", seed=4, universe=u22)
    assert a.colors == b.colors
    assert a.num_colors >= 9


@pytest.mark.parametrize("name", ["u22", "u23"])
def test_graph_is_regular(name, request):
    # greedy_color's degree-random order is the jitter order because of this
    universe = request.getfixturevalue(name)
    degrees = {int(np.count_nonzero(universe.adjacency_row(i))) for i in range(len(universe))}
    assert len(degrees) == 1


def test_greedy_color_cap(u22):
    with pytest.raises(TooLarge):
        explore.greedy_color(2, 2, universe=u22, cap=10)


def reference_coloring(universe, order, seed):
    """The one-flag-at-a-time greedy coloring on adjacency_row: each vertex
    takes the smallest color none of its colored neighbors has."""
    n = len(universe)
    if order == "enumeration":
        sequence = list(range(n))
    else:
        rng = random.Random(seed)
        jitter = [rng.random() for _ in range(n)]
        degrees = [int(np.count_nonzero(universe.adjacency_row(i))) for i in range(n)]
        sequence = sorted(range(n), key=lambda i: (-degrees[i], jitter[i]))
    colors = [-1] * n
    for v in sequence:
        row = universe.adjacency_row(v)
        used = {colors[int(j)] for j in np.nonzero(row)[0] if colors[int(j)] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


@pytest.mark.parametrize("order", ["enumeration", "degree-random"])
@pytest.mark.parametrize("seed", [0, 4, 17])
def test_greedy_color_matches_adjacency_row_reference(u22, order, seed):
    result = explore.greedy_color(2, 2, order=order, seed=seed, universe=u22)
    expected = reference_coloring(u22, order, seed)
    assert result.colors == expected
    assert result.num_colors == max(expected) + 1


@pytest.mark.parametrize("name,orders", [("u22", 50), ("u23", 10), ("u24", 2)])
def test_greedy_kernel_matches_reference(name, orders, request):
    universe = request.getfixturevalue(name)
    for s in range(orders):
        # seeded like conjecture_probe: one random flag, then the order
        rng = random.Random(1_000_003 + s)
        seed = [rng.randrange(len(universe))]
        got, expected = kernel_and_reference(seed, rng, universe)
        assert got == expected, s


@pytest.mark.parametrize("name,q", [("u22", 2), ("u23", 3)])
def test_greedy_kernel_matches_reference_from_pencil_and_empty_seed(name, q, request):
    universe = request.getfixturevalue(name)
    pencil = pencil_ids(universe, gf.make_field(q))
    for s in range(3):
        got, expected = kernel_and_reference(pencil, random.Random(s), universe)
        assert got == expected
        assert set(pencil) <= set(got)
        got, expected = kernel_and_reference([], random.Random(s), universe)
        assert got == expected


@pytest.mark.parametrize("name,q", [("u22", 2), ("u23", 3)])
def test_greedy_kernel_fixed_point_on_point_line_class(name, q, request):
    universe = request.getfixturevalue(name)
    e = unit_rows(5)
    fld = gf.make_field(q)
    desc = indsets.point_line(pg.rref([e[0]], 5, fld), pg.rref([e[0], e[1]], 5, fld))
    ids = sorted(universe.id_of(f) for f in indsets.build(desc).all)
    got, expected = kernel_and_reference(ids, random.Random(4), universe)
    assert got == expected == ids


@pytest.mark.parametrize("head", [0, 32, explore._HEAD, 1 << 40])
def test_greedy_kernel_independent_of_head_size(head, u22, u23, monkeypatch):
    # head 0 sends every flag through the conflict-pair tail, 1 << 40 every flag through
    # _pick_apart; a head of 7 can leave 9,168 flags and 17.5M adjacent pairs in a (2,3) tail
    monkeypatch.setattr(explore, "_HEAD", head)
    for universe, q in ((u22, 2), (u23, 3)):
        for seed in ([], pencil_ids(universe, gf.make_field(q))):
            if head == 0 and not seed and universe is u23:
                # the tail would be the whole (2,3) graph, whose 51.6M adjacent pairs the kernel lists
                continue
            for s in range(3):
                got, expected = kernel_and_reference(seed, random.Random(s), universe)
                assert got == expected


@pytest.mark.parametrize("name,sizes", [("u22", (0, 1, 2, 40, 300)), ("u23", (2, 60, 500))])
def test_adjacent_pairs_match_brute_force(name, sizes, request):
    universe = request.getfixturevalue(name)
    lo, hi = _flag_int_masks(universe, 0), _flag_int_masks(universe, 1)
    rng = random.Random(8)
    for m in sizes:
        ids = rng.sample(range(len(universe)), m)
        expected = [
            (a, b) for a in range(m) for b in range(a + 1, m)
            if (lo[ids[a]] & hi[ids[b]]) == 0 and (hi[ids[a]] & lo[ids[b]]) == 0
        ]
        first, second = universe.adjacent_pairs(ids)
        assert list(zip(first.tolist(), second.tolist())) == expected
        witness = universe.check_pairwise_independent(ids)
        assert witness == ((ids[expected[0][0]], ids[expected[0][1]]) if expected else None)


def star_plan_pairs(universe, ids):
    """Every adjacent pair of ids, from the tiles of star_plan(ids)."""
    ids = np.asarray(ids, dtype=np.int64)
    plan = universe.star_plan(ids)
    sub = universe._gather(ids[plan.order])
    codes = [c for block in plan.blocks for c in universe._block_pairs(sub, plan.order, block)]
    return np.divmod(np.sort(np.concatenate(codes + [np.empty(0, dtype=np.int64)])), ids.size)


def test_adjacent_pairs_skip_the_star_plan_only_below_the_cutoff(u23, monkeypatch):
    # up to two row tiles of ids are one triangle block, without a star plan;
    # on both sides of the cutoff the pairs are those of the plan's tiles
    cutoff = 2 * kneser._TILE_ROWS
    plan, planned = u23.star_plan, []
    monkeypatch.setattr(u23, "star_plan", lambda ids: planned.append(len(ids)) or plan(ids))
    pencil = pencil_ids(u23, u23.field)
    rng = random.Random(12)
    pairs = 0
    for size in (0, 1, 2, 60, cutoff - 1, cutoff, cutoff + 1, cutoff + 40, 600):
        # random flags, and half of them from a pencil, whose plan prunes pairs
        half = rng.sample(pencil, size // 2) + rng.sample(range(len(u23)), size - size // 2)
        for ids in (rng.sample(range(len(u23)), size), half):
            planned.clear()
            got = u23.adjacent_pairs(ids)
            assert planned == ([len(ids)] if len(ids) > cutoff else [])
            expected = star_plan_pairs(u23, ids)
            assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True)), size
            pairs += expected[0].size
    assert pairs


def test_draw_keys_match_one_shot_randbytes():
    for n in (0, 1, 4095, 4096, 4097, 3 * 4096 + 5):
        one_shot = np.frombuffer(random.Random(n).randbytes(8 * n), dtype="<u8")
        rng = random.Random(n)
        assert explore._draw_keys(rng, n).tobytes() == one_shot.tobytes()
        # the stream goes on where the one-shot draw leaves it
        follow = random.Random(n)
        follow.randbytes(8 * n)
        assert rng.getrandbits(32) == follow.getrandbits(32)


def test_greedy_sample_allocation_bound(u24):
    # one (2,4) sample keeps no 8N-byte key int or bytes, no N x words member
    # rows and one word-major copy of the head's words: 3.26 MiB before, about
    # 2.2-2.5 MiB after
    universe = u24
    universe.entries_through_points()
    explore._greedy_complete_ids([0], random.Random(1), universe)  # lazy tables and caches
    for i in range(4):
        rng = random.Random(11 * 1_000_003 + i)
        seed = rng.randrange(len(universe))
        tracemalloc.start()
        try:
            explore._greedy_complete_ids([seed], rng, universe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.8 * 2**20, i


class _TiedKeys:
    """Stands in for random.Random: its keys repeat 5 values, so most are tied."""

    def randbytes(self, size):
        return np.array([i * 7919 % 5 for i in range(size // 8)], dtype="<u8").tobytes()


def test_key_order_is_stable_argsort_of_keys(u22):
    n = len(u22)
    subset = np.array(sorted(random.Random(5).sample(range(n), n // 3)))
    for make in (lambda: random.Random(3), _TiedKeys):
        keys = np.frombuffer(make().randbytes(8 * n), dtype="<u8")
        stable = np.argsort(keys, kind="stable")
        assert explore._key_order(keys).tolist() == stable.tolist()
        # the order of a subset's keys is the global order restricted to it, ties included
        restricted = stable[np.isin(stable, subset)]
        assert subset[explore._key_order(keys[subset])].tolist() == restricted.tolist()


@pytest.mark.parametrize("name", ["u22", "u23"])
def test_pick_apart_matches_reference_when_first_flag_cuts_nothing(name, request):
    universe = request.getfixturevalue(name)
    lo, hi = _flag_int_masks(universe, 0), _flag_int_masks(universe, 1)

    def adjacent(a, b):
        return (lo[a] & hi[b]) == 0 and (hi[a] & lo[b]) == 0

    first = 0
    apart = [f for f in range(1, len(universe)) if not adjacent(first, f)]
    b = apart[0]
    c = next(f for f in apart if adjacent(b, f))
    rest = [f for f in apart[1:80] if f != c] + [c]
    random.Random(2).shuffle(rest)
    head = [first, b] + rest
    got = explore._pick_apart(np.array(head), universe).tolist()
    assert sorted(got) == reference_greedy([], head, universe)
    assert got[:2] == [first, b] and c not in got and len(got) > 2


def test_probe_reports_known_family_sizes(u22):
    out = explore.conjecture_probe(2, 2, 3, master_seed=1, universe=u22).to_json()
    assert (out["g0"], out["e0"]) == (105, 133)
    with pytest.raises(InvalidArgs):
        explore.conjecture_probe(2, 2, 3, rho_candidate=0, universe=u22)


def test_probe_does_not_import_numpy_random():
    # numpy.random adds several MB of resident memory to every probe,
    # numpy.ma (imported by a plain np.unique) about 17 ms to every verify, and
    # multiprocessing about 12 ms of import to a forked one; hashlib loads
    # OpenSSL (3.5 MB) and concurrent.futures takes about 5 ms to import, and
    # only --version and a threaded pair scan need them
    unused = ["numpy.random", "multiprocessing", "hashlib", "_hashlib", "concurrent.futures", "numpy.ma"]
    code = (
        "import os, sys\n"
        "from qkneser import cli, explore\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "explore.conjecture_probe(2, 2, 3, master_seed=1)\n"
        "code = cli.main(['cover', 'verify'])\n"
        f"print(code, [m for m in {unused!r} if m in sys.modules], file=sys.stderr)\n"
    )
    cert = json.dumps(cover.build_cover(2, 2).to_json())
    done = subprocess.run([sys.executable, "-c", code], input=cert, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout)["valid"]
    assert done.stderr.strip() == "0 []"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "run",
    [(2, 2, 300, 7), (2, 3, 20, 3), (2, 4, 2, 77), (2, 4, 40, 11), (3, 2, 6, 5), (2, 3, 1, 4, "degree-random")],
    ids=lambda run: "-".join(map(str, run)),
)
def test_explore_output_matches_golden(run):
    # the recorded stdout pins the samples drawn for a given --seed, and the
    # color count of a --greedy-color-order run
    d, q, samples, seed, *order = run
    argv = ["explore", "--d", str(d), "--q", str(q), "--samples", str(samples), "--seed", str(seed)]
    name = f"explore_d{d}_q{q}_samples{samples}_seed{seed}"
    if order:
        argv += ["--greedy-color-order", order[0]]
        name += f"_{order[0]}"
    done = subprocess.run([sys.executable, "-m", "qkneser.cli", *argv], capture_output=True, check=True)
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert done.stdout == expected
