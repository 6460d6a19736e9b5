from fractions import Fraction

import pytest

from qkneser import pg, qcalc
from qkneser.errors import HypothesisViolation, InvalidArgs, TooLarge


def test_gauss_base_cases():
    for a in range(8):
        assert qcalc.gauss(a, 0, 2) == 1
        assert qcalc.gauss(a, a, 3) == 1


def test_gauss_matches_subspace_enumeration(f2):
    assert qcalc.gauss(5, 2, 2) == sum(1 for _ in pg.enumerate_subspaces(5, 2, f2)) == 155
    assert qcalc.gauss(4, 2, 2) == sum(1 for _ in pg.enumerate_subspaces(4, 2, f2)) == 35


def test_gauss_symmetry():
    for q in (2, 3, 4, 5):
        for n in range(10):
            for r in range(n + 1):
                assert qcalc.gauss(n, r, q) == qcalc.gauss(n, n - r, q)


def test_gauss_q_pascal_recurrence():
    for q in range(2, 10):
        for n in range(1, 13):
            for k in range(1, n):
                expected = qcalc.gauss(n - 1, k - 1, q) + q**k * qcalc.gauss(n - 1, k, q)
                assert qcalc.gauss(n, k, q) == expected
            assert qcalc.gauss(n, n, q) == 1


def test_gauss_invalid_args():
    with pytest.raises(InvalidArgs):
        qcalc.gauss(3, 4, 2)
    with pytest.raises(InvalidArgs):
        qcalc.gauss(3, -1, 2)
    with pytest.raises(InvalidArgs):
        qcalc.gauss(3, 1, 1)


def test_theta_geometric_sum_oracle():
    for q in (2, 3, 5, 9):
        for j in range(8):
            assert qcalc.theta(j, q) == sum(q**i for i in range(j + 1))
    assert qcalc.theta(0, 7) == 1
    assert qcalc.theta(3, 2) == 15
    assert qcalc.theta(4, 2) == 31


def test_flag_count_values():
    assert qcalc.flag_count(2, 2) == 1085 == 155 * 7
    assert qcalc.flag_count(2, 3) == 15730 == 1210 * 13
    assert qcalc.flag_count(3, 2) == 177165 == 11811 * 15


def test_size_constants():
    c = qcalc.size_constants(2, 2, 5)
    assert (c.g0, c.e0) == (105, 133)
    assert c.e0 == c.g0 + 7 * 4
    assert c.delta == qcalc.gauss(3, 2, 2) * 4
    assert qcalc.size_constants(3, 2, 5).g0 == 9765 == 651 * 15


def test_size_constants_ordering_when_q_exceeds_alpha():
    c = qcalc.size_constants(3, 8, 5)
    assert c.e1 < c.g0 < c.e0
    for d in (2, 3):
        for q in (7, 8, 9):
            for alpha in range(1, q):
                c = qcalc.size_constants(d, q, alpha)
                assert c.e1 < c.g0 < c.e0


def test_chromatic_value():
    assert qcalc.chromatic_value(3, 2) == 29
    assert qcalc.chromatic_value(2, 2) == 13
    for q in range(2, 101):
        assert qcalc.chromatic_value(3, q) == q**4 + q**3 + q**2 + 1


def test_gauss_bounds_explicit_examples():
    rep = qcalc.check_gauss_bound_points(points_a=[(7, 3, 4)], points_b=[(1, 3)], points_c=[(2, 7)])
    assert rep.ok
    assert 5 * 4**11 <= qcalc.gauss(7, 3, 4) <= 6 * 4**11
    assert (3 * 3 + 3 + 2) ** 1 <= 5 * 3
    assert qcalc.theta(2, 7) ** 2 == 3249 <= 10 * 7**3 == 3430


def test_gauss_bounds_hypothesis_violations():
    with pytest.raises(HypothesisViolation):
        qcalc.check_gauss_bound_points(points_a=[(7, 3, 3)])  # needs q >= 4
    with pytest.raises(HypothesisViolation):
        qcalc.check_gauss_bound_points(points_a=[(3, 3, 4)])  # needs n > k
    with pytest.raises(HypothesisViolation):
        qcalc.check_gauss_bound_points(points_b=[(2, 6)])  # needs q > c^2 + c
    with pytest.raises(HypothesisViolation):
        qcalc.check_gauss_bound_points(points_c=[(3, 12)])


def test_gauss_bounds_full_grid_holds():
    rep = qcalc.check_gauss_bounds(range(2, 65), n_max=14, c_max=6)
    assert rep.ok
    assert rep.checked["a"] == 61 * sum(n - 1 for n in range(2, 15))
    assert rep.checked["b"] == rep.checked["c"] > 0


def test_concentration_base_one():
    for q in (2, 3, 5):
        for d in (1, 2, 3):
            assert qcalc.concentration_bound(q, d, 4, 1) == (2 * q) ** (d + 1)


def test_concentration_specialization():
    value = qcalc.concentration_bound(3, 3, Fraction(1, 4), 7)
    assert value == Fraction(6**4, 112**15)
    # the specialization beats 3 q^d exactly from the hypothesis threshold on
    threshold = qcalc.hypothesis_threshold(3)
    assert threshold == Fraction(3 * 7**15 * 2**56)
    q_at = int(threshold)
    assert qcalc.concentration_beats_3qd(q_at, 3)
    assert not qcalc.concentration_beats_3qd(q_at - 1, 3)


def test_concentration_monotone_in_density():
    prev = None
    for k in range(1, 12):
        val = qcalc.concentration_bound(4, 2, Fraction(k, 8), 7)
        if prev is not None:
            assert val >= prev
        prev = val


def test_chromatic_thresholds_values():
    first, second = qcalc.chromatic_thresholds(3, 5)
    assert first == 3 * 7**15 * 2**56
    assert second == 107
    first4, _ = qcalc.chromatic_thresholds(4, 5)
    assert first4 == 3 * 112**31 // 2**5
    assert Fraction(3 * 112**31, 2**5).denominator == 1
    with pytest.raises(InvalidArgs):
        qcalc.chromatic_thresholds(2, 5)
    with pytest.raises(InvalidArgs):
        qcalc.chromatic_thresholds(3, 4)


def test_results_past_the_digit_limit_are_refused_before_computing():
    with pytest.raises(InvalidArgs):
        qcalc.theta(2, 1)
    # the largest printable cases still print
    assert len(str(qcalc.chromatic_thresholds(10, 5)[0])) == 4192
    assert len(str(qcalc.theta(4505, 9))) == 4299
    assert len(str(qcalc.concentration_bound(2, 10, Fraction(1, 4), 7).denominator)) == 4189
    for call in (
        lambda: qcalc.theta(4506, 9),
        lambda: qcalc.chromatic_thresholds(11, 5),
        lambda: qcalc.concentration_bound(2, 11, Fraction(1, 4), 7),
        # 2^(d+1) is never computed for a huge d
        lambda: qcalc.chromatic_thresholds(10**12, 5),
        lambda: qcalc.concentration_bound(2, 10**12, Fraction(1, 4), 7),
        lambda: qcalc.size_constants(2, 2, 10**5000),
    ):
        with pytest.raises(TooLarge):
            call()

