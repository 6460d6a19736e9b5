"""Exact q-analog arithmetic and the closed-form counts, constants and bounds.

Everything here is integer or rational arithmetic on Python ints/Fractions;
no floating point is used anywhere, so inequality checks cannot be masked by
rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple

from .errors import HypothesisViolation, InvalidArgs, TooLarge


def check_digits(exponent, base: int, what: str) -> None:
    """Refuse a result below base^exponent, before it is computed, if it could
    pass Python's int-to-str limit; a base below 2 is left to the computation."""
    # Python's limit, or its default where the limit is off or absent (before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if base >= 2 and exponent > limit / math.log10(base):
        raise TooLarge(f"{what} could have more than {limit} digits, the int-to-str limit")


def gauss(a: int, b: int, q: int) -> int:
    """Gaussian binomial [a b]_q: the number of rank-b subspaces of GF(q)^a."""
    if q < 2:
        raise InvalidArgs(f"need q >= 2, got {q}")
    if b < 0 or b > a:
        raise InvalidArgs(f"need 0 <= b <= a, got a={a}, b={b}")
    num = 1
    den = 1
    for i in range(1, b + 1):
        num *= q ** (a - b + i) - 1
        den *= q**i - 1
    quotient, rem = divmod(num, den)
    assert rem == 0
    return quotient


def theta(j: int, q: int) -> int:
    """Number of projective points of PG(j, q): (q^(j+1) - 1) / (q - 1)."""
    if j < 0 or q < 2:
        raise InvalidArgs(f"need j >= 0 and q >= 2, got j={j}, q={q}")
    check_digits(j + 1, q, f"theta({j}, {q})")
    return (q ** (j + 1) - 1) // (q - 1)


def flag_count(d: int, q: int) -> int:
    """Number of flags of vectorial type {d, d+1} in GF(q)^(2d+1)."""
    if d < 1:
        raise InvalidArgs(f"need d >= 1, got {d}")
    # [2d+1 d]_q < q^(d(d+1) + 2) and theta(d, q) < q^(d+1)
    check_digits(d * (d + 1) + d + 3, q, f"the flag count at d={d}, q={q}")
    value = gauss(2 * d + 1, d, q) * theta(d, q)
    # same count through the other factorization; cheap self-check
    assert value == gauss(2 * d + 1, d + 1, q) * theta(d, q)
    return value


@dataclass(frozen=True)
class SizeConstants:
    """The size thresholds attached to large independent sets."""

    d: int
    q: int
    alpha: int
    g0: int
    e0: int
    e1: int
    delta: int


def size_constants(d: int, q: int, alpha: int) -> SizeConstants:
    if d < 2 or q < 2 or alpha < 1:
        raise InvalidArgs(f"need d >= 2, q >= 2, alpha >= 1, got d={d}, q={q}, alpha={alpha}")
    # each constant is below alpha * q^(d^2 + d + 3), as [a b]_q < q^(b(a-b) + 2)
    check_digits(d * d + d + 3 + alpha.bit_length(), q, f"the size constants at d={d}, q={q}")
    g0 = gauss(2 * d, d + 1, q) * theta(d, q)
    e0 = g0 + gauss(2 * d - 1, d - 1, q) * q**d
    e1 = alpha * q ** (d * d + d - 2)
    delta = gauss(2 * d - 1, d, q) * q**d
    return SizeConstants(d=d, q=q, alpha=alpha, g0=g0, e0=e0, e1=e1, delta=delta)


def chromatic_value(d: int, q: int) -> int:
    """Color count of the known optimal coverings: theta(d+1, q) - q."""
    if d < 2:
        raise InvalidArgs(f"need d >= 2, got {d}")
    return theta(d + 1, q) - q


# ---------------------------------------------------------------------------
# inequality grid checker


@dataclass
class BoundViolation:
    part: str
    point: Tuple[int, ...]
    lhs: int
    rhs: int


@dataclass
class BoundReport:
    checked: dict
    violations: List[BoundViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "checked": dict(self.checked),
            "ok": self.ok,
            "violations": [
                {"part": v.part, "point": list(v.point), "lhs": v.lhs, "rhs": v.rhs}
                for v in self.violations
            ],
        }


def _check_part_a(n: int, k: int, q: int, out: BoundReport) -> None:
    if not (n > k > 0 and q >= 4):
        raise HypothesisViolation(f"part (a) needs n > k > 0 and q >= 4, got (n,k,q)=({n},{k},{q})")
    mid = gauss(n, k, q)
    scale = q ** (k * (n - k) - 1)
    if not (q + 1) * scale <= mid:
        out.violations.append(BoundViolation("a", (n, k, q), (q + 1) * scale, mid))
    if not mid <= (q + 2) * scale:
        out.violations.append(BoundViolation("a", (n, k, q), mid, (q + 2) * scale))
    out.checked["a"] += 1


def _check_part_b(c: int, q: int, out: BoundReport) -> None:
    if not (c >= 1 and q > c * c + c):
        raise HypothesisViolation(f"part (b) needs q > c^2 + c, got (c,q)=({c},{q})")
    lhs = (q * q + q + 2) ** c
    rhs = (q + c + 1) * q ** (2 * c - 1)
    if lhs > rhs:
        out.violations.append(BoundViolation("b", (c, q), lhs, rhs))
    out.checked["b"] += 1


def _check_part_c(c: int, q: int, out: BoundReport) -> None:
    if not (c >= 1 and q > c * c + c):
        raise HypothesisViolation(f"part (c) needs q > c^2 + c, got (c,q)=({c},{q})")
    lhs = theta(c, q) ** c
    rhs = (q + c + 1) * q ** (c * c - 1)
    if lhs > rhs:
        out.violations.append(BoundViolation("c", (c, q), lhs, rhs))
    out.checked["c"] += 1


def check_gauss_bound_points(
    points_a: Iterable[Tuple[int, int, int]] = (),
    points_b: Iterable[Tuple[int, int]] = (),
    points_c: Iterable[Tuple[int, int]] = (),
) -> BoundReport:
    """Check the three Gaussian-binomial inequalities at explicit grid points.

    Raises HypothesisViolation when a requested point does not satisfy the
    preconditions of its part ((a): n > k > 0 and q >= 4; (b),(c): q > c^2+c).
    """
    report = BoundReport(checked={"a": 0, "b": 0, "c": 0}, violations=[])
    for n, k, q in points_a:
        _check_part_a(n, k, q, report)
    for c, q in points_b:
        _check_part_b(c, q, report)
    for c, q in points_c:
        _check_part_c(c, q, report)
    return report


def check_gauss_bounds(q_range: Iterable[int], n_max: int = 14, c_max: int = 6) -> BoundReport:
    """Check all three inequalities over the hypothesis-respecting grid.

    Grid points that fail a part's hypotheses are skipped, since the
    inequalities are only claimed under them.
    """
    qs = sorted(set(q_range))
    pts_a = [(n, k, q) for q in qs if q >= 4 for n in range(2, n_max + 1) for k in range(1, n)]
    pts_bc = [(c, q) for q in qs for c in range(1, c_max + 1) if q > c * c + c]
    return check_gauss_bound_points(points_a=pts_a, points_b=pts_bc, points_c=pts_bc)


# ---------------------------------------------------------------------------
# bounds and thresholds for the large-q chromatic regime


def concentration_bound(q: int, d: int, d0, n0) -> Fraction:
    """Exact value of (2q)^(d+1) * (d0 / (4 n0))^(2^(d+1) - 1)."""
    if q < 2 or d < 1:
        raise InvalidArgs(f"need q >= 2 and d >= 1, got q={q}, d={d}")
    d0 = Fraction(d0)
    n0 = Fraction(n0)
    if d0 <= 0 or n0 <= 0:
        raise InvalidArgs("d0 and n0 must be positive")
    base = d0 / (4 * n0)
    # log2 bounds of numerator and denominator, 2^(d+1) - 1 < 2^min(d+1, 64)
    power = 2 ** min(d + 1, 64)
    bits = (d + 1) * math.log2(2 * q) + power * math.log2(base.numerator), power * math.log2(base.denominator)
    check_digits(max(bits), 2, f"the concentration bound at d={d}")
    return Fraction(2 * q) ** (d + 1) * base ** (2 ** (d + 1) - 1)


def concentration_beats_3qd(q: int, d: int) -> bool:
    """Specialized comparison (d0 = 1/4, n0 = 7) against 3 q^d.

    This is exactly the role the lower bound on q plays when the proposition
    is used to pin down the special subspace: the bound beats 3 q^d iff
    q >= 3 * 112^(2^(d+1)-1) / 2^(d+1).
    """
    return concentration_bound(q, d, Fraction(1, 4), 7) >= 3 * q**d


def hypothesis_threshold(d: int) -> Fraction:
    """The strict lower bound on q: 3 * 112^(2^(d+1)-1) * 2^(-d-1)."""
    return Fraction(3 * 112 ** (2 ** (d + 1) - 1), 2 ** (d + 1))


def chromatic_thresholds(d: int, alpha: int) -> Tuple[int, int]:
    """Both lower bounds on q under which the chromatic value is pinned down.

    The first bound is strict (q must exceed it), the second is not
    (q may equal it); both are returned as ceilings of the exact rationals.
    """
    if d < 3:
        raise InvalidArgs(f"need d >= 3, got {d}")
    if alpha < 5:
        raise InvalidArgs(f"need alpha >= 5, got {alpha}")
    # first < 112^(2^(d+1)) and second < 2^(2 bits(alpha) + 3)
    check_digits(2 ** min(d + 1, 64), 112, f"the thresholds at d={d}")
    check_digits(2 * alpha.bit_length() + 3, 2, f"the thresholds at alpha={alpha}")
    first = math.ceil(hypothesis_threshold(d))
    second = math.ceil(Fraction(3, 2) * alpha**2 + Fraction(21, 2) * alpha + 17)
    return first, second
