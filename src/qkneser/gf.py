"""Exact arithmetic in GF(q) for small prime powers q.

Scalars are plain ints in [0, q).  For an extension field GF(p^k) with k > 1
the int encodes the coefficient vector of the polynomial representative in
base p: value = sum(c_i * p**i) with c_i the coefficient of x^i.  All
arithmetic is table driven (q <= 9, so the full q x q tables are tiny) and a
FieldSpec is immutable, hence freely shareable across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Tuple

from .errors import DivisionByZero, NotPrimePower, Unsupported

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)

# Reduction polynomial per non-prime supported order, ascending coefficients
# with the leading 1 included.  Pinned to the smallest-weight irreducibles so
# that subspace canonical forms are reproducible bit-for-bit across runs.
REDUCTION_POLYS = {
    4: (1, 1, 1),     # x^2 + x + 1
    8: (1, 1, 0, 1),  # x^3 + x + 1
    9: (1, 0, 1),     # x^2 + 1
}


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of GF(q) plus its precomputed operation tables."""

    q: int
    p: int
    k: int
    reduction_poly: Tuple[int, ...]
    _add: Tuple[Tuple[int, ...], ...] = field(compare=False, repr=False, default=())
    _mul: Tuple[Tuple[int, ...], ...] = field(compare=False, repr=False, default=())
    _neg: Tuple[int, ...] = field(compare=False, repr=False, default=())
    _inv: Tuple[int, ...] = field(compare=False, repr=False, default=())

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self._inv[a]

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:  # tables are noise
        return f"FieldSpec(q={self.q})"


def _smallest_prime_factor(m: int) -> int:
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


def _digits(value: int, p: int, k: int) -> list:
    out = []
    for _ in range(k):
        value, r = divmod(value, p)
        out.append(r)
    return out


def _undigits(digits, p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _poly_mod(num, den, p):
    """Remainder of num modulo monic-leading den, coefficients over GF(p)."""
    num = list(num)
    dd = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            c = (c * lead_inv) % p
            for j, dj in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - c * dj) % p
    return num[:dd]


def is_irreducible(poly, p: int) -> bool:
    """Trial division against all monic polynomials of degree <= deg/2."""
    k = len(poly) - 1
    if k < 1 or poly[-1] != 1:
        return False
    for ddeg in range(1, k // 2 + 1):
        for tail in product(range(p), repeat=ddeg):
            den = list(tail) + [1]
            if not any(_poly_mod(poly, den, p)):
                return False
    return True


def _field_tables(p, k, poly):
    """add, mul, neg and inv of GF(p)[x] modulo poly, with GF(p) itself modulo x."""
    q = p**k
    digits = [_digits(v, p, k) for v in range(q)]
    add = tuple(
        tuple(_undigits([(x + y) % p for x, y in zip(digits[a], digits[b])], p) for b in range(q))
        for a in range(q)
    )
    neg = tuple(_undigits([(-x) % p for x in digits[a]], p) for a in range(q))

    mul_rows = []
    for a in range(q):
        row = []
        for b in range(q):
            conv = [0] * (2 * k - 1)
            for i, x in enumerate(digits[a]):
                if x:
                    for j, y in enumerate(digits[b]):
                        conv[i + j] = (conv[i + j] + x * y) % p
            row.append(_undigits(_poly_mod(conv, poly, p), p))
        mul_rows.append(tuple(row))
    mul = tuple(mul_rows)

    inv = [0] * q
    for a in range(1, q):
        inv[a] = mul[a].index(1)
    return add, mul, neg, tuple(inv)


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Return the pinned FieldSpec for a supported prime-power order q."""
    if not isinstance(q, int) or q < 2:
        raise Unsupported(f"field order must be an integer >= 2, got {q!r}")
    if q > 1 << 20:
        # refused before the trial division, which a large prime order would stall
        raise Unsupported(f"GF({q}) is outside the supported orders {SUPPORTED_ORDERS}")
    p = _smallest_prime_factor(q)
    k, rest = 0, q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise NotPrimePower(f"{q} has at least two distinct prime factors")
    if q not in SUPPORTED_ORDERS:
        raise Unsupported(f"GF({q}) is outside the supported orders {SUPPORTED_ORDERS}")

    poly = REDUCTION_POLYS.get(q, ())
    if poly and not is_irreducible(poly, p):
        raise AssertionError(f"pinned reduction polynomial for GF({q}) is reducible")
    add, mul, neg, inv = _field_tables(p, k, poly or (0, 1))

    return FieldSpec(q=q, p=p, k=k, reduction_poly=poly, _add=add, _mul=mul, _neg=neg, _inv=inv)
