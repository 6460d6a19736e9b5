"""Seeded benchmark inputs: pinned CLI constructions mapped through a collineation.

The workload seed draws an invertible n x n matrix M over the prime field
GF(p) and every subspace of a certificate or descriptor is replaced by its
image under x -> xM, in canonical (reduced row-echelon) form.  An invertible
linear map preserves incidence, so a covering stays a covering and a
descriptor keeps its variant and its set size: every seed asks the CLI for
the same exhaustive work on different flags.

The linear algebra here is self-contained on purpose, so the inputs do not
depend on the code the benchmark measures.
"""

from __future__ import annotations

import random
from typing import Dict, List

Matrix = List[List[int]]

# Descriptor keys holding one subspace, and keys holding a sorted family.
_SUBSPACE_KEYS = ("P", "L", "H")
_FAMILY_KEYS = ("U", "E")


def _require_prime(p: int) -> None:
    if p < 2 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
        raise ValueError(f"collineations are only drawn over prime fields, got q={p}")


def rref(rows: Matrix, p: int) -> Matrix:
    """Reduced row-echelon basis of the row space over GF(p), zero rows dropped."""
    work = [[x % p for x in row] for row in rows]
    n = len(work[0]) if work else 0
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        lead = work[rank] = [(x * inv) % p for x in work[rank]]
        for r in range(len(work)):
            c = work[r][col]
            if r != rank and c:
                work[r] = [(x - c * y) % p for x, y in zip(work[r], lead)]
        rank += 1
    return work[:rank]


def random_invertible(n: int, p: int, rng: random.Random) -> Matrix:
    _require_prime(p)
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if len(rref(m, p)) == n:
            return m


def map_subspace(rows: Matrix, m: Matrix, p: int) -> Matrix:
    n = len(m)
    image = [[sum(row[k] * m[k][j] for k in range(n)) % p for j in range(n)] for row in rows]
    return rref(image, p)


def map_descriptor(desc: Dict, m: Matrix, p: int) -> Dict:
    out = dict(desc)
    for key in _SUBSPACE_KEYS:
        if key in desc:
            out[key] = map_subspace(desc[key], m, p)
    for key in _FAMILY_KEYS:
        if key in desc:
            # descriptors keep families sorted by canonical rows
            out[key] = sorted(map_subspace(s, m, p) for s in desc[key])
    return out


def map_certificate(cert: Dict, m: Matrix, p: int) -> Dict:
    out = dict(cert)
    out["U"] = map_subspace(cert["U"], m, p)
    out["classes"] = [map_descriptor(c, m, p) for c in cert["classes"]]
    return out
