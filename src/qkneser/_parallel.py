"""Thread-pool plumbing for the parallel-map contract.

Library code never spawns on its own initiative: callers pass a thread
count (1 forces the serial path) and block results are combined in block
order, so the outcome is identical either way.  The count is clamped to
[1, os.cpu_count()], so no caller can ask for more threads than cores.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def run_blocks(fn: Callable[[T], R], blocks: Sequence[T], threads: int) -> List[R]:
    threads = max(1, min(threads, os.cpu_count() or 1))
    if threads == 1 or len(blocks) <= 1:
        return [fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, blocks))
