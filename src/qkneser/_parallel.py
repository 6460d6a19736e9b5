"""Threads and forked processes for the parallel-map contract.

run_blocks maps fn over the blocks a caller cuts, in as many threads as it
asks for (the CLI's --threads; 1 forces the serial path).  fork_blocks cuts
a sequence itself, into one contiguous run per worker.  Both clamp the count
to [1, usable_cpus()] and return results in input order, so the outcome is
the same for any count.  Threads suit numpy work that releases the
interpreter lock; forked children suit Python-bound work, and share the
caller's tables copy-on-write.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence, TypeVar

from .errors import QKneserError

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set, where the OS has one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def run_blocks(fn: Callable[[T], R], blocks: Sequence[T], threads: int) -> List[R]:
    threads = max(1, min(threads, usable_cpus()))
    if threads == 1 or len(blocks) <= 1:
        return [fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, blocks))


def fork_blocks(fn: Callable[[Sequence[T]], R], items: Sequence[T], workers: int) -> List[R]:
    """[fn(run) for run in runs], runs being up to workers contiguous slices of
    items: the first run goes in the caller, each other in a forked child that
    pipes back a pickled (ok, result or exception); an exception that cannot
    be pickled comes back as a QKneserError naming its type and message.
    With other threads alive forking is unsafe: then fn(items) runs in the
    caller."""
    workers = max(1, min(workers, usable_cpus(), len(items)))
    if workers == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(items)]
    per = -(-len(items) // workers)
    runs = [items[i:i + per] for i in range(0, len(items), per)]
    children = []  # (pid, read end)
    done = False
    try:
        for run in runs[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(fn, run, w, [r] + [pipe.fileno() for _, pipe in children])
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [fn(runs[0])]
        # read every pipe before any wait: a large result can fill a pipe
        for pid, pipe in children:
            with pipe:
                data = pipe.read()
            try:
                ok, value = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                raise QKneserError(f"worker process {pid} ended without a result") from None
            if not ok:
                raise value
            results.append(value)
        done = True
        return results
    finally:
        if not done and children:
            import signal  # only a failed run pays for this import

            # the run has failed: stop the children instead of waiting for their runs
            for pid, _ in children:
                os.kill(pid, signal.SIGTERM)
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _child(fn: Callable[[Sequence[T]], R], run: Sequence[T], w: int, read_ends: List[int]) -> None:
    try:
        # a read end left open here would keep a write from failing once the parent has given up
        for fd in read_ends:
            os.close(fd)
        try:
            payload = (True, fn(run))
        except BaseException as exc:  # raised again in the parent
            payload = (False, exc)
        # pickled whole before anything is written, so a payload that cannot
        # be pickled still sends its failure: fn's exception, else pickle's
        try:
            data = pickle.dumps(payload)
        except Exception as exc:
            failure = exc if payload[0] else payload[1]
            data = pickle.dumps((False, QKneserError(f"{type(failure).__name__}: {failure}")))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)
