import concurrent.futures
import os
import pickle
import signal
import threading

import pytest

from qkneser import _parallel
from qkneser.errors import QKneserError


def test_usable_cpus_reads_affinity_then_cpu_count(monkeypatch):
    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 8)
    assert _parallel.usable_cpus() == 1
    monkeypatch.delattr(_parallel.os, "sched_getaffinity")
    assert _parallel.usable_cpus() == 8
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert _parallel.usable_cpus() == 1


def test_run_blocks_clamps_threads(monkeypatch):
    workers = []

    class SerialPool:
        """Stands in for ThreadPoolExecutor: records max_workers, runs in this thread."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            return map(fn, blocks)

    # run_blocks imports ThreadPoolExecutor when it first runs threads
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    double = lambda b: 2 * b  # noqa: E731
    assert _parallel.run_blocks(double, [1, 2, 3], threads=10_000) == [2, 4, 6]
    assert workers == [3]
    assert _parallel.run_blocks(double, [1, 2], threads=0) == [2, 4]
    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: {0})
    assert _parallel.run_blocks(double, [1, 2], threads=4) == [2, 4]
    assert workers == [3]


@pytest.fixture
def inline_forks(monkeypatch):
    """Stands in for os.fork: each 'child' runs its run of items in this process
    through child (a fake _parallel._child), and no process is started."""
    forks, kills = [], []

    def fake_fork():
        forks.append(1)
        assert len(forks) <= 2, "forked beyond the clamp"
        return 0

    def set_child(child):
        monkeypatch.setattr(_parallel, "_child", child)

    monkeypatch.setattr(_parallel.os, "fork", fake_fork)
    monkeypatch.setattr(_parallel.os, "waitpid", lambda pid, options: (pid, 0))
    # the fake children have pid 0, and kill(0) would signal this process group
    monkeypatch.setattr(_parallel.os, "kill", lambda pid, sig: kills.append((pid, sig)))
    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    return forks, kills, set_child


def test_fork_blocks_clamps_workers(inline_forks):
    forks, kills, set_child = inline_forks
    set_child(lambda fn, run, w, read_ends: os.write(w, pickle.dumps((True, fn(run)))))
    assert _parallel.fork_blocks(list, range(7), workers=10_000) == [[0, 1, 2], [3, 4, 5], [6]]
    assert len(forks) == 2
    assert _parallel.fork_blocks(list, [5], workers=10_000) == [[5]]
    assert len(forks) == 2 and not kills
    # a live thread makes forking unsafe, so all items go to one call in the caller
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert _parallel.fork_blocks(list, [1, 2, 3], workers=3) == [[1, 2, 3]]
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert len(forks) == 2


def test_fork_blocks_child_without_result_raises(inline_forks):
    _, kills, set_child = inline_forks
    set_child(lambda fn, run, w, read_ends: None)
    with pytest.raises(QKneserError, match="without a result"):
        _parallel.fork_blocks(list, [1, 2], workers=2)
    assert kills == [(0, signal.SIGTERM)]


def test_fork_blocks_reports_a_child_error_that_cannot_be_pickled(monkeypatch):
    class LocalError(Exception):
        """Defined in a function, so pickle cannot name it."""

    def run(items):
        if items[0] != 0:  # only the forked child's run fails
            raise LocalError(f"sample {items[0]} went wrong")
        return list(items)

    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(QKneserError, match="^LocalError: sample 1 went wrong$"):
        _parallel.fork_blocks(run, [0, 1], workers=2)


def test_fork_blocks_closes_the_pipe_when_fork_fails(monkeypatch):
    opened = []
    real_pipe = os.pipe

    def pipe():
        opened.extend(real_pipe())
        return opened[-2:]

    def no_fork():
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(_parallel.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(_parallel.os, "pipe", pipe)
    monkeypatch.setattr(_parallel.os, "fork", no_fork)
    with pytest.raises(BlockingIOError):
        _parallel.fork_blocks(list, [1, 2], workers=2)
    assert len(opened) == 2
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)
