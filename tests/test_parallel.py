from qkneser import _parallel


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

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 3)
    double = lambda b: 2 * b  # noqa: E731
    assert _parallel.run_blocks(double, [1, 2, 3], threads=10_000) == [2, 4, 6]
    assert workers == [3]
    assert _parallel.run_blocks(double, [1, 2], threads=0) == [2, 4]
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert _parallel.run_blocks(double, [1, 2], threads=4) == [2, 4]
    assert workers == [3]
