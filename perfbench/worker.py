"""Child processes of the benchmark, one fresh interpreter per measurement.

    python3 worker.py setup SRC D Q
        Time importing qkneser from SRC and building FlagUniverse for (D, Q);
        print {"setup_s": ..., "flags": ...}.

    python3 worker.py trace SRC OUT STDIN ARGV...
        Run qkneser.cli.main(ARGV) in this process with every layer boundary
        wrapped by the span tracer, stdin read from the file STDIN ("-" for
        none), and write {"exit", "stdout", "spans", "counters"} to OUT.

A fresh process per job keeps the package's module-level caches cold, as
they are for a real CLI run.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout


def _setup(src: str, d: int, q: int) -> None:
    start = time.perf_counter()
    sys.path.insert(0, src)
    from qkneser import gf, kneser

    universe = kneser.FlagUniverse(2 * d + 1, (d, d + 1), gf.make_field(q))
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "flags": len(universe)}))


def _trace(src: str, out_path: str, stdin_path: str, argv) -> None:
    sys.path.insert(0, src)
    import spans
    from qkneser import cli

    tracer = spans.Tracer()
    spans.install(tracer)
    captured = io.StringIO()
    stdin = open(stdin_path) if stdin_path != "-" else io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, stdin
    try:
        with redirect_stdout(captured):
            code = tracer.timed("cli.main", cli.main)(argv)
    finally:
        sys.stdin = saved_stdin
        stdin.close()
        tracer.restore()
    with open(out_path, "w") as fh:
        json.dump({"exit": code, "stdout": captured.getvalue(), "spans": tracer.dump(),
                   "counters": tracer.counters}, fh)


def main(argv) -> None:
    mode, src = argv[0], argv[1]
    if mode == "setup":
        _setup(src, int(argv[2]), int(argv[3]))
    elif mode == "trace":
        _trace(src, argv[2], argv[3], argv[4:])
    else:
        raise SystemExit(f"worker: unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
