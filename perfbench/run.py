#!/usr/bin/env python3
"""Benchmark of the qkneser CLI: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run it from the root of a source checkout.  Every job runs the CLI from
./src as ``python3 -m qkneser.cli`` with its default thread count
(os.cpu_count()).  Jobs form a closed loop with one client: a job is a fixed
sequence of CLI processes, and the next job starts when the previous one has
exited.  All inputs are made from --seed (see inputs.py); every job of a run
gets the same inputs, so their outputs must be identical.

Workloads:
  verify-3-2  cover build --d 3 --q 2, then cover verify of the pinned
              certificate mapped through a seeded collineation (full scan).
  probe-2-4   explore --d 2 --q 4 --samples 40 with a seeded --seed.
  indset-2-3  indset build, then indset check --maximal, for a point_line
              class of the pinned (2,3) cover, a hyperplane_family class of
              its dual and a point_pencil, all mapped through a collineation.
BENCHMARK.json lists the first two.  Three workloads, each with enough jobs
per run for a steady median, do not fit the time its runs may take in all, so
indset-2-3 is run by hand, for instance to measure a change to indset build
and check.

--trace 0 runs jobs until they have taken --seconds seconds (at least two
jobs; set-up samples do not count) and reports:
  wall_s        median job wall time, first process start to last exit
  setup_s       median over 3 fresh processes of import + FlagUniverse,
                one before each of the first three jobs
  peak_rss_mb   median over jobs of the largest peak RSS of its processes
--trace 1 runs one job untraced and the same job traced (spans.py), and
reports the per-layer metrics (see layer_metrics) and the rates below.

Rates are work per second of job wall time, each defined on the workloads
that do that work and 0 elsewhere.  The work of a job does not depend on the
seed, so within a workload a rate is a fixed multiple of 1 / wall_s.
  certified_pairs_per_s  sum of C(|S|, 2) over the sets S whose independence
                         the job checks exhaustively (verify: the classes;
                         indset: the three descriptor sets)
  samples_per_s          probe samples
  descriptors_per_s      indset descriptors, each built and checked

The line before the final result line holds the details: wall_s and setup_s
quartiles with their sample counts, error_rate (failed / attempted jobs),
the rates, failures, and the static record (src/ line counts, nproc, Python
and numpy versions, thread count).  A job counts as failed on an unexpected
exit code or any failed output check, and only passing jobs are timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Dict, List, Optional

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

FLAG_CAP = 250_000        # refuse (d, q) whose flag count would exceed this
SETUP_REPS = 3
MIN_JOBS = 2              # two jobs per run, so equal inputs can be compared
RUN_LIMIT_S = 170.0       # kill what is still running after this long
PROBE_SAMPLES = 40
STARTUP_REPS = 3


class SetupFailed(Exception):
    """Inputs or set-up could not be made; the run prints no result."""


@dataclass
class Step:
    argv: List[str]
    stdin: Optional[Path] = None


@dataclass
class Done:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float


def theta(j: int, q: int) -> int:
    return (q ** (j + 1) - 1) // (q - 1)


# ---------------------------------------------------------------------------
# processes


class Bench:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def run(self, cmd: List[str], stdin: Optional[Path] = None) -> Done:
        """Run one process; wall time from spawn to exit, peak RSS from wait4."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err, \
                open(stdin or os.devnull) as inp:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=inp, stdout=out, stderr=err,
                                    cwd=self.workdir, env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Done(code=proc.returncode, stdout=out_path.read_text(),
                    stderr=err_path.read_text(), wall_s=wall, rss_mb=usage.ru_maxrss / 1024)

    def cli(self, argv: List[str], stdin: Optional[Path] = None) -> Done:
        return self.run([sys.executable, "-m", "qkneser.cli", *argv], stdin)

    def cli_output(self, argv: List[str], stdin: Optional[Path] = None) -> str:
        done = self.cli(argv, stdin)
        if done.code != 0:
            raise SetupFailed(f"qkneser {' '.join(argv)} exited {done.code}: {done.stderr.strip()}")
        return done.stdout

    def write_input(self, name: str, obj) -> Path:
        path = self.workdir / name
        path.write_text(json.dumps(obj, sort_keys=True))
        return path

    def setup_time(self, d: int, q: int) -> float:
        done = self.run([sys.executable, str(HERE / "worker.py"), "setup", str(SRC), str(d), str(q)])
        if done.code != 0:
            raise SetupFailed(f"set-up probe exited {done.code}: {done.stderr.strip()}")
        return json.loads(done.stdout)["setup_s"]

    def job(self, steps: List[Step]) -> List[Done]:
        return [self.cli(s.argv, s.stdin) for s in steps]

    def traced_job(self, steps: List[Step]):
        """The job with each process running cli.main under the span tracer."""
        outs, traces = [], []
        for i, s in enumerate(steps):
            result_path = self.workdir / f"trace-{i}.json"
            done = self.run([sys.executable, str(HERE / "worker.py"), "trace", str(SRC),
                             str(result_path), str(s.stdin or "-"), *s.argv])
            if done.code != 0:
                raise SetupFailed(f"traced worker exited {done.code}: {done.stderr.strip()}")
            traced = json.loads(result_path.read_text())
            outs.append(Done(code=traced["exit"], stdout=traced["stdout"], stderr=done.stderr,
                             wall_s=done.wall_s, rss_mb=done.rss_mb))
            traces.append({"argv": s.argv, "spans": traced["spans"], "counters": traced["counters"]})
        return outs, traces


# ---------------------------------------------------------------------------
# workloads: inputs, output checks, and the work each job represents


class VerifyCover:
    """Full exhaustive verification of a mapped copy of the pinned covering."""

    def __init__(self, d: int, q: int):
        self.d, self.q = d, q
        self.build_argv = ["cover", "build", "--d", str(d), "--q", str(q)]

    def prepare(self, bench: Bench, rng: random.Random) -> None:
        self.pinned = bench.cli_output(self.build_argv)
        m = inputs.random_invertible(2 * self.d + 1, self.q, rng)
        mapped = inputs.map_certificate(json.loads(self.pinned), m, self.q)
        self.steps = [Step(self.build_argv),
                      Step(["cover", "verify"], bench.write_input("certificate.json", mapped))]

    def check(self, outs: List[Done], flag_count: int) -> List[str]:
        build, verify = outs
        errors = []
        if build.stdout != self.pinned:
            errors.append("cover build output differs from the pinned certificate")
        report = json.loads(verify.stdout)
        if report["valid"] is not True:
            errors.append("mapped certificate not valid")
        if report["total_flags"] != flag_count:
            errors.append(f"total_flags {report['total_flags']} != flag_count {flag_count}")
        if len(report["class_sizes"]) != theta(self.d + 1, self.q) - self.q:
            errors.append(f"{len(report['class_sizes'])} classes, expected theta(d+1,q) - q")
        if not all(c["sizes_ok"] is True for c in report["class_sizes"]):
            errors.append("a class has sizes_ok false")
        return errors

    def work(self, outs: List[Done]) -> Dict[str, int]:
        sizes = [c["total"] for c in json.loads(outs[1].stdout)["class_sizes"]]
        return {"certified_pairs": sum(comb(s, 2) for s in sizes)}


class Probe:
    """Greedy maximal independent sets from seeded random start flags."""

    def __init__(self, d: int, q: int, samples: int):
        self.d, self.q, self.samples = d, q, samples

    def prepare(self, bench: Bench, rng: random.Random) -> None:
        self.steps = [Step(["explore", "--d", str(self.d), "--q", str(self.q),
                            "--samples", str(self.samples), "--seed", str(rng.randrange(2**31))])]

    def check(self, outs: List[Done], flag_count: int) -> List[str]:
        stats = json.loads(outs[0].stdout)
        errors = []
        if stats["samples"] != self.samples or sum(stats["size_histogram"].values()) != self.samples:
            errors.append(f"size histogram does not sum to {self.samples}")
        if sum(stats["classified_variants"].values()) != self.samples:
            errors.append(f"classified variants do not sum to {self.samples}")
        return errors

    def work(self, outs: List[Done]) -> Dict[str, int]:
        return {"samples": self.samples}


class IndsetCheck:
    """Build, independence, classification and maximality of three descriptors."""

    def __init__(self, d: int, q: int):
        self.d, self.q = d, q

    def prepare(self, bench: Bench, rng: random.Random) -> None:
        build = ["cover", "build", "--d", str(self.d), "--q", str(self.q)]
        cover_text = bench.cli_output(build)
        cover_path = bench.write_input("cover.json", json.loads(cover_text))
        dual = json.loads(bench.cli_output(["cover", "dualize"], cover_path))
        lines = [c for c in json.loads(cover_text)["classes"] if c["variant"] == "point_line"]
        families = [c for c in dual["classes"] if c["variant"] == "hyperplane_family"]
        if not lines or not families:
            raise SetupFailed("pinned cover lacks point_line or hyperplane_family classes")
        pencil = {"variant": "point_pencil", "d": self.d, "q": self.q,
                  "P": [[1] + [0] * (2 * self.d)]}
        m = inputs.random_invertible(2 * self.d + 1, self.q, rng)
        self.descriptors = [inputs.map_descriptor(c, m, self.q)
                            for c in (rng.choice(lines), rng.choice(families), pencil)]
        self.steps = []
        for i, desc in enumerate(self.descriptors):
            path = bench.write_input(f"descriptor-{i}.json", desc)
            self.steps += [Step(["indset", "build"], path),
                           Step(["indset", "check", "--maximal"], path)]

    def check(self, outs: List[Done], flag_count: int) -> List[str]:
        errors = []
        for desc, build, check in zip(self.descriptors, outs[0::2], outs[1::2]):
            built, checked = json.loads(build.stdout), json.loads(check.stdout)
            variant = desc["variant"]
            if built["independent"] is not True or checked["independent"] is not True:
                errors.append(f"{variant}: independent is not true")
            # F(P) lies strictly inside the independent F(P, l), so a point
            # pencil is never maximal; the classes of a covering are.
            expect_maximal = variant != "point_pencil"
            if checked.get("maximal") is not expect_maximal:
                errors.append(f"{variant}: maximal is {checked.get('maximal')}")
            if checked["classified"] != desc:
                errors.append(f"{variant}: classified descriptor differs from the input")
            if built["total"] != checked["total"]:
                errors.append(f"{variant}: build and check totals differ")
        return errors

    def work(self, outs: List[Done]) -> Dict[str, int]:
        totals = [json.loads(o.stdout)["total"] for o in outs[1::2]]
        return {"certified_pairs": sum(comb(t, 2) for t in totals), "descriptors": len(totals)}


WORKLOADS = ("verify-3-2", "probe-2-4", "indset-2-3")


def make_workload(name: str, small: bool):
    """--small runs the same jobs at (2, 2) for the smoke test."""
    if name == "verify-3-2":
        return VerifyCover(*((2, 2) if small else (3, 2)))
    if name == "probe-2-4":
        return Probe(*((2, 2, 4) if small else (2, 4, PROBE_SAMPLES)))
    if name == "indset-2-3":
        return IndsetCheck(*((2, 2) if small else (2, 3)))
    raise SystemExit(f"perfbench: unknown workload {name!r}")


def check_job(workload, outs: List[Done], flag_count: int, reference: Optional[List[str]]) -> List[str]:
    """Every failed check of one job; an empty list means the job counts."""
    errors = [f"qkneser {' '.join(s.argv)} exited {o.code}: {o.stderr.strip()[-200:]}"
              for s, o in zip(workload.steps, outs) if o.code != 0]
    if errors:
        return errors
    try:
        errors = workload.check(outs, flag_count)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed CLI output: {exc!r}"]
    if reference is not None and [o.stdout for o in outs] != reference:
        errors.append("output differs between jobs with the same inputs")
    return errors


# ---------------------------------------------------------------------------
# reporting


def static_record() -> Dict:
    import numpy

    lines = {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "qkneser").glob("*.py"))}
    return {
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": os.cpu_count() or 1,
    }


def quartiles(values: List[float]) -> Dict:
    # inclusive: with the few jobs of one run, stay within the observed range
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2], "samples": len(values)}


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


RATES = ("certified_pairs", "samples", "descriptors")


def rates(workload, outs: Optional[List[Done]], wall: float) -> Dict[str, float]:
    """Work per second of a passing job for each of RATES; 0 where there is no such work."""
    work = workload.work(outs) if outs else {}
    return {f"{name}_per_s": work.get(name, 0) / wall for name in RATES}


def layer_metrics(traces: List[Dict]):
    """(span summary, per-layer metrics) of one traced job, summed over its processes."""
    layers: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    for t in traces:
        for name, row in spans.summarize(t["spans"]).items():
            acc = layers.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for name, value in t["counters"].items():
            combine = max if name == "parallel.threads" else (lambda a, b: a + b)
            counters[name] = combine(counters.get(name, 0), value)

    def busy(name):
        return layers.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def count(name):
        return counters.get(name, 0)

    pairs = count("kernel.pairs")
    classify_calls = calls("indsets.classify")
    greedy_sets = count("explore.greedy_sets")
    return layers, {
        "cli.parse_s": metric(busy("cli.parse"), "s"),
        "cli.report_json_s": metric(busy("cli.report_json"), "s"),
        "pg.enumerate_s": metric(busy("pg.enumerate"), "s"),
        "universe.build_s": metric(busy("universe.build"), "s"),
        "universe.flags": metric(count("universe.flags"), "count"),
        "universe.column_bytes": metric(count("universe.column_bytes"), "bytes"),
        "pg.lattice_s": metric(busy("pg.lattice"), "s"),
        "pg.lattice_calls": metric(calls("pg.lattice"), "count"),
        "kernel.pair_scan_s": metric(busy("kernel.pair_scan"), "s"),
        "kernel.pair_scan_calls": metric(calls("kernel.pair_scan"), "count"),
        "kernel.pairs": metric(pairs, "count"),
        "kernel.ns_per_pair": metric(busy("kernel.pair_scan") * 1e9 / pairs if pairs else 0.0, "ns"),
        "kernel.word_ops": metric(count("kernel.word_ops"), "count"),
        "kernel.bytes_computed": metric(count("kernel.bytes_computed"), "bytes"),
        "kernel.extension_s": metric(busy("kernel.extension"), "s"),
        "kernel.extension_calls": metric(calls("kernel.extension"), "count"),
        "indsets.find_extension_s": metric(busy("indsets.find_extension"), "s"),
        "parallel.threads": metric(count("parallel.threads"), "count"),
        "parallel.blocks": metric(count("parallel.blocks"), "count"),
        "parallel.run_blocks_s": metric(busy("parallel.run_blocks"), "s"),
        "indsets.build_s": metric(busy("indsets.build"), "s"),
        "indsets.independence_s": metric(busy("indsets.independence"), "s"),
        "indsets.python_pairs": metric(count("indsets.python_pairs"), "count"),
        "indsets.masks_s": metric(busy("indsets.masks"), "s"),
        "indsets.classify_s": metric(busy("indsets.classify"), "s"),
        "indsets.classify_calls": metric(classify_calls, "count"),
        "indsets.classify_hit_ratio": metric(
            count("indsets.classify_hits") / classify_calls if classify_calls else 0.0, "ratio"),
        "cover.build_s": metric(busy("cover.build"), "s"),
        "cover.verify_s": metric(busy("cover.verify"), "s"),
        "explore.greedy_s": metric(busy("explore.greedy"), "s"),
        "explore.mean_set_size": metric(
            count("explore.greedy_flags") / greedy_sets if greedy_sets else 0.0, "count"),
    }


# ---------------------------------------------------------------------------
# runs


def measure(bench: Bench, workload, flag_count: int, seconds: float):
    setups: List[float] = []
    attempted, failures = 0, []
    walls, rss, job_rates = [], [], []
    reference = None
    last_wall = busy = 0.0
    # the clock counts job time only, so set-up does not change the job count
    while attempted < MIN_JOBS or busy < seconds:
        if time.monotonic() + last_wall > bench.deadline:
            break
        # set-up samples sit between the first jobs, so both medians span the run
        if len(setups) < SETUP_REPS:
            setups.append(bench.setup_time(workload.d, workload.q))
        outs = bench.job(workload.steps)
        attempted += 1
        last_wall = sum(o.wall_s for o in outs)
        busy += last_wall
        errors = check_job(workload, outs, flag_count, reference)
        if errors:
            failures.append(errors)
            continue
        reference = reference or [o.stdout for o in outs]
        walls.append(last_wall)
        rss.append(max(o.rss_mb for o in outs))
        job_rates.append(rates(workload, outs, last_wall))
    while len(setups) < SETUP_REPS:
        setups.append(bench.setup_time(workload.d, workload.q))
    if not walls:  # every job failed: report the times anyway, marked incorrect
        walls, rss = [last_wall], [0.0]

    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }
    detail = {
        "wall_s": quartiles(walls),
        "setup_s": quartiles(setups),
        "error_rate": len(failures) / attempted,
        "rates": ({k: statistics.median(r[k] for r in job_rates) for k in job_rates[0]}
                  if job_rates else rates(workload, None, 1.0)),
        "failures": failures,
    }
    return attempted, len(failures), metrics, detail


def trace(bench: Bench, workload, flag_count: int, trace_path: Path):
    startups = []
    for _ in range(STARTUP_REPS):
        done = bench.cli(["--version"])
        if done.code != 0 or not done.stdout.startswith("qkneser"):
            raise SetupFailed(f"qkneser --version exited {done.code}")
        startups.append(done.wall_s)
    plain = bench.job(workload.steps)
    plain_errors = check_job(workload, plain, flag_count, None)
    traced, traces = bench.traced_job(workload.steps)
    traced_errors = check_job(workload, traced, flag_count, [o.stdout for o in plain])
    failures = [e for e in (plain_errors, traced_errors) if e]
    plain_wall = sum(o.wall_s for o in plain)

    layers, metrics = layer_metrics(traces)
    metrics["cli.startup_s"] = metric(statistics.median(startups), "s")
    metrics["tracing.overhead_s"] = metric(sum(o.wall_s for o in traced) - plain_wall, "s")
    plain_rates = rates(workload, None if plain_errors else plain, plain_wall)
    metrics.update((name, metric(value, "1/s")) for name, value in plain_rates.items())
    metrics["error_rate"] = metric(len(failures) / 2, "ratio")
    trace_path.write_text(json.dumps({"processes": traces, "layers": layers}))
    detail = {"layers": layers, "untraced_wall_s": plain_wall, "failures": failures,
              "spans_file": str(trace_path.relative_to(ROOT))}
    return 2, len(failures), metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="run every workload at (2, 2)")
    args = parser.parse_args(argv)

    if not (SRC / "qkneser" / "cli.py").is_file():
        print(f"perfbench: no qkneser sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from qkneser import qcalc

    workload = make_workload(args.workload, args.small)
    flag_count = qcalc.flag_count(workload.d, workload.q)
    if flag_count > FLAG_CAP:
        print(f"perfbench: (d, q) = ({workload.d}, {workload.q}) has {flag_count} flags, "
              f"over the cap of {FLAG_CAP}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        bench = Bench(workdir)
        bench.cli_output(["--version"])  # compile bytecode and fill the page cache
        workload.prepare(bench, random.Random(f"{args.workload}:{args.seed}"))
        if args.trace:
            suffix = "-small" if args.small else ""
            trace_path = OUT_DIR / f"trace-{args.workload}{suffix}-seed{args.seed}.json"
            attempted, failed, metrics, detail = trace(bench, workload, flag_count, trace_path)
        else:
            attempted, failed, metrics, detail = measure(bench, workload, flag_count, args.seconds)
    except SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, small=args.small,
                  static=static_record())
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
