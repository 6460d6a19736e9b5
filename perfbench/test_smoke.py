"""Smoke test of the benchmark: every workload at (2, 2) in a few seconds.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = run.WORKLOADS  # the gated workloads and the one run by hand


def test_gated_workloads_are_known():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _cli(*args, stdin=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "qkneser.cli", *args], input=stdin,
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result, detail = json.loads(result_line), json.loads(detail_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
    home_rate = {"verify-3-2": "certified_pairs_per_s", "probe-2-4": "samples_per_s",
                 "indset-2-3": "descriptors_per_s"}[workload]
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0
        assert result["metrics"][home_rate]["value"] > 0
    else:
        assert detail["error_rate"] == 0
        assert detail["rates"][home_rate] > 0
        assert detail["wall_s"]["samples"] == result["attempted"]
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    static = detail["static"]
    assert static["src_lines"]["cli.py"] > 0
    assert {"nproc", "python", "numpy", "threads"} <= set(static)


def test_mapped_certificate_still_verifies():
    pinned = json.loads(_cli("cover", "build", "--d", "2", "--q", "2").stdout)
    m = inputs.random_invertible(5, 2, random.Random("verify-3-2:5"))
    mapped = inputs.map_certificate(pinned, m, 2)
    assert mapped["classes"] != pinned["classes"]
    proc = _cli("cover", "verify", stdin=json.dumps(mapped))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["valid"] is True


def test_different_seeds_give_different_inputs():
    pinned = json.loads(_cli("cover", "build", "--d", "2", "--q", "3").stdout)
    images = [inputs.map_certificate(pinned, inputs.random_invertible(5, 3, random.Random(s)), 3)
              for s in ("indset-2-3:1", "indset-2-3:2")]
    assert images[0] != images[1]


def test_size_guard_refuses_before_any_job(monkeypatch, capsys):
    monkeypatch.setattr(run, "FLAG_CAP", 100)
    code = run.main(["--workload", "verify-3-2", "--seed", "1", "--seconds", "1", "--small"])
    captured = capsys.readouterr()
    assert code != 0 and captured.out == ""
    assert "over the cap" in captured.err


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
