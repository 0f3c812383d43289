"""Tests of the benchmark itself, at a size that runs in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])


def run_bench(workload: str, trace: int, backend: str, seed: int = 7) -> tuple[dict, dict]:
    env = dict(os.environ, HASES_BACKEND=backend)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    meta, result = run_bench(workload, trace, "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, meta["failures"]
    assert all(meta["tamper_rejected"].values())
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert meta["nproc"] and meta["python"] and meta["seed"] == 7
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(meta["samples"]["plain"])
    # times are scaled by the speed factor and rates by its inverse
    scaled, raw, speed = (meta[key]["plain"] for key in ("end_to_end", "end_to_end_raw", "speed"))
    assert scaled["sign_records_per_s"] == pytest.approx(raw["sign_records_per_s"] / speed)
    assert scaled["cco_latency_p90_ms"] == pytest.approx(raw["cco_latency_p90_ms"] * speed)
    assert scaled["server_peak_rss_mb"] == raw["server_peak_rss_mb"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_hash_counts_repeat_exactly(workload):
    first, _ = run_bench(workload, 1, "production")
    second, result = run_bench(workload, 1, "production")
    assert first["hash_counts"] == second["hash_counts"]
    layer = result["metrics"]
    if workload == "pq-online":
        # 1 message digest + k = 16 revealed strings + 1 key update
        assert layer["hashing.calls_per_record"]["value"] == 18
        assert layer["hashing.verify_calls_per_record"]["value"] == 17


def test_refuses_to_run_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pq-online", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sigterm_stops_the_service_and_removes_the_work_files():
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "hy-shared-online", "--seed", "3",
         "--seconds", "60", "--trace", "0"],
        cwd=ROOT, env=dict(os.environ, HASES_BACKEND="tiny"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    workdir = ROOT / ".perfbench_out" / f"work-{proc.pid}"
    deadline = time.monotonic() + 60
    while not any((workdir / "plain").glob("chunk-*.csv")) and proc.poll() is None:
        assert time.monotonic() < deadline
        time.sleep(0.1)
    proc.terminate()
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode != 0 and out.strip() == ""
    assert not workdir.exists()
    # no `hases serve` of this run is left: each one ran with a store under workdir
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            assert str(workdir) not in cmdline.read_text(errors="replace")
        except OSError:
            pass
