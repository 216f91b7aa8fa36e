"""Tiny runs of every workload print exactly the metrics BENCHMARK.json names."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def command(workload: str, trace: int, size: str = "tiny"):
    argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
            "--seed", "5", "--seconds", "0.5", "--trace", str(trace)]
    return argv + ["--size", size] if size else argv


def run(workload: str, trace: int, cwd: Path = ROOT, size: str = "tiny"):
    return subprocess.run(command(workload, trace, size), cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def session_members(sid: int):
    """Pids of the live processes in session ``sid``, read from /proc."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry.name))
    return members


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_declared_metrics(workload, trace):
    completed = run(workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    completed = run(WORKLOADS[0], 0, cwd=tmp_path, size="")
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_leaves_no_process_behind(workload):
    # A session of its own holds the run and every process it starts; the
    # moment the run has exited, nothing may be left in it.  A plain blocking
    # wait returns at once, where wait(timeout=...) polls and can miss a
    # helper that lingers only briefly; the timer bounds a hung run instead.
    process = subprocess.Popen(command(workload, 0), cwd=ROOT, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, start_new_session=True)
    timer = threading.Timer(170, os.killpg, (process.pid, signal.SIGKILL))
    timer.start()
    try:
        assert process.wait() == 0
        assert session_members(process.pid) == []
    finally:
        timer.cancel()
        if session_members(process.pid):
            os.killpg(process.pid, signal.SIGKILL)
