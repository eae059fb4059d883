"""Tests of the benchmark itself, at populations small enough for CI.

Every run goes through ``run.py`` in a fresh interpreter, the way the
benchmark is invoked; that also covers the ``repro.serving`` circular
import, which only shows when nothing else imported ``repro.simulation``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = ["--seconds", "0", "--scale", "0.05"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def body():
        inner()
        inner()
        return sum(range(20000))

    outer = tracer.wrap("outer", body)
    outer()
    table = tracer.layer_table()
    assert table["outer"]["calls"] == 1 and table["inner"]["calls"] == 2
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"], abs=1e-9)
    assert table["inner"]["self_s"] == pytest.approx(table["inner"]["total_s"])


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    counted = tracer.wrap_counted("calls", abs)
    traced = tracer.wrap("span", abs)
    tracer.active = False
    counted(-1)
    traced(-1)
    assert len(tracer) == 0 and tracer.counters["calls"] == 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    completed = _run("--workload", workload, "--seed", "3", "--trace", "0",
                     "--record", str(tmp_path / "record.json"), *SMALL)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["env"]["nproc"] >= 1 and record["counters"]["queries"] > 0


@pytest.mark.parametrize("workload,rebuilds", [
    ("oracle-read", False), ("oracle-churn", True),
    ("protocol-serve", False), ("protocol-repair", True)])
def test_traced_run_reports_every_per_layer_metric(workload, rebuilds, tmp_path):
    completed = _run("--workload", workload, "--seed", "3", "--trace", "1",
                     "--record", str(tmp_path / "record.json"), *SMALL)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert (metrics["geometry.kernel.rebuild.calls"]["value"] > 0) is rebuilds
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["tracing"]["spans"] > 0
    assert (ROOT / record["tracing"]["spans_file"]).is_file()


@pytest.mark.parametrize("workload", ["oracle-churn", "protocol-repair"])
def test_work_counters_repeat_at_one_seed(workload):
    completed = _run("--workload", workload, "--seed", "5",
                     "--check-determinism", "--scale", "0.05")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert json.loads(completed.stdout.strip().splitlines()[-1])["identical"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout
