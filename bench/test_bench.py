"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Every workload runs through `bench/run.py --size tiny`, untraced and traced.
The test checks that every metric of BENCHMARK.json is printed with its unit,
that tracing changes no emitted file, that one seed gives the same files on
two runs, and that the harness refuses to run without the isogeo sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRIPT = SPEC["command"][1]


def _run(workload: str, trace: int, seed: int = 7, cwd: str = ROOT):
    cmd = [sys.executable, SCRIPT, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(ROOT, ".bench_run", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


def _printed_units(stdout: str, workload: str) -> dict:
    """Metric name -> unit from the table lines a run prints for a workload."""
    units = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 5 and parts[0] == workload and parts[4].startswith("n="):
            units[parts[1]] = parts[3]
    return units


def test_one_command_prints_every_end_to_end_metric():
    cmd = [sys.executable, SCRIPT, "--workload", "all", "--seed", "7", "--seconds", "1",
           "--trace", "0", "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    combined = _result(proc)
    assert combined["correct"] and combined["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in WORKLOADS:
        printed = _printed_units(proc.stdout, workload)
        assert printed == {**expected, "failed_share": "ratio"}, workload
        result = {k.split(".", 1)[1]: v for k, v in combined["metrics"].items()
                  if k.split(".", 1)[0] == workload}
        assert {k: v["unit"] for k, v in result.items()} == expected
        assert all(v["value"] > 0 for v in result.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_changes_no_output(workload):
    proc = _run(workload, 1)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert _printed_units(proc.stdout, workload) == expected
    assert result["metrics"]["cli.main.calls"]["value"] >= 1
    record = _record(workload, 7, 1)
    assert record["digests_traced"]
    for key, digests in record["digests_traced"].items():
        assert digests == record["digests"][key]


def test_training_spans_nest_under_train():
    metrics = _result(_run("compare", 1))["metrics"]
    assert metrics["objectives.pgd.input_gradients_per_step"]["value"] == 20
    assert metrics["objectives.pmh.encoder_forwards_per_step"]["value"] == 4
    assert metrics["rng.normal.calls"]["value"] > 0


def test_same_seed_gives_same_outputs():
    digests = []
    for _ in range(2):
        assert _result(_run("talign", 0, seed=11))["correct"]
        digests.append(_record("talign", 11, 0)["digests"])
    assert digests[0] == digests[1]
    _result(_run("talign", 0, seed=12))
    assert _record("talign", 12, 0)["digests"] != digests[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("compare", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
