"""The whole benchmark on AG(3, 2)-sized inputs, in seconds."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

BENCH = os.path.dirname(run.__file__)


@pytest.mark.parametrize("workload", ["search", "scheme", "verify"])
def test_smoke_run_is_correct(workload):
    record = run.run_workload(workload, 1, 0, False, scale="smoke")
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] == len(record["ops"])
    for name, value in record["end_to_end"].items():
        assert value > 0, name
    assert record["env"]["nproc"] >= 1


def test_smoke_trace_reports_layers():
    record = run.run_workload("search", 1, 0, True, scale="smoke")
    assert record["failed"] == 0, record["failures"]
    layers = record["per_layer"]
    assert layers["classify.nodes"] > 0
    assert layers["classify.search_cl_ksets.calls"] == 2
    assert all(v >= 0 for k, v in layers.items() if k.endswith("self_s"))
    assert "trace.overhead_s" in layers
    assert record["trace_violations"] == []


def test_gate_counts_a_wrong_verdict(monkeypatch):
    import workloads
    real = workloads.build

    def flipped(workload, seed, scale="full"):
        ops = real(workload, seed, scale)
        ops[0]["expect"]["cl"] = not ops[0]["expect"]["cl"]
        return ops
    monkeypatch.setattr(workloads, "build", flipped)
    record = run.run_workload("verify", 1, 0, False, scale="smoke")
    assert record["failed"] == 1
    assert record["failures"][0]["op"] == "verify_ag32_pencil_a"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "clagbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "clagbench/run.py", "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_has_exactly_the_contract_keys(capsys, monkeypatch):
    real = run.run_workload
    monkeypatch.setattr(run, "run_workload", lambda w, s, sec, t: real(
        w, s, sec, t, scale="smoke"))
    assert run.main(["--workload", "scheme", "--seconds", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    doc = json.loads(last)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    spec = run.load_spec()
    assert list(doc["metrics"]) == [m["name"] for m in spec["end_to_end"]]
