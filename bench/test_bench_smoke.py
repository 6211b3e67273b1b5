"""Smoke test of the benchmark itself at tiny sizes.

Checks the shape of the result line against BENCHMARK.json, that exact
counters and the attempted and failed operations repeat for a repeated
seed, and that the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    counters = next(json.loads(l[len("counters "):]) for l in lines if l.startswith("counters "))
    return json.loads(lines[-1]), counters


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_and_traced_runs(workload):
    result, counters = parse(run(workload, 0))
    check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced, traced_counters = parse(run(workload, 1))
    check_result(traced, SPEC["per_layer"])
    assert traced_counters["io.bytes_written"] > 0
    # same seed, same exact counters; the traced run adds the writer bytes
    assert {k: traced_counters[k] for k in counters} == counters
    # and the same operations, however many passes each run fitted in
    assert (traced["attempted"], traced["failed"]) == (result["attempted"], result["failed"])


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("sample-tw48", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
