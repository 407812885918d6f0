"""Smoke test of the end-to-end benchmark at tiny sizes.

Outside tier-1 (``testpaths = ["tests"]``); run it explicitly:

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, root=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=timeout)


def test_quick_run_reports_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "result.json"
    proc = _run("--quick", "--seconds", "1", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["host"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    for workload in SPEC["workloads"]:
        entry = result["workloads"][workload["name"]]
        assert entry["correct"], entry["checks"]
        for section, key in (("end_to_end", "metrics"),
                             ("per_layer", "per_layer")):
            for metric in SPEC[section]:
                reported = entry[key][metric["name"]]
                assert reported["unit"] == metric["unit"]
                assert isinstance(reported["value"], (int, float))
        for name in entry["metrics"]:
            assert f"{workload['name']} {name} = " in proc.stdout


def test_single_workload_prints_the_result_line():
    proc = _run("--workload", "robust", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and not last["failed"]
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "extract", "--seed", "0", "--seconds", "1",
                "--trace", "0", root=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
