"""Tests of the benchmark itself; run with ``python3 -m pytest bench``.

Each test runs ``bench/run.py`` from the command line, in a subprocess, for a
second per workload.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int, seconds: int = 1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def last_json(stdout: str):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


@pytest.mark.parametrize("trace", [0, 1])
# reach is not declared in BENCHMARK.json but stays runnable by hand
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["reach"])
def test_every_metric_present_and_finite(workload, trace):
    p = run_bench(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr
    result = last_json(p.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == set(declared)
    for name, m in metrics.items():
        assert m["unit"] == declared[name]
        assert math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", ["cli-cold", "table-warm"])
def test_wrong_certified_value_fails_the_run(tmp_path, workload):
    """References moved by 1e-6, beyond every err, make each certified value wrong."""
    root = copy_checkout(tmp_path)
    refs_path = root / "bench" / "refs.json"
    refs = json.loads(refs_path.read_text())
    refs["values"] = {k: repr(float(v) + 1e-6) for k, v in refs["values"].items()}
    refs_path.write_text(json.dumps(refs))
    p = run_bench(root, workload, 0)
    assert p.returncode == 1
    assert "from the reference, beyond its err" in p.stderr
    assert last_json(p.stdout) is None


def test_refuses_a_directory_without_the_program(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    p = run_bench(root, "table-warm", 0)
    assert p.returncode != 0
    assert last_json(p.stdout) is None
