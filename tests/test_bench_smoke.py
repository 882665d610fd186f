"""The benchmark runs, and its values match its frozen references.

For each workload declared in ``BENCHMARK.json``, ``bench/run.py`` runs for
one second in a subprocess.  It exits 1 on a value outside its err against
``bench/refs.json``, on a replay that differs in a bit, or on a broken
contract with ``bench/worker.py`` or ``bench/spans.py``, so a change that
does any of these fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_second_run_is_correct(workload):
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout.strip().splitlines()[-1])["correct"] is True
