"""The benchmark's own tests.

    python3 -m pytest perfbench/test_repeat.py

Two traced runs of the same code, in separate processes, must give
identical work counts and quality numbers; and the benchmark must refuse to
run without the program's sources. Running every workload twice takes a
few minutes, so these tests sit outside the repository's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gss-h16", "gss-h256", "ft-quantics", "ft-rebuild-n256")
EXACT_METRICS = (
    "sweeps.steps",
    "linalg.matvecs",
    "linalg.svd_calls",
    "operators.renormalize_calls",
    "factorize.env_calls",
    "topology.set_distance_calls",
)
EXACT_QUALITY = ("sweeps_run", "energy_per_site", "infidelity", "mean_aux_entropy")


def run_bench(cwd: Path, workload: str, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def traced_record(workload: str, seed: int = 3) -> dict:
    proc = run_bench(HERE.parent, workload, seed)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"], proc.stdout
    path = HERE / "_work" / f"{workload}-seed{seed}-trace1" / "record.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_runs_repeat_exactly(workload):
    first = traced_record(workload)
    second = traced_record(workload)
    for key in EXACT_METRICS:
        assert first["metrics"][key] == second["metrics"][key], key
    for key in EXACT_QUALITY:
        assert first["quality"][key] == second["quality"][key], key


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "gss-h16", 1)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
