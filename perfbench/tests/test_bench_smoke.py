"""Smoke runs of the benchmark command, and the tracer's rebinding.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct(workload):
    proc = run_bench(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    facts = json.loads(lines[-2])["machine"]
    assert {"nproc", "python", "numpy", "scipy", "blas", "threads", "seed"} <= set(facts)


def test_traced_smoke_run_reports_every_layer():
    proc = run_bench(ROOT, "certify", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["certify.error_scan.points"]["value"] == 20
    assert result["metrics"]["matcore.expm.calls"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(tmp_path, "certify", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_rebinds_every_alias():
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import trotterion.apps.chain
    import trotterion.bases
    import trotterion.matcore
    import trotterion.solver

    original = trotterion.matcore.expm
    t = tracer.Tracer()
    t.install()
    try:
        assert trotterion.matcore.expm is not original
        assert trotterion.apps.chain.expm is trotterion.matcore.expm
        assert trotterion.solver.reparam is trotterion.bases.reparam
        trotterion.solver.solve_p_of_r(5.0)
    finally:
        t.uninstall()
    assert trotterion.apps.chain.expm is original
    metrics = t.metrics(1)
    assert metrics["solver.solve_p_of_r.calls"] == 1
    assert metrics["solver.solve_p_of_r.residuals_per_call"] == metrics["bases.reparam.calls"] > 0
    assert 0.0 <= metrics["bases.reparam.self_s"]


def test_union_length_merges_overlaps():
    sys.path.insert(0, str(BENCH))
    import tracer

    assert tracer._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
