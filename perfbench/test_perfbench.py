"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402
from artifact import quantum_double  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_of_the_spec(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_wrong_fusion_tensor_is_counted_as_failed(monkeypatch):
    exact = quantum_double.fusion_verlinde
    monkeypatch.setattr(quantum_double, "fusion_verlinde", lambda g: exact(g) + 1)
    bench = workloads.Pass()
    workloads.modular(bench, seed=3, tiny=True)
    assert bench.failed > 0
    assert all("fusion" in line for line in bench.failures), bench.failures

    clean = workloads.Pass()
    monkeypatch.setattr(quantum_double, "fusion_verlinde", exact)
    workloads.modular(clean, seed=3, tiny=True)
    assert clean.failed == 0 and clean.attempted == bench.attempted


def test_speed_samples_are_taken_out_of_the_operation_they_interrupt():
    speed = Speedometer(("python", "numpy", "memory"))
    bench = workloads.Pass(speed=speed)
    speed.start()
    try:
        bench.op("busy", lambda: sum(i * i for i in range(3_000_000)), lambda out: out > 0)
    finally:
        speed.stop()
    (start, end), = bench.spans
    assert len(speed.slowdown) >= 3 and all(f > 0 for f in speed.slowdown)
    assert bench.times[0] == pytest.approx(end - start - speed.spent)
    during, = speed.during(bench.spans)
    assert min(speed.slowdown) <= during <= max(speed.slowdown)
    assert speed.during([(end + 1, end + 2)]) == [speed._smoothed()[-1]]


def test_rendered_cells_parse_to_their_values():
    assert workloads.cell_value("(12)/144") == pytest.approx(1 / 12)
    assert workloads.cell_value("2*z4^1 + z4^2") == pytest.approx(-1 + 2j)
    assert workloads.cell_value([0.5, -0.25]) == 0.5 - 0.25j


def test_refuses_to_run_without_the_package_sources():
    stripped = ROOT / ".bench_out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(HERE, stripped / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        proc = run_bench("--workload", "modular", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=stripped, script=stripped / "perfbench" / "run.py")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
