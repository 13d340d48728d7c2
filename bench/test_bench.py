"""Tests of the benchmark harness itself, on tiny inputs.

    PYTHONPATH=src python -m pytest bench -q
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
sys.modules["bench_run"] = run
_spec.loader.exec_module(run)
run.load_package()


def tiny_checks(workload):
    """A few fast checks of each workload, built the way the workload builds its own."""
    ex = run.tc.exact
    if workload == "tc_oracle":
        return [run.tc_check(2, 3, k, ex.appendix_table(2)[(3, k)]) for k in range(3)]
    if workload == "otc_oracle":
        return [run.otc_check(2, 3, k, ex.otc_count(2, 3, k)) for k in range(3)]
    if workload == "analytic":
        cheap = ("crit01", "crit04", "crit05", "crit07", "crit08", "crit09", "crit11")
        return [c for c in run.analytic_checks() if c.label.startswith(cheap)]
    cheap = ("cli count", "cli enumerate words")
    return [c for c in run.readme_cli_checks() if c.label.startswith(cheap)]


def measure(workload, trace, checks):
    return run.run_workload(
        workload, seed=0, seconds=0, trace=trace, checks=checks, setup_repeats=1
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_declared_metric(workload, trace):
    record = measure(workload, trace, tiny_checks(workload))
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        shown = result["metrics"][m["name"]]
        assert shown["unit"] == m["unit"]
        assert isinstance(shown["value"], (int, float))
    for key in ("nproc", "cpu_model", "python", "numpy", "loadavg_at_start", "git_commit"):
        assert key in record["machine"]
    assert record["seed"] == 0
    if trace:
        assert sum(record["self_s"].values()) <= record["traced_wall_s"] + 1e-6


def test_corrupted_expected_count_fails():
    wrong = run.tc.exact.appendix_table(2)[(3, 2)] + 1
    record = measure("tc_oracle", False, [run.tc_check(2, 3, 2, wrong)])
    assert record["fail_frac"] == 1.0
    assert record["result"]["correct"] is False
    assert record["result"]["failed"] == 1


@pytest.mark.parametrize("trace", [False, True])
def test_corrupted_golden_fails(trace):
    golden = json.loads(run.GOLDENS.read_text())["commands"][2]
    corrupted = dict(golden, sha256="0" * 64)
    good = run.cli_check(golden["argv"], golden, run.cli_env())
    bad = run.cli_check(golden["argv"], corrupted, run.cli_env())
    record = measure("readme_cli", trace, [good, bad])
    assert record["fail_frac"] == 0.5
    assert record["result"]["failed"] == (2 if trace else 1)


def test_seed_only_permutes_order():
    for workload in ("tc_oracle", "analytic", "readme_cli"):
        a = [c.label for c in run.make_inputs(workload, 1)]
        b = [c.label for c in run.make_inputs(workload, 2)]
        assert sorted(a) == sorted(b) and a != b
        assert a == [c.label for c in run.make_inputs(workload, 1)]


def test_fails_without_package_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tc_oracle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
