"""Self-test of the benchmark, in quick mode (tenfold smaller inputs).

    python3 -m pytest -q perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the traced steady-state times add up, that the sweep oracle is not
vacuous, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def quick_results():
    results = {}
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = _run("--workload", name, "--seed", "7", "--seconds", "0.5",
                        "--trace", str(trace), "--quick")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            results[name, trace] = (lines[:-1], json.loads(lines[-1]))
    return results


@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_its_unit(quick_results, trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for name in workloads.NAMES:
        text, result = quick_results[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"])
            assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                       for line in text), m["name"]


def test_end_to_end_metrics_are_never_zero(quick_results):
    for name in workloads.NAMES:
        for metric in quick_results[name, 0][1]["metrics"].values():
            assert metric["value"] > 0


def test_timing_lines_carry_p90_and_sample_count(quick_results):
    text = quick_results["sweep", 0][0]
    for metric in ("setup_s", "pass_s"):
        line = next(line for line in text if line.split()[:1] == [metric])
        assert "p90" in line and "n=" in line


def test_failed_share_at_the_seed(quick_results):
    shares = {name: quick_results[name, 0][1]["metrics"]["ok_share"]["value"]
              for name in workloads.NAMES}
    assert shares["sweep"] == 1.0 and shares["evolve"] == 1.0
    assert shares["validate"] == pytest.approx(8 / 9)
    assert 0.0 < shares["sweep_stiff"] < 1.0


def test_steady_time_splits_into_svd_lu_and_self(quick_results):
    for name in workloads.NAMES:
        m = {k: v["value"] for k, v in quick_results[name, 1][1]["metrics"].items()}
        parts = m["solver.svd_us"] + m["solver.lu_us"] + m["solver.steady_self_us"]
        assert parts == pytest.approx(m["solver.steady_us"], rel=1e-9, abs=1e-9)


def test_layer_table_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_UNITS


def _sweep_csv(tmp_path, wl) -> str:
    from mesorate.cli import cli_main

    config = workloads.write_config(wl, str(tmp_path))
    out = str(tmp_path / "sweep.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(wl.argv(config, out)) == 0
    with open(out, encoding="utf-8") as fh:
        return fh.read()


def test_oracle_rejects_a_row_off_by_1e9(tmp_path):
    wl = workloads.make("sweep", 3, quick=True)
    text = _sweep_csv(tmp_path, wl)
    clean = oracle.check_sweep(text, wl)
    assert clean.ok == clean.points == 100 and clean.wrong == 0

    lines = text.splitlines()
    fields = lines[42].split(",")
    fields[1] = repr(float(fields[1]) * (1.0 + 1e-9))
    lines[42] = ",".join(fields)
    perturbed = oracle.check_sweep("\n".join(lines) + "\n", wl)
    assert perturbed.ok == 99 and perturbed.wrong == 1


def test_stiff_oracle_counts_nan_rows_as_not_ok(tmp_path):
    wl = workloads.make("sweep_stiff", 3, quick=True)
    check = oracle.check_sweep(_sweep_csv(tmp_path, wl), wl)
    assert check.wrong == 0 and 0 < check.ok < check.points


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
