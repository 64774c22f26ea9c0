"""Tests of the benchmark itself, on the tiny input sizes.

Run with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def run_all_tiny(trace: int) -> dict:
    """Run every workload at tiny size; return each one's result line."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
        "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny",
    ]
    output = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=True, timeout=600
    ).stdout
    results, current = {}, None
    for line in output.splitlines():
        if line.startswith("== "):
            current = line[3:]
        elif current and line.startswith("{") and current not in results:
            results[current] = json.loads(line)
    return results


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass_prints_every_declared_metric_with_its_unit(trace):
    declared = run.declared_metrics(trace)
    results = run_all_tiny(trace)
    assert sorted(results) == sorted(run.WORKLOAD_NAMES)
    for name, result in results.items():
        assert result["correct"], name
        assert result["failed"] == 0 and result["attempted"] >= 1, name
        assert {m: e["unit"] for m, e in result["metrics"].items()} == declared, name
        for metric, entry in result["metrics"].items():
            if not trace:
                assert entry["value"] > 0.0, (name, metric)
            elif metric != "trace.overhead_frac":  # noise can make it negative
                assert entry["value"] >= 0.0, (name, metric)


def corrupt_pass(workload, corrupt):
    """Make the workload's passes return outputs changed by ``corrupt``."""
    original = workload.run_pass

    def corrupted():
        latencies, outputs = original()
        return latencies, corrupt(outputs)

    workload.run_pass = corrupted
    return workload


def error_rate(workload) -> float:
    tally = run.Tally()
    with HostClock(workload.CALIBRATION) as clock:
        run.timed_pass(workload, workloads.load_reference("tiny", workload.name), tally, clock)
    return tally.failed / tally.attempted


def test_correct_outputs_have_zero_error_rate():
    assert error_rate(workloads.SingleReplica("tiny", seed=2)) == 0.0


def test_mass_off_by_one_millionth_raises_error_rate():
    def shift_mass(outputs):
        outputs = [flows.copy() for flows in outputs]
        outputs[0][0] += 1e-6 * outputs[0].sum()
        return outputs

    workload = corrupt_pass(workloads.SingleReplica("tiny", seed=2), shift_mass)
    assert error_rate(workload) == pytest.approx(1.0 / workload.operations)


def test_fluid_row_off_its_reference_raises_error_rate():
    workload = workloads.FluidSweep("tiny", seed=2)

    def perturb(outputs):
        outputs = [flows.copy() for flows in outputs]
        # Move flow between two paths of one commodity: mass stays exact,
        # only the reference comparison can catch it.
        network = workload.network
        paths = next(
            list(network.paths.commodity_indices(k))
            for k in range(network.num_commodities)
            if len(network.paths.commodity_indices(k)) > 1
        )
        moved = 1e-6 * outputs[0][paths].sum()
        outputs[0][paths[0]] -= moved
        outputs[0][paths[1]] += moved
        return outputs

    assert error_rate(corrupt_pass(workload, perturb)) == pytest.approx(1.0 / workload.operations)


def test_gap_above_target_raises_error_rate():
    workload = corrupt_pass(
        workloads.Equilibrium("tiny", seed=0),
        lambda result: dataclasses.replace(result, relative_gap=2 * workloads.EQUILIBRIUM_GAP),
    )
    assert error_rate(workload) == 1.0


def test_cg_gap_certificate_above_target_raises_error_rate():
    def loosen(result):
        gaps = np.array(result.duality_gaps)
        gaps[-1] = 10 * workloads.CG_GAP
        return dataclasses.replace(result, duality_gaps=gaps)

    workload = corrupt_pass(workloads.CgCity("tiny", seed=2), loosen)
    assert error_rate(workload) == pytest.approx(1.0 / workload.operations)


def test_uninstall_restores_every_wrapped_function():
    import repro.core.dynamics as dynamics
    from repro.core.migration import MigrationRule, ScaledLinearMigration
    from repro.wardrop.flow import FlowVector

    originals = (
        dynamics.rk4_step_batch,
        dict(dynamics._BATCH_STEPPERS),
        MigrationRule.__dict__["matrix_batch"],
        ScaledLinearMigration.__dict__.get("matrix_batch"),
        FlowVector.__dict__["project_batch"],
    )
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert dynamics._BATCH_STEPPERS["rk4"] is not originals[0]
    finally:
        recorder.uninstall()
    assert (
        dynamics.rk4_step_batch,
        dict(dynamics._BATCH_STEPPERS),
        MigrationRule.__dict__["matrix_batch"],
        ScaledLinearMigration.__dict__.get("matrix_batch"),
        FlowVector.__dict__["project_batch"],
    ) == originals
