"""``simulate`` against trajectories frozen before the engine refactor.

Every case in ``tests/data/simulate_goldens.json`` is re-run from its stored
initial flow; every recorded time, flow and phase record must match at
1e-12 relative (not bitwise: other CPUs and numpy builds may round the last
bit differently).  The cases and the script that wrote them live in
``tests/data/simulate_goldens.py``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.instances import get_instance
from repro.wardrop import FlowVector

DATA = Path(__file__).resolve().parents[1] / "data"
RTOL = 1e-12

_spec = importlib.util.spec_from_file_location("simulate_goldens", DATA / "simulate_goldens.py")
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)

with goldens.GOLDEN_PATH.open() as _handle:
    GOLDENS = json.load(_handle)


def assert_close(got, expected, what: str) -> None:
    expected = np.asarray(expected, dtype=float)
    got = np.asarray(got, dtype=float)
    assert got.shape == expected.shape, f"{what}: shape {got.shape} != {expected.shape}"
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    np.testing.assert_allclose(got, expected, rtol=RTOL, atol=RTOL * scale, err_msg=what)


def test_every_case_has_a_golden():
    assert sorted(GOLDENS) == sorted(goldens.CASES)


@pytest.mark.parametrize("name", sorted(goldens.CASES))
def test_simulate_matches_golden(name):
    golden = GOLDENS[name]
    spec = golden["spec"]
    assert spec == goldens.CASES[name]
    network = get_instance(spec["instance"])
    initial = FlowVector(network, golden["initial_flow"])
    trajectory = goldens.run_case(spec, initial)
    expected = golden["trajectory"]

    assert trajectory.policy_name == expected["policy_name"]
    assert trajectory.update_period == expected["update_period"]
    assert [p.phase_index for p in trajectory.points] == expected["point_phases"]
    assert_close(trajectory.times, expected["times"], "times")
    assert_close(trajectory.flow_matrix(), expected["flows"], "flows")
    assert len(trajectory.phases) == len(expected["phases"])
    for got, want in zip(trajectory.phases, expected["phases"]):
        assert got.index == want["index"]
        assert_close([got.start_time, got.end_time], [want["start_time"], want["end_time"]],
                     f"phase {want['index']} times")
        assert_close(got.start_flow.values(), want["start_flow"], f"phase {want['index']} start")
        assert_close(got.end_flow.values(), want["end_flow"], f"phase {want['index']} end")
