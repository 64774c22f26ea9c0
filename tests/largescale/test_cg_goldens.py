"""``simulate_with_column_generation`` against runs frozen before the
column-generation driver became a one-row batch.

Every case in ``tests/data/cg_goldens.json`` is re-run from its stored
initial flow.  Times, flows, phase records and eviction volumes must match
at 1e-12 relative (not bitwise: other CPUs and numpy builds may round the
last bit differently); the final path list, growth events, point phases,
``path_counts`` and eviction phases must match exactly.  The cases and the
script that wrote them live in ``tests/data/cg_goldens.py``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.wardrop import FlowVector

DATA = Path(__file__).resolve().parents[1] / "data"
RTOL = 1e-12

_spec = importlib.util.spec_from_file_location("cg_goldens", DATA / "cg_goldens.py")
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


def test_cases_cover_the_contract():
    """Growth, eviction and an early stop all actually happen in the goldens."""
    results = [golden["result"] for golden in GOLDENS.values()]
    assert any(result["growth_events"] for result in results)
    assert any(result["eviction_events"] for result in results)
    stopped = GOLDENS["grid-3x3/open/stop"]
    assert stopped["result"]["times"][-1] < stopped["spec"]["horizon"]


@pytest.mark.parametrize("name", sorted(goldens.CASES))
def test_column_generation_matches_golden(name):
    golden = GOLDENS[name]
    spec = golden["spec"]
    assert spec == goldens.CASES[name]
    active = goldens.build_active(spec)
    initial = None
    if golden["initial_flow"] is not None:
        initial = FlowVector(active.network, golden["initial_flow"])
    result = goldens.run_case(spec, active, initial)
    got = goldens.result_record(result)
    expected = golden["result"]

    assert got["policy_name"] == expected["policy_name"]
    assert got["update_period"] == expected["update_period"]
    assert got["paths"] == expected["paths"]
    assert got["growth_events"] == expected["growth_events"]
    assert got["path_counts"] == expected["path_counts"]
    assert got["point_phases"] == expected["point_phases"]
    assert [event[0] for event in got["eviction_events"]] == [
        event[0] for event in expected["eviction_events"]
    ]
    assert_close(
        [event[1] for event in got["eviction_events"]],
        [event[1] for event in expected["eviction_events"]],
        "evicted volumes",
    )
    assert_close(got["times"], expected["times"], "times")
    assert_close(got["flows"], expected["flows"], "flows")
    assert len(got["phases"]) == len(expected["phases"])
    for have, want in zip(got["phases"], expected["phases"]):
        what = f"phase {want['index']}"
        assert have["index"] == want["index"]
        assert_close([have["start_time"], have["end_time"]],
                     [want["start_time"], want["end_time"]], f"{what} times")
        assert_close(have["start_flow"], want["start_flow"], f"{what} start")
        assert_close(have["end_flow"], want["end_flow"], f"{what} end")
