"""Unit tests for the bulletin board and the numerical integrators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BulletinBoard,
    euler_step,
    integrate,
    integration_step_for,
    rk4_step,
)
from repro.wardrop import FlowVector


class TestBulletinBoard:
    def test_requires_positive_period(self, two_links):
        with pytest.raises(ValueError):
            BulletinBoard(two_links, 0.0)

    def test_snapshot_before_post_raises(self, two_links):
        board = BulletinBoard(two_links, 0.5)
        with pytest.raises(RuntimeError):
            _ = board.snapshot

    def test_phase_start_floor(self, two_links):
        board = BulletinBoard(two_links, 0.5)
        assert board.phase_start(0.74) == pytest.approx(0.5)
        assert board.phase_start(1.0) == pytest.approx(1.0)

    def test_posted_latencies_are_frozen(self, two_links):
        board = BulletinBoard(two_links, 1.0)
        lopsided = FlowVector(two_links, [0.9, 0.1])
        board.post(0.0, lopsided.values())
        posted = board.snapshot.path_latencies.copy()
        # The flow changes, but within the phase the board must not.
        assert not board.maybe_update(0.5, np.array([0.5, 0.5]))
        assert np.allclose(board.snapshot.path_latencies, posted)

    def test_update_at_phase_boundary(self, two_links):
        board = BulletinBoard(two_links, 1.0)
        board.post(0.0, np.array([0.9, 0.1]))
        assert board.maybe_update(1.0, np.array([0.5, 0.5]))
        assert board.phase_index == 1
        assert np.allclose(board.snapshot.path_flows, [0.5, 0.5])

    def test_needs_update_initially(self, two_links):
        board = BulletinBoard(two_links, 1.0)
        assert board.needs_update(0.0)

    def test_path_latencies_consistent_with_edge_latencies(self, braess):
        board = BulletinBoard(braess, 0.5)
        flow = FlowVector.uniform(braess)
        snapshot = board.post(0.0, flow.values())
        expected = braess.path_latencies(flow.values())
        assert np.allclose(snapshot.path_latencies, expected)


class TestIntegrators:
    def test_euler_linear_decay(self):
        # dx/dt = -x, x(0)=1: Euler with small steps approximates exp(-1).
        field = lambda t, x: -x
        state = np.array([1.0])
        result = integrate(field, state, 0.0, 1.0, max_step=1e-3, method="euler")
        assert result[0] == pytest.approx(np.exp(-1.0), rel=1e-2)

    def test_rk4_linear_decay_high_accuracy(self):
        field = lambda t, x: -x
        state = np.array([1.0])
        result = integrate(field, state, 0.0, 1.0, max_step=0.05, method="rk4")
        assert result[0] == pytest.approx(np.exp(-1.0), rel=1e-7)

    def test_rk4_more_accurate_than_euler(self):
        field = lambda t, x: -x
        state = np.array([1.0])
        exact = np.exp(-1.0)
        euler = integrate(field, state, 0.0, 1.0, max_step=0.05, method="euler")[0]
        rk4 = integrate(field, state, 0.0, 1.0, max_step=0.05, method="rk4")[0]
        assert abs(rk4 - exact) < abs(euler - exact)

    def test_single_steps(self):
        field = lambda t, x: np.array([2.0])
        assert euler_step(field, 0.0, np.array([0.0]), 0.5)[0] == pytest.approx(1.0)
        assert rk4_step(field, 0.0, np.array([0.0]), 0.5)[0] == pytest.approx(1.0)

    def test_time_dependent_field(self):
        # dx/dt = t  ->  x(1) = 1/2.
        field = lambda t, x: np.array([t])
        result = integrate(field, np.array([0.0]), 0.0, 1.0, max_step=0.01, method="rk4")
        assert result[0] == pytest.approx(0.5, rel=1e-6)

    def test_zero_duration_returns_copy(self):
        state = np.array([1.0, 2.0])
        result = integrate(lambda t, x: -x, state, 1.0, 1.0, max_step=0.1)
        assert np.allclose(result, state)
        assert result is not state

    def test_invalid_arguments(self):
        field = lambda t, x: -x
        with pytest.raises(ValueError):
            integrate(field, np.array([1.0]), 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            integrate(field, np.array([1.0]), 0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            integrate(field, np.array([1.0]), 0.0, 1.0, 0.1, method="leapfrog")

    def test_integration_step_for(self):
        assert integration_step_for(0.5, 50) == pytest.approx(0.01)
        with pytest.raises(ValueError):
            integration_step_for(0.0, 50)
