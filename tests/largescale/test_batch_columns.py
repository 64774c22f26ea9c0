"""Batched column generation: closed-mode bit-identity, union growth,
in-place buffer growth, per-row eviction, stop conditions and the
certificate surface.

``simulate_with_column_generation`` is the one-row run of the batched
driver; the reference for the dynamics themselves is
``tests/data/cg_goldens.json`` (see ``test_cg_goldens.py``).
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import replicator_policy, uniform_policy
from repro.instances import braess_network, grid_network
from repro.largescale import (
    ActivePathSet,
    simulate_with_column_generation,
    simulate_with_column_generation_batch,
)
from repro.largescale.batch_columns import _grow_buffer
from repro.largescale.columns import _evict_closed_columns
from repro.scenarios import LinkIncident, Scenario, get_scenario
from repro.wardrop import FlowVector, equilibrium_violation

DATA = Path(__file__).resolve().parents[1] / "data"


def trajectory_matrix(trajectory):
    """Stack a trajectory's samples into an ``(S, P)`` array."""
    return np.array([point.flow.values() for point in trajectory.points])


def one_row_run(network, policy, closed=True, scenario=None, **kwargs):
    """The one-row batched run every row of a batch must reproduce."""
    return simulate_with_column_generation_batch(
        ActivePathSet.from_network(network, closed=closed),
        policy,
        batch=1,
        scenarios=None if scenario is None else [scenario],
        **kwargs,
    )


class TestClosedModeBitIdentity:
    """Closed-mode batched rows reproduce the one-row run bit for bit."""

    SETTINGS = dict(update_period=0.125, horizon=2.0, steps_per_phase=7)

    @pytest.mark.parametrize("policy_builder", [uniform_policy, replicator_policy])
    @pytest.mark.parametrize(
        "factory",
        [braess_network, lambda: grid_network(2, 3, num_commodities=2, seed=3)],
    )
    def test_rows_match_one_row_closed_runs(self, policy_builder, factory):
        network = factory()
        policy = policy_builder(network)
        batched = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network, closed=True),
            policy,
            batch=3,
            **self.SETTINGS,
        )
        single = one_row_run(network, policy, **self.SETTINGS)
        reference = single.flow_matrix(0)
        assert batched.growth_events == []
        assert np.array_equal(batched.times, single.times)
        for row in range(3):
            assert np.array_equal(reference, batched.flow_matrix(row))

    def test_rows_with_distinct_scenarios_match_one_row_runs(self):
        """Per-row incidents (capacity drops at different times) must leave
        every closed-mode row bit-identical to its own one-row run."""
        network = grid_network(2, 3, num_commodities=2, seed=3)
        policy = uniform_policy(network)
        edge = network.edges[0]
        scenarios = [
            None,
            Scenario(incidents=[LinkIncident(edge, 0.5, 1.25, capacity_factor=0.5)]),
            Scenario(incidents=[LinkIncident(edge, 1.0, 1.75, capacity_factor=0.3)]),
        ]
        batched = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network, closed=True),
            policy,
            scenarios=scenarios,
            **self.SETTINGS,
        )
        for row, scenario in enumerate(scenarios):
            single = one_row_run(network, policy, scenario=scenario, **self.SETTINGS)
            assert np.array_equal(single.flow_matrix(0), batched.flow_matrix(row))

    def test_closure_scenario_rows_match_one_row_runs_including_eviction(self):
        """A closure evicts crossing columns per row at the onset phase; the
        repaired states must still replay the one-row runs exactly."""
        network = braess_network()
        policy = uniform_policy(network)
        scenarios = [get_scenario("braess-closure", network), None]
        settings = dict(update_period=0.5, horizon=14.0, steps_per_phase=5)
        batched = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network, closed=True),
            policy,
            scenarios=scenarios,
            **settings,
        )
        assert batched.eviction_events, "the closure must evict crossing columns"
        assert all(row == 0 for _, row, _ in batched.eviction_events)
        for row, scenario in enumerate(scenarios):
            single = one_row_run(network, policy, scenario=scenario, **settings)
            assert np.array_equal(single.flow_matrix(0), batched.flow_matrix(row))

    def test_closed_rows_on_a_grown_network_match_one_row_run(self):
        """The regression behind the 1-ulp projection bug: freeze a set that
        *grew* (commodity blocks at shifted offsets) and require closed-mode
        rows to stay bit-identical on the grown geometry."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        policy = uniform_policy(network)
        open_result = simulate_with_column_generation(
            ActivePathSet.from_network(network),
            policy,
            update_period=0.125,
            horizon=5.0,
            steps_per_phase=10,
        )
        assert open_result.total_columns_added > 0
        grown = open_result.network
        batched = simulate_with_column_generation_batch(
            ActivePathSet.from_network(grown, closed=True),
            policy,
            batch=4,
            **self.SETTINGS,
        )
        single = one_row_run(grown, policy, **self.SETTINGS)
        reference = single.flow_matrix(0)
        for row in range(4):
            assert np.array_equal(reference, batched.flow_matrix(row))


class TestOpenModeGrowth:
    SETTINGS = dict(update_period=0.125, horizon=5.0, steps_per_phase=10)

    def test_single_row_batch_is_the_column_generation_driver(self):
        """B=1 has nothing to union: ``simulate_with_column_generation``
        returns the one-row batch run -- growth events, final path set and
        every sample bit for bit."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        policy = uniform_policy(network)
        batched = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network), policy, batch=1, **self.SETTINGS
        )
        scalar = simulate_with_column_generation(
            ActivePathSet.from_network(network), policy, **self.SETTINGS
        )
        assert scalar.total_columns_added > 0
        assert batched.network.num_paths == scalar.network.num_paths
        assert [phase for phase, _ in batched.growth_events] == [
            phase for phase, _ in scalar.growth_events
        ]
        assert list(batched.network.paths) == list(scalar.network.paths)
        assert np.array_equal(
            trajectory_matrix(scalar.trajectory), batched.flow_matrix(0)
        )

    def test_new_columns_enter_with_zero_flow_on_every_row(self):
        """Union growth: a column discovered by one row joins all rows with
        zero flow at its growth phase (no closures here, so nothing is ever
        moved onto a fresh column)."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        policy = uniform_policy(network)
        edge = network.edges[0]
        scenarios = [
            None,
            Scenario(incidents=[LinkIncident(edge, 1.0, 3.0, capacity_factor=0.3)]),
        ]
        result = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network),
            policy,
            scenarios=scenarios,
            **self.SETTINGS,
        )
        assert result.growth_events
        for phase, paths in result.growth_events:
            indices = [result.network.paths.index_of(path) for path in paths]
            assert np.array_equal(
                result.phase_start_flows[:, phase, :][:, indices],
                np.zeros((len(scenarios), len(indices))),
            )

    def test_union_merges_candidates_from_different_rows(self):
        """The ``add_paths`` union entry point: candidates discovered by two
        rows land in one set, and the permutation maps every old index to
        where its path now lives."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        active = ActivePathSet.from_network(network)
        seed_paths = list(active.network.paths)
        values = np.zeros((2, active.num_paths))
        values[0, 0] = 1.0  # row 0 congests commodity 0's seed...
        values[1, -1] = 1.0  # ...row 1 congests commodity 1's
        candidates = []
        for row in range(2):
            costs = active.posted_costs(active.network, values[row])
            candidates.extend(active.oracle.shortest_commodity_paths(costs))
        added = active.add_paths(candidates)
        assert added
        perm = active.last_permutation
        grown = active.network
        for old_index, path in enumerate(seed_paths):
            assert grown.paths.index_of(path) == perm[old_index]
        for path in added:
            assert path in grown.paths
        # Re-adding the same candidates is a no-op.
        assert active.add_paths(candidates) == []

    def test_growth_reposts_every_row(self):
        """Growth is a shared information event: the sample right after a
        growth phase is defined (and feasible) for every row, including rows
        that did not refresh on their own schedule."""
        network = grid_network(3, 3, num_commodities=2, seed=3)
        result = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network),
            uniform_policy(network),
            batch=3,
            **self.SETTINGS,
        )
        assert result.growth_events
        demand = sum(c.demand for c in result.network.commodities)
        totals = result.flows.sum(axis=2)
        assert np.allclose(totals, demand, atol=1e-9)


class TestBufferCapacity:
    """``_grow_buffer`` moves old columns to their post-growth indices.  The
    default padding is twice the seed width; the open-mode goldens grow past
    it (grid-3x3: 2 -> 8 columns), so the doubling branch also runs end to
    end in ``test_cg_goldens.py``."""

    PERM = np.array([0, 2, 3])  # a column joins between old columns 0 and 1

    def test_growth_within_capacity_scatters_in_place(self):
        buffer = np.zeros((2, 6))
        buffer[:, :3] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        grown = _grow_buffer(buffer, self.PERM, 3, 4)
        assert grown is buffer
        assert np.array_equal(
            grown, [[1.0, 0.0, 2.0, 3.0, 0.0, 0.0], [4.0, 0.0, 5.0, 6.0, 0.0, 0.0]]
        )

    def test_growth_past_capacity_doubles_the_buffer(self):
        buffer = np.array([[[1.0, 2.0, 3.0]], [[4.0, 5.0, 6.0]]])  # (S, B, P)
        grown = _grow_buffer(buffer, self.PERM, 3, 4)
        assert grown is not buffer
        assert grown.shape == (2, 1, 6)
        assert np.array_equal(
            grown, [[[1.0, 0.0, 2.0, 3.0, 0.0, 0.0]], [[4.0, 0.0, 5.0, 6.0, 0.0, 0.0]]]
        )

    def test_growth_far_past_capacity_fits_the_new_width(self):
        buffer = np.array([[1.0, 2.0]])
        grown = _grow_buffer(buffer, np.array([0, 4]), 2, 7)
        assert grown.shape == (1, 7)
        assert np.array_equal(grown, [[1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0]])


class TestStopWhen:
    """The batched driver's ``stop_when(times, flows) -> (B,)`` mask."""

    @staticmethod
    def load_golden(name):
        spec = importlib.util.spec_from_file_location("cg_goldens", DATA / "cg_goldens.py")
        goldens = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(goldens)
        with goldens.GOLDEN_PATH.open() as handle:
            return goldens, json.load(handle)[name]

    def test_one_row_mask_matches_the_golden_firing_case(self):
        goldens, golden = self.load_golden("grid-3x3/open/stop")
        spec = golden["spec"]
        active = goldens.build_active(spec)
        seen = []

        def stop_when(times, flows):
            assert times.shape == (1,) and flows.shape == (1, active.network.num_paths)
            seen.append(float(times[0]))
            flow = FlowVector(active.network, flows[0], validate=False)
            return np.array([equilibrium_violation(flow) < spec["stop"]])

        result = simulate_with_column_generation_batch(
            active,
            goldens.POLICIES[spec["policy"]](active.network),
            update_period=spec["period"],
            horizon=spec["horizon"],
            batch=1,
            steps_per_phase=spec["steps"],
            stop_when=stop_when,
        )
        expected = golden["result"]
        assert seen == expected["times"][1:]
        assert result.times[-1] < spec["horizon"]
        assert [goldens.path_key(p) for p in result.network.paths] == expected["paths"]
        np.testing.assert_allclose(
            result.flow_matrix(0), expected["flows"], rtol=1e-12, atol=1e-12
        )

    def test_ensemble_stops_only_when_every_row_fires(self):
        network = braess_network()
        settings = dict(update_period=0.25, horizon=3.0, steps_per_phase=5, batch=2)
        calls = []

        def stop_when(times, flows):
            calls.append(float(times[0]))
            return np.array([True, len(calls) >= 4])

        result = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network),
            uniform_policy(network),
            stop_when=stop_when,
            **settings,
        )
        assert calls == [0.25, 0.5, 0.75, 1.0]
        assert len(result.phase_spans) == 4
        assert np.array_equal(result.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("mask", [np.array(True), np.ones(3, dtype=bool)])
    def test_wrong_mask_shape_raises_one_clear_error(self, mask):
        network = braess_network()
        with pytest.raises(ValueError) as error:
            simulate_with_column_generation_batch(
                ActivePathSet.from_network(network),
                uniform_policy(network),
                update_period=0.25,
                horizon=1.0,
                batch=2,
                stop_when=lambda times, flows: mask,
            )
        assert str(error.value) == f"stop_when returned shape {mask.shape}, expected (2,)"


class TestInitialFlowErrors:
    """Both entry points validate initial flows with the fluid engine's
    checks, so they raise the same single-line errors."""

    @staticmethod
    def errors(initial):
        network = braess_network()
        messages = []
        for run in (
            lambda active: simulate_with_column_generation(
                active, uniform_policy(network), 0.25, 1.0, initial_flow=initial
            ),
            lambda active: simulate_with_column_generation_batch(
                active, uniform_policy(network), 0.25, 1.0, batch=1,
                initial_flows=initial,
            ),
        ):
            with pytest.raises(ValueError) as error:
                run(ActivePathSet.from_network(network, closed=True))
            messages.append(str(error.value))
        return messages

    def test_wrong_network_flow(self):
        scalar, batched = self.errors(FlowVector.uniform(braess_network()))
        assert scalar == batched == "initial flow belongs to a different network"

    def test_wrong_shape_array(self):
        scalar, batched = self.errors(np.full(3, 1.0 / 3.0))
        assert scalar == batched == "initial flows have shape (3,), expected (1, 3)"
        assert "\n" not in scalar


class TestEvictionHelpers:
    def build(self):
        network = braess_network()
        closed = ActivePathSet.from_network(network, closed=True)
        return closed, closed.network

    def test_fully_closed_commodity_keeps_its_flow(self):
        """A commodity whose every column crosses a closure has nothing open
        to route onto: the flow stays put and nothing counts as moved."""
        _, network = self.build()
        values = np.array([0.25, 0.25, 0.5])
        latencies = network.path_latencies(values)
        repaired, moved = _evict_closed_columns(
            network, values, list(range(network.num_paths)), latencies
        )
        assert moved == 0.0
        assert np.array_equal(repaired, values)

    def test_zero_volume_on_closed_columns_moves_nothing(self):
        _, network = self.build()
        descriptions = network.paths.describe()
        shortcut = descriptions.index("s->a->b->t")
        values = np.zeros(network.num_paths)
        values[descriptions.index("s->a->t")] = 1.0
        latencies = network.path_latencies(values)
        repaired, moved = _evict_closed_columns(network, values, [shortcut], latencies)
        assert moved == 0.0
        assert np.array_equal(repaired, values)

    def test_empty_crossing_list_is_the_fast_path(self):
        _, network = self.build()
        values = np.array([0.2, 0.3, 0.5])
        repaired, moved = _evict_closed_columns(
            network, values, [], network.path_latencies(values)
        )
        assert moved == 0.0
        assert repaired is values  # no copy on the fast path

    def test_flow_moves_to_the_cheapest_open_column(self):
        _, network = self.build()
        descriptions = network.paths.describe()
        shortcut = descriptions.index("s->a->b->t")
        values = np.zeros(network.num_paths)
        values[shortcut] = 1.0
        latencies = network.path_latencies(values)
        repaired, moved = _evict_closed_columns(network, values, [shortcut], latencies)
        open_indices = [i for i in range(network.num_paths) if i != shortcut]
        best = min(open_indices, key=lambda p: (latencies[p], p))
        assert moved == pytest.approx(1.0)
        assert repaired[shortcut] == 0.0
        assert repaired[best] == pytest.approx(1.0)

    def test_invalidate_columns_on_a_grown_set(self):
        """Crossing detection must see columns added after the seed build."""
        network = grid_network(2, 3, num_commodities=1, seed=3)
        active = ActivePathSet.from_network(network)
        seed_network = active.network
        values = np.zeros(active.num_paths)
        values[0] = network.commodities[0].demand
        added = active.augment(active.posted_costs(seed_network, values))
        assert added
        grown = active.network
        target_edge = added[0].edges[0]
        crossing = active.invalidate_columns(grown, {target_edge})
        expected = [
            index
            for index, path in enumerate(grown.paths)
            if target_edge in path.edges
        ]
        assert crossing == expected
        assert grown.paths.index_of(added[0]) in crossing


class TestBatchApiSurface:
    def test_duality_gaps_cover_every_row(self):
        network = grid_network(2, 3, num_commodities=2, seed=3)
        result = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network),
            uniform_policy(network),
            update_period=0.25,
            horizon=4.0,
            steps_per_phase=5,
            batch=3,
        )
        assert result.duality_gaps.shape == (3,)
        assert np.all(np.isfinite(result.duality_gaps))
        assert np.all(result.duality_gaps >= 0.0)
        assert result.batch_size == 3
        assert np.array_equal(result.final_flows(), result.flows[:, -1, :])

    def test_trajectory_rows_round_trip_through_the_analysis_surface(self):
        network = braess_network()
        result = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network, closed=True),
            uniform_policy(network),
            update_period=0.25,
            horizon=1.0,
            steps_per_phase=5,
            batch=2,
        )
        trajectory = result.trajectory(1)
        assert len(trajectory) == len(result.times)
        assert np.array_equal(trajectory_matrix(trajectory), result.flow_matrix(1))
        assert len(trajectory.phases) == len(result.phase_spans)

    def test_inconsistent_batch_sizes_rejected(self):
        network = braess_network()
        policy = uniform_policy(network)
        scenarios = [None, None]
        with pytest.raises(ValueError, match="batch sizes"):
            simulate_with_column_generation_batch(
                ActivePathSet.from_network(network),
                policy,
                update_period=0.25,
                horizon=1.0,
                batch=3,
                scenarios=scenarios,
            )

    def test_missing_batch_size_rejected(self):
        network = braess_network()
        with pytest.raises(ValueError, match="batch size"):
            simulate_with_column_generation_batch(
                ActivePathSet.from_network(network),
                uniform_policy(network),
                update_period=0.25,
                horizon=1.0,
            )

    def test_invalid_settings_rejected(self):
        network = braess_network()
        policy = uniform_policy(network)
        with pytest.raises(ValueError, match="positive"):
            simulate_with_column_generation_batch(
                ActivePathSet.from_network(network),
                policy,
                update_period=0.0,
                horizon=1.0,
                batch=2,
            )
        with pytest.raises(ValueError, match="steps_per_phase"):
            simulate_with_column_generation_batch(
                ActivePathSet.from_network(network),
                policy,
                update_period=0.25,
                horizon=1.0,
                steps_per_phase=0,
                batch=2,
            )

    def test_foreign_initial_flow_rejected(self):
        network = braess_network()
        other = braess_network()
        from repro.wardrop import FlowVector

        with pytest.raises(ValueError, match="different network"):
            simulate_with_column_generation_batch(
                ActivePathSet.from_network(network, closed=True),
                uniform_policy(network),
                update_period=0.25,
                horizon=1.0,
                batch=2,
                initial_flows=FlowVector.uniform(other),
            )
