"""Column generation: the closed special case, growth semantics, and the
full-enumeration equivalence contract of the large-network subsystem."""

import numpy as np
import pytest

from repro.core import replicator_policy, simulate, uniform_policy
from repro.instances import braess_network, grid_network, two_link_network
from repro.largescale import ActivePathSet, simulate_with_column_generation
from repro.solvers import solve_wardrop_equilibrium
from repro.wardrop import FlowVector


def embed_on(network, result):
    """Express a column-generation final flow on the full network's index."""
    values = np.zeros(network.num_paths)
    final = result.final_flow.values()
    for i, path in enumerate(result.network.paths):
        values[network.paths.index_of(path)] = final[i]
    return values


class TestClosedSpecialCase:
    """A closed ActivePathSet reproduces the fixed-path-set dynamics exactly."""

    @pytest.mark.parametrize("policy_builder", [uniform_policy, replicator_policy])
    @pytest.mark.parametrize(
        "factory", [braess_network, lambda: grid_network(2, 3, num_commodities=1, seed=3)]
    )
    def test_closed_run_is_bit_identical_to_scalar_simulate(self, policy_builder, factory):
        network = factory()
        policy = policy_builder(network)
        closed = ActivePathSet.from_network(network, closed=True)
        assert closed.num_paths == network.num_paths
        result = simulate_with_column_generation(
            closed, policy, update_period=0.125, horizon=2.0, steps_per_phase=11
        )
        reference = simulate(
            network, policy, update_period=0.125, horizon=2.0, steps_per_phase=11
        )
        assert result.growth_events == []
        assert len(result.trajectory) == len(reference)
        for ours, theirs in zip(result.trajectory.points, reference.points):
            assert ours.time == theirs.time
            assert np.array_equal(ours.flow.values(), theirs.flow.values())
        assert len(result.trajectory.phases) == len(reference.phases)

    def test_closed_run_mirrors_the_board_refresh_quirk(self):
        """floor(t/T) occasionally skips a scalar board refresh; the closed
        column-generation loop must reproduce that phase for phase."""
        network = braess_network()
        policy = replicator_policy(network)
        # T=0.01 makes floor(phase*T / T) round down at some phase indices.
        closed = ActivePathSet.from_network(network, closed=True)
        result = simulate_with_column_generation(
            closed, policy, update_period=0.01, horizon=0.35, steps_per_phase=5
        )
        reference = simulate(
            network, policy, update_period=0.01, horizon=0.35, steps_per_phase=5
        )
        assert len(result.trajectory) == len(reference)
        for ours, theirs in zip(result.trajectory.points, reference.points):
            assert np.array_equal(ours.flow.values(), theirs.flow.values())

    def test_closed_set_never_augments(self):
        network = braess_network()
        closed = ActivePathSet.from_network(network, closed=True)
        costs = np.ones(closed.oracle.num_edges)
        assert closed.augment(costs) == []
        assert closed.version == 0


class TestGrowthSemantics:
    def test_seeds_are_free_flow_shortest_paths(self):
        network = braess_network()
        active = ActivePathSet.from_network(network)
        # Braess free-flow: the zero-latency shortcut path is the unique seed.
        assert active.num_paths == 1
        assert active.network.paths[0].describe() == "s->a->b->t"

    def test_columns_grow_only_at_refreshes_and_monotonically(self):
        network = grid_network(3, 3, num_commodities=2, seed=3)
        active = ActivePathSet.from_network(network)
        initial = active.num_paths
        result = simulate_with_column_generation(
            active, uniform_policy, update_period=0.125, horizon=5.0, steps_per_phase=10
        )
        assert result.network.num_paths >= initial
        assert result.path_counts == sorted(result.path_counts)
        phases = [phase for phase, _ in result.growth_events]
        assert phases == sorted(phases)
        assert result.total_columns_added == result.network.num_paths - initial
        # Every discovered column is a real path of the full enumeration.
        for _, paths in result.growth_events:
            for path in paths:
                assert path in network.paths

    def test_growth_keeps_old_flows_and_zeroes_new_columns(self):
        """A growth phase starts from the previous phase's end state: every
        old column keeps its flow and every new column enters at zero
        (``test_batch_columns.py::TestOpenModeGrowth::
        test_new_columns_enter_with_zero_flow_on_every_row`` checks the same
        on a multi-row union)."""
        network = grid_network(2, 3, num_commodities=1, seed=3)
        result = simulate_with_column_generation(
            ActivePathSet.from_network(network), uniform_policy,
            update_period=0.125, horizon=2.0, steps_per_phase=10,
        )
        phases = result.trajectory.phases
        grown = result.network
        later = [(phase, paths) for phase, paths in result.growth_events if phase > 0]
        assert later, "congestion should reveal a new cheapest route after phase 0"
        for phase, paths in later:
            start = phases[phase].start_flow.values()
            previous_end = phases[phase - 1].end_flow.values()
            assert np.array_equal(start, previous_end)
            assert start.sum() == pytest.approx(network.commodities[0].demand)
            for path in paths:
                assert start[grown.paths.index_of(path)] == 0.0


class TestFullEnumerationEquivalence:
    """On instances small enough to enumerate, the column-generation dynamics
    reproduce the full-enumeration final flows within 1e-6 (acceptance)."""

    @pytest.mark.parametrize(
        "factory, horizon",
        [
            (lambda: grid_network(2, 2, num_commodities=1, seed=3), 100.0),
            (lambda: grid_network(2, 3, num_commodities=1, seed=3), 120.0),
            (lambda: two_link_network(beta=4.0), 80.0),
        ],
    )
    def test_final_flows_match_full_enumeration(self, factory, horizon):
        network = factory()
        active = ActivePathSet.from_network(network)
        result = simulate_with_column_generation(
            active, uniform_policy, update_period=0.125, horizon=horizon,
            steps_per_phase=30,
        )
        full = simulate(
            network, uniform_policy(network), update_period=0.125, horizon=horizon,
            steps_per_phase=30,
        )
        embedded = embed_on(network, result)
        assert np.abs(embedded - full.final_flow.values()).max() < 1e-6
        # Both agree with the Frank--Wolfe ground truth on edge flows.
        equilibrium = solve_wardrop_equilibrium(network, tolerance=1e-12)
        eq_edges = network.edge_flows(equilibrium.flow.values())
        assert np.abs(network.edge_flows(embedded) - eq_edges).max() < 1e-5

    def test_runner_rejects_fixed_dimension_arguments_for_cg_cases(self):
        """SweepCase stop_when/initial_flow are sized for the fixed path set;
        the runner refuses them for column-generation cases with a clear
        error instead of a downstream broadcast crash."""
        from repro.analysis.sweeps import SweepCase
        from repro.batch.stopping import distance_stop
        from repro.experiments.runner import run_cases

        network = braess_network()
        policy = uniform_policy(network)
        builder = lambda trajectory: {"phases": len(trajectory.phases)}  # noqa: E731
        stoppy = SweepCase(
            {}, network, policy, 0.1, 1.0, column_generation=True,
            stop_when=distance_stop(np.full((1, network.num_paths), 1 / 3), 0.05),
        )
        with pytest.raises(ValueError, match="column-generation"):
            run_cases([stoppy], builder, engine="serial")
        seeded = SweepCase(
            {}, network, policy, 0.1, 1.0, column_generation=True,
            initial_flow=FlowVector.uniform(network),
        )
        with pytest.raises(ValueError, match="column-generation"):
            run_cases([seeded], builder, engine="serial")

    def test_stop_when_fires_at_phase_boundaries(self):
        network = two_link_network(beta=4.0)
        active = ActivePathSet.from_network(network)
        seen = []

        def stop(time, flow):
            seen.append(time)
            return len(seen) >= 3

        result = simulate_with_column_generation(
            active, uniform_policy, update_period=0.25, horizon=10.0, stop_when=stop,
        )
        assert len(result.trajectory.phases) == 3
        assert seen == [0.25, 0.5, 0.75]
