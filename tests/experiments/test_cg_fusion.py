"""Runner fusion of column-generation cases.

Same-network CG cases sharing a phase grid fuse into one batched CG call
under ``engine="batch"``/``"auto"``; a lone case runs as a group of one.
Cases with an initial flow, a stop condition or the agents method are
rejected by the batched group runner with the same messages on every
backend.  Open-mode fused rows grow one shared (union) restricted path set,
so equality with the one-row run is asserted where it is guaranteed: B=1
groups, and multi-row groups whose rows are identical (union growth then
coincides with each row's own discovery).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import SweepCase
from repro.batch import distance_stop
from repro.core import replicator_policy, uniform_policy
from repro.experiments import group_key, run_cases
from repro.instances import braess_network, grid_network
from repro.largescale import ActivePathSet, simulate_with_column_generation_batch
from repro.scenarios import LinkIncident, Scenario
from repro.wardrop import FlowVector


def flows_row_builder(trajectory):
    """Expose the full sample matrix so bitwise comparisons survive rows."""
    return {
        "times": tuple(point.time for point in trajectory.points),
        "flows": tuple(
            tuple(point.flow.values()) for point in trajectory.points
        ),
    }


def cg_case(network, policy, scenario=None, **overrides):
    settings = dict(update_period=0.25, horizon=2.0, steps_per_phase=5)
    settings.update(overrides)
    return SweepCase(
        parameters={},
        network=network,
        policy=policy,
        column_generation=True,
        scenario=scenario,
        **settings,
    )


def incident(network, edge_index, start=0.5, end=1.25):
    edge = network.edges[edge_index]
    return Scenario(
        incidents=[LinkIncident(edge, start, end, capacity_factor=0.5)]
    )


class TestGroupKeys:
    def test_same_network_and_grid_cases_share_a_key(self):
        network = braess_network()
        a = cg_case(network, uniform_policy(network))
        b = cg_case(network, replicator_policy(network), scenario=incident(network, 0))
        assert group_key(a) == group_key(b)
        assert not group_key(a)[3]  # not serial-only

    def test_different_phase_grids_split_the_group(self):
        network = braess_network()
        base = cg_case(network, uniform_policy(network))
        for overrides in (
            dict(update_period=0.5),
            dict(horizon=4.0),
            dict(steps_per_phase=9),
        ):
            other = cg_case(network, uniform_policy(network), **overrides)
            assert group_key(base) != group_key(other)

    def test_equal_but_distinct_network_objects_split_the_group(self):
        # Fused rows grow ONE shared ActivePathSet, so object identity (not
        # just topology equality) gates CG fusion.
        a = cg_case(braess_network(), uniform_policy(braess_network()))
        b = cg_case(braess_network(), uniform_policy(braess_network()))
        assert group_key(a) != group_key(b)

    def test_initial_flow_and_stop_when_cases_group_like_plain_cases(self):
        # No serial-only carve-out: the batched group runner itself rejects
        # these cases, so they key like any other CG case.
        network = braess_network()
        plain = cg_case(network, uniform_policy(network))
        flowed = cg_case(
            network,
            uniform_policy(network),
            initial_flow=FlowVector.uniform(network),
        )
        stopped = cg_case(
            network,
            uniform_policy(network),
            stop_when=distance_stop(np.zeros(network.num_paths), 1e-9),
        )
        assert not group_key(flowed)[3]
        assert not group_key(stopped)[3]
        assert group_key(flowed) == group_key(stopped) == group_key(plain)


class TestFusedExecution:
    def test_single_case_batch_matches_serial_bitwise(self):
        network = grid_network(2, 3, num_commodities=2, seed=3)
        scenario = incident(network, 1)
        make = lambda: [cg_case(network, replicator_policy(network), scenario=scenario)]
        serial = run_cases(make(), flows_row_builder, engine="serial").rows
        batch = run_cases(make(), flows_row_builder, engine="batch").rows
        assert serial == batch

    def test_identical_rows_fuse_and_match_the_one_row_run(self):
        # Identical rows make union growth coincide with each row's own
        # discovery, so every fused row must replay the one-row CG run.
        network = braess_network()
        scenario = incident(network, 0)
        cases = [
            cg_case(network, uniform_policy(network), scenario=scenario)
            for _ in range(3)
        ]
        rows = run_cases(cases, flows_row_builder, engine="batch").rows
        single = simulate_with_column_generation_batch(
            ActivePathSet.from_network(network),
            uniform_policy(network),
            update_period=0.25,
            horizon=2.0,
            steps_per_phase=5,
            batch=1,
            scenarios=[scenario],
        )
        expected = flows_row_builder(single.trajectory(0))
        assert len(rows) == 3
        for row in rows:
            assert row == expected

    def test_heterogeneous_scenarios_ride_along_per_row(self):
        network = grid_network(2, 3, num_commodities=2, seed=3)
        cases = [
            cg_case(network, uniform_policy(network)),
            cg_case(network, uniform_policy(network), scenario=incident(network, 0)),
            cg_case(network, uniform_policy(network), scenario=incident(network, 2)),
        ]
        rows = run_cases(cases, flows_row_builder, engine="auto").rows
        assert len(rows) == 3
        # The incident rows must actually diverge from the calm row.
        assert rows[0]["flows"] != rows[1]["flows"]
        assert rows[1]["flows"] != rows[2]["flows"]
        # All rows share one union path set, hence one flow dimension.
        widths = {len(row["flows"][0]) for row in rows}
        assert len(widths) == 1

    @pytest.mark.parametrize("engine", ["batch", "auto", "serial"])
    def test_rejected_cg_cases_raise_the_same_error_on_every_backend(self, engine):
        network = braess_network()
        flowed = cg_case(
            network,
            uniform_policy(network),
            initial_flow=FlowVector.uniform(network),
        )
        with pytest.raises(ValueError, match="column-generation"):
            run_cases([flowed], flows_row_builder, engine=engine)
        agents = cg_case(network, uniform_policy(network), method="agents")
        with pytest.raises(ValueError, match="fluid methods only"):
            run_cases([agents, agents], flows_row_builder, engine=engine)
