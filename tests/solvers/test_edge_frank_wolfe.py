"""The edge-flow Frank--Wolfe solver against the path-based ground truth."""

import numpy as np
import pytest

from repro.instances import braess_network, grid_network, pigou_network, two_link_network
from repro.largescale import ShortestPathOracle
from repro.solvers import (
    relative_duality_gap,
    solve_edge_flow_equilibrium,
    solve_wardrop_equilibrium,
)


@pytest.mark.parametrize(
    "factory",
    [
        braess_network,
        lambda: pigou_network(degree=2),
        lambda: grid_network(3, 3, num_commodities=2, seed=3),
    ],
)
def test_edge_flows_match_the_path_based_solver(factory):
    network = factory()
    path_result = solve_wardrop_equilibrium(network, tolerance=1e-12)
    edge_result = solve_edge_flow_equilibrium(network, tolerance=1e-10)
    assert edge_result.converged
    oracle = ShortestPathOracle(network.graph, network.commodities)
    positions = oracle.network_edge_positions(network)
    reference = network.edge_flows(path_result.flow.values())
    assert np.abs(edge_result.edge_flows[positions] - reference).max() < 1e-6
    # Off-path graph edges (if any) carry no equilibrium flow here.
    off_path = np.setdiff1d(np.arange(oracle.num_edges), positions)
    assert np.all(edge_result.edge_flows[off_path] <= 1e-9)


def test_result_diagnostics_are_consistent():
    network = braess_network()
    result = solve_edge_flow_equilibrium(network, tolerance=1e-8)
    assert result.relative_gap <= 1e-8
    assert result.sptt <= result.tstt + 1e-12
    assert result.iterations >= 1
    assert len(result.gap_history) == result.iterations
    assert result.potential_value == pytest.approx(
        solve_wardrop_equilibrium(network, tolerance=1e-12).potential_value, abs=1e-8
    )


def test_warm_start_accepts_and_validates_shapes():
    network = braess_network()
    oracle = ShortestPathOracle(network.graph, network.commodities)
    cold = solve_edge_flow_equilibrium(network, tolerance=1e-8, oracle=oracle)
    warm = solve_edge_flow_equilibrium(
        network, tolerance=1e-8, oracle=oracle, initial_edge_flows=cold.edge_flows
    )
    assert warm.iterations <= cold.iterations
    assert np.abs(warm.edge_flows - cold.edge_flows).max() < 1e-6
    with pytest.raises(ValueError, match="initial edge flows"):
        solve_edge_flow_equilibrium(
            network, oracle=oracle, initial_edge_flows=np.ones(3)
        )


def test_dijkstra_rejects_negative_costs():
    network = braess_network()
    oracle = ShortestPathOracle(network.graph, network.commodities)
    with pytest.raises(ValueError, match="non-negative"):
        oracle.all_or_nothing(-np.ones(oracle.num_edges))


def test_cap_exit_diagnostics_describe_the_returned_flows():
    # Regression: on an iteration-cap exit the loop's last gap measured the
    # *pre-step* iterate while the caller received the post-step flows, so
    # unconverged results reported stale diagnostics.  The certificate must
    # be recomputed from the returned flows.
    network = grid_network(3, 3, num_commodities=2, seed=3)
    oracle = ShortestPathOracle(network.graph, network.commodities)
    result = solve_edge_flow_equilibrium(
        network, tolerance=1e-12, max_iterations=3, oracle=oracle
    )
    assert not result.converged
    assert result.relative_gap == pytest.approx(
        relative_duality_gap(network, oracle, result.edge_flows), rel=1e-12, abs=0.0
    )
    # The recomputed certificate is appended to the history: one trailing
    # entry beyond the per-iteration gaps.
    assert len(result.gap_history) == result.iterations + 1
    assert result.gap_history[-1] == pytest.approx(result.relative_gap)
    # TSTT/SPTT describe the same (returned) flows.
    costs = oracle.latency_costs(network, result.edge_flows)
    assert result.tstt == pytest.approx(float(np.dot(costs, result.edge_flows)))
    assert result.relative_gap == pytest.approx(result.tstt / result.sptt - 1.0)


@pytest.mark.parametrize("method", ["cfw", "bfw"])
def test_conjugate_methods_reach_the_same_equilibrium(method):
    network = grid_network(3, 3, num_commodities=2, seed=3)
    oracle = ShortestPathOracle(network.graph, network.commodities)
    plain = solve_edge_flow_equilibrium(network, tolerance=1e-10, oracle=oracle)
    accelerated = solve_edge_flow_equilibrium(
        network, tolerance=1e-10, oracle=oracle, method=method
    )
    assert accelerated.converged
    assert accelerated.method == method
    assert np.abs(accelerated.edge_flows - plain.edge_flows).max() < 1e-5
    assert accelerated.potential_value == pytest.approx(
        plain.potential_value, abs=1e-9
    )
    # The conjugate direction correction must never be slower than plain FW
    # on this instance (the 5x Sioux Falls bar lives in bench_solvers.py).
    assert accelerated.iterations <= plain.iterations


def test_edge_solver_rejects_path_space_methods():
    network = braess_network()
    with pytest.raises(ValueError, match="pg"):
        solve_edge_flow_equilibrium(network, method="pg")
    with pytest.raises(ValueError, match="newton"):
        solve_edge_flow_equilibrium(network, method="newton")


def test_duality_gap_with_a_free_route_is_zero_or_infinite():
    """Two links of latency max(0, x - 1/2): below the threshold both cost
    nothing, so SPTT = 0 and the gap must not divide by it."""
    network = two_link_network(beta=4.0)
    oracle = ShortestPathOracle.for_network(network)
    assert relative_duality_gap(network, oracle, np.array([0.5, 0.5])) == 0.0
    assert relative_duality_gap(network, oracle, np.array([1.0, 0.0])) == float("inf")
