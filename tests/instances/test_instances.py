"""Unit tests for the instance library and registry."""

from __future__ import annotations

import math

import pytest

from repro.instances import (
    available_instances,
    braess_equilibrium,
    braess_equilibrium_latency,
    braess_network,
    equilibrium_flow,
    get_instance,
    grid_network,
    heterogeneous_affine_links,
    identical_linear_links,
    lopsided_flow,
    oscillation_initial_flow,
    pigou_equilibrium,
    pigou_network,
    pigou_optimal_cost,
    pigou_like_links,
    random_layered_network,
    register_instance,
    two_link_network,
)
from repro.wardrop import assert_valid, is_wardrop_equilibrium, social_cost


class TestTwoLinks:
    def test_structure(self):
        network = two_link_network(beta=2.0)
        assert network.num_paths == 2
        assert network.max_slope() == pytest.approx(2.0)

    def test_equilibrium_flow_has_zero_latency(self):
        network = two_link_network(beta=2.0)
        flow = equilibrium_flow(network)
        assert flow.max_used_latency() == pytest.approx(0.0)
        assert is_wardrop_equilibrium(flow)

    def test_oscillation_initial_flow_matches_formula(self):
        network = two_link_network()
        period = 0.4
        flow = oscillation_initial_flow(network, period)
        assert flow[0] == pytest.approx(1.0 / (math.exp(-period) + 1.0))
        flow.check_feasible()

    def test_oscillation_initial_flow_rejects_bad_period(self):
        with pytest.raises(ValueError):
            oscillation_initial_flow(two_link_network(), 0.0)

    def test_lopsided_flow(self):
        network = two_link_network()
        flow = lopsided_flow(network, 0.8)
        assert flow[0] == pytest.approx(0.8)
        with pytest.raises(ValueError):
            lopsided_flow(network, 1.2)


class TestPigou:
    def test_equilibrium(self):
        for degree in [1, 2, 4]:
            network = pigou_network(degree)
            flow = pigou_equilibrium(network)
            assert is_wardrop_equilibrium(flow)
            assert social_cost(flow) == pytest.approx(1.0)

    def test_optimal_cost_formula(self):
        # Linear Pigou: optimum 3/4.
        assert pigou_optimal_cost(1) == pytest.approx(0.75)
        assert pigou_optimal_cost(2) < pigou_optimal_cost(1)

    def test_optimal_cost_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            pigou_optimal_cost(0)


class TestBraess:
    def test_three_paths_with_shortcut(self):
        network = braess_network(with_shortcut=True)
        assert network.num_paths == 3
        assert network.max_path_length() == 3

    def test_two_paths_without_shortcut(self):
        network = braess_network(with_shortcut=False)
        assert network.num_paths == 2

    def test_equilibria(self):
        for with_shortcut in [True, False]:
            network = braess_network(with_shortcut)
            flow = braess_equilibrium(network)
            assert is_wardrop_equilibrium(flow)
            assert flow.max_used_latency() == pytest.approx(
                braess_equilibrium_latency(with_shortcut)
            )

    def test_paradox(self):
        # Adding the shortcut makes the equilibrium strictly worse.
        assert braess_equilibrium_latency(True) > braess_equilibrium_latency(False)


class TestParallelFamilies:
    def test_identical_links(self):
        network = identical_linear_links(6, slope=2.0)
        assert network.num_paths == 6
        assert network.max_slope() == pytest.approx(2.0)

    def test_heterogeneous_links_reproducible(self):
        a = heterogeneous_affine_links(5, seed=3)
        b = heterogeneous_affine_links(5, seed=3)
        assert a.max_latency() == pytest.approx(b.max_latency())

    def test_pigou_like(self):
        network = pigou_like_links(4, degree=3)
        assert network.num_paths == 4
        assert_valid(network)

    def test_rejects_too_few_links(self):
        with pytest.raises(ValueError):
            identical_linear_links(0)
        with pytest.raises(ValueError):
            pigou_like_links(1)


class TestGridsAndRandom:
    def test_grid_structure(self):
        network = grid_network(3, 4, num_commodities=2, seed=0)
        assert network.num_commodities == 2
        assert network.max_path_length() >= 3
        assert_valid(network)

    def test_grid_rejects_tiny(self):
        with pytest.raises(ValueError):
            grid_network(1, 3)

    def test_random_layered_valid_and_reproducible(self):
        a = random_layered_network(seed=5)
        b = random_layered_network(seed=5)
        assert a.num_paths == b.num_paths
        assert_valid(a)


class TestRegistry:
    def test_all_registered_instances_build_and_validate(self):
        for name in available_instances():
            network = get_instance(name)
            assert network.num_paths >= 1
            assert_valid(network)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_instance("no-such-instance")

    @pytest.mark.parametrize("name", ["sioux-falls-mini", "city-grid-mini", "city-grid"])
    def test_instances_report_their_registry_name(self, name):
        # Their factories name the graph after the full network they are
        # cut from (sioux-falls, city-grid-4x4, city-grid-16x16).
        assert get_instance(name).graph.graph["name"] == name

    def test_register_and_overwrite_guard(self):
        register_instance("test-custom", lambda: two_link_network(1.5), overwrite=True)
        assert "test-custom" in available_instances()
        with pytest.raises(ValueError):
            register_instance("test-custom", lambda: two_link_network(1.5))
        register_instance("test-custom", lambda: two_link_network(2.5), overwrite=True)
        assert get_instance("test-custom").max_slope() == pytest.approx(2.5)
