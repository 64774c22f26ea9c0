"""Unit tests for the sampling rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ProportionalSampling, SamplingRule, SoftmaxSampling, UniformSampling
from repro.wardrop import FlowVector


def posted_state(network, values):
    flow = FlowVector(network, values)
    return flow.values(), flow.path_latencies()


class TestUniformSampling:
    def test_rows_are_uniform(self, braess):
        flows, latencies = posted_state(braess, np.full(braess.num_paths, 1 / 3))
        sigma = UniformSampling().probabilities(braess, flows, latencies)
        UniformSampling().validate(sigma, braess)
        assert np.allclose(sigma, 1.0 / 3.0)

    def test_multi_commodity_blocks(self, layered):
        flows = FlowVector.uniform(layered).values()
        latencies = layered.path_latencies(flows)
        rule = UniformSampling()
        sigma = rule.probabilities(layered, flows, latencies)
        rule.validate(sigma, layered)

    def test_independent_of_flow(self, two_links):
        rule = UniformSampling()
        a = rule.probabilities(two_links, *posted_state(two_links, [0.9, 0.1]))
        b = rule.probabilities(two_links, *posted_state(two_links, [0.2, 0.8]))
        assert np.allclose(a, b)


class TestProportionalSampling:
    def test_matches_flow_shares(self, two_links):
        flows, latencies = posted_state(two_links, [0.7, 0.3])
        sigma = ProportionalSampling(exploration=0.0).probabilities(two_links, flows, latencies)
        assert np.allclose(sigma[:, 0], 0.7)
        assert np.allclose(sigma[:, 1], 0.3)

    def test_exploration_keeps_probabilities_positive(self, two_links):
        flows, latencies = posted_state(two_links, [1.0, 0.0])
        sigma = ProportionalSampling(exploration=0.01).probabilities(two_links, flows, latencies)
        assert sigma[0, 1] > 0.0
        ProportionalSampling(exploration=0.01).validate(sigma, two_links)

    def test_handles_zero_total_flow_defensively(self, two_links):
        # Degenerate posted flow (all zeros) must not divide by zero.
        latencies = two_links.path_latencies(np.array([0.5, 0.5]))
        sigma = ProportionalSampling().probabilities(two_links, np.zeros(2), latencies)
        assert np.allclose(sigma.sum(axis=1), 1.0)

    def test_rejects_bad_exploration(self):
        with pytest.raises(ValueError):
            ProportionalSampling(exploration=1.0)

    def test_rows_sum_to_one_multi_commodity(self, layered):
        flows = FlowVector.uniform(layered).values()
        latencies = layered.path_latencies(flows)
        rule = ProportionalSampling()
        rule.validate(rule.probabilities(layered, flows, latencies), layered)


class TestSoftmaxSampling:
    def test_prefers_low_latency_paths(self, two_links):
        flows, latencies = posted_state(two_links, [0.9, 0.1])
        sigma = SoftmaxSampling(concentration=5.0).probabilities(two_links, flows, latencies)
        # Path 1 (empty link) has lower latency and must get more probability.
        assert sigma[0, 1] > sigma[0, 0]

    def test_large_concentration_approaches_best_response(self, two_links):
        flows, latencies = posted_state(two_links, [0.9, 0.1])
        sigma = SoftmaxSampling(concentration=500.0).probabilities(two_links, flows, latencies)
        assert sigma[0, 1] == pytest.approx(1.0, abs=1e-3)

    def test_small_concentration_approaches_uniform(self, two_links):
        flows, latencies = posted_state(two_links, [0.9, 0.1])
        sigma = SoftmaxSampling(concentration=1e-6).probabilities(two_links, flows, latencies)
        assert sigma[0, 0] == pytest.approx(0.5, abs=1e-3)

    def test_rejects_non_positive_concentration(self):
        with pytest.raises(ValueError):
            SoftmaxSampling(0.0)

    def test_valid_stochastic_matrix(self, braess):
        flows = FlowVector.uniform(braess).values()
        latencies = braess.path_latencies(flows)
        rule = SoftmaxSampling(3.0)
        rule.validate(rule.probabilities(braess, flows, latencies), braess)


class TestRuleWithoutKernel:
    def test_raises_instead_of_recursing(self, braess):
        class NoKernel(SamplingRule):
            pass

        flows, latencies = posted_state(braess, np.full(braess.num_paths, 1 / 3))
        with pytest.raises(NotImplementedError):
            NoKernel().probabilities(braess, flows, latencies)
        with pytest.raises(NotImplementedError):
            NoKernel().probabilities_batch(braess, flows[None], latencies[None])
