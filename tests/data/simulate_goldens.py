"""Frozen reference trajectories of the fluid simulator ``simulate``.

``simulate_goldens.json`` holds, for every case in :data:`CASES`, the
initial flow and every recorded time, flow and phase record of one run.
``tests/core/test_simulate_goldens.py`` re-runs each case from the stored
initial flow and compares at 1e-12 relative, so the contract survives
refactors of the engine behind ``simulate`` (the file was written before
the scalar phase loop was replaced by a one-row batch).

The goldens are a reference, not a snapshot to refresh: regenerate them
only when the dynamics are *meant* to change, with

    PYTHONPATH=src python tests/data/simulate_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core import (
    ReroutingPolicy,
    ReroutingSimulator,
    SimulationConfig,
    better_response_policy,
    replicator_policy,
    scaled_policy,
    simulate,
    smoothed_best_response_policy,
    uniform_policy,
)
from repro.core.migration import MigrationRule
from repro.core.sampling import SamplingRule
from repro.instances import get_instance
from repro.scenarios import LinkIncident, Scenario
from repro.scenarios.schedule import PiecewiseConstantSchedule
from repro.wardrop import FlowVector, equilibrium_violation

GOLDEN_PATH = Path(__file__).with_name("simulate_goldens.json")


class SquaredGapMigration(MigrationRule):
    """A custom migration rule defined only through ``probability``."""

    def probability(self, latency_from: float, latency_to: float) -> float:
        if latency_from <= latency_to:
            return 0.0
        return min(1.0, (latency_from - latency_to) ** 2)


class EveryOtherSampling(SamplingRule):
    """A custom sampling rule defined only through ``probabilities``."""

    def probabilities(self, network, posted_flows, posted_path_latencies):
        sigma = np.zeros((network.num_paths, network.num_paths))
        for i in range(network.num_commodities):
            indices = np.fromiter(network.paths.commodity_indices(i), dtype=int)
            sigma[np.ix_(indices, indices)] = 1.0 / len(indices)
        return sigma


POLICIES = {
    "uniform": uniform_policy,
    "replicator": replicator_policy,
    "better-response": lambda network: better_response_policy(),
    "smoothed-br": lambda network: smoothed_best_response_policy(4.0, 0.2),
    "scaled": lambda network: scaled_policy(1.5),
    "custom": lambda network: ReroutingPolicy(
        EveryOtherSampling(), SquaredGapMigration(), name="custom"
    ),
}

SCENARIOS = {
    "incident": lambda: Scenario(
        name="s-a-incident",
        incidents=[LinkIncident(("s", "a", 0), 0.3, 0.9, capacity_factor=0.4)],
    ),
    "demand": lambda: Scenario(
        name="demand-steps",
        demand=PiecewiseConstantSchedule([0.4, 1.0], [1.0, 1.6, 0.7]),
    ),
}


def _case(instance, policy="replicator", period=0.1, horizon=1.0, stale=True,
          steps=20, method="rk4", scenario=None, every_step=False, stop=None,
          start_seed=1) -> dict:
    return dict(
        instance=instance, policy=policy, period=period, horizon=horizon,
        stale=stale, steps=steps, method=method, scenario=scenario,
        every_step=every_step, stop=stop, start_seed=start_seed,
    )


def _build_cases() -> Dict[str, dict]:
    cases: Dict[str, dict] = {}
    # The single-replica configurations: three instances x stale at two
    # periods x fresh information.
    for instance in ("braess", "two-links-steep", "parallel-8-affine"):
        for label, period, stale in (
            ("stale-0.05", 0.05, True),
            ("stale-0.5", 0.5, True),
            ("fresh-0.5", 0.5, False),
        ):
            cases[f"{instance}/{label}"] = _case(
                instance, period=period, horizon=2.0, stale=stale, steps=50
            )
    # Every named policy, and a custom-rule policy, on Braess.
    for policy in POLICIES:
        for stale in (True, False):
            mode = "stale" if stale else "fresh"
            cases[f"braess/{policy}/{mode}"] = _case(
                "braess", policy=policy, period=0.15, stale=stale, start_seed=2
            )
    cases["braess/replicator/euler"] = _case("braess", method="euler", period=0.13)
    # Nonstationary environments.
    for stale in (True, False):
        mode = "stale" if stale else "fresh"
        cases[f"braess/incident/{mode}"] = _case(
            "braess", period=0.1, horizon=1.5, stale=stale, scenario="incident"
        )
        cases[f"parallel-8-affine/demand/{mode}"] = _case(
            "parallel-8-affine", policy="uniform", period=0.2, horizon=1.4,
            stale=stale, scenario="demand",
        )
    # Dense recording, stale and fresh, with a period that does not divide
    # the horizon.
    for stale in (True, False):
        mode = "stale" if stale else "fresh"
        cases[f"braess/every-step/{mode}"] = _case(
            "braess", period=0.3, horizon=1.0, stale=stale, steps=7, every_step=True
        )
    # An early stop that fires well before the horizon.
    cases["two-links/stop"] = _case(
        "two-links", period=0.1, horizon=50.0, steps=10, stop=1e-3
    )
    for stale in (True, False):
        mode = "stale" if stale else "fresh"
        cases[f"sioux-falls-mini/{mode}"] = _case(
            "sioux-falls-mini", policy="uniform", period=0.1, horizon=0.5,
            stale=stale, steps=10,
        )
    return cases


CASES = _build_cases()


def start_flow(network, seed: int) -> FlowVector:
    return FlowVector.random(network, np.random.default_rng(seed))


def run_case(spec: dict, initial_flow: FlowVector):
    """Run one golden case from ``initial_flow`` and return its trajectory."""
    network = initial_flow.network
    policy = POLICIES[spec["policy"]](network)
    scenario = SCENARIOS[spec["scenario"]]() if spec["scenario"] else None
    stop_when = None
    if spec["stop"] is not None:
        threshold = spec["stop"]

        def stop_when(_time, flow):
            return equilibrium_violation(flow) < threshold

    if spec["every_step"]:
        config = SimulationConfig(
            update_period=spec["period"], horizon=spec["horizon"],
            steps_per_phase=spec["steps"], method=spec["method"],
            stale=spec["stale"], record_every_step=True,
        )
        simulator = ReroutingSimulator(network, policy, config, scenario=scenario)
        return simulator.run(initial_flow, stop_when=stop_when)
    return simulate(
        network, policy, update_period=spec["period"], horizon=spec["horizon"],
        initial_flow=initial_flow, stale=spec["stale"], steps_per_phase=spec["steps"],
        method=spec["method"], stop_when=stop_when, scenario=scenario,
    )


def trajectory_record(trajectory) -> dict:
    """The JSON form of every recorded time, flow and phase record."""
    return {
        "policy_name": trajectory.policy_name,
        "update_period": trajectory.update_period,
        "times": [point.time for point in trajectory.points],
        "point_phases": [point.phase_index for point in trajectory.points],
        "flows": trajectory.flow_matrix().tolist(),
        "phases": [
            {
                "index": phase.index,
                "start_time": phase.start_time,
                "end_time": phase.end_time,
                "start_flow": phase.start_flow.values().tolist(),
                "end_flow": phase.end_flow.values().tolist(),
            }
            for phase in trajectory.phases
        ],
    }


def main() -> None:
    lines = []
    for name, spec in CASES.items():
        network = get_instance(spec["instance"])
        initial = start_flow(network, spec["start_seed"])
        payload = {
            "spec": spec,
            "initial_flow": initial.values().tolist(),
            "trajectory": trajectory_record(run_case(spec, initial)),
        }
        lines.append(f"{json.dumps(name)}: {json.dumps(payload)}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
