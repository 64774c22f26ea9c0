"""Frozen reference runs of the column-generation driver.

``cg_goldens.json`` holds, for every case in :data:`CASES`, the initial flow
of one ``simulate_with_column_generation`` run and everything it returns:
every recorded time, flow and phase record (on the final restricted
network), the final path list, the growth events, ``path_counts`` and the
eviction events.  ``tests/largescale/test_cg_goldens.py`` re-runs each case
from the stored initial flow and compares flows at 1e-12 relative and the
paths, phases and counts exactly.  The file was written by the scalar
column-generation phase loop, before that loop became a one-row batch.

The goldens are a reference, not a snapshot to refresh: regenerate them
only when the dynamics are *meant* to change, with

    PYTHONPATH=src python tests/data/cg_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.core import replicator_policy, uniform_policy
from repro.instances import get_instance, grid_network
from repro.largescale import ActivePathSet, simulate_with_column_generation
from repro.scenarios import LinkIncident, Scenario, get_scenario
from repro.wardrop import FlowVector, equilibrium_violation

GOLDEN_PATH = Path(__file__).with_name("cg_goldens.json")


def build_network(name: str):
    if name == "grid-3x3":
        return grid_network(3, 3, num_commodities=2, seed=3)
    return get_instance(name)


POLICIES = {
    "uniform": uniform_policy,
    "replicator": replicator_policy,
    "uniform-100": lambda network: uniform_policy(network, max_latency=100.0),
}

SCENARIOS = {
    "incident": lambda network: Scenario(
        name="first-edge-incident",
        incidents=[LinkIncident(network.edges[0], 0.5, 1.75, capacity_factor=0.3)],
    ),
    "braess-closure": lambda network: get_scenario("braess-closure", network),
    "sioux-falls-incident": lambda network: get_scenario("sioux-falls-incident", network),
}


def _case(instance, closed=False, policy="uniform", builder=False, period=0.25,
          horizon=3.0, stale=True, steps=10, method="rk4", scenario=None,
          start_seed=None, stop=None) -> dict:
    return dict(
        instance=instance, closed=closed, policy=policy, builder=builder,
        period=period, horizon=horizon, stale=stale, steps=steps, method=method,
        scenario=scenario, start_seed=start_seed, stop=stop,
    )


def _build_cases() -> Dict[str, dict]:
    cases: Dict[str, dict] = {}
    # Open and closed path sets, stale and fresh information.
    for instance in ("braess", "grid-3x3"):
        for closed in (False, True):
            for stale in (True, False):
                name = f"{instance}/{'closed' if closed else 'open'}/{'stale' if stale else 'fresh'}"
                cases[name] = _case(
                    instance, closed=closed, stale=stale,
                    policy="replicator" if closed else "uniform",
                )
    # A capacity drop on one link, stale and fresh.
    for stale in (True, False):
        cases[f"grid-3x3/open/incident/{'stale' if stale else 'fresh'}"] = _case(
            "grid-3x3", stale=stale, scenario="incident", horizon=2.5
        )
    # The Braess shortcut closes at t = 10 (phase 20): the flow on crossing
    # columns is evicted onto the best open one.
    cases["braess/open/closure"] = _case(
        "braess", scenario="braess-closure", period=0.5, horizon=14.0, steps=5
    )
    cases["braess/closed/closure"] = _case(
        "braess", closed=True, scenario="braess-closure", period=0.5, horizon=12.0,
        steps=5,
    )
    # A policy builder, re-invoked after every growth event (uniform_policy
    # reads the restricted network's max latency).
    cases["grid-3x3/open/builder"] = _case("grid-3x3", builder=True, horizon=5.0)
    cases["braess/open/euler"] = _case("braess", method="euler", period=0.2)
    # An explicit (random) initial flow on the full enumerated set.
    cases["grid-3x3/closed/initial-flow"] = _case(
        "grid-3x3", closed=True, start_seed=7, horizon=2.0
    )
    # A stop condition that fires well before the horizon.
    cases["grid-3x3/open/stop"] = _case("grid-3x3", horizon=40.0, stop=0.3)
    # A horizon that is not a multiple of the period.
    cases["grid-3x3/open/ragged-horizon"] = _case("grid-3x3", period=0.3, horizon=2.0)
    # A period at which floor(t / T) keeps a snapshot for one extra phase.
    cases["braess/closed/refresh-quirk"] = _case(
        "braess", closed=True, policy="replicator", period=0.01, horizon=0.35, steps=5
    )
    cases["sioux-falls-mini/open/incident"] = _case(
        "sioux-falls-mini", policy="uniform-100", builder=True, period=0.5,
        horizon=5.0, steps=5, scenario="sioux-falls-incident",
    )
    return cases


CASES = _build_cases()


def build_active(spec: dict) -> ActivePathSet:
    return ActivePathSet.from_network(build_network(spec["instance"]), closed=spec["closed"])


def start_flow(active: ActivePathSet, seed: Optional[int]) -> Optional[FlowVector]:
    if seed is None:
        return None
    return FlowVector.random(active.network, np.random.default_rng(seed))


def run_case(spec: dict, active: ActivePathSet, initial_flow: Optional[FlowVector]):
    """Run one golden case on ``active`` from ``initial_flow``."""
    network = active.network
    build_policy = POLICIES[spec["policy"]]
    policy = build_policy if spec["builder"] else build_policy(network)
    scenario = SCENARIOS[spec["scenario"]](network) if spec["scenario"] else None
    stop_when = None
    if spec["stop"] is not None:
        threshold = spec["stop"]

        def stop_when(_time, flow):
            return equilibrium_violation(flow) < threshold

    return simulate_with_column_generation(
        active, policy, update_period=spec["period"], horizon=spec["horizon"],
        initial_flow=initial_flow, stale=spec["stale"], steps_per_phase=spec["steps"],
        method=spec["method"], stop_when=stop_when, scenario=scenario,
    )


def path_key(path) -> str:
    return f"{path.commodity_index}:{path.edges}"


def result_record(result) -> dict:
    """The JSON form of everything a column-generation run returns."""
    trajectory = result.trajectory
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
        "paths": [path_key(path) for path in result.network.paths],
        "growth_events": [
            [phase, [path_key(path) for path in paths]]
            for phase, paths in result.growth_events
        ],
        "path_counts": list(result.path_counts),
        "eviction_events": [[phase, volume] for phase, volume in result.eviction_events],
    }


def main() -> None:
    lines = []
    for name, spec in CASES.items():
        active = build_active(spec)
        initial = start_flow(active, spec["start_seed"])
        payload = {
            "spec": spec,
            "initial_flow": None if initial is None else initial.values().tolist(),
            "result": result_record(run_case(spec, active, initial)),
        }
        lines.append(f"{json.dumps(name)}: {json.dumps(payload)}")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
