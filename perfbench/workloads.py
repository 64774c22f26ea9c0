"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload is a class whose constructor does the set-up (build instances,
grow path sets, solve references, build the oracle, one untimed warm-up) and
whose :meth:`run_pass` executes one timed pass and returns the raw outputs.
:meth:`check` turns those outputs into a :class:`Verdict` -- one operation
per row, run or solve -- so a wrong kernel shows up as failed operations.

Seeded inputs are drawn from a recorded *menu* (incident starts x start
flows, agent seeds): every output the checks compare has a frozen reference
in ``reference.json``, yet the seed still decides which inputs a run sees.
Regenerate the references with ``python3 perfbench/record_reference.py``
only when the program's results are meant to change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

import repro.experiments as experiments
import repro.largescale.batch_columns as batch_columns
import repro.solvers.edge_frank_wolfe as edge_frank_wolfe
from repro.analysis.sweeps import SweepCase
from repro.core import ReroutingPolicy, ScaledLinearMigration, UniformSampling, simulate
from repro.core.agents import AgentBasedSimulator, AgentSimulationConfig
from repro.core.policy import replicator_policy
from repro.instances import get_instance, sioux_falls_network, synthetic_city_network
from repro.largescale import ActivePathSet, ShortestPathOracle
from repro.scenarios import LinkIncident, Scenario
from repro.wardrop.flow import FlowVector
from repro.wardrop.network import WardropNetwork

REFERENCE_PATH = Path(__file__).with_name("reference.json")

MASS_RTOL = 1e-9
FLOW_RTOL = 1e-9
EQUILIBRIUM_GAP = 1e-4
TSTT_RTOL = 1e-3
CG_GAP = 1e-3

# Sizes: "full" is the benchmark; "tiny" is the same code on small inputs,
# for the benchmark's own tests.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "fluid-sweep": dict(od_pairs=200, rows=32, period=0.1, phases=10, steps=10,
                            starts=32, flows=4),
        "single-replica": dict(horizon=10.0, agents=2000, flows=8, agent_seeds=16),
        "equilibrium": dict(od_pairs=None),
        "cg-city": dict(blocks=16, od_pairs=12, rows=8, period=0.25, horizon=16.0,
                        steps=10, first=2.0, last=5.0, duration=2.0),
    },
    "tiny": {
        "fluid-sweep": dict(od_pairs=20, rows=4, period=0.1, phases=2, steps=5,
                            starts=4, flows=2),
        "single-replica": dict(horizon=1.0, agents=200, flows=2, agent_seeds=2),
        "equilibrium": dict(od_pairs=40),
        "cg-city": dict(blocks=8, od_pairs=6, rows=4, period=0.25, horizon=10.0,
                        steps=5, first=1.0, last=2.5, duration=1.0),
    },
}


@dataclass
class Verdict:
    """Checked operations of one pass; ``problems`` names each failure."""

    attempted: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, label: str, problem: str = "") -> None:
        self.attempted += 1
        if problem:
            self.problems.append(f"{label}: {problem}")


def load_reference(size: str, workload: str) -> dict:
    with REFERENCE_PATH.open() as handle:
        return json.load(handle)[size][workload]


def flow_problem(network: WardropNetwork, flows: np.ndarray) -> str:
    """Return why a final path flow is invalid, or ``""``.

    Finite, non-negative, and each commodity's mass within ``MASS_RTOL``
    relative of its demand.
    """
    flows = np.asarray(flows, dtype=float)
    if flows.shape != (network.num_paths,):
        return f"shape {flows.shape} != ({network.num_paths},)"
    if not np.all(np.isfinite(flows)):
        return "non-finite flow"
    if np.any(flows < 0.0):
        return f"negative flow {float(flows.min()):.3g}"
    commodity = np.array([network.paths.commodity_of(p) for p in range(network.num_paths)])
    demands = np.array([c.demand for c in network.commodities])
    masses = np.bincount(commodity, weights=flows, minlength=len(demands))
    error = np.abs(masses - demands) / demands
    if np.max(error) > MASS_RTOL:
        return f"commodity mass off by {float(np.max(error)):.3g} relative"
    return ""


def reference_problem(values: np.ndarray, reference: Sequence[float]) -> str:
    """Return ``""`` when ``values`` match ``reference`` within ``FLOW_RTOL``."""
    reference = np.asarray(reference, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != reference.shape:
        return f"shape {values.shape} != reference {reference.shape}"
    scale = max(1.0, float(np.max(np.abs(reference))))
    error = float(np.max(np.abs(values - reference))) / scale
    if not error <= FLOW_RTOL:
        return f"differs from reference by {error:.3g} relative"
    return ""


def interior_flow(network: WardropNetwork, seed: int) -> FlowVector:
    """A start flow: uniform for seed 0, else a Dirichlet split per commodity."""
    if seed == 0:
        return FlowVector.uniform(network)
    rng = np.random.default_rng(seed)
    values = np.empty(network.num_paths)
    for index, commodity in enumerate(network.commodities):
        paths = list(network.paths.commodity_indices(index))
        values[paths] = commodity.demand * rng.dirichlet(np.ones(len(paths)))
    return FlowVector(network, values)


def _fingerprint_weights(num_paths: int) -> np.ndarray:
    return np.random.default_rng(20050717).uniform(0.5, 1.5, size=(4, num_paths))


class FluidSweep:
    """Incident rows on grown Sioux Falls through ``run_cases`` (one batched run)."""

    name = "fluid-sweep"
    # Host-speed calibration parts (see hostspeed.py): dense tables.
    CALIBRATION = ("interpreter", "arrays")
    INCIDENT_FACTOR = 0.35

    def __init__(self, size: str, seed: int):
        spec = SIZES[size][self.name]
        self.network, oracle, self.incident_edge = grown_sioux_falls(spec["od_pairs"])
        alpha = 2.0 / float(np.max(oracle.free_flow_costs(self.network)))
        self.policy = ReroutingPolicy(
            UniformSampling(), ScaledLinearMigration(alpha), name="uniform+scaled"
        )
        self.period = spec["period"]
        self.horizon = spec["period"] * spec["phases"]
        self.steps = spec["steps"]
        self.starts = self.horizon * np.linspace(0.05, 0.85, spec["starts"])
        self.flows = [interior_flow(self.network, k) for k in range(spec["flows"])]
        self.weights = _fingerprint_weights(self.network.num_paths)
        menu = len(self.starts) * len(self.flows)
        self.entries = np.random.default_rng(seed).choice(menu, spec["rows"], replace=False)
        self.cases = [self.case(int(entry)) for entry in self.entries]
        self.operations = len(self.cases)
        self.row_phases = len(self.cases) * spec["phases"]
        # Warm-up: the same code path on two rows for one phase.
        experiments.run_cases(
            [self.case(0, horizon=self.period), self.case(1, horizon=self.period)],
            self.row_builder,
        )

    def case(self, entry: int, horizon: float = 0.0) -> SweepCase:
        start = float(self.starts[entry // len(self.flows)])
        incident = LinkIncident(
            self.incident_edge, start, start + 0.5 * self.horizon,
            capacity_factor=self.INCIDENT_FACTOR,
        )
        return SweepCase(
            {"entry": entry}, self.network, self.policy, self.period,
            horizon or self.horizon,
            initial_flow=self.flows[entry % len(self.flows)],
            steps_per_phase=self.steps,
            scenario=Scenario(name=f"incident@{start:g}", incidents=[incident]),
        )

    @staticmethod
    def row_builder(trajectory) -> dict:
        return {"final": trajectory.final_flow.values()}

    def run_pass(self):
        begin = perf_counter()
        result = experiments.run_cases(self.cases, self.row_builder)
        return [perf_counter() - begin], [row["final"] for row in result.rows]

    def fingerprint(self, flows: np.ndarray) -> List[float]:
        return (self.weights @ flows).tolist()

    def check(self, outputs, reference: dict) -> Verdict:
        verdict = Verdict()
        for entry, flows in zip(self.entries, outputs):
            label = f"row entry={entry}"
            problem = flow_problem(self.network, flows) or reference_problem(
                self.fingerprint(flows), reference[str(entry)]
            )
            verdict.record(label, problem)
        return verdict


def grown_sioux_falls(od_pairs: int):
    """Sioux Falls with oracle-grown multi-route strategy sets, frozen.

    The loader seeds one free-flow path per OD pair; augmenting under the
    equilibrium costs and the incident-priced costs adds the detours the
    dynamics need (200 OD pairs -> 249 paths, all 528 -> 690, on 76 links).
    """
    network = sioux_falls_network(max_od_pairs=od_pairs)
    oracle = ShortestPathOracle.for_network(network)
    active = ActivePathSet.from_network(network)
    equilibrium = edge_frank_wolfe.solve_edge_flow_equilibrium(
        network, tolerance=1e-3, oracle=oracle
    )
    active.augment(oracle.latency_costs(network, equilibrium.edge_flows))
    incident_edge = oracle.edges[int(np.argmax(equilibrium.edge_flows))]
    incident_costs = Scenario(
        incidents=[
            LinkIncident(incident_edge, 0.0, 1.0, capacity_factor=FluidSweep.INCIDENT_FACTOR)
        ]
    ).network_at(network, 0.5)
    active.augment(oracle.latency_costs(incident_costs, equilibrium.edge_flows))
    return active.network, oracle, incident_edge


class SingleReplica:
    """A closed loop of single (B = 1) runs on three small instances."""

    name = "single-replica"
    CALIBRATION = ("interpreter",)
    INSTANCES = ("braess", "two-links-steep", "parallel-8-affine")
    # label -> (update period, stale) of the runs made on every instance;
    # "agents" is the finite-population run, the others fluid runs.
    RUNS = {
        "stale-0.05": (0.05, True),
        "stale-0.5": (0.5, True),
        "fresh-0.5": (0.5, False),
        "agents": (0.5, True),
    }

    def __init__(self, size: str, seed: int):
        spec = SIZES[size][self.name]
        self.horizon = spec["horizon"]
        self.agents = spec["agents"]
        self.networks = {name: get_instance(name) for name in self.INSTANCES}
        self.policies = {name: replicator_policy(net) for name, net in self.networks.items()}
        self.flows = {
            name: [interior_flow(net, k) for k in range(spec["flows"])]
            for name, net in self.networks.items()
        }
        rng = np.random.default_rng(seed)
        # One operation per (instance, run, menu choice); the triple names
        # its reference: a start flow for fluid runs, a seed for agents.
        self.runs: List[Tuple[str, str, int]] = [
            (name, label, int(rng.integers(spec["agent_seeds" if label == "agents" else "flows"])))
            for name in self.INSTANCES
            for label in self.RUNS
        ]
        self.operations = len(self.runs)
        self.row_phases = sum(
            math.ceil(round(self.horizon / self.RUNS[label][0], 9)) for _, label, _ in self.runs
        )
        # Warm-up: every kind of run once, for one phase.
        for name in self.INSTANCES:
            for label, (period, _) in self.RUNS.items():
                self.run_one(name, label, 0, horizon=period)

    def run_one(self, name: str, label: str, choice: int, horizon: float = 0.0) -> np.ndarray:
        network, policy = self.networks[name], self.policies[name]
        period, stale = self.RUNS[label]
        horizon = horizon or self.horizon
        if label == "agents":
            config = AgentSimulationConfig(
                num_agents=self.agents, update_period=period, horizon=horizon,
                seed=choice, stale=stale,
            )
            trajectory = AgentBasedSimulator(network, policy, config).run()
        else:
            trajectory = simulate(
                network, policy, update_period=period, horizon=horizon,
                initial_flow=self.flows[name][choice], stale=stale,
            )
        return trajectory.final_flow.values()

    def run_pass(self):
        latencies, outputs = [], []
        for name, label, choice in self.runs:
            begin = perf_counter()
            outputs.append(self.run_one(name, label, choice))
            latencies.append(perf_counter() - begin)
        return latencies, outputs

    def check(self, outputs, reference: dict) -> Verdict:
        verdict = Verdict()
        for (name, label, choice), flows in zip(self.runs, outputs):
            key = f"{name}/{label}/{choice}"
            problem = flow_problem(self.networks[name], flows) or reference_problem(
                flows, reference[key]
            )
            verdict.record(key, problem)
        return verdict


class Equilibrium:
    """A cold BFW solve of Sioux Falls to relative gap 1e-4, repeated."""

    name = "equilibrium"
    CALIBRATION = ("interpreter",)

    def __init__(self, size: str, seed: int):
        # The input is fixed by the instance, so the seed is not used.
        del seed
        spec = SIZES[size][self.name]
        self.network = sioux_falls_network(max_od_pairs=spec["od_pairs"])
        self.oracle = ShortestPathOracle.for_network(self.network)
        self.operations = 1
        self.solve(tolerance=1e-1)
        self.row_phases = 0  # set from the first pass: FW iterations

    def solve(self, tolerance: float = EQUILIBRIUM_GAP):
        return edge_frank_wolfe.solve_edge_flow_equilibrium(
            self.network, tolerance=tolerance, method="bfw", oracle=self.oracle
        )

    def run_pass(self):
        begin = perf_counter()
        result = self.solve()
        elapsed = perf_counter() - begin
        self.row_phases = result.iterations
        return [elapsed], result

    def check(self, result, reference: dict) -> Verdict:
        verdict = Verdict()
        flows = np.asarray(result.edge_flows)
        problem = ""
        if not result.converged:
            problem = "did not converge"
        elif not result.relative_gap <= EQUILIBRIUM_GAP:
            problem = f"gap {result.relative_gap:.3g} > {EQUILIBRIUM_GAP:g}"
        elif not (np.all(np.isfinite(flows)) and np.all(flows >= 0.0)):
            problem = "edge flows not finite and non-negative"
        elif not abs(result.tstt / reference["tstt"] - 1.0) <= TSTT_RTOL:
            problem = f"TSTT {result.tstt!r} vs reference {reference['tstt']!r}"
        verdict.record("solve", problem)
        return verdict


class CgCity:
    """One batched column-generation call with incident rows on a city grid."""

    name = "cg-city"
    CALIBRATION = ("interpreter",)
    DEMAND = 1200.0
    ALPHA_SCALE = 4.0
    INCIDENT_FACTOR = 0.4
    JITTER = 0.05

    def __init__(self, size: str, seed: int):
        spec = SIZES[size][self.name]
        self.network = synthetic_city_network(
            blocks=spec["blocks"], od_pairs=spec["od_pairs"], demand=self.DEMAND
        )
        oracle = ShortestPathOracle.for_network(self.network)
        # The incident hits the busiest link at the static equilibrium.
        equilibrium = edge_frank_wolfe.solve_edge_flow_equilibrium(
            self.network, tolerance=1e-4, oracle=oracle
        )
        edge = oracle.edges[int(np.argmax(equilibrium.edge_flows))]
        alpha = self.ALPHA_SCALE / float(np.max(oracle.free_flow_costs(self.network)))
        self.policy = ReroutingPolicy(
            UniformSampling(), ScaledLinearMigration(alpha), name="uniform+scaled"
        )
        self.period, self.horizon, self.steps = spec["period"], spec["horizon"], spec["steps"]
        jitter = np.random.default_rng(seed).uniform(-self.JITTER, self.JITTER, spec["rows"])
        starts = np.linspace(spec["first"], spec["last"], spec["rows"]) + jitter
        self.scenarios = [
            Scenario(
                name=f"incident@{start:g}",
                incidents=[
                    LinkIncident(edge, float(start), float(start) + spec["duration"],
                                 capacity_factor=self.INCIDENT_FACTOR)
                ],
            )
            for start in starts
        ]
        self.operations = spec["rows"]
        self.row_phases = spec["rows"] * math.ceil(round(self.horizon / self.period, 9))
        self.call(self.scenarios[:2], horizon=self.period)

    def call(self, scenarios, horizon: float):
        return batch_columns.simulate_with_column_generation_batch(
            ActivePathSet.from_network(self.network), self.policy,
            update_period=self.period, horizon=horizon, scenarios=scenarios,
            steps_per_phase=self.steps,
        )

    def run_pass(self):
        begin = perf_counter()
        result = self.call(self.scenarios, self.horizon)
        return [perf_counter() - begin], result

    def check(self, result, reference: dict) -> Verdict:
        del reference
        verdict = Verdict()
        finals = result.final_flows()
        for row, gap in enumerate(result.duality_gaps):
            problem = flow_problem(result.network, finals[row])
            if not problem and not gap <= CG_GAP:
                problem = f"gap certificate {gap:.3g} > {CG_GAP:g}"
            verdict.record(f"row {row}", problem)
        return verdict


WORKLOADS = {cls.name: cls for cls in (FluidSweep, SingleReplica, Equilibrium, CgCity)}
