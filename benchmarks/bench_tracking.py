"""E11 -- tracking a moving equilibrium on Sioux Falls (nonstationary scenarios).

A batched ensemble of >= 32 replicas runs the stale-information dynamics on
the Sioux Falls road network while a link incident (a capacity drop on the
busiest link) hits at a *different time in every row* -- one
:class:`~repro.scenarios.scenario.Scenario` per row, all integrated as a
single :class:`~repro.batch.engine.BatchSimulator` ensemble.  The benchmark
verifies three things:

* **exactness** -- every batched row is bit-identical to the one-row
  ``simulate(..., scenario=...)`` run of the same configuration,
* **throughput** -- the ensemble runs faster than the equivalent loop of
  one-row ``simulate`` runs,
* **tracking** -- per-interval ground-truth equilibria (edge-flow
  Frank--Wolfe through the shortest-path oracle; two solves cover all rows,
  because the distinct environment states are shared) quantify how the
  dynamics chase the moving equilibrium: during the incident the error to
  the *incident* equilibrium decays (the dynamics adapt to the disruption),
  the clearance jolts the error back up (the target jumps), and the tail
  re-converges -- the jolt and the re-equilibration time are the tracking
  metrics the stationary benchmarks cannot measure.

Route choice needs routes: the TNTP loader seeds one free-flow shortest path
per OD pair, so the benchmark first *grows* the strategy sets by querying the
oracle under free-flow, equilibrium and incident-priced costs (column
generation as a preprocessing step), then freezes the grown path set for the
fixed-dimension batched sweep.

Run as a script (the CI smoke job does) or through pytest:

    PYTHONPATH=src python benchmarks/bench_tracking.py --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_tracking.py -q
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.analysis import print_table
from repro.telemetry import telemetry_session
from repro.telemetry.bench import bench_timer
from repro.batch.engine import BatchConfig, BatchSimulator
from repro.core import ReroutingPolicy, ScaledLinearMigration, UniformSampling, simulate
from repro.instances import sioux_falls_network
from repro.largescale import ActivePathSet, ShortestPathOracle
from repro.scenarios import (
    LinkIncident,
    Scenario,
    interval_equilibria,
    time_to_reequilibrate,
    tracking_error,
    tracking_regret,
)
from repro.solvers import solve_edge_flow_equilibrium

# Capacity drop severity: the remaining capacity fraction while an incident
# is active.  The route-growing preprocessing always prices the drop at the
# full-size value so detours are in the strategy set either way.
INCIDENT_FACTOR = 0.35
SMOKE_INCIDENT_FACTOR = 0.15


def grown_network(max_od_pairs: int):
    """Sioux Falls with oracle-grown strategy sets (fixed, multi-route).

    The loader's restricted sets hold one free-flow path per OD; augmenting
    under equilibrium and incident-priced costs adds the routes the dynamics
    need to react to congestion and to the incident, after which the set is
    frozen so the sweep batches at a fixed path dimension.
    """
    network = sioux_falls_network(max_od_pairs=max_od_pairs)
    oracle = ShortestPathOracle.for_network(network)
    active = ActivePathSet.from_network(network)
    equilibrium = solve_edge_flow_equilibrium(network, tolerance=1e-3, oracle=oracle)
    active.augment(oracle.latency_costs(network, equilibrium.edge_flows))
    incident_edge = oracle.edges[int(np.argmax(equilibrium.edge_flows))]
    incident_costs = Scenario(
        incidents=[LinkIncident(incident_edge, 0.0, 1.0, capacity_factor=INCIDENT_FACTOR)]
    ).network_at(network, 0.5)
    active.augment(oracle.latency_costs(incident_costs, equilibrium.edge_flows))
    return active.network, oracle, incident_edge


def incident_scenarios(
    incident_edge, starts, duration: float, factor: float = INCIDENT_FACTOR
) -> List[Scenario]:
    return [
        Scenario(
            name=f"incident@{start:g}",
            incidents=[
                LinkIncident(
                    incident_edge, float(start), float(start) + duration,
                    capacity_factor=factor,
                )
            ],
        )
        for start in starts
    ]


def run_benchmark(
    smoke: bool = False, scalar_rows: Optional[int] = None, method: str = "fw"
) -> dict:
    if smoke:
        max_od_pairs, batch = 20, 8
        horizon, period, steps = 12.0, 0.1, 5
        duration, first_start, last_start = 3.0, 3.0, 6.0
        factor = SMOKE_INCIDENT_FACTOR
    else:
        max_od_pairs, batch = 40, 32
        horizon, period, steps = 20.0, 0.1, 10
        duration, first_start, last_start = 4.0, 5.0, 10.0
        factor = INCIDENT_FACTOR
    if scalar_rows is None:
        scalar_rows = batch

    network, oracle, incident_edge = grown_network(max_od_pairs)
    # Congestion-scale smoothness: fast enough to adapt within the incident
    # window, still a valid (capped) migration probability.
    alpha = 2.0 / float(np.max(oracle.free_flow_costs(network)))
    policy = ReroutingPolicy(
        UniformSampling(), ScaledLinearMigration(alpha), name="uniform+scaled"
    )
    starts = np.linspace(first_start, last_start, batch)
    scenarios = incident_scenarios(incident_edge, starts, duration, factor=factor)

    config = BatchConfig(
        update_periods=np.full(batch, period),
        horizons=horizon,
        steps_per_phase=steps,
    )
    with bench_timer(
        "bench_tracking", "E11 scenario ensemble",
        engine="fluid-batch", instance="sioux-falls-incident", cases=batch,
    ) as batched_timer:
        result = BatchSimulator(network, policy, config, scenarios=scenarios).run()
    batched_seconds = batched_timer.seconds

    scalar_flows = []
    with bench_timer(
        "bench_tracking", "E11 one-row loop",
        engine="fluid-batch", instance="sioux-falls-incident", cases=scalar_rows,
    ) as scalar_timer:
        for row in range(scalar_rows):
            trajectory = simulate(
                network, policy, update_period=period, horizon=horizon,
                steps_per_phase=steps, scenario=scenarios[row],
            )
            scalar_flows.append(np.array([p.flow.values() for p in trajectory.points]))
    scalar_seconds = scalar_timer.seconds
    # Normalise the loop timing to the full batch when only a subset ran.
    scalar_seconds_full = scalar_seconds * batch / scalar_rows

    exact = all(
        np.array_equal(scalar_flows[row], result.flow_matrix(row))
        for row in range(scalar_rows)
    )
    speedup = scalar_seconds_full / batched_seconds

    # Tracking: two distinct environment states across all rows -> the shared
    # cache solves exactly two edge-flow equilibria.
    cache: dict = {}
    rows = []
    total_iterations = 0
    with bench_timer(
        "bench_tracking", "E11 ground truth",
        engine=f"edge-{method}", instance="sioux-falls-incident", cases=3,
        method=method,
    ) as tracking_timer:
        for row in (0, batch // 2, batch - 1):
            scenario = scenarios[row]
            track = interval_equilibria(
                network, scenario, horizon=horizon, space="edge",
                tolerance=1e-3, oracle=oracle, cache=cache, method=method,
            )
            total_iterations += track.total_iterations
            trajectory = result.trajectory(row)
            times, errors = tracking_error(trajectory, track)
            incident_start = float(starts[row])
            incident_end = incident_start + duration
            during = errors[(times >= incident_start) & (times < incident_end)]
            after = errors[(times >= incident_end) & (times < incident_end + 1.0)]
            err_onset = float(errors[times < incident_start][-1])
            err_peak = float(during.max()) if len(during) else float("nan")
            jolt = float(after.max()) if len(after) else float("nan")
            rows.append(
                {
                    "row": row,
                    "incident": f"[{incident_start:g}, {incident_end:g})",
                    "err_onset": err_onset,
                    "err_peak": err_peak,
                    "jolt_at_clear": jolt,
                    "err_final": float(errors[-1]),
                    "reequilibrate": time_to_reequilibrate(
                        times, errors, incident_end, 1.5 * err_onset
                    ),
                    "regret": tracking_regret(trajectory, track),
                }
            )
    tracking_seconds = tracking_timer.seconds

    print_table(
        rows,
        title=(
            f"E11: equilibrium tracking on Sioux Falls ({max_od_pairs} OD pairs, "
            f"{network.num_paths} routes), incident on {incident_edge[0]}->{incident_edge[1]} "
            f"at {batch} staggered times, T={period}"
        ),
    )
    summary = {
        "batch": batch,
        "paths": network.num_paths,
        "bit_identical": exact,
        "scalar_rows_checked": scalar_rows,
        "batched_seconds": round(batched_seconds, 2),
        "scalar_seconds_full": round(scalar_seconds_full, 2),
        "speedup": round(speedup, 1),
        "equilibrium_solves": sum(1 for _ in cache),
        "tracking_method": method,
        "tracking_iterations": total_iterations,
        "tracking_seconds": round(tracking_seconds, 2),
        "tracking_rows": rows,
    }
    print(
        f"batched: {batch} scenario rows in {batched_seconds:.2f}s; one-row loop "
        f"({scalar_rows} rows measured): {scalar_seconds:.2f}s "
        f"(~{scalar_seconds_full:.2f}s for all {batch}) -> {speedup:.1f}x"
    )
    print(
        f"bit-identical rows: {'yes' if exact else 'NO'}; "
        f"ground truth: {summary['equilibrium_solves']} edge-flow solves "
        f"({method}, {total_iterations} iterations, shared across rows) "
        f"in {tracking_seconds:.2f}s"
    )
    return summary


def test_tracking_smoke():
    """Pytest entry: the smoke ensemble is exact and tracks the incident."""
    summary = run_benchmark(smoke=True)
    assert summary["bit_identical"]
    assert summary["equilibrium_solves"] == 2
    for row in summary["tracking_rows"]:
        disruption = max(row["err_peak"], row["jolt_at_clear"])
        # the moving target visibly perturbs tracking (onset or clearance)...
        assert disruption > 1.4 * row["err_onset"]
        # ...the tail re-approaches the restored equilibrium...
        assert row["err_final"] < disruption
        # ...within a finite re-equilibration time after the clearance
        assert np.isfinite(row["reequilibrate"])
        assert row["regret"] > 0.0
    # The batched ensemble must clearly outrun the one-row loop even in the
    # small smoke configuration (the full configuration runs about 6x).
    assert summary["speedup"] > 3.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast 8-row / 20-OD-pair variant (CI-friendly)",
    )
    parser.add_argument(
        "--scalar-rows",
        type=int,
        default=None,
        help="measure only this many scalar counterpart rows (extrapolated)",
    )
    parser.add_argument(
        "--method",
        choices=["fw", "cfw", "bfw"],
        default="fw",
        help="edge-space solver method for the ground-truth equilibria",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a telemetry session and write its JSONL trace here",
    )
    args = parser.parse_args(argv)
    if args.trace is not None:
        with telemetry_session(trace_path=args.trace):
            run_benchmark(
                smoke=args.smoke, scalar_rows=args.scalar_rows, method=args.method
            )
        print(f"wrote trace {args.trace}")
    else:
        run_benchmark(smoke=args.smoke, scalar_rows=args.scalar_rows, method=args.method)
    return 0


if __name__ == "__main__":
    sys.exit(main())
