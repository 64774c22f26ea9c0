"""Experiment execution: batched, pooled or serial dispatch of sweep cases.

The runner turns a list of :class:`~repro.analysis.sweeps.SweepCase` objects
into a :class:`~repro.analysis.sweeps.SweepResult` by choosing, per group of
cases, the cheapest execution backend:

* **batch** — cases whose networks share a *topology* (identical paths,
  edges and commodities; latency coefficients may differ) under the same
  information model and integration method are fused into one vectorized
  :class:`~repro.batch.BatchSimulator` integration.  Identical network
  objects batch as before; different same-topology networks are stacked into
  a :class:`~repro.wardrop.family.NetworkFamily`, and per-row policies,
  update periods, horizons, resolutions and initial flows all ride along —
  this is the fast path for the paper's coefficient sweeps;
* **processes** — heterogeneous cases (different topologies) can be fanned
  out over a ``multiprocessing`` pool.  With the ``fork`` start method
  (Linux/macOS default here) workers build the result *rows* in-process and
  return plain dicts, so big sweeps never pickle whole trajectories back to
  the parent; without fork the runner falls back to shipping trajectories;
* **serial** — one case at a time, which means groups of one: fluid and
  column-generation cases are one-row runs of the batched engines
  (``simulate``, ``simulate_with_column_generation``); agent cases still
  run on the scalar agent engine.

``engine="auto"`` batches every multi-case group and runs the remainder
serially (or on a pool when ``processes > 1`` is requested).  Whatever the
backend, rows are emitted in the original case order and each case's
trajectory is identical to its one-case run, so results never depend on the
dispatch decision — with one documented exception: *open-mode*
column-generation cases fused onto the batched CG driver grow a shared
(union) restricted path set, so a fused row can route over columns another
row discovered.  Closed-mode CG fusions stay bit-identical per row; force
``engine="serial"`` when per-row discovery sets must stay independent.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sweeps import RowBuilder, SweepCase, SweepResult
from ..telemetry.runtime import get_telemetry
from ..batch.agents import BatchAgentConfig, BatchAgentSimulator
from ..batch.engine import BatchConfig, BatchSimulator, Policies
from ..core.agents import DEFAULT_NUM_AGENTS, AgentBasedSimulator, AgentSimulationConfig
from ..core.simulator import simulate
from ..core.trajectory import Trajectory
from ..wardrop.family import NetworkFamily, topology_signature
from ..wardrop.flow import FlowVector
from .plan import ExperimentPlan

GroupKey = Tuple[Tuple, bool, str, bool, Optional[Tuple]]

Rows = List[Dict[str, object]]


def group_key(case: SweepCase) -> GroupKey:
    """Return the batch-compatibility key of a case.

    Cases batch together when their networks share a topology
    (:func:`~repro.wardrop.family.topology_signature`: identical paths, edges
    and commodities — latency coefficients may differ, in which case the
    group runs as a :class:`~repro.wardrop.family.NetworkFamily` batch), the
    same information model (stale vs fresh) and the same integration method;
    policy, update period, horizon, steps-per-phase, initial flow and
    *scenario* may vary per row (the batched engine stacks per-row
    nonstationary environments).

    Column-generation cases fuse under a stricter signature (the final key
    element): they must share the *same network object* (the rows grow one
    shared restricted path set) and the same update period, horizon and
    steps-per-phase (the batched driver runs one global phase grid).  Only
    policies and scenarios vary per fused CG row.  The ``serial_only`` flag
    (element 3) marks agent-method cases carrying a scenario: they need the
    scalar agent engine.
    """
    cg_signature: Optional[Tuple] = None
    if case.column_generation:
        cg_signature = (
            id(case.network),
            case.update_period,
            case.horizon,
            case.steps_per_phase,
        )
    return (
        topology_signature(case.network),
        case.stale,
        case.method,
        case.method == "agents" and case.scenario is not None,
        cg_signature,
    )


def _case_num_agents(case: SweepCase) -> int:
    """Return a case's population size, defaulting only a missing value.

    An explicit (invalid) 0 must reach the config validator rather than be
    silently replaced by the default.
    """
    return case.num_agents if case.num_agents is not None else DEFAULT_NUM_AGENTS


def _simulate_case(case: SweepCase) -> Trajectory:
    """Run one case on its own (also the pool worker)."""
    if case.column_generation:
        return _run_batch_cg_group([case])[0]
    scalar_stop = case.stop_when.scalar(0) if case.stop_when is not None else None
    if case.method == "agents":
        config = AgentSimulationConfig(
            num_agents=_case_num_agents(case),
            update_period=case.update_period,
            horizon=case.horizon,
            seed=case.seed,
            stale=case.stale,
        )
        return AgentBasedSimulator(
            case.network, case.policy, config, scenario=case.scenario
        ).run(case.initial_flow, stop_when=scalar_stop)
    return simulate(
        case.network,
        case.policy,
        update_period=case.update_period,
        horizon=case.horizon,
        initial_flow=case.initial_flow,
        stale=case.stale,
        steps_per_phase=case.steps_per_phase,
        method=case.method,
        stop_when=scalar_stop,
        scenario=case.scenario,
    )


def _case_event_attrs(case: SweepCase) -> Dict[str, object]:
    """Return the JSON-friendly attributes of one case's progress events."""
    attrs: Dict[str, object] = {
        "method": case.method,
        "stale": case.stale,
        "update_period": case.update_period,
        "horizon": case.horizon,
    }
    for key, value in case.parameters.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            attrs.setdefault(key, value)
    return attrs


def _serial_case_rows(case: SweepCase, row_builder: RowBuilder) -> Rows:
    """Run one case serially, emitting started/finished progress events."""
    tele = get_telemetry()
    attrs = _case_event_attrs(case) if tele.enabled else {}
    tele.event("case_started", **attrs)
    begin = time.perf_counter() if tele.enabled else 0.0
    rows = _case_rows(case, _simulate_case(case), row_builder)
    tele.event("case_finished", seconds=time.perf_counter() - begin, **attrs)
    tele.counter("runner.cases_completed").add()
    return rows


def _case_rows(case: SweepCase, trajectory: Trajectory, row_builder: RowBuilder) -> Rows:
    """Build one case's result rows, merged over its echoed parameters."""
    built = row_builder(trajectory)
    rows = built if isinstance(built, (list, tuple)) else [built]
    merged_rows: Rows = []
    for row in rows:
        merged: Dict[str, object] = dict(case.parameters)
        merged.update(row)
        merged_rows.append(merged)
    return merged_rows


def _group_target_and_policies(cases: Sequence[SweepCase]):
    """Return the shared network (or family) and policies of one group."""
    networks = [case.network for case in cases]
    if all(network is networks[0] for network in networks):
        target = networks[0]
    else:
        target = NetworkFamily(networks)
    policies: Policies = [case.policy for case in cases]
    if all(policy is policies[0] for policy in policies):
        policies = policies[0]
    return target, policies


def _group_stop_when(cases: Sequence[SweepCase]):
    """Build the combined batch stopping condition of one fused group.

    Each case's :class:`~repro.batch.stopping.StopCondition` is evaluated on
    its own single-row slice with row index 0 -- exactly what the serial
    backend's ``condition.scalar(0)`` adapter evaluates -- so a case stops in
    the same phase whichever backend runs it.
    """
    conditions = [case.stop_when for case in cases]
    if all(condition is None for condition in conditions):
        return None
    zero = np.zeros(1, dtype=int)

    def combined(times: np.ndarray, flows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        mask = np.zeros(len(rows), dtype=bool)
        for i, row in enumerate(rows):
            condition = conditions[row]
            if condition is not None:
                mask[i] = bool(
                    np.asarray(condition.batch(times[i : i + 1], flows[i : i + 1], zero))[0]
                )
        return mask

    return combined


def _run_batch_cg_group(cases: Sequence[SweepCase]) -> List[Trajectory]:
    """Run one fused column-generation group on the batched CG driver.

    The group key guarantees the cases share one network object, update
    period, horizon, steps-per-phase, information model and method; policies
    and scenarios ride along per row.  Serial CG cases run here as groups of
    one.  Closed-mode rows are bit-identical to their one-case runs.
    **Open-mode rows are not**: fused rows grow one shared (union)
    restricted path set, so a row can discover columns another row's
    snapshot surfaced — this is the one documented departure from "results
    never depend on the dispatch decision" (force ``engine="serial"`` to
    keep per-row discovery sets independent).
    """
    # Lazy import: the large-network layer is optional machinery for the
    # runner and pulls in the shortest-path oracle stack.
    from ..largescale.batch_columns import simulate_with_column_generation_batch
    from ..largescale.columns import ActivePathSet

    for case in cases:
        if case.method == "agents":
            raise ValueError("column generation supports fluid methods only")
        if case.initial_flow is not None:
            raise ValueError(
                "column-generation cases start from the uniform split on their "
                "seed paths; initial_flow cannot be mapped onto the grown set"
            )
        if case.stop_when is not None:
            raise ValueError(
                "SweepCase.stop_when conditions are authored for the case "
                "network's fixed path dimension; a column-generation run's "
                "restricted path set grows mid-run, so pass a scalar "
                "stop_when to simulate_with_column_generation directly "
                "(it receives the flow on the current restricted network)"
            )
    first = cases[0]
    scenarios = [case.scenario for case in cases]
    result = simulate_with_column_generation_batch(
        ActivePathSet.from_network(first.network),
        [case.policy for case in cases],
        update_period=first.update_period,
        horizon=first.horizon,
        scenarios=scenarios if any(s is not None for s in scenarios) else None,
        batch=len(cases),
        stale=first.stale,
        steps_per_phase=first.steps_per_phase,
        method=first.method,
    )
    return [result.trajectory(row) for row in range(len(cases))]


def _run_batch_group(cases: Sequence[SweepCase]) -> List[Trajectory]:
    """Run one compatible group as a single batched integration.

    Cases sharing one network object run on it directly; same-topology
    cases with different networks are stacked into a
    :class:`NetworkFamily` so heterogeneous latency coefficients integrate
    in the same pass.  Groups with ``method="agents"`` run on the batched
    finite-population engine instead of the fluid integrator.
    """
    first = cases[0]
    if first.column_generation:
        return _run_batch_cg_group(cases)
    target, policies = _group_target_and_policies(cases)
    # Passed as FlowVectors (not a raw array) so the engine validates each
    # row's flow against its own network or family member.
    initial_flows = [
        case.initial_flow if case.initial_flow is not None else FlowVector.uniform(case.network)
        for case in cases
    ]
    if first.method == "agents":
        agent_config = BatchAgentConfig(
            num_agents=np.array(
                [_case_num_agents(case) for case in cases], dtype=np.int64
            ),
            update_periods=np.array([case.update_period for case in cases], dtype=float),
            horizons=np.array([case.horizon for case in cases], dtype=float),
            seeds=np.array([case.seed for case in cases], dtype=np.int64),
            stale=first.stale,
        )
        agent_result = BatchAgentSimulator(target, policies, agent_config).run(
            initial_flows, stop_when=_group_stop_when(cases)
        )
        return [agent_result.trajectory(row) for row in range(len(cases))]
    config = BatchConfig(
        update_periods=np.array([case.update_period for case in cases], dtype=float),
        horizons=np.array([case.horizon for case in cases], dtype=float),
        steps_per_phase=np.array([case.steps_per_phase for case in cases], dtype=int),
        method=first.method,
        stale=first.stale,
    )
    scenarios = [case.scenario for case in cases]
    result = BatchSimulator(
        target,
        policies,
        config,
        scenarios=scenarios if any(s is not None for s in scenarios) else None,
    ).run(initial_flows, stop_when=_group_stop_when(cases))
    return [result.trajectory(row) for row in range(len(cases))]


# Workers build result rows in-process so only plain dicts cross the pipe;
# the row builder (often a closure, hence unpicklable) reaches them through
# the fork-inherited pool initializer.
_POOL_ROW_BUILDER: Optional[RowBuilder] = None


def _pool_initializer(row_builder: RowBuilder) -> None:
    global _POOL_ROW_BUILDER
    _POOL_ROW_BUILDER = row_builder


def _pool_worker(case: SweepCase) -> Rows:
    """Simulate one case and return its finished rows (never the trajectory)."""
    return _case_rows(case, _simulate_case(case), _POOL_ROW_BUILDER)


def _run_pool_rows(
    cases: Sequence[SweepCase], processes: int, row_builder: RowBuilder
) -> List[Rows]:
    """Build each case's rows on a worker pool, preserving order.

    Cases carrying a ``stop_when`` condition are simulated serially: stop
    conditions are closures and do not survive the pool's pickling of the
    case arguments (the batched backend is the fast path for them anyway).
    """
    stoppy = [i for i, case in enumerate(cases) if case.stop_when is not None]
    if stoppy:
        results: List[Optional[Rows]] = [None] * len(cases)
        for i in stoppy:
            results[i] = _case_rows(cases[i], _simulate_case(cases[i]), row_builder)
        plain = [i for i in range(len(cases)) if cases[i].stop_when is None]
        for i, rows in zip(
            plain, _run_pool_rows([cases[i] for i in plain], processes, row_builder)
        ):
            results[i] = rows
        return results  # type: ignore[return-value]
    if processes <= 1 or len(cases) <= 1:
        return [_case_rows(case, _simulate_case(case), row_builder) for case in cases]
    try:
        # Prefer fork (cheap, shares the loaded modules, and lets workers
        # inherit the row builder so they return plain rows).
        context = multiprocessing.get_context("fork")
    except ValueError:
        # Without fork the workers cannot inherit an arbitrary (possibly
        # closure) row builder; ship trajectories and build rows here.
        context = multiprocessing.get_context()
        with context.Pool(min(processes, len(cases))) as pool:
            trajectories = pool.map(_simulate_case, cases)
        return [
            _case_rows(case, trajectory, row_builder)
            for case, trajectory in zip(cases, trajectories)
        ]
    with context.Pool(
        min(processes, len(cases)),
        initializer=_pool_initializer,
        initargs=(row_builder,),
    ) as pool:
        return pool.map(_pool_worker, cases)


def _dispatch_rows(
    cases: List[SweepCase],
    row_builder: RowBuilder,
    engine: str,
    processes: Optional[int],
) -> List[Rows]:
    """Return one list of result rows per case, in case order."""
    tele = get_telemetry()
    if engine == "serial":
        return [_serial_case_rows(case, row_builder) for case in cases]
    if engine == "processes":
        pool_size = processes or os.cpu_count() or 1
        if pool_size > 1 and len(cases) > 1:
            # Fork-based workers keep their telemetry in the child process;
            # the parent reports only the dispatch itself.
            tele.event("pool_dispatched", cases=len(cases), processes=pool_size)
        results = _run_pool_rows(cases, pool_size, row_builder)
        tele.counter("runner.cases_completed").add(len(results))
        return results
    if engine not in ("auto", "batch"):
        raise ValueError(
            f"unknown engine {engine!r}; use 'auto', 'batch', 'processes' or 'serial'"
        )

    groups: Dict[GroupKey, List[int]] = {}
    for index, case in enumerate(cases):
        groups.setdefault(group_key(case), []).append(index)

    rows_per_case: List[Optional[Rows]] = [None] * len(cases)
    leftovers: List[int] = []
    for key, indices in groups.items():
        if key[3]:
            # Scenario-carrying agent cases need the scalar agent engine.
            leftovers.extend(indices)
        elif engine == "batch" or len(indices) > 1:
            tele.event(
                "batch_fused",
                cases=len(indices),
                method=key[2],
                stale=key[1],
            )
            tele.counter("runner.batch_groups").add()
            tele.histogram("runner.batch_group_size").observe(len(indices))
            for index, trajectory in zip(
                indices, _run_batch_group([cases[i] for i in indices])
            ):
                rows_per_case[index] = _case_rows(cases[index], trajectory, row_builder)
                tele.event("case_finished", **_case_event_attrs(cases[index]))
                tele.counter("runner.cases_completed").add()
        else:
            leftovers.extend(indices)
    if leftovers:
        leftovers.sort()
        if processes and processes > 1:
            # Fork-based workers keep their telemetry in the child process;
            # the parent reports only the dispatch itself.
            tele.event("pool_dispatched", cases=len(leftovers), processes=processes)
            results = _run_pool_rows([cases[i] for i in leftovers], processes, row_builder)
            for index, rows in zip(leftovers, results):
                rows_per_case[index] = rows
                tele.counter("runner.cases_completed").add()
        else:
            for index in leftovers:
                rows_per_case[index] = _serial_case_rows(cases[index], row_builder)
    return rows_per_case  # type: ignore[return-value]


def run_cases(
    cases: List[SweepCase],
    row_builder: RowBuilder,
    engine: str = "auto",
    processes: Optional[int] = None,
) -> SweepResult:
    """Execute cases on the selected backend and collect the result rows.

    ``row_builder(trajectory)`` may return a single mapping or a list of
    mappings (e.g. one row per evaluation target); every returned row is
    merged over the case's echoed ``parameters``.
    """
    cases = list(cases)
    tele = get_telemetry()
    with tele.span("sweep", cases=len(cases), engine=engine) as sweep_span:
        if tele.enabled and cases:
            # The sweep's ledger fingerprint keys on which instances it ran.
            names = sorted(
                {
                    str(case.network.graph.graph.get("name") or "-")
                    for case in cases
                }
            )
            sweep_span.annotate(instance=",".join(names))
        result = SweepResult()
        for rows in _dispatch_rows(cases, row_builder, engine, processes):
            for row in rows:
                result.append(row)
    return result


def run_plan(
    plan: ExperimentPlan,
    row_builder: RowBuilder,
    engine: str = "auto",
    processes: Optional[int] = None,
    csv_path=None,
    jsonl_path=None,
    include_seed: bool = False,
) -> SweepResult:
    """Run a whole experiment plan and optionally persist the result rows.

    ``include_seed`` adds each case's deterministic seed as a ``seed`` column
    (rows produced by a multi-row builder share their case's seed).
    """
    if include_seed:
        cases = [
            dataclasses.replace(case, parameters={**case.parameters, "seed": seed})
            for case, seed in zip(plan.cases, plan.seeds)
        ]
    else:
        cases = plan.cases
    result = run_cases(cases, row_builder, engine=engine, processes=processes)
    if csv_path is not None:
        result.to_csv(csv_path)
    if jsonl_path is not None:
        result.to_jsonl(jsonl_path)
    return result
