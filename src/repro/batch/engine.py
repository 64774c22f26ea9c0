"""The batched fluid-limit simulation engine.

:class:`BatchSimulator` evolves ``B`` independent replicas of the rerouting
dynamics as one stacked ``(B, P)`` array: one vectorised right-hand side per
integration step instead of one Python-level simulation per replica.  Rows
may differ in initial flow, bulletin-board update period, horizon,
steps-per-phase resolution and (via a list of policies) policy parameters,
so a whole parameter sweep becomes a single integration.  The replicas route
either on one shared :class:`~repro.wardrop.network.WardropNetwork` or on
the members of a :class:`~repro.wardrop.family.NetworkFamily` -- networks
with identical topology but per-row latency coefficients -- which turns the
paper's coefficient sweeps (Pigou constants, Braess shortcut latencies,
two-link slopes) into one batched run as well.

Correctness contract
--------------------
This is the only fluid engine: :func:`~repro.core.simulator.simulate` and
:class:`~repro.core.simulator.ReroutingSimulator` run it as a batch of one.
Row ``r`` of a ``B``-row run equals the one-row run of its own
configuration (and, for families, its member network) bit for bit in
practice and within 1e-10 always: rows are independent, every kernel
performs the same floating-point operations row by row, and the engine
applies the same clip-and-rescale projection at every phase boundary
(``tests/batch`` checks this).  The reference for the dynamics themselves
is ``tests/data/simulate_goldens.json``, frozen from the former scalar
phase loop before it was deleted; ``tests/core/test_simulate_goldens.py``
holds ``simulate`` to it at 1e-12 relative.

Because rows are independent, the engine advances all rows through *their
own* phase ``k`` simultaneously even when their update periods differ — the
rows' absolute clocks simply diverge, which is harmless.  Rows whose horizon
is exhausted — or whose ``stop_when`` condition has fired — are *frozen*:
each phase integrates only the still-active sub-batch, so converged rows
skip all sampling, migration and latency work for the rest of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ..core.dynamics import batch_stepper_for
from ..core.policy import ReroutingPolicy
from ..core.trajectory import PhaseRecord, Trajectory
from ..telemetry.runtime import get_telemetry
from ..wardrop.family import NetworkFamily
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from .board import BatchBulletinBoard

Policies = Union[ReroutingPolicy, Sequence[ReroutingPolicy]]
Networks = Union[WardropNetwork, NetworkFamily]

# A vectorised stopping condition: ``stop_when(times, flows, rows)`` receives
# the phase-end times ``(R,)``, the projected phase-end flows ``(R, P)`` and
# the batch row indices ``(R,)`` of the currently active rows, and returns a
# boolean mask of shape ``(R,)`` — True freezes the row after this phase.
BatchStoppingCondition = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class BatchConfig:
    """Configuration of a batched run; per-row fields broadcast from scalars.

    Attributes
    ----------
    update_periods:
        Shape ``(B,)`` — each row's bulletin-board period ``T_r``.  This
        array fixes the batch size ``B``.
    horizons:
        Scalar or shape ``(B,)`` — total simulated time per row.
    steps_per_phase:
        Scalar or shape ``(B,)`` — integrator sub-steps per phase.
    method:
        Integration scheme shared by the batch, ``"rk4"`` or ``"euler"``.
    stale:
        If ``True`` (default) boards refresh only at phase boundaries
        (Eq. 3); if ``False`` the live state is used at every stage (Eq. 1).
    record_every:
        Optional stride (in integrator sub-steps) for dense trajectory
        recording: every ``record_every``-th sub-step records an additional
        (projected) sample between the phase boundaries; ``simulate``'s
        ``record_every_step`` is stride 1.  ``None`` (default) records phase
        boundaries only.
    """

    update_periods: np.ndarray = field(default_factory=lambda: np.array([0.1]))
    horizons: Union[float, np.ndarray] = 50.0
    steps_per_phase: Union[int, np.ndarray] = 50
    method: str = "rk4"
    stale: bool = True
    record_every: Optional[int] = None

    def __post_init__(self) -> None:
        self.update_periods = np.atleast_1d(np.asarray(self.update_periods, dtype=float))
        batch = len(self.update_periods)
        self.horizons = np.broadcast_to(
            np.asarray(self.horizons, dtype=float), (batch,)
        ).copy()
        self.steps_per_phase = np.broadcast_to(
            np.asarray(self.steps_per_phase, dtype=int), (batch,)
        ).copy()
        if np.any(self.update_periods <= 0):
            raise ValueError("all update periods must be positive")
        if np.any(self.horizons <= 0):
            raise ValueError("all horizons must be positive")
        if np.any(self.steps_per_phase <= 0):
            raise ValueError("steps_per_phase must be positive")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError("record_every must be a positive sub-step stride")

    @property
    def batch_size(self) -> int:
        return len(self.update_periods)


@dataclass
class BatchResult:
    """The recorded phase-boundary states of a batched run.

    ``times[r, k]`` and ``flows[r, k]`` hold row ``r``'s ``k``-th recorded
    sample (``k = 0`` is the initial state, then one sample per completed
    phase); only the first ``num_points[r]`` slots of row ``r`` are valid.
    ``stop_phases[r]`` is the index of the phase whose end triggered row
    ``r``'s ``stop_when`` condition (−1 if it never fired).

    Dense (strided) runs additionally fill ``sample_phases[r, k]`` with the
    phase index each sample belongs to, ``boundary_mask[r, k]`` with whether
    it is a phase boundary, and ``phase_counts[r]`` with the number of
    completed phases (which no longer equals ``num_points - 1``).
    """

    network: WardropNetwork
    policy_names: List[str]
    update_periods: np.ndarray
    horizons: np.ndarray
    stale: bool
    times: np.ndarray
    flows: np.ndarray
    num_points: np.ndarray
    stop_phases: Optional[np.ndarray] = None
    family: Optional[NetworkFamily] = None
    sample_phases: Optional[np.ndarray] = None
    boundary_mask: Optional[np.ndarray] = None
    phase_counts: Optional[np.ndarray] = None

    @property
    def batch_size(self) -> int:
        return len(self.update_periods)

    def __len__(self) -> int:
        return self.batch_size

    def row_network(self, row: int) -> WardropNetwork:
        """Return the network row ``row`` routed on (its family member)."""
        if self.family is not None:
            return self.family.member(row)
        return self.network

    def num_phases(self, row: int) -> int:
        """Return the number of completed bulletin-board phases of one row."""
        if self.phase_counts is not None:
            return int(self.phase_counts[row])
        return int(self.num_points[row]) - 1

    def stopped_rows(self) -> np.ndarray:
        """Return the boolean mask of rows frozen by ``stop_when``."""
        if self.stop_phases is None:
            return np.zeros(self.batch_size, dtype=bool)
        return self.stop_phases >= 0

    def final_flows(self) -> np.ndarray:
        """Return the ``(B, P)`` array of final flows, one row per replica."""
        rows = np.arange(self.batch_size)
        return self.flows[rows, self.num_points - 1].copy()

    def final_flow(self, row: int) -> FlowVector:
        """Return one row's final flow as a :class:`FlowVector`."""
        return FlowVector(
            self.row_network(row),
            self.flows[row, self.num_points[row] - 1],
            validate=False,
        )

    def flow_matrix(self, row: int) -> np.ndarray:
        """Return one row's ``(samples, P)`` matrix of recorded flows."""
        return self.flows[row, : self.num_points[row]].copy()

    def trajectory(self, row: int) -> Trajectory:
        """Materialise one row as a :class:`Trajectory`.

        The result has the same points, phase records and metadata as the
        ``simulate`` run of that configuration (on the row's own family
        member for heterogeneous batches), so the whole analysis toolkit
        (convergence counting, oscillation detection, sweep row builders)
        applies unchanged.
        """
        network = self.row_network(row)
        count = int(self.num_points[row])
        trajectory = Trajectory(
            network=network,
            policy_name=self.policy_names[row],
            update_period=float(self.update_periods[row]) if self.stale else 0.0,
        )
        vectors = [
            FlowVector(network, self.flows[row, k], validate=False)
            for k in range(count)
        ]
        if self.sample_phases is None:
            # Boundary-only recording: sample k closes phase k-1.
            for k in range(count):
                trajectory.record(float(self.times[row, k]), vectors[k], max(k - 1, 0))
            boundary_indices = list(range(count))
        else:
            for k in range(count):
                trajectory.record(
                    float(self.times[row, k]), vectors[k], int(self.sample_phases[row, k])
                )
            boundary_indices = [
                k for k in range(count) if bool(self.boundary_mask[row, k])
            ]
        for p in range(len(boundary_indices) - 1):
            start, end = boundary_indices[p], boundary_indices[p + 1]
            trajectory.record_phase(
                PhaseRecord(
                    index=p,
                    start_time=float(self.times[row, start]),
                    end_time=float(self.times[row, end]),
                    start_flow=vectors[start],
                    end_flow=vectors[end],
                )
            )
        return trajectory

    def trajectories(self) -> List[Trajectory]:
        """Materialise every row (convenience for small batches)."""
        return [self.trajectory(row) for row in range(self.batch_size)]


def initial_flow_rows(
    network: WardropNetwork,
    batch: int,
    initial_flows,
    family: Optional[NetworkFamily] = None,
) -> np.ndarray:
    """Return the validated ``(B, P)`` start states of a batched run.

    ``initial_flows`` may be ``None`` (uniform split for every row), a
    single :class:`FlowVector` (shared start), a sequence of ``B`` flow
    vectors or a raw ``(B, P)`` array.  A flow vector must belong to
    ``network`` or, for family batches, to its row's member.
    """

    def is_row_network(candidate: WardropNetwork, row: int) -> bool:
        if candidate is network:
            return True
        return family is not None and candidate is family.networks[row]

    if initial_flows is None:
        return np.tile(FlowVector.uniform(network).values(), (batch, 1))
    if isinstance(initial_flows, FlowVector):
        if not is_row_network(initial_flows.network, 0):
            raise ValueError("initial flow belongs to a different network")
        return np.tile(initial_flows.values(), (batch, 1))
    if isinstance(initial_flows, np.ndarray):
        flows = np.asarray(initial_flows, dtype=float)
        if flows.shape != (batch, network.num_paths):
            raise ValueError(
                f"initial flows have shape {flows.shape}, expected "
                f"({batch}, {network.num_paths})"
            )
        return flows.copy()
    vectors = list(initial_flows)
    if len(vectors) != batch:
        raise ValueError(f"got {len(vectors)} initial flows for a batch of {batch}")
    for row, vector in enumerate(vectors):
        if not is_row_network(vector.network, row):
            raise ValueError("initial flow belongs to a different network")
    return FlowVector.stack(vectors)


# Field kernels ---------------------------------------------------------------
#
# Every batched engine -- the fluid BatchSimulator, the finite-population
# BatchAgentSimulator and batched column generation -- assembles its
# sampling/migration tables and rate fields here.  ``policies`` is either one
# ReroutingPolicy shared by every row (the fully vectorised kernels) or the
# per-row list (tables assembled row by row, so custom sampling/migration
# rules keep working); ``rows`` are the batch indices of the rows passed in.


def policy_tables(
    network: WardropNetwork,
    policies: Policies,
    posted_flows: np.ndarray,
    posted_latencies: np.ndarray,
    rows: np.ndarray,
):
    """Return the stacked ``(sigma, mu)`` matrices of the given rows."""
    if isinstance(policies, ReroutingPolicy):
        sigma = policies.sampling.probabilities_batch(network, posted_flows, posted_latencies)
        mu = policies.migration.matrix_batch(posted_latencies)
        return sigma, mu
    sigma = np.stack(
        [
            policies[row].sampling.probabilities(network, posted_flows[i], posted_latencies[i])
            for i, row in enumerate(rows)
        ]
    )
    mu = np.stack(
        [policies[row].migration.matrix(posted_latencies[i]) for i, row in enumerate(rows)]
    )
    return sigma, mu


def stale_rates(
    network: WardropNetwork,
    policies: Policies,
    posted_flows: np.ndarray,
    posted_latencies: np.ndarray,
    rows: np.ndarray,
):
    """Return the field closure of one stale phase of the given rows.

    Within a phase the sampling and migration matrices depend only on the
    posted snapshot, so they are assembled once per phase instead of once
    per integrator stage, with the same values.
    """
    sigma, mu = policy_tables(network, policies, posted_flows, posted_latencies, rows)
    # Same folded form as ReroutingPolicy.growth_rates (one product + one
    # reduction per stage).
    rates = sigma * mu
    outflow_rates = rates.sum(axis=2)
    if len(rows) == 1:
        # One row: the same dot products as a plain (1, P) @ (P, P)
        # product, without the stacked-matmul broadcasting per stage.
        single = rates[0]

        def field(_t, state: np.ndarray) -> np.ndarray:
            return np.matmul(state, single) - state * outflow_rates

    else:

        def field(_t, state: np.ndarray) -> np.ndarray:
            inflow = np.matmul(state[:, None, :], rates)[:, 0, :]
            return inflow - state * outflow_rates

    return field


def fresh_rates(
    network: WardropNetwork,
    policies: Policies,
    live_latencies: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rows: np.ndarray,
):
    """Return the up-to-date-information field of the given rows.

    ``live_latencies(state, rows)`` prices the rows' current flows in their
    current environment.
    """
    if isinstance(policies, ReroutingPolicy):

        def field(_t, state: np.ndarray) -> np.ndarray:
            latencies = live_latencies(state, rows)
            return policies.growth_rates_batch(network, state, state, latencies)

    else:

        def field(_t, state: np.ndarray) -> np.ndarray:
            latencies = live_latencies(state, rows)
            return np.stack(
                [
                    policies[row].growth_rates(network, state[i], state[i], latencies[i])
                    for i, row in enumerate(rows)
                ]
            )

    return field


class BatchEnsembleBase:
    """Shared network/policy plumbing of the batched engines.

    Normalises the ``network`` argument (shared network vs
    :class:`~repro.wardrop.family.NetworkFamily` of the batch size) and the
    ``policies`` argument (one shared policy for the fully vectorised kernels
    vs a per-row list using the row-loop fallback) and provides family-aware
    live latency evaluation.  Both the fluid :class:`BatchSimulator` and the
    finite-population :class:`~repro.batch.agents.BatchAgentSimulator` build
    on it, so validation fixes apply to both engines at once.
    """

    def __init__(self, network: Networks, policies: Policies, batch_size: int):
        if isinstance(network, NetworkFamily):
            if network.size != batch_size:
                raise ValueError(
                    f"family of {network.size} networks for a batch of {batch_size}"
                )
            self.family: Optional[NetworkFamily] = network
            self.network = network.base
        else:
            self.family = None
            self.network = network
        # Scenario runs point this at the current phase's effective family;
        # live (fresh-information) latency evaluation then prices flows in
        # each row's current environment.
        self._phase_family: Optional[NetworkFamily] = None
        if isinstance(policies, ReroutingPolicy):
            self._policies: List[ReroutingPolicy] = [policies] * batch_size
        else:
            policies = list(policies)
            if len(policies) != batch_size:
                raise ValueError(
                    f"got {len(policies)} policies for a batch of {batch_size}"
                )
            self._policies = policies
        # What the field kernels take: the shared policy, or the per-row list.
        shared = len(set(map(id, self._policies))) == 1
        self._field_policies: Policies = self._policies[0] if shared else self._policies

    def _path_latencies_rows(self, state: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Live path latencies of the active sub-batch (family/scenario-aware)."""
        if self._phase_family is not None:
            return self._phase_family.path_latencies_batch(state, rows)
        if self.family is None:
            return self.network.path_latencies_batch(state)
        return self.family.path_latencies_batch(state, rows)


class BatchSimulator(BatchEnsembleBase):
    """Simulates ``B`` independent replicas of the rerouting dynamics at once.

    Parameters
    ----------
    network:
        Either the shared :class:`WardropNetwork` (all rows route on it) or a
        :class:`~repro.wardrop.family.NetworkFamily` whose size equals the
        batch size (row ``r`` routes on member ``r``, enabling heterogeneous
        latency coefficients within one integration).
    policies:
        Either one :class:`ReroutingPolicy` applied to every row (the fast,
        fully vectorised path) or a sequence of ``B`` policies, one per row
        (sampling/migration matrices are then assembled row by row, which
        still amortises the integration loop across the batch).
    config:
        The :class:`BatchConfig` with per-row periods/horizons/resolutions.
    scenarios:
        Optional nonstationary environments: one
        :class:`~repro.scenarios.scenario.Scenario` shared by every row, or a
        sequence of ``B`` scenarios (``None`` entries keep a row stationary).
        Rows may carry *different* scenarios -- e.g. a sweep over incident
        timings -- and still integrate as one ensemble: at every phase
        boundary the per-row effective networks are stacked through
        :class:`~repro.scenarios.scenario.ScenarioEnsemble` into a cached
        :class:`NetworkFamily` whose latency evaluation stays vectorised.
        Row ``r`` remains bit-identical to the one-row
        :class:`~repro.core.simulator.ReroutingSimulator` run with
        ``scenario=scenarios[r]``.
    """

    def __init__(
        self,
        network: Networks,
        policies: Policies,
        config: BatchConfig,
        scenarios=None,
    ):
        super().__init__(network, policies, config.batch_size)
        self.config = config
        self._scenarios = self._normalise_scenarios(scenarios, config.batch_size)

    @staticmethod
    def _normalise_scenarios(scenarios, batch: int):
        if scenarios is None:
            return None
        from ..scenarios.scenario import Scenario

        if isinstance(scenarios, Scenario):
            scenarios = [scenarios] * batch
        scenarios = list(scenarios)
        if len(scenarios) != batch:
            raise ValueError(
                f"got {len(scenarios)} scenarios for a batch of {batch}"
            )
        if any(s is not None and not isinstance(s, Scenario) for s in scenarios):
            raise ValueError("scenarios must be Scenario instances or None")
        if all(s is None for s in scenarios):
            return None
        return scenarios

    # Main loop --------------------------------------------------------------

    def run(
        self,
        initial_flows=None,
        stop_when: Optional[BatchStoppingCondition] = None,
    ) -> BatchResult:
        """Integrate every replica to its horizon and return the batch result.

        ``initial_flows`` may be ``None`` (uniform split for every row), a
        single :class:`FlowVector` (shared start), a sequence of ``B`` flow
        vectors or a raw ``(B, P)`` array.

        ``stop_when(times, flows, rows)`` is the vectorised per-row stopping
        condition (see :data:`BatchStoppingCondition`), evaluated at every
        phase boundary on the projected flows.  Rows whose condition fires
        are frozen: the stopping phase is still recorded and the row then
        drops out of the active sub-batch, skipping all further sampling,
        migration and latency work; its stop phase is recorded in
        ``stop_phases``.
        """
        config = self.config
        network = self.network
        batch = config.batch_size
        periods = config.update_periods
        horizons = config.horizons
        flows = initial_flow_rows(network, batch, initial_flows, self.family)
        stepper = batch_stepper_for(config.method)
        record_every = config.record_every
        dense = record_every is not None
        tele = get_telemetry()
        run_span = tele.span(
            "engine_run",
            engine="fluid-batch",
            instance=network.graph.graph.get("name") or "-",
            method=config.method,
            stale=config.stale,
            rows=batch,
            paths=network.num_paths,
            state_bytes=flows.nbytes,
        )
        phases_counter = tele.counter("batch.phases_integrated")
        frozen_counter = tele.counter("batch.rows_frozen_by_stop_when")
        refresh_counter = tele.counter("batch.bulletin_refreshes")

        # Per-row phase counts: ceil(horizon / T).
        planned_phases = np.ceil(horizons / periods).astype(int)
        max_phases = int(planned_phases.max())

        if not dense:
            capacity = max_phases + 1
        else:
            # ceil(duration / max_step) can land on steps_per_phase + 1 when
            # the phase-boundary subtraction rounds up by an ulp, so size for
            # s + 1 sub-steps: floor(s / stride) intermediates + 1 boundary.
            per_phase = int(np.max(config.steps_per_phase)) // record_every + 1
            capacity = max_phases * per_phase + 1
        times = np.zeros((batch, capacity))
        recorded = np.zeros((batch, capacity, network.num_paths))
        recorded[:, 0] = flows
        num_points = np.ones(batch, dtype=int)
        sample_phases = np.zeros((batch, capacity), dtype=int)
        boundary_mask = np.zeros((batch, capacity), dtype=bool)
        boundary_mask[:, 0] = True
        phase_counts = np.zeros(batch, dtype=int)
        stop_phases = np.full(batch, -1, dtype=int)

        ensemble = None
        if self._scenarios is not None:
            from ..scenarios.scenario import ScenarioEnsemble

            ensemble = ScenarioEnsemble(self.family or network, self._scenarios)

        board: Optional[BatchBulletinBoard] = None
        if config.stale:
            board = BatchBulletinBoard(self.family or network, periods)
            if ensemble is not None:
                board.set_networks(ensemble.family_at(np.zeros(batch)))
            board.post_rows(0.0, flows)

        max_steps = periods / config.steps_per_phase
        for phase in range(max_phases):
            starts = phase * periods
            # A row stops as soon as a phase end reaches its horizon (which
            # rounding can make happen one phase before ceil(horizon / T)) or
            # its stop_when fires.
            active = (phase < planned_phases) & (starts < horizons) & (stop_phases < 0)
            if not active.any():
                break
            rows = np.flatnonzero(active)
            row_starts = starts[rows]
            row_ends = np.minimum((phase + 1) * periods[rows], horizons[rows])
            durations = row_ends - row_starts

            if ensemble is not None:
                # Freeze every row's environment at its own phase start; the
                # stacked family feeds both board posts and live evaluation.
                self._phase_family = ensemble.family_at(starts)
                if board is not None:
                    board.set_networks(self._phase_family)

            phase_span = tele.span("phase", index=phase, active_rows=len(rows))
            # Drop the previous phase's field first, so its (B, P, P) rate
            # table is freed before the next one is assembled.
            field = None
            if config.stale:
                if phase > 0:
                    # Refresh by the board's floor(t / T) rule: rounding
                    # occasionally leaves a snapshot in place for one more
                    # phase, exactly as the goldens record.
                    due = board.needs_update(starts) & active
                    if due.any():
                        board.post_rows(starts, flows, mask=due)
                        tele.event("bulletin_refresh", rows=int(due.sum()))
                        refresh_counter.add(int(due.sum()))
                with tele.span("field_eval", active_rows=len(rows)):
                    field = stale_rates(
                        network,
                        self._field_policies,
                        board.posted_flows[rows],
                        board.posted_path_latencies[rows],
                        rows,
                    )
            else:
                field = fresh_rates(
                    network, self._field_policies, self._path_latencies_rows, rows
                )

            # Same sub-step count as integrate(): ceil(duration / max_step).
            num_steps = np.maximum(1, np.ceil(durations / max_steps[rows])).astype(int)
            step_sizes = durations / num_steps
            state = flows[rows]
            steps = int(num_steps.max())
            # When every active row takes the same sub-steps from the same
            # start (always, for a batch of one) the stepper gets plain
            # floats: the same arithmetic without per-step broadcasting.
            shared = len(rows) == 1 or bool(
                np.all(num_steps == steps)
                and np.all(step_sizes == step_sizes[0])
                and np.all(row_starts == row_starts[0])
            )
            integrate_span = tele.span("integrate", steps=steps, state_bytes=state.nbytes)
            if shared:
                step, first = float(step_sizes[0]), float(row_starts[0])
            for k in range(steps):
                if shared:
                    tick = first + k * step
                else:
                    step = np.where(k < num_steps, step_sizes, 0.0)[:, None]
                    tick = (row_starts + k * step_sizes)[:, None]
                state = stepper(field, tick, state, step)
                if dense and (k + 1) % record_every == 0:
                    # Strided intermediate samples: the *projected* state is
                    # recorded while integration continues from the raw one.
                    selected = np.flatnonzero(k + 1 < num_steps)
                    if len(selected):
                        mid_rows = rows[selected]
                        cursors = num_points[mid_rows]
                        times[mid_rows, cursors] = (
                            row_starts[selected] + (k + 1) * step_sizes[selected]
                        )
                        recorded[mid_rows, cursors] = FlowVector.project_batch(
                            network, state[selected]
                        )
                        sample_phases[mid_rows, cursors] = phase
                        num_points[mid_rows] += 1

            integrate_span.close()

            projected = FlowVector.project_batch(network, state)
            flows[rows] = projected
            cursors = num_points[rows]
            times[rows, cursors] = row_ends
            recorded[rows, cursors] = projected
            if dense:
                sample_phases[rows, cursors] = phase
                boundary_mask[rows, cursors] = True
            num_points[rows] += 1
            phase_counts[rows] += 1
            phases_counter.add(len(rows))

            if stop_when is not None:
                hit = np.asarray(stop_when(row_ends, projected, rows), dtype=bool)
                if hit.shape != rows.shape:
                    raise ValueError(
                        f"stop_when returned shape {hit.shape}, expected {rows.shape}"
                    )
                stop_phases[rows[hit]] = phase
                if hit.any():
                    tele.event("stop_when_fired", phase=phase, rows=int(hit.sum()))
                    frozen_counter.add(int(hit.sum()))
            phase_span.close()

        self._phase_family = None
        run_span.annotate(phases_integrated=int(phase_counts.sum()))
        run_span.close()
        tele.counter("batch.runs").add()
        labels = [policy.label() for policy in self._policies]
        return BatchResult(
            network=network,
            policy_names=labels,
            update_periods=periods.copy(),
            horizons=horizons.copy(),
            stale=config.stale,
            times=times,
            flows=recorded,
            num_points=num_points,
            stop_phases=stop_phases,
            family=self.family,
            sample_phases=sample_phases if dense else None,
            boundary_mask=boundary_mask if dense else None,
            phase_counts=phase_counts if dense else None,
        )


def simulate_batch(
    network: Networks,
    policies: Policies,
    update_periods,
    horizons,
    initial_flows=None,
    stale: bool = True,
    steps_per_phase=50,
    method: str = "rk4",
    stop_when: Optional[BatchStoppingCondition] = None,
    record_every: Optional[int] = None,
    scenarios=None,
) -> BatchResult:
    """Convenience wrapper mirroring :func:`repro.core.simulator.simulate`."""
    config = BatchConfig(
        update_periods=np.asarray(update_periods, dtype=float),
        horizons=horizons,
        steps_per_phase=steps_per_phase,
        method=method,
        stale=stale,
        record_every=record_every,
    )
    return BatchSimulator(network, policies, config, scenarios=scenarios).run(
        initial_flows, stop_when=stop_when
    )
