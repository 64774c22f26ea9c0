"""The batched finite-population agent engine.

:class:`BatchAgentSimulator` runs ``B`` independent finite-``n`` replicas of
the discrete-event agent simulation (:mod:`repro.core.agents`) as one
vectorised ensemble.  Replicas may differ in population size, update period,
horizon and seed, and may route on one shared network or on the members of a
:class:`~repro.wardrop.family.NetworkFamily`; the agent populations of all
rows live in one flat array (row ``r`` owns the slice
``offsets[r]:offsets[r+1]``), so a whole ``n``-sweep -- the paper's
finite-``n`` versus fluid-limit comparison, benchmark E9 -- becomes a single
batched call.

Correctness contract
--------------------
Row ``r`` is **bit-identical** to a standalone
:class:`~repro.core.agents.AgentBasedSimulator` run with the same network
(family member), policy, population size, update period, horizon and seed:
every row owns its own ``numpy`` generator seeded with its own seed and the
engine issues exactly the scalar simulator's per-phase block draws (Poisson
activation count, activated agents, sampling uniforms, migration coins) in
the same order, then applies the shared kernels of
:mod:`repro.core.agents` as stacked array operations.  Under stale
information, activations inside a phase are replayed grouped by their
*occurrence rank* per agent: an agent's own activations stay in clock order
while different agents -- which cannot interact within a frozen phase -- are
processed together.  Under up-to-date information rows advance event by
event in lockstep (row ``r``'s ``j``-th activation sees exactly the live
state its scalar run would see).  The equivalence is enforced by
``tests/batch/test_agent_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..core.agents import (
    DEFAULT_NUM_AGENTS,
    build_population,
    planned_phase_counts,
    sampling_layout,
    sampling_tables,
)
from ..core.trajectory import PhaseRecord, Trajectory
from ..telemetry.runtime import get_telemetry
from ..wardrop.family import NetworkFamily
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from .board import BatchBulletinBoard
from .engine import (
    BatchEnsembleBase,
    BatchStoppingCondition,
    Networks,
    Policies,
    initial_flow_rows,
    policy_tables,
)


@dataclass
class BatchAgentConfig:
    """Configuration of a batched agent run; per-row fields broadcast from scalars.

    Attributes
    ----------
    num_agents:
        Scalar or shape ``(B,)`` -- each row's population size ``n_r``.
    update_periods:
        Scalar or shape ``(B,)`` -- bulletin-board period ``T_r`` per row.
    horizons:
        Scalar or shape ``(B,)`` -- total simulated time per row.
    seeds:
        Scalar or shape ``(B,)`` -- the per-row generator seeds (row ``r``
        reproduces a standalone scalar run with seed ``seeds[r]``).
    stale:
        Shared information model: ``True`` for bulletin-board snapshots,
        ``False`` for live information at every activation.

    The batch size ``B`` is the broadcast length of the four per-row fields,
    so e.g. ``num_agents=10_000, seeds=range(32)`` runs 32 equally sized
    replicas with distinct seeds.
    """

    num_agents: Union[int, np.ndarray] = DEFAULT_NUM_AGENTS
    update_periods: Union[float, np.ndarray] = 0.1
    horizons: Union[float, np.ndarray] = 50.0
    seeds: Union[int, np.ndarray] = 0
    stale: bool = True

    def __post_init__(self) -> None:
        num_agents = np.atleast_1d(np.asarray(self.num_agents, dtype=np.int64))
        seeds = np.asarray(self.seeds)
        shape = np.broadcast_shapes(
            num_agents.shape,
            np.shape(self.update_periods),
            np.shape(self.horizons),
            seeds.shape,
        )
        self.num_agents = np.broadcast_to(num_agents, shape).copy()
        self.update_periods = np.broadcast_to(
            np.asarray(self.update_periods, dtype=float), shape
        ).copy()
        self.horizons = np.broadcast_to(np.asarray(self.horizons, dtype=float), shape).copy()
        self.seeds = np.broadcast_to(seeds.astype(np.int64), shape).copy()
        if np.any(self.num_agents < 1):
            raise ValueError("every row needs at least one agent")
        if np.any(self.update_periods <= 0) or np.any(self.horizons <= 0):
            raise ValueError("update periods and horizons must be positive")

    @property
    def batch_size(self) -> int:
        return len(self.num_agents)


@dataclass
class BatchAgentResult:
    """The recorded phase-boundary states of a batched agent run.

    ``times[r, k]`` / ``flows[r, k]`` hold row ``r``'s ``k``-th sample
    (``k = 0`` is the initial realised flow, then one sample per phase);
    only the first ``num_points[r]`` slots are valid.  ``assignments[r]``
    is row ``r``'s final agent-to-path assignment, bit-identical to the
    scalar simulator's ``final_assignment``.  ``stop_phases[r]`` is the
    phase whose boundary fired row ``r``'s ``stop_when`` condition (−1 if
    it never fired), matching the scalar early-exit phase exactly.
    """

    network: WardropNetwork
    policy_names: List[str]
    num_agents: np.ndarray
    update_periods: np.ndarray
    horizons: np.ndarray
    seeds: np.ndarray
    stale: bool
    times: np.ndarray
    flows: np.ndarray
    num_points: np.ndarray
    assignments: List[np.ndarray]
    family: Optional[NetworkFamily] = None
    stop_phases: Optional[np.ndarray] = None

    def stopped_rows(self) -> np.ndarray:
        """Return the boolean mask of rows frozen by ``stop_when``."""
        if self.stop_phases is None:
            return np.zeros(self.batch_size, dtype=bool)
        return self.stop_phases >= 0

    @property
    def batch_size(self) -> int:
        return len(self.num_agents)

    def __len__(self) -> int:
        return self.batch_size

    def row_network(self, row: int) -> WardropNetwork:
        """Return the network row ``row`` routed on (its family member)."""
        if self.family is not None:
            return self.family.member(row)
        return self.network

    def num_phases(self, row: int) -> int:
        """Return the number of completed bulletin-board phases of one row."""
        return int(self.num_points[row]) - 1

    def final_flows(self) -> np.ndarray:
        """Return the ``(B, P)`` array of final realised flows."""
        rows = np.arange(self.batch_size)
        return self.flows[rows, self.num_points - 1].copy()

    def final_flow(self, row: int) -> FlowVector:
        """Return one row's final realised flow as a :class:`FlowVector`."""
        return FlowVector(
            self.row_network(row),
            self.flows[row, self.num_points[row] - 1],
            validate=False,
        )

    def flow_matrix(self, row: int) -> np.ndarray:
        """Return one row's ``(samples, P)`` matrix of recorded flows."""
        return self.flows[row, : self.num_points[row]].copy()

    def trajectory(self, row: int) -> Trajectory:
        """Materialise one row as a scalar :class:`Trajectory`.

        The result has the same points, phase records and metadata as the
        standalone scalar agent run of that row's configuration, so the
        analysis toolkit applies unchanged.
        """
        network = self.row_network(row)
        count = int(self.num_points[row])
        trajectory = Trajectory(
            network=network,
            policy_name=self.policy_names[row],
            update_period=float(self.update_periods[row]) if self.stale else 0.0,
        )
        vectors = [
            FlowVector(network, self.flows[row, k], validate=False) for k in range(count)
        ]
        for k in range(count):
            trajectory.record(float(self.times[row, k]), vectors[k], max(k - 1, 0))
        for p in range(count - 1):
            trajectory.record_phase(
                PhaseRecord(
                    index=p,
                    start_time=float(self.times[row, p]),
                    end_time=float(self.times[row, p + 1]),
                    start_flow=vectors[p],
                    end_flow=vectors[p + 1],
                )
            )
        return trajectory

    def trajectories(self) -> List[Trajectory]:
        """Materialise every row (convenience for small batches)."""
        return [self.trajectory(row) for row in range(self.batch_size)]


def _occurrence_ranks(keys: np.ndarray) -> np.ndarray:
    """Return, per element, its rank among equal keys (original order kept).

    Used to split one phase's activations into conflict-free rounds: rank
    ``r`` holds each agent's ``r``-th activation, so every round touches
    each agent at most once while preserving the agent's own clock order.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    positions = np.arange(len(keys))
    new_group = np.empty(len(keys), dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_keys[1:] != sorted_keys[:-1]
    group_starts = np.maximum.accumulate(np.where(new_group, positions, 0))
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = positions - group_starts
    return ranks


class BatchAgentSimulator(BatchEnsembleBase):
    """Runs ``B`` finite-population replicas as one vectorised ensemble.

    Parameters
    ----------
    network:
        The shared :class:`WardropNetwork`, or a
        :class:`~repro.wardrop.family.NetworkFamily` whose size equals the
        batch size (row ``r`` routes on member ``r``).
    policies:
        One :class:`ReroutingPolicy` for every row (fully vectorised sigma/mu
        kernels) or a sequence of ``B`` policies (sampling and migration
        matrices are then assembled row by row -- the fallback that keeps
        custom policies working).
    config:
        The :class:`BatchAgentConfig` with per-row populations, periods,
        horizons and seeds.
    """

    def __init__(self, network: Networks, policies: Policies, config: BatchAgentConfig):
        super().__init__(network, policies, config.batch_size)
        self.config = config

    # Main loop --------------------------------------------------------------

    def run(
        self,
        initial_flows=None,
        stop_when: Optional[BatchStoppingCondition] = None,
    ) -> BatchAgentResult:
        """Simulate every replica to its horizon and return the batch result.

        ``initial_flows`` may be ``None`` (uniform split for every row), a
        single :class:`FlowVector` (shared start), a sequence of ``B`` flow
        vectors or a raw ``(B, P)`` array; each row's agent population is
        built from its target flow with the scalar simulator's
        largest-remainder rounding.

        ``stop_when(times, flows, rows)`` is the vectorised per-row stopping
        mask, evaluated at every phase boundary on the realised flows --
        mirroring the fluid engine's freezing semantics: a row whose
        condition fires records the triggering phase and then drops out of
        the active sub-batch, issuing no further generator draws (exactly
        like a scalar run that breaks out of its phase loop).
        """
        config = self.config
        network = self.network
        batch = config.batch_size
        num_paths = network.num_paths
        periods = config.update_periods
        horizons = config.horizons
        populations = config.num_agents
        layout = sampling_layout(network)
        member_paths = layout.member_paths

        # Flat agent layout: row r owns agents offsets[r]:offsets[r+1].
        offsets = np.zeros(batch + 1, dtype=np.int64)
        np.cumsum(populations, out=offsets[1:])
        total_agents = int(offsets[-1])
        assignment = np.empty(total_agents, dtype=np.int64)
        weights = np.empty(total_agents, dtype=float)
        initial_values = initial_flow_rows(network, batch, initial_flows, self.family)
        for row in range(batch):
            row_assignment, row_weights = build_population(
                network, int(populations[row]), initial_values[row]
            )
            assignment[offsets[row] : offsets[row + 1]] = row_assignment
            weights[offsets[row] : offsets[row + 1]] = row_weights
        agent_row = np.repeat(np.arange(batch), populations)
        row_key_base = agent_row * num_paths
        rngs = [np.random.default_rng(int(seed)) for seed in config.seeds]
        tele = get_telemetry()
        run_span = tele.span(
            "engine_run",
            engine="agents-batch",
            instance=network.graph.graph.get("name") or "-",
            stale=config.stale,
            rows=batch,
            agents=total_agents,
            paths=num_paths,
        )
        events_counter = tele.counter("agents_batch.events")
        phases_counter = tele.counter("agents_batch.phases_integrated")
        frozen_counter = tele.counter("agents_batch.rows_frozen_by_stop_when")
        refresh_counter = tele.counter("agents_batch.bulletin_refreshes")

        def realised_flows(rows: Optional[np.ndarray] = None) -> np.ndarray:
            """Realised flows from the assignment, restricted to ``rows``.

            Restricting the bincount to the active rows' agent slices keeps
            heterogeneous-horizon sweeps from re-counting frozen populations;
            each row's buckets are summed in the same agent order either way,
            so the restriction is bit-neutral.
            """
            if rows is None or len(rows) == batch:
                span = slice(None)
            else:
                span = np.concatenate(
                    [np.arange(offsets[row], offsets[row + 1]) for row in rows]
                )
            keys = row_key_base[span] + assignment[span]
            return np.bincount(
                keys, weights=weights[span], minlength=batch * num_paths
            ).reshape(batch, num_paths)

        # The scalar simulator's phase grid, row by row (shared helper: part
        # of the bit-equivalence contract).
        planned_phases = planned_phase_counts(horizons, periods)
        max_phases = int(planned_phases.max())
        times = np.zeros((batch, max_phases + 1))
        recorded = np.zeros((batch, max_phases + 1, num_paths))
        flows = realised_flows()
        recorded[:, 0] = flows
        num_points = np.ones(batch, dtype=int)
        stop_phases = np.full(batch, -1, dtype=int)

        board: Optional[BatchBulletinBoard] = None
        flows_live = np.empty(0)
        if config.stale:
            board = BatchBulletinBoard(self.family or network, periods)
            board.post_rows(0.0, flows)
        else:
            # Only the fresh-information kernel reads the live flows.
            flows_live = flows.copy()

        for phase in range(max_phases):
            starts = phase * periods
            active = (phase < planned_phases) & (stop_phases < 0)
            if not active.any():
                break
            rows = np.flatnonzero(active)
            ends = np.minimum((phase + 1) * periods, horizons)
            durations = ends - starts

            if config.stale and phase > 0:
                board.post_rows(starts, flows, mask=active)
                tele.event("bulletin_refresh", rows=len(rows))
                refresh_counter.add(len(rows))

            # Per-row block draws, exactly the scalar simulator's schedule.
            counts = np.empty(len(rows), dtype=np.int64)
            agent_chunks: List[np.ndarray] = []
            sample_chunks: List[np.ndarray] = []
            migrate_chunks: List[np.ndarray] = []
            for i, row in enumerate(rows):
                rng = rngs[row]
                population = int(populations[row])
                count = int(rng.poisson(population * durations[row]))
                counts[i] = count
                agent_chunks.append(rng.integers(population, size=count))
                sample_chunks.append(rng.random(count))
                migrate_chunks.append(rng.random(count))
            phase_span = tele.span(
                "phase",
                index=phase,
                active_rows=len(rows),
                activations=int(counts.sum()),
            )
            events_counter.add(int(counts.sum()))

            if config.stale:
                with tele.span("field_eval", active_rows=len(rows)):
                    sigma, mu = policy_tables(
                        network,
                        self._field_policies,
                        board.posted_flows[rows],
                        board.posted_path_latencies[rows],
                        rows,
                    )
                    cdf, valid = sampling_tables(sigma, layout)
                self._apply_stale_phase(
                    assignment,
                    offsets,
                    rows,
                    counts,
                    agent_chunks,
                    sample_chunks,
                    migrate_chunks,
                    cdf,
                    valid,
                    mu,
                    member_paths,
                )
            else:
                self._apply_fresh_phase(
                    assignment,
                    weights,
                    flows_live,
                    offsets,
                    rows,
                    counts,
                    agent_chunks,
                    sample_chunks,
                    migrate_chunks,
                    layout,
                )

            partial = realised_flows(rows)
            flows[rows] = partial[rows]
            if not config.stale:
                flows_live[rows] = flows[rows]
            times[rows, phase + 1] = ends[rows]
            recorded[rows, phase + 1] = flows[rows]
            num_points[rows] += 1
            phases_counter.add(len(rows))

            if stop_when is not None:
                hit = np.asarray(stop_when(ends[rows], flows[rows], rows), dtype=bool)
                if hit.shape != rows.shape:
                    raise ValueError(
                        f"stop_when returned shape {hit.shape}, expected {rows.shape}"
                    )
                stop_phases[rows[hit]] = phase
                if hit.any():
                    tele.event("stop_when_fired", phase=phase, rows=int(hit.sum()))
                    frozen_counter.add(int(hit.sum()))
            phase_span.close()

        run_span.annotate(phases_integrated=int((num_points - 1).sum()))
        run_span.close()
        tele.counter("agents_batch.runs").add()
        labels = [
            f"{policy.label()} (n={int(populations[row])})"
            for row, policy in enumerate(self._policies)
        ]
        assignments = [
            assignment[offsets[row] : offsets[row + 1]].copy() for row in range(batch)
        ]
        return BatchAgentResult(
            network=network,
            policy_names=labels,
            num_agents=populations.copy(),
            update_periods=periods.copy(),
            horizons=horizons.copy(),
            seeds=config.seeds.copy(),
            stale=config.stale,
            times=times,
            flows=recorded,
            num_points=num_points,
            assignments=assignments,
            family=self.family,
            stop_phases=stop_phases,
        )

    # Phase kernels ----------------------------------------------------------

    def _apply_stale_phase(
        self,
        assignment: np.ndarray,
        offsets: np.ndarray,
        rows: np.ndarray,
        counts: np.ndarray,
        agent_chunks: List[np.ndarray],
        sample_chunks: List[np.ndarray],
        migrate_chunks: List[np.ndarray],
        cdf: np.ndarray,
        valid: np.ndarray,
        mu: np.ndarray,
        member_paths: np.ndarray,
    ) -> None:
        """Replay one frozen phase's activations as occurrence-rank rounds."""
        total = int(counts.sum())
        if total == 0:
            return
        slots = np.repeat(np.arange(len(rows)), counts)
        agents = offsets[rows][slots] + np.concatenate(agent_chunks)
        u_sample = np.concatenate(sample_chunks)
        u_migrate = np.concatenate(migrate_chunks)
        # Ranks are non-zero only for agents activated more than once in the
        # phase; restricting the sort to that (small) subset keeps the rank
        # computation cheap when activations are sparse in the population.
        activations = np.bincount(agents)
        repeated = activations[agents] > 1
        ranks = np.zeros(total, dtype=np.int64)
        if repeated.any():
            ranks[repeated] = _occurrence_ranks(agents[repeated])
        for rank in range(int(ranks.max()) + 1):
            mask = ranks == rank
            event_agents = agents[mask]
            event_slots = slots[mask]
            current = assignment[event_agents]
            local = (cdf[event_slots, current] <= u_sample[mask][:, None]).sum(axis=1)
            sampled = member_paths[current, local]
            migrate = (
                valid[event_slots, current]
                & (sampled != current)
                & (u_migrate[mask] < mu[event_slots, current, sampled])
            )
            assignment[event_agents[migrate]] = sampled[migrate]

    def _apply_fresh_phase(
        self,
        assignment: np.ndarray,
        weights: np.ndarray,
        flows_live: np.ndarray,
        offsets: np.ndarray,
        rows: np.ndarray,
        counts: np.ndarray,
        agent_chunks: List[np.ndarray],
        sample_chunks: List[np.ndarray],
        migrate_chunks: List[np.ndarray],
        layout,
    ) -> None:
        """Advance one up-to-date-information phase event by event, in lockstep.

        Round ``j`` processes the ``j``-th activation of every row that still
        has one: each row's activation sees exactly the live flow its scalar
        run would see (``flows_live`` is updated migration by migration with
        the scalar simulator's subtract-then-add order).  A row's live tables
        depend only on its flow, so they are cached and recomputed only for
        rows whose previous activation migrated -- bit-neutral, and near
        equilibrium most activations are no-ops.
        """
        if len(rows) == 0 or counts.max(initial=0) == 0:
            return
        max_count = int(counts.max())
        agent_matrix = np.zeros((len(rows), max_count), dtype=np.int64)
        sample_matrix = np.zeros((len(rows), max_count))
        migrate_matrix = np.zeros((len(rows), max_count))
        for i in range(len(rows)):
            count = int(counts[i])
            agent_matrix[i, :count] = agent_chunks[i]
            sample_matrix[i, :count] = sample_chunks[i]
            migrate_matrix[i, :count] = migrate_chunks[i]
        member_paths = layout.member_paths
        num_paths = flows_live.shape[1]
        batch = flows_live.shape[0]
        width = member_paths.shape[1]
        cdf_cache = np.zeros((batch, num_paths, width))
        valid_cache = np.zeros((batch, num_paths), dtype=bool)
        mu_cache = np.zeros((batch, num_paths, num_paths))
        stale_tables = np.ones(batch, dtype=bool)
        for event in range(max_count):
            live = counts > event
            event_slots = np.flatnonzero(live)
            event_rows = rows[event_slots]
            refresh = event_rows[stale_tables[event_rows]]
            if len(refresh):
                state = flows_live[refresh]
                latencies = self._path_latencies_rows(state, refresh)
                sigma, mu = policy_tables(
                    self.network, self._field_policies, state, latencies, refresh
                )
                cdf, valid = sampling_tables(sigma, layout)
                cdf_cache[refresh] = cdf
                valid_cache[refresh] = valid
                mu_cache[refresh] = mu
                stale_tables[refresh] = False
            agents = offsets[event_rows] + agent_matrix[event_slots, event]
            current = assignment[agents]
            local = (
                cdf_cache[event_rows, current]
                <= sample_matrix[event_slots, event][:, None]
            ).sum(axis=1)
            sampled = member_paths[current, local]
            migrate = (
                valid_cache[event_rows, current]
                & (sampled != current)
                & (migrate_matrix[event_slots, event] < mu_cache[event_rows, current, sampled])
            )
            moved_agents = agents[migrate]
            moved_rows = event_rows[migrate]
            moved_weights = weights[moved_agents]
            flows_live[moved_rows, current[migrate]] -= moved_weights
            flows_live[moved_rows, sampled[migrate]] += moved_weights
            assignment[moved_agents] = sampled[migrate]
            stale_tables[moved_rows] = True


def simulate_agent_batch(
    network: Networks,
    policies: Policies,
    num_agents,
    update_periods,
    horizons,
    initial_flows=None,
    seeds=0,
    stale: bool = True,
    stop_when: Optional[BatchStoppingCondition] = None,
) -> BatchAgentResult:
    """Convenience wrapper mirroring :func:`repro.core.agents.simulate_agents`."""
    config = BatchAgentConfig(
        num_agents=np.asarray(num_agents),
        update_periods=update_periods,
        horizons=horizons,
        seeds=seeds,
        stale=stale,
    )
    return BatchAgentSimulator(network, policies, config).run(
        initial_flows, stop_when=stop_when
    )
