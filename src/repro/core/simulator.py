"""The fluid-limit rerouting simulator with bulletin-board staleness.

:func:`simulate` integrates the dynamics of Eq. (3): at the start of every
phase of length ``T`` the bulletin board is refreshed with the live edge
latencies (and flow shares), and for the duration of the phase the
migration-rate field is computed against that frozen snapshot while the true
flow keeps moving.  Setting ``stale=False`` runs the up-to-date information
dynamics of Eq. (1) instead (the field reads the live state at every
integrator stage), which is the setting of Theorem 2.

A run is a batch of one: :class:`ReroutingSimulator` builds a one-row
:class:`~repro.batch.engine.BatchConfig`, runs the batched engine and
returns row 0 as a :class:`~repro.core.trajectory.Trajectory` with per-phase
start/end flows -- the granularity of the paper's convergence-time
statements ("the number of update periods not starting at an approximate
equilibrium").  ``tests/data/simulate_goldens.json`` is the reference these
runs are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..batch.engine import BatchConfig, BatchSimulator
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork
from .policy import ReroutingPolicy
from .trajectory import Trajectory

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..scenarios.scenario import Scenario

StoppingCondition = Callable[[float, FlowVector], bool]


@dataclass
class SimulationConfig:
    """Configuration of a fluid-limit simulation run.

    Attributes
    ----------
    update_period:
        The bulletin-board refresh interval ``T``.
    horizon:
        Total simulated time.
    steps_per_phase:
        Number of integrator sub-steps per phase (controls accuracy).
    method:
        Integration scheme, ``"rk4"`` (default) or ``"euler"``.
    stale:
        If ``False`` the board is refreshed continuously (up-to-date
        information, Eq. 1); if ``True`` (default) it is refreshed only at
        phase boundaries (Eq. 3).
    record_every_step:
        If ``True`` a trajectory point is recorded at every integration
        sub-step; otherwise only at phase boundaries (the default, and what
        the convergence-time analyses need).
    """

    update_period: float = 0.1
    horizon: float = 50.0
    steps_per_phase: int = 50
    method: str = "rk4"
    stale: bool = True
    record_every_step: bool = False

    def __post_init__(self) -> None:
        if self.update_period <= 0:
            raise ValueError("update_period must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.steps_per_phase <= 0:
            raise ValueError("steps_per_phase must be positive")


class ReroutingSimulator:
    """Simulates a rerouting policy on a network in the fluid limit.

    A run is a batch of one: :meth:`run` hands a one-row
    :class:`~repro.batch.engine.BatchConfig` to the batched engine and
    returns row 0 as a :class:`Trajectory`, so there is exactly one fluid
    engine and ``simulate`` and ``simulate_batch`` cannot drift apart.

    ``scenario`` optionally makes the environment nonstationary: at every
    phase start the scenario's modulation is sampled and frozen for the
    phase, so the bulletin board posts the *current* environment's latencies
    and (in fresh mode) the live field prices flows in it.  Within a phase
    the environment, like the board, does not move -- scenario changes are
    information events, applied exactly at phase boundaries.
    """

    def __init__(
        self,
        network: WardropNetwork,
        policy: ReroutingPolicy,
        config: SimulationConfig,
        scenario: Optional["Scenario"] = None,
    ):
        self.network = network
        self.policy = policy
        self.config = config
        self.scenario = scenario

    def run(
        self,
        initial_flow: Optional[FlowVector] = None,
        stop_when: Optional[StoppingCondition] = None,
    ) -> Trajectory:
        """Run the simulation and return the recorded trajectory.

        ``stop_when(time, flow)`` is evaluated at every phase boundary; when
        it returns ``True`` the run ends early (the final state is still
        recorded).
        """
        config = self.config
        network = self.network
        # ``is None``, not truthiness: FlowVector defines __len__, so ``or``
        # would silently replace a zero-length flow instead of rejecting it.
        flow = FlowVector.uniform(network) if initial_flow is None else initial_flow
        if flow.network is not network:
            raise ValueError("initial flow belongs to a different network")
        batch_config = BatchConfig(
            update_periods=np.array([config.update_period]),
            horizons=config.horizon,
            steps_per_phase=config.steps_per_phase,
            method=config.method,
            stale=config.stale,
            record_every=1 if config.record_every_step else None,
        )
        batch_stop = None
        if stop_when is not None:

            def batch_stop(times, flows, _rows):
                end_flow = FlowVector(network, flows[0], validate=False)
                return np.array([bool(stop_when(float(times[0]), end_flow))])

        scenarios = None if self.scenario is None else [self.scenario]
        simulator = BatchSimulator(network, self.policy, batch_config, scenarios=scenarios)
        return simulator.run(flow, stop_when=batch_stop).trajectory(0)


def simulate(
    network: WardropNetwork,
    policy: ReroutingPolicy,
    update_period: float,
    horizon: float,
    initial_flow: Optional[FlowVector] = None,
    stale: bool = True,
    steps_per_phase: int = 50,
    method: str = "rk4",
    stop_when: Optional[StoppingCondition] = None,
    scenario: Optional["Scenario"] = None,
) -> Trajectory:
    """Convenience wrapper building a simulator and running it once."""
    config = SimulationConfig(
        update_period=update_period,
        horizon=horizon,
        steps_per_phase=steps_per_phase,
        method=method,
        stale=stale,
    )
    return ReroutingSimulator(network, policy, config, scenario=scenario).run(
        initial_flow, stop_when=stop_when
    )
