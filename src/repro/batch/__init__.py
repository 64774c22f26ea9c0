"""Batched vectorized simulation: whole ensembles as one stacked integration.

This subpackage holds the fluid engine.  A :class:`BatchSimulator` evolves
``B`` replicas as a single ``(B, P)`` array
with vectorised right-hand sides, per-row bulletin-board clocks (rows may
have different update periods ``T``) and per-row horizons.  The replicas
route on one shared network or on a
:class:`~repro.wardrop.family.NetworkFamily` (same topology, per-row latency
coefficients), and a vectorised ``stop_when`` mask (see
:mod:`repro.batch.stopping`) freezes converged rows early so they skip all
remaining work.  :func:`~repro.core.simulator.simulate` is a batch of one,
and row ``r`` of any batch reproduces the one-row run of its configuration
exactly (see ``tests/batch``); ``tests/data/simulate_goldens.json`` is the
reference both are held to.
"""

from .agents import (
    BatchAgentConfig,
    BatchAgentResult,
    BatchAgentSimulator,
    simulate_agent_batch,
)
from .board import BatchBulletinBoard
from .engine import (
    BatchConfig,
    BatchResult,
    BatchSimulator,
    BatchStoppingCondition,
    simulate_batch,
)
from .stopping import StopCondition, distance_stop, equilibrium_gap_stop

__all__ = [
    "BatchAgentConfig",
    "BatchAgentResult",
    "BatchAgentSimulator",
    "BatchBulletinBoard",
    "BatchConfig",
    "BatchResult",
    "BatchSimulator",
    "BatchStoppingCondition",
    "StopCondition",
    "distance_stop",
    "equilibrium_gap_stop",
    "simulate_agent_batch",
    "simulate_batch",
]
