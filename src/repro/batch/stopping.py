"""Vectorised early-stopping conditions for the batched engine.

The batched engine's ``stop_when(times, flows, rows)`` receives the
phase-end times, the projected ``(R, P)`` phase-end flows and the batch row
indices of the active sub-batch, and returns a boolean mask — True freezes a
row.  The helpers here build such predicates *together with* their scalar
counterparts (:meth:`StopCondition.scalar`), so a batched run and its
per-row scalar reference stop on exactly the same criterion evaluated with
exactly the same floating-point operations; the equivalence tests assert the
recorded stop phases match the one-row runs' early-exit phases exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from ..wardrop.family import NetworkFamily
from ..wardrop.flow import FlowVector
from ..wardrop.network import WardropNetwork

BatchPredicate = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class StopCondition:
    """A vectorised stopping condition with a scalar counterpart.

    Calling the condition forwards to the batch predicate, so an instance
    can be passed directly as ``stop_when`` to the batched engine;
    :meth:`scalar` adapts it to the ``stop_when(time, flow)`` signature of
    ``simulate`` and the agent simulator for one specific batch row.
    """

    batch: BatchPredicate

    def __call__(self, times: np.ndarray, flows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self.batch(times, flows, rows)

    def scalar(self, row: int):
        """Return the scalar ``stop_when(time, flow)`` for batch row ``row``.

        The adapter evaluates the batch predicate on a single-row batch, so
        scalar and batched runs apply identical arithmetic.
        """

        def predicate(time: float, flow: FlowVector) -> bool:
            mask = self.batch(
                np.asarray([time], dtype=float),
                flow.values()[None, :],
                np.asarray([row]),
            )
            return bool(np.asarray(mask)[0])

        return predicate


def _stack_targets(targets) -> np.ndarray:
    if isinstance(targets, np.ndarray):
        return np.asarray(targets, dtype=float)
    return np.stack(
        [
            target.values() if isinstance(target, FlowVector) else np.asarray(target, dtype=float)
            for target in targets
        ]
    )


def distance_stop(
    targets: Union[np.ndarray, Sequence[FlowVector]], tolerance: float
) -> StopCondition:
    """Stop a row once its L1 distance to a per-row target flow is ≤ tolerance.

    ``targets`` is a ``(B, P)`` array or a list of ``B`` flow vectors —
    typically the known Wardrop equilibria of the family members — matching
    the scalar criterion ``flow.distance_to(target) <= tolerance``.
    """
    stacked = _stack_targets(targets)
    tolerance = float(tolerance)

    def batch(times: np.ndarray, flows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.abs(flows - stacked[rows]).sum(axis=1) <= tolerance

    return StopCondition(batch=batch)


def equilibrium_gap_stop(
    network: Union[WardropNetwork, NetworkFamily],
    delta: float,
    threshold: float = 1e-9,
) -> StopCondition:
    """Stop a row once every used path is within ``delta`` of its commodity optimum.

    A row stops when, for each commodity, the maximum latency over paths
    carrying more than ``threshold`` flow exceeds the commodity's minimum
    path latency by at most ``delta`` — the delta-approximate-equilibrium
    criterion of the convergence theorems, evaluated on the live (family
    member) latencies.
    """
    family = network if isinstance(network, NetworkFamily) else None
    base = family.base if family is not None else network
    delta = float(delta)
    commodity_indices = [
        np.fromiter(base.paths.commodity_indices(i), dtype=int)
        for i in range(base.num_commodities)
    ]

    def batch(times: np.ndarray, flows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if family is not None:
            latencies = family.path_latencies_batch(flows, rows)
        else:
            latencies = base.path_latencies_batch(flows)
        settled = np.ones(len(rows), dtype=bool)
        for indices in commodity_indices:
            block_latencies = latencies[:, indices]
            used = flows[:, indices] > threshold
            worst = np.where(used, block_latencies, -np.inf).max(axis=1)
            best = block_latencies.min(axis=1)
            settled &= worst - best <= delta
        return settled

    return StopCondition(batch=batch)
