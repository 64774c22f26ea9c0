"""Batched bulletin boards: one stale-information board per ensemble row.

The scalar :class:`~repro.core.bulletin.BulletinBoard` freezes the network
state once per phase of length ``T``.  When an ensemble of ``B`` independent
replicas is integrated as a single ``(B, P)`` array, every row keeps its own
board: rows may use different update periods, so their phase clocks tick at
different wall-clock times even though the engine advances them phase by
phase in lockstep (row ``r`` is always inside *its own* phase ``k``; the
rows' absolute times simply differ, which is fine because replicas are
independent).

:class:`BatchBulletinBoard` stores the posted flows, posted edge latencies
and posted path latencies of all rows as stacked arrays, and refreshes any
subset of rows in one vectorised network evaluation.  The rows may route on
a single shared network or on the members of a
:class:`~repro.wardrop.family.NetworkFamily` (same topology, per-row latency
coefficients); in the family case row ``r``'s snapshot is evaluated with
member ``r``'s latency functions.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..wardrop.family import NetworkFamily
from ..wardrop.network import WardropNetwork


class BatchBulletinBoard:
    """``B`` bulletin boards with per-row update periods, stored as arrays.

    Attributes
    ----------
    update_periods:
        Array of shape ``(B,)`` with each row's refresh interval ``T_r``.
    phase_index:
        Array of shape ``(B,)`` counting completed refreshes per row (−1
        before the first post, matching the scalar board).
    posted_flows / posted_edge_latencies / posted_path_latencies:
        The stacked snapshots, shapes ``(B, P)``, ``(B, E)``, ``(B, P)``.
    posted_times:
        The per-row phase-start times ``t_hat_r`` of the current snapshots.
    """

    def __init__(
        self,
        network: Union[WardropNetwork, NetworkFamily],
        update_periods: np.ndarray,
    ):
        update_periods = np.asarray(update_periods, dtype=float)
        if update_periods.ndim != 1:
            raise ValueError("update_periods must be a one-dimensional array")
        if np.any(update_periods <= 0):
            raise ValueError("all update periods must be positive")
        self.update_periods = update_periods
        self.family: Optional[NetworkFamily] = None
        self.set_networks(network)
        batch = len(update_periods)
        self.posted_flows = np.zeros((batch, self.network.num_paths))
        self.posted_edge_latencies = np.zeros((batch, self.network.num_edges))
        self.posted_path_latencies = np.zeros((batch, self.network.num_paths))
        self.posted_times = np.full(batch, -np.inf)
        self.phase_index = np.full(batch, -1, dtype=int)

    def __len__(self) -> int:
        return len(self.update_periods)

    def set_networks(self, network: Union[WardropNetwork, NetworkFamily]) -> None:
        """Swap the latency source to another same-topology network/family.

        The scenario layer calls this at every phase boundary: posting then
        prices the rows' live flows in their *current* environments.  Only the
        latency functions may differ -- posted arrays, clocks and phase
        counters are untouched.
        """
        if isinstance(network, NetworkFamily):
            if network.size != len(self):
                raise ValueError(
                    f"family of {network.size} networks for {len(self)} boards"
                )
            self.family = network
            self.network = network.base
        else:
            self.family = None
            self.network = network

    def phase_starts(self, times: np.ndarray) -> np.ndarray:
        """Return ``t_hat_r = floor(t_r / T_r) * T_r`` for every row."""
        times = np.asarray(times, dtype=float)
        return np.floor(times / self.update_periods) * self.update_periods

    def post_rows(
        self,
        times: np.ndarray,
        path_flows: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Refresh the boards of the rows selected by ``mask`` (all by default).

        ``times`` is the per-row current time (shape ``(B,)`` or a scalar
        broadcast to all rows); ``path_flows`` is the live ``(B, P)`` state.
        Only the masked rows' snapshots change, exactly like calling the
        scalar board's ``post`` on those replicas.
        """
        network = self.network
        times = np.broadcast_to(np.asarray(times, dtype=float), (len(self),))
        if mask is None:
            mask = np.ones(len(self), dtype=bool)
        if not mask.any():
            return
        flows = np.asarray(path_flows, dtype=float)[mask]
        edge_flows = network.edge_flows_batch(flows)
        if self.family is None:
            edge_latencies = network.edge_latencies_batch(edge_flows)
        else:
            edge_latencies = self.family.edge_latencies_batch(
                edge_flows, np.flatnonzero(mask)
            )
        self.posted_flows[mask] = flows
        self.posted_edge_latencies[mask] = edge_latencies
        self.posted_path_latencies[mask] = network.path_latencies_from_edge_latencies_batch(
            edge_latencies
        )
        self.posted_times[mask] = self.phase_starts(times)[mask]
        self.phase_index[mask] += 1

    def needs_update(self, times: np.ndarray) -> np.ndarray:
        """Return the boolean mask of rows whose refresh is due at ``times``."""
        # Never-posted rows hold posted_times = -inf, so they are always due.
        return self.phase_starts(times) > self.posted_times + 1e-12
