"""Flow vectors of the Wardrop model.

A flow vector ``f = (f_P)_{P in P}`` is *feasible* if every component is
non-negative and, for every commodity ``i``, the path flows of the commodity
sum to its demand ``r_i``.  In the population interpretation ``f_P`` is the
fraction of agents currently routing over path ``P``.

:class:`FlowVector` wraps a numpy array together with the network it belongs
to and provides the derived quantities used throughout the paper:

* edge flows ``f_e`` and live edge/path latencies,
* the commodity average latency ``L_i`` and the overall average latency
  ``L`` (Section 2.1),
* feasibility checks and projections,
* standard starting distributions (uniform split, all flow on one path,
  random feasible flows).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from .network import WardropNetwork
from .paths import Path


class FlowVector:
    """A feasible path-flow vector on a :class:`WardropNetwork`.

    The underlying array is copied at construction and never mutated; all
    operations return new vectors.  Use :meth:`values` for read access to a
    copy of the raw array.
    """

    def __init__(self, network: WardropNetwork, path_flows: Sequence[float], validate: bool = True):
        self.network = network
        self._flows = np.asarray(path_flows, dtype=float).copy()
        if self._flows.shape != (network.num_paths,):
            raise ValueError(
                f"flow vector has shape {self._flows.shape}, expected ({network.num_paths},)"
            )
        if validate:
            self.check_feasible()

    # Constructors ----------------------------------------------------------

    @classmethod
    def uniform(cls, network: WardropNetwork) -> "FlowVector":
        """Split every commodity's demand equally over its paths."""
        flows = np.zeros(network.num_paths)
        for i, commodity in enumerate(network.commodities):
            indices = list(network.paths.commodity_indices(i))
            flows[indices] = commodity.demand / len(indices)
        return cls(network, flows)

    @classmethod
    def single_path(cls, network: WardropNetwork, path_indices: Dict[int, int]) -> "FlowVector":
        """Put each commodity's entire demand on one chosen path.

        ``path_indices`` maps commodity index to the *local* index of the
        chosen path within that commodity's path list.
        """
        flows = np.zeros(network.num_paths)
        for i, commodity in enumerate(network.commodities):
            start, stop = network.paths.commodity_slice(i)
            local = path_indices.get(i, 0)
            if not 0 <= local < stop - start:
                raise ValueError(f"commodity {i} has no local path index {local}")
            flows[start + local] = commodity.demand
        return cls(network, flows)

    @classmethod
    def from_dict(cls, network: WardropNetwork, flows_by_path: Dict[Path, float]) -> "FlowVector":
        """Build a flow vector from an explicit ``{path: flow}`` mapping."""
        flows = np.zeros(network.num_paths)
        for path, value in flows_by_path.items():
            flows[network.paths.index_of(path)] = value
        return cls(network, flows)

    @classmethod
    def random(cls, network: WardropNetwork, rng: Optional[np.random.Generator] = None) -> "FlowVector":
        """Sample a feasible flow with Dirichlet(1,...,1) commodity splits."""
        rng = rng or np.random.default_rng()
        flows = np.zeros(network.num_paths)
        for i, commodity in enumerate(network.commodities):
            indices = list(network.paths.commodity_indices(i))
            split = rng.dirichlet(np.ones(len(indices)))
            flows[indices] = commodity.demand * split
        return cls(network, flows)

    # Feasibility ------------------------------------------------------------

    def check_feasible(self, tolerance: float = 1e-7) -> None:
        """Raise ``ValueError`` if the flow is infeasible."""
        if np.any(self._flows < -tolerance):
            worst = float(self._flows.min())
            raise ValueError(f"flow vector has negative component {worst}")
        for i, commodity in enumerate(self.network.commodities):
            indices = list(self.network.paths.commodity_indices(i))
            routed = float(self._flows[indices].sum())
            if abs(routed - commodity.demand) > tolerance:
                raise ValueError(
                    f"commodity {i} routes {routed}, demand is {commodity.demand}"
                )

    def is_feasible(self, tolerance: float = 1e-7) -> bool:
        """Return ``True`` if the flow satisfies non-negativity and demands."""
        try:
            self.check_feasible(tolerance)
        except ValueError:
            return False
        return True

    def projected(self) -> "FlowVector":
        """Return the closest simple repair of small numerical infeasibility.

        Negative components are clipped to zero and each commodity block is
        rescaled to its demand.  Intended to absorb integrator round-off, not
        to project arbitrary vectors.
        """
        flows = np.clip(self._flows, 0.0, None)
        for i, commodity in enumerate(self.network.commodities):
            indices = list(self.network.paths.commodity_indices(i))
            routed = flows[indices].sum()
            # Subnormal totals would overflow demand / routed to inf (and
            # 0 * inf to NaN), so they count as starved too.
            if routed <= np.finfo(float).tiny:
                flows[indices] = commodity.demand / len(indices)
            else:
                flows[indices] *= commodity.demand / routed
        return FlowVector(self.network, flows)

    @staticmethod
    def stack(vectors: Sequence["FlowVector"]) -> np.ndarray:
        """Stack flow vectors into a ``(B, P)`` array for the batched engine.

        The vectors may live on different same-topology networks (a family
        sweep); only their lengths must agree.  Network membership is the
        caller's contract -- the batched engine validates rows against its
        network or family members.
        """
        vectors = list(vectors)
        if not vectors:
            raise ValueError("cannot stack an empty list of flow vectors")
        length = len(vectors[0])
        if any(len(vector) != length for vector in vectors):
            raise ValueError("cannot stack flow vectors of different lengths")
        return np.stack([vector.values() for vector in vectors])

    @staticmethod
    def project_batch(network: WardropNetwork, path_flows: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`projected` on a ``(B, P)`` batch of raw flow arrays.

        Applies exactly the clip-and-rescale repair of :meth:`projected` to
        every row and returns a new array; used by the batched simulator at
        phase boundaries.
        """
        flows = np.clip(np.asarray(path_flows, dtype=float), 0.0, None)
        for i, commodity in enumerate(network.commodities):
            start, stop = network.paths.commodity_slice(i)
            block = flows[:, start:stop]
            # Each row's routed mass must use the same 1-D pairwise reduction
            # as :meth:`projected` -- ``block.sum(axis=1)`` can accumulate in
            # a different order and land one ulp away, breaking the row-wise
            # bit-identity contract of the batched engines.
            routed = np.array([row.sum() for row in block])
            starved = routed <= np.finfo(float).tiny
            safe = np.where(starved, 1.0, routed)
            block *= (commodity.demand / safe)[:, None]
            if starved.any():
                block[starved] = commodity.demand / (stop - start)
        return flows

    # Raw access ---------------------------------------------------------------

    def values(self) -> np.ndarray:
        """Return a copy of the raw path-flow array."""
        return self._flows.copy()

    def __getitem__(self, path_index: int) -> float:
        return float(self._flows[path_index])

    def flow_on(self, path: Path) -> float:
        """Return the flow on a specific path object."""
        return float(self._flows[self.network.paths.index_of(path)])

    def __len__(self) -> int:
        return len(self._flows)

    # Derived quantities --------------------------------------------------------

    def edge_flows(self) -> np.ndarray:
        """Return the edge-flow vector ``f_e``."""
        return self.network.edge_flows(self._flows)

    def edge_latencies(self) -> np.ndarray:
        """Return the live edge latencies ``l_e(f_e)``."""
        return self.network.edge_latencies(self.edge_flows())

    def path_latencies(self) -> np.ndarray:
        """Return the live path latencies ``l_P(f)``."""
        return self.network.path_latencies(self._flows)

    def commodity_min_latency(self, commodity_index: int) -> float:
        """Return ``l^i_min``, the minimum path latency of a commodity."""
        indices = list(self.network.paths.commodity_indices(commodity_index))
        return float(self.path_latencies()[indices].min())

    def commodity_average_latency(self, commodity_index: int) -> float:
        """Return ``L_i = sum_P (f_P / r_i) * l_P`` for the commodity."""
        indices = list(self.network.paths.commodity_indices(commodity_index))
        latencies = self.path_latencies()[indices]
        flows = self._flows[indices]
        demand = self.network.commodities[commodity_index].demand
        return float(np.dot(flows, latencies) / demand)

    def average_latency(self) -> float:
        """Return the overall average latency ``L = sum_P f_P * l_P``."""
        return float(np.dot(self._flows, self.path_latencies()))

    def max_used_latency(self, threshold: float = 1e-9) -> float:
        """Return the maximum latency over paths carrying positive flow."""
        latencies = self.path_latencies()
        used = self._flows > threshold
        if not used.any():
            return 0.0
        return float(latencies[used].max())

    # Arithmetic -----------------------------------------------------------------

    def with_values(self, path_flows: np.ndarray, validate: bool = True) -> "FlowVector":
        """Return a new flow vector over the same network."""
        return FlowVector(self.network, path_flows, validate=validate)

    def blend(self, other: "FlowVector", weight: float) -> "FlowVector":
        """Return ``(1 - weight) * self + weight * other`` (a feasible convex mix)."""
        if other.network is not self.network:
            raise ValueError("cannot blend flows on different networks")
        if not 0.0 <= weight <= 1.0:
            raise ValueError("blend weight must lie in [0, 1]")
        return FlowVector(
            self.network, (1.0 - weight) * self._flows + weight * other._flows
        )

    def distance_to(self, other: "FlowVector") -> float:
        """Return the L1 distance between two flow vectors."""
        if other.network is not self.network:
            raise ValueError("cannot compare flows on different networks")
        return float(np.abs(self._flows - other._flows).sum())

    def __repr__(self) -> str:
        entries = ", ".join(f"{x:.4g}" for x in self._flows)
        return f"FlowVector([{entries}])"
