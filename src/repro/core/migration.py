"""Migration rules: the second step of the two-step rerouting policy.

Having sampled a path ``Q``, the agent migrates from its current path ``P``
to ``Q`` with probability ``mu(l_P, l_Q)`` evaluated on the *posted* (stale)
latencies.  The paper requires, for convergence,

* ``mu(l_P, l_Q) = 0`` whenever ``l_Q >= l_P`` (migration is selfish),
* ``mu`` Lipschitz continuous and non-negative,
* **alpha-smoothness** (Definition 2): ``mu(l_P, l_Q) <= alpha * (l_P - l_Q)``
  for all ``l_P >= l_Q``.

The rules implemented here:

* :class:`BetterResponseMigration` -- switch whenever the sampled path is
  better.  NOT alpha-smooth for any alpha; included as the paper's negative
  example (it oscillates under stale information).
* :class:`LinearMigration` -- ``mu = (l_P - l_Q) / l_max``; this is
  ``1/l_max``-smooth and is the rule analysed in Theorems 6 and 7.
* :class:`ScaledLinearMigration` -- ``mu = min(1, alpha * (l_P - l_Q))`` for a
  caller-chosen ``alpha``; used to sweep the smoothness parameter in the
  staleness-threshold benchmark.
* :class:`SmoothedBetterResponseMigration` -- a steep but Lipschitz ramp that
  approximates better response while technically remaining alpha-smooth with
  a large alpha.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np


class MigrationRule(ABC):
    """A migration-probability function ``mu(l_P, l_Q) in [0, 1]``."""

    @abstractmethod
    def probability(self, latency_from: float, latency_to: float) -> float:
        """Return the probability of migrating from latency ``l_P`` to ``l_Q``."""

    def matrix(self, path_latencies: np.ndarray) -> np.ndarray:
        """Return the matrix ``mu[p, q] = mu(l_p, l_q)`` for posted latencies.

        A view of the single row of :meth:`matrix_batch` when the rule has a
        batched kernel (every built-in rule does).  Custom rules that define
        only :meth:`probability` get a double loop over the path pairs.
        """
        if type(self).matrix_batch is not MigrationRule.matrix_batch:
            return self.matrix_batch(np.asarray(path_latencies, dtype=float)[None])[0]
        size = len(path_latencies)
        result = np.zeros((size, size))
        for p in range(size):
            for q in range(size):
                if p != q:
                    result[p, q] = self.probability(
                        float(path_latencies[p]), float(path_latencies[q])
                    )
        return result

    def matrix_batch(self, path_latencies: np.ndarray) -> np.ndarray:
        """Return a ``(B, P, P)`` stack of migration matrices for ``(B, P)`` latencies.

        The built-in rules override this with one vectorised kernel.  This
        default, for custom rules, calls :meth:`matrix` once per row.
        """
        return np.stack([self.matrix(row) for row in path_latencies])

    @staticmethod
    def _pairwise_improvements(path_latencies: np.ndarray) -> np.ndarray:
        """Return ``diff[b, p, q] = l_p - l_q`` for a ``(B, P)`` latency batch."""
        return path_latencies[:, :, None] - path_latencies[:, None, :]

    @property
    def smoothness(self) -> Optional[float]:
        """Return the smallest known alpha for which the rule is alpha-smooth.

        ``None`` means the rule is not alpha-smooth for any finite alpha
        (e.g. better response).
        """
        return None

    def is_selfish(self) -> bool:
        """Return True if the rule never migrates towards a worse path."""
        return True

    @property
    def name(self) -> str:
        return type(self).__name__


class BetterResponseMigration(MigrationRule):
    """Switch with probability one whenever the sampled path is strictly better.

    The canonical *non-smooth* rule: it is discontinuous at ``l_P = l_Q`` and
    therefore not alpha-smooth for any alpha.  Under stale information the
    combination with (almost) any sampling rule oscillates; the paper uses the
    two-link instance to show this analytically for best response.
    """

    def probability(self, latency_from: float, latency_to: float) -> float:
        return 1.0 if latency_from > latency_to else 0.0

    def matrix_batch(self, path_latencies: np.ndarray) -> np.ndarray:
        diff = self._pairwise_improvements(path_latencies)
        return (diff > 0.0).astype(float)

    @property
    def smoothness(self) -> Optional[float]:
        return None


class LinearMigration(MigrationRule):
    """The paper's linear migration policy ``mu = max(0, (l_P - l_Q) / l_max)``.

    ``l_max`` must be an upper bound on any path latency, which makes the
    probability always lie in ``[0, 1]`` and the rule ``1/l_max``-smooth.
    """

    def __init__(self, max_latency: float):
        if max_latency <= 0:
            raise ValueError("l_max must be positive")
        self.max_latency = float(max_latency)

    def probability(self, latency_from: float, latency_to: float) -> float:
        if latency_from <= latency_to:
            return 0.0
        return min(1.0, (latency_from - latency_to) / self.max_latency)

    def matrix_batch(self, path_latencies: np.ndarray) -> np.ndarray:
        diff = self._pairwise_improvements(path_latencies)
        mu = np.minimum(1.0, diff / self.max_latency)
        mu[diff <= 0.0] = 0.0
        return mu

    @property
    def smoothness(self) -> Optional[float]:
        return 1.0 / self.max_latency

    def __repr__(self) -> str:
        return f"LinearMigration(l_max={self.max_latency})"


class ScaledLinearMigration(MigrationRule):
    """``mu = min(1, alpha * (l_P - l_Q))`` for a chosen smoothness ``alpha``.

    Sweeping ``alpha`` (equivalently, sweeping the effective update period
    against the safe period ``T* = 1/(4 D alpha beta)``) is how the
    staleness-threshold benchmark probes the sharpness of Lemma 4.

    Note the rule is exactly ``alpha``-smooth as long as
    ``alpha * (l_P - l_Q) <= 1`` on the reachable latency range; the cap at 1
    only makes it *smoother*.
    """

    def __init__(self, alpha: float):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)

    def probability(self, latency_from: float, latency_to: float) -> float:
        if latency_from <= latency_to:
            return 0.0
        return min(1.0, self.alpha * (latency_from - latency_to))

    def matrix_batch(self, path_latencies: np.ndarray) -> np.ndarray:
        diff = self._pairwise_improvements(path_latencies)
        mu = np.minimum(1.0, self.alpha * diff)
        mu[diff <= 0.0] = 0.0
        return mu

    @property
    def smoothness(self) -> Optional[float]:
        return self.alpha

    def __repr__(self) -> str:
        return f"ScaledLinearMigration(alpha={self.alpha})"


class SmoothedBetterResponseMigration(MigrationRule):
    """A steep ramp ``mu = min(1, (l_P - l_Q) / width)`` approximating better response.

    For small ``width`` the rule behaves almost like better response but is
    Lipschitz with constant ``1/width``; it fits the smooth class only with a
    very large smoothness parameter, so the safe update period shrinks like
    ``width`` -- exactly the trade-off the paper describes for smoothed best
    response.
    """

    def __init__(self, width: float):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = float(width)

    def probability(self, latency_from: float, latency_to: float) -> float:
        if latency_from <= latency_to:
            return 0.0
        return min(1.0, (latency_from - latency_to) / self.width)

    def matrix_batch(self, path_latencies: np.ndarray) -> np.ndarray:
        diff = self._pairwise_improvements(path_latencies)
        mu = np.minimum(1.0, diff / self.width)
        mu[diff <= 0.0] = 0.0
        return mu

    @property
    def smoothness(self) -> Optional[float]:
        return 1.0 / self.width

    def __repr__(self) -> str:
        return f"SmoothedBetterResponseMigration(width={self.width})"
