"""Rerouting policies: sampling rule + migration rule.

A :class:`ReroutingPolicy` bundles the two steps of Section 2.2 and exposes
the *migration-rate field*

    rho_PQ(f, f_posted) = f_P * sigma_PQ(f_posted) * mu(l_P(f_posted), l_Q(f_posted))

which drives the fluid-limit differential equation.  Note the asymmetry that
defines the stale-information model: the current flow ``f`` enters only
through the factor ``f_P`` (how many agents are available to leave ``P``),
while sampling and migration probabilities are evaluated on the *posted*
bulletin-board state.

Factory helpers build the named policies of the paper:

* :func:`replicator_policy` -- proportional sampling + linear migration
  (the replicator dynamics, Theorem 7),
* :func:`uniform_policy` -- uniform sampling + linear migration (Theorem 6),
* :func:`better_response_policy` -- the non-smooth negative example,
* :func:`smoothed_best_response_policy` -- softmax sampling + steep ramp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..wardrop.network import WardropNetwork
from .migration import (
    BetterResponseMigration,
    LinearMigration,
    MigrationRule,
    ScaledLinearMigration,
    SmoothedBetterResponseMigration,
)
from .sampling import ProportionalSampling, SamplingRule, SoftmaxSampling, UniformSampling
from .smoothness import safe_update_period_for_rule


@dataclass
class ReroutingPolicy:
    """A two-step (sample, then migrate) rerouting policy.

    Attributes
    ----------
    sampling:
        The sampling rule producing ``sigma_PQ``.
    migration:
        The migration rule producing ``mu(l_P, l_Q)``.
    name:
        Optional display name used in benchmark tables.
    """

    sampling: SamplingRule
    migration: MigrationRule
    name: str = ""

    def label(self) -> str:
        return self.name or f"{self.sampling.name}+{self.migration.name}"

    @property
    def smoothness(self) -> Optional[float]:
        """The smoothness parameter alpha of the migration rule (None if non-smooth)."""
        return self.migration.smoothness

    def safe_update_period(self, network: WardropNetwork) -> float:
        """Return the Lemma 4 safe bulletin-board period for this policy."""
        return safe_update_period_for_rule(network, self.migration)

    def migration_rates(
        self,
        network: WardropNetwork,
        current_flows: np.ndarray,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        """Return the matrix ``rho[p, q]`` of migration rates from p to q.

        ``current_flows`` is the live flow (supplies the factor ``f_P``);
        ``posted_flows`` and ``posted_path_latencies`` are the bulletin-board
        snapshot used for the sampling and migration probabilities.  Under
        up-to-date information callers simply pass the live state for both.
        """
        sigma = self.sampling.probabilities(network, posted_flows, posted_path_latencies)
        mu = self.migration.matrix(posted_path_latencies)
        return current_flows[:, None] * sigma * mu

    def growth_rates(
        self,
        network: WardropNetwork,
        current_flows: np.ndarray,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        """Return ``df_P/dt = sum_Q (rho_QP - rho_PQ)`` for every path.

        This is Eq. (1) of the paper (Eq. (3) when the posted state is stale).
        The result sums to zero within every commodity, so demands are
        conserved exactly.

        The implementation folds ``sigma * mu`` into one transition-rate
        matrix ``M`` and factors the current flow out of the outflow sum
        (``sum_Q rho_PQ = f_P * sum_Q M_PQ``): one elementwise product and
        one reduction per evaluation instead of two of each.  The field
        kernels of :mod:`repro.batch.engine`, which every engine integrates
        through, perform the same operation sequence row by row (their
        fresh field calls this method directly for per-row policies).
        """
        sigma = self.sampling.probabilities(network, posted_flows, posted_path_latencies)
        mu = self.migration.matrix(posted_path_latencies)
        rates = sigma * mu
        inflow = np.matmul(current_flows[None, :], rates)[0]
        return inflow - current_flows * rates.sum(axis=1)

    def growth_rates_batch(
        self,
        network: WardropNetwork,
        current_flows: np.ndarray,
        posted_flows: np.ndarray,
        posted_path_latencies: np.ndarray,
    ) -> np.ndarray:
        """Return ``(B, P)`` growth rates ``df/dt``, one row per batch replica.

        Row ``b`` performs exactly the operation sequence of
        :meth:`growth_rates` (folded ``sigma * mu``, factored outflow), so
        batched and scalar evaluations agree bit for bit.
        """
        sigma = self.sampling.probabilities_batch(network, posted_flows, posted_path_latencies)
        mu = self.migration.matrix_batch(posted_path_latencies)
        rates = sigma * mu
        inflow = np.matmul(current_flows[:, None, :], rates)[:, 0, :]
        return inflow - current_flows * rates.sum(axis=2)


def uniform_policy(network: WardropNetwork, max_latency: Optional[float] = None) -> ReroutingPolicy:
    """Uniform sampling + linear migration (the Theorem 6 policy)."""
    return ReroutingPolicy(
        sampling=UniformSampling(),
        migration=LinearMigration(max_latency or network.max_latency()),
        name="uniform+linear",
    )


def replicator_policy(
    network: WardropNetwork,
    max_latency: Optional[float] = None,
    exploration: float = 1e-6,
) -> ReroutingPolicy:
    """Proportional sampling + linear migration (replicator dynamics, Theorem 7)."""
    return ReroutingPolicy(
        sampling=ProportionalSampling(exploration=exploration),
        migration=LinearMigration(max_latency or network.max_latency()),
        name="replicator",
    )


def better_response_policy(sampling: Optional[SamplingRule] = None) -> ReroutingPolicy:
    """Sampling + better-response migration: the non-smooth negative example."""
    return ReroutingPolicy(
        sampling=sampling or UniformSampling(),
        migration=BetterResponseMigration(),
        name="better-response",
    )


def smoothed_best_response_policy(concentration: float, width: float) -> ReroutingPolicy:
    """Softmax sampling (parameter ``c``) + steep linear ramp (parameter ``width``).

    Approaches best response as ``concentration`` grows and ``width`` shrinks;
    remains formally alpha-smooth with ``alpha = 1/width``.
    """
    return ReroutingPolicy(
        sampling=SoftmaxSampling(concentration),
        migration=SmoothedBetterResponseMigration(width),
        name=f"smoothed-BR(c={concentration:g},w={width:g})",
    )


def scaled_policy(alpha: float, sampling: Optional[SamplingRule] = None) -> ReroutingPolicy:
    """Uniform (or given) sampling + ``alpha``-scaled linear migration."""
    return ReroutingPolicy(
        sampling=sampling or UniformSampling(),
        migration=ScaledLinearMigration(alpha),
        name=f"scaled(alpha={alpha:g})",
    )
