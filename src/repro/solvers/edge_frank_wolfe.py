"""Edge-flow Frank--Wolfe: equilibrium computation without a path set.

The classical path-based solver (:mod:`repro.solvers.frank_wolfe`) needs the
enumerated path sets to express flows, which confines it to toy instances.
This module solves the same Beckmann minimisation directly in *edge-flow*
space: the state is one number per graph edge, the descent direction comes
from the all-or-nothing oracle (one Dijkstra per origin, loading every
commodity's demand onto its cheapest path), and convergence is certified by
the standard *relative duality gap* ``TSTT / SPTT - 1`` of the traffic
assignment literature.  Nothing in the solver ever enumerates a path, so
Sioux Falls-scale road networks (hundreds of OD pairs) solve in a few dozen
iterations.

Three methods share the oracle machinery (``method=`` selects one):

* ``fw`` -- plain Frank--Wolfe: move towards the all-or-nothing point with
  the exact line-search step.  Robust, but the zig-zagging between vertices
  gives the well-known ``1/k`` tail.
* ``cfw`` -- conjugate-direction Frank--Wolfe (Mitradjieva--Lindberg): the
  direction endpoint is the convex combination ``a * s_prev + (1-a) * y`` of
  the previous endpoint and the new all-or-nothing point, with ``a`` chosen
  so the new search direction is conjugate to the previous one with respect
  to the (diagonal) Hessian ``diag(l_e'(f_e))`` of the Beckmann potential.
* ``bfw`` -- biconjugate Frank--Wolfe: the endpoint mixes the all-or-nothing
  point with the *two* previous endpoints so the direction is conjugate to
  both previous search directions.  The fastest of the three on road
  networks (gap ``1e-4`` on Sioux Falls in a small fraction of the plain-FW
  iteration count -- the benchmark-backed test pins the 5x bar).

The conjugate methods degrade gracefully: whenever a conjugacy denominator
vanishes, a step hits the segment boundary, or the composed direction stops
being a descent direction, the iteration falls back to the plain
all-or-nothing direction (a "restart" in the conjugate-gradient sense).

The path-based solver remains the ground truth on enumerable instances; the
equivalence test asserts both produce the same edge flows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..largescale.shortest import ShortestPathOracle
from ..telemetry.runtime import get_telemetry
from ..wardrop.network import WardropNetwork
from .line_search import bisection_root
from .options import check_method

# Conjugate weights are capped strictly below 1 so the composed endpoint
# always keeps a fresh all-or-nothing component (Mitradjieva--Lindberg use
# the same guard); at exactly 1 the direction would degenerate to the
# previous one and the iteration could stall.
CONJUGATE_WEIGHT_CAP = 0.999


@dataclass(frozen=True)
class EdgeEquilibriumResult:
    """The output of the edge-flow Frank--Wolfe solver.

    Attributes
    ----------
    edge_flows:
        The equilibrium edge flows, indexed by ``oracle.edges`` (all graph
        edges, not just on-path ones).
    potential_value:
        The Beckmann potential ``sum_e int_0^{f_e} l_e``.
    relative_gap:
        The final relative duality gap ``TSTT / SPTT - 1`` *of the returned
        flows* -- recomputed after the last step when the iteration cap is
        hit, so unconverged results report the state they return, not the
        pre-step iterate.
    tstt / sptt:
        Total and shortest-path system travel time at the returned flows (in
        the instance's normalised units; multiply by the raw total demand to
        recover TNTP units).
    iterations / converged / gap_history:
        Iteration diagnostics, mirroring the path-based solver.  On an
        iteration-cap exit ``gap_history`` gains one trailing entry: the
        recomputed gap of the returned flows.
    method:
        The algorithm that produced the result (``fw``, ``cfw`` or ``bfw``).
    """

    edge_flows: np.ndarray
    potential_value: float
    relative_gap: float
    tstt: float
    sptt: float
    iterations: int
    converged: bool
    gap_history: List[float]
    method: str = "fw"


def edge_potential(network: WardropNetwork, oracle: ShortestPathOracle, edge_flows: np.ndarray) -> float:
    """Return the Beckmann potential of an oracle-order edge-flow vector."""
    return float(
        sum(
            network.latency_function(edge).integral(edge_flows[i])
            for i, edge in enumerate(oracle.edges)
        )
    )


def relative_duality_gap(
    network: WardropNetwork,
    oracle: ShortestPathOracle,
    edge_flows: np.ndarray,
) -> float:
    """Return ``TSTT / SPTT - 1`` of an edge-flow vector (0 at equilibrium).

    When every commodity has a zero-cost route (``SPTT = 0``) the gap is 0
    if the flow costs nothing either, and infinite otherwise.
    """
    costs = oracle.latency_costs(network, edge_flows)
    load = oracle.all_or_nothing(costs)
    tstt = float(np.dot(costs, edge_flows))
    if load.sptt <= 0.0:
        return 0.0 if tstt <= 0.0 else float("inf")
    return tstt / load.sptt - 1.0


def _hessian_diagonal(functions, flows: np.ndarray) -> np.ndarray:
    """Return ``diag(l_e'(f_e))``, the Beckmann Hessian at ``flows``."""
    return np.array(
        [functions[i].derivative(flows[i]) for i in range(len(flows))]
    )


def _conjugate_point(
    flows: np.ndarray,
    aon: np.ndarray,
    previous: np.ndarray,
    hessian: np.ndarray,
) -> np.ndarray:
    """Mitradjieva--Lindberg CFW endpoint: mix ``aon`` with ``previous``.

    Solves ``(s - flows)^T H (previous - flows) = 0`` for the weight of
    ``previous`` in ``s = a * previous + (1 - a) * aon`` and clips it to
    ``[0, CONJUGATE_WEIGHT_CAP]``; any degenerate denominator restarts with
    the plain all-or-nothing point.
    """
    d_prev = previous - flows
    weighted = d_prev * hessian
    denominator = float(np.dot(weighted, aon - previous))
    if denominator == 0.0 or not np.isfinite(denominator):
        return aon
    alpha = float(np.dot(weighted, aon - flows)) / denominator
    if not np.isfinite(alpha) or alpha <= 0.0:
        return aon
    alpha = min(alpha, CONJUGATE_WEIGHT_CAP)
    return alpha * previous + (1.0 - alpha) * aon


def _biconjugate_point(
    flows: np.ndarray,
    aon: np.ndarray,
    previous: np.ndarray,
    previous2: np.ndarray,
    step_prev: float,
    hessian: np.ndarray,
) -> np.ndarray:
    """Mitradjieva--Lindberg BFW endpoint: conjugate to both prior directions.

    ``previous`` / ``previous2`` are the last two direction endpoints and
    ``step_prev`` the last line-search step.  The endpoint is the convex
    combination ``b0 * aon + b1 * previous + b2 * previous2`` whose direction
    from ``flows`` is ``H``-conjugate to both previous search directions;
    degenerate geometry (previous step at the segment boundary, vanishing
    denominators) falls back to the singly-conjugate point.
    """
    if step_prev >= 1.0 - 1e-10 or step_prev <= 0.0:
        return _conjugate_point(flows, aon, previous, hessian)
    # Directions proportional to the two previous search directions,
    # expressed from the current iterate (Mitradjieva & Lindberg, 2013).
    d1 = previous - flows
    d2 = step_prev * previous2 + (1.0 - step_prev) * previous - flows
    gradient_like = hessian * (aon - flows)
    denom_mu = float(np.dot(d2 * hessian, previous - previous2))
    denom_nu = float(np.dot(d1 * hessian, d1))
    if (
        denom_mu == 0.0
        or denom_nu == 0.0
        or not np.isfinite(denom_mu)
        or not np.isfinite(denom_nu)
    ):
        return _conjugate_point(flows, aon, previous, hessian)
    mu = -float(np.dot(d2, gradient_like)) / denom_mu
    nu = -float(np.dot(d1, gradient_like)) / denom_nu + mu * step_prev / (
        1.0 - step_prev
    )
    mu = max(0.0, mu)
    nu = max(0.0, nu)
    if not (np.isfinite(mu) and np.isfinite(nu)):
        return _conjugate_point(flows, aon, previous, hessian)
    beta0 = 1.0 / (1.0 + mu + nu)
    beta1 = nu * beta0
    beta2 = mu * beta0
    if beta0 < 1.0 - CONJUGATE_WEIGHT_CAP:
        # The fresh all-or-nothing component all but vanished; restart.
        return _conjugate_point(flows, aon, previous, hessian)
    return beta0 * aon + beta1 * previous + beta2 * previous2


def solve_edge_flow_equilibrium(
    network: WardropNetwork,
    tolerance: float = 1e-6,
    max_iterations: int = 2000,
    oracle: Optional[ShortestPathOracle] = None,
    initial_edge_flows: Optional[np.ndarray] = None,
    method: str = "fw",
) -> EdgeEquilibriumResult:
    """Compute the Wardrop equilibrium in edge-flow space by Frank--Wolfe.

    Parameters
    ----------
    network:
        The instance; only its graph, commodities and latency functions are
        used -- the (possibly restricted) path set is never touched.
    tolerance:
        Target *relative* duality gap ``TSTT / SPTT - 1``.
    max_iterations:
        Iteration cap; the result reports whether it was hit.  On a cap exit
        the diagnostics (``relative_gap`` / ``tstt`` / ``sptt``) are
        recomputed from the *returned* flows, not the pre-step iterate.
    oracle:
        Optional pre-built :class:`ShortestPathOracle` (reused across calls
        by the benchmarks); built from the network's graph, commodities and
        ``first_thru_node`` metadata otherwise.
    initial_edge_flows:
        Optional warm start (oracle edge order); defaults to the
        all-or-nothing flow at free-flow costs, the classical initialiser.
    method:
        ``"fw"`` (plain), ``"cfw"`` (conjugate) or ``"bfw"`` (biconjugate);
        see the module docstring.
    """
    check_method(method, "edge")
    if oracle is None:
        oracle = ShortestPathOracle.for_network(network)
    if initial_edge_flows is None:
        flows = oracle.all_or_nothing(oracle.free_flow_costs(network)).edge_flows
    else:
        flows = np.asarray(initial_edge_flows, dtype=float).copy()
        if flows.shape != (oracle.num_edges,):
            raise ValueError(
                f"initial edge flows have shape {flows.shape}, "
                f"expected ({oracle.num_edges},)"
            )

    functions = [network.latency_function(edge) for edge in oracle.edges]
    tele = get_telemetry()
    run_span = tele.span(
        "engine_run",
        engine="edge-fw",
        instance=network.graph.graph.get("name") or "-",
        method=method,
        edges=oracle.num_edges,
        tolerance=tolerance,
        state_bytes=flows.nbytes,
    )
    gap_series = tele.series_of("fw.relative_gap")
    gap_series.annotate(method=method)
    iteration_counter = tele.counter("fw.iterations")
    solve_start = time.perf_counter() if tele.enabled else 0.0
    gap_history: List[float] = []
    converged = False
    iterations = 0
    relative_gap = np.inf
    costs = oracle.latency_costs(network, flows)
    tstt = float(np.dot(costs, flows))
    sptt = tstt
    # Conjugate-direction state (cfw/bfw): the last two direction endpoints
    # and the last accepted line-search step.
    previous_point: Optional[np.ndarray] = None
    previous_point2: Optional[np.ndarray] = None
    step = 0.0
    for iterations in range(1, max_iterations + 1):
        iteration_span = tele.span("fw_iteration", index=iterations, method=method)
        load = oracle.all_or_nothing(costs)
        tstt = float(np.dot(costs, flows))
        sptt = load.sptt
        relative_gap = tstt / sptt - 1.0
        gap_history.append(relative_gap)
        if tele.enabled:
            # The gap-vs-wall-time curve is a first-class trace artefact:
            # `repro report` plots solver progress from this series alone.
            gap_series.append(time.perf_counter() - solve_start, relative_gap)
            iteration_span.annotate(gap=relative_gap)
        iteration_counter.add()
        if relative_gap <= tolerance:
            converged = True
            iteration_span.close()
            break
        target = load.edge_flows
        if method != "fw" and previous_point is not None:
            hessian = _hessian_diagonal(functions, flows)
            if method == "bfw" and previous_point2 is not None:
                target = _biconjugate_point(
                    flows, load.edge_flows, previous_point, previous_point2,
                    step, hessian,
                )
            else:
                target = _conjugate_point(
                    flows, load.edge_flows, previous_point, hessian
                )
            # The Beckmann gradient is the cost vector, so the directional
            # derivative of the composed direction is directly checkable; a
            # non-descent compose (numerical noise near optimality) restarts
            # with the plain all-or-nothing direction.
            if float(np.dot(costs, target - flows)) >= 0.0:
                target = load.edge_flows
        direction = target - flows

        def potential_slope(step: float) -> float:
            """Directional derivative of the Beckmann potential at ``step``."""
            point = flows + step * direction
            return float(
                sum(
                    functions[i].value(point[i]) * direction[i]
                    for i in range(len(direction))
                    if direction[i] != 0.0
                )
            )

        step = bisection_root(potential_slope, 0.0, 1.0)
        if step <= 0.0:
            # Stalled exact line search: fall back to the 2/(k+2) schedule.
            step = 2.0 / (iterations + 2.0)
        flows = flows + step * direction
        costs = oracle.latency_costs(network, flows)
        previous_point2 = previous_point
        previous_point = target
        iteration_span.close()
    if not converged:
        # Iteration-cap exit: the loop's diagnostics describe the *pre-step*
        # iterate, but the caller receives the post-step flows.  Recompute
        # the certificate at the returned flows (mirroring the path-based
        # solver's final duality-gap recomputation) so unconverged tracking
        # baselines are reported honestly.
        load = oracle.all_or_nothing(costs)
        tstt = float(np.dot(costs, flows))
        sptt = load.sptt
        relative_gap = tstt / sptt - 1.0
        gap_history.append(relative_gap)
        if tele.enabled:
            gap_series.append(time.perf_counter() - solve_start, relative_gap)
        converged = relative_gap <= tolerance
    run_span.annotate(iterations=iterations, converged=converged, gap=float(relative_gap))
    run_span.close()
    tele.counter("fw.runs").add()
    return EdgeEquilibriumResult(
        edge_flows=flows,
        potential_value=edge_potential(network, oracle, flows),
        relative_gap=float(relative_gap),
        tstt=tstt,
        sptt=float(sptt),
        iterations=iterations,
        converged=converged,
        gap_history=gap_history,
        method=method,
    )
