"""Numerical integration of the fluid-limit dynamics.

The paper studies the dynamics in the fluid limit: the population shares
evolve according to the ordinary differential equation (Eq. 1)

    d f_P / dt = sum_Q (rho_QP(f) - rho_PQ(f)),

and, under stale information, its bulletin-board variant (Eq. 3) in which the
sampling/migration probabilities are evaluated at the posted state ``f(t_hat)``.
Within a phase the right-hand side is Lipschitz continuous, so the solution
exists and is unique (Picard--Lindelöf); across phase boundaries it may jump,
which is why the integrator never steps over a boundary.

The integrators here are deliberately simple, explicit schemes (Euler and the
classical Runge--Kutta 4).  The growth rates sum to zero within every
commodity by construction, so demand feasibility is preserved exactly; tiny
negative flows from discretisation are clipped at phase boundaries.

Every engine -- the fluid engine (:mod:`repro.batch.engine`, which
``simulate`` runs as a batch of one) and column generation
(:mod:`repro.largescale.batch_columns`, which
``simulate_with_column_generation`` runs as a batch of one) -- integrates
with the batched steppers.  The scalar steppers and :func:`integrate` are
kept as the plain reference the tests integrate against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

RateField = Callable[[float, np.ndarray], np.ndarray]


def euler_step(field: RateField, time: float, state: np.ndarray, step: float) -> np.ndarray:
    """Advance the state one explicit-Euler step of size ``step``."""
    return state + step * field(time, state)


def rk4_step(field: RateField, time: float, state: np.ndarray, step: float) -> np.ndarray:
    """Advance the state one classical Runge--Kutta 4 step of size ``step``."""
    k1 = field(time, state)
    k2 = field(time + 0.5 * step, state + 0.5 * step * k1)
    k3 = field(time + 0.5 * step, state + 0.5 * step * k2)
    k4 = field(time + step, state + step * k3)
    return state + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_STEPPERS = {
    "euler": euler_step,
    "rk4": rk4_step,
}


# Batched steppers ----------------------------------------------------------
#
# The batched engine of :mod:`repro.batch` integrates a whole ensemble of
# independent replicas as one (B, P) state array.  Because every row may have
# its own bulletin-board period, the step size is a per-row column ``(B, 1)``;
# when all rows share one sub-step (always, for a batch of one) it is a plain
# float.  Either way the arithmetic is that of the scalar steppers applied
# row by row.

def euler_step_batch(field: RateField, time, state: np.ndarray, step) -> np.ndarray:
    """Advance a ``(B, P)`` batch one explicit-Euler step of per-row size ``step``."""
    return state + step * field(time, state)


def rk4_step_batch(field: RateField, time, state: np.ndarray, step) -> np.ndarray:
    """Advance a ``(B, P)`` batch one classical RK4 step of per-row size ``step``."""
    k1 = field(time, state)
    k2 = field(time + 0.5 * step, state + 0.5 * step * k1)
    k3 = field(time + 0.5 * step, state + 0.5 * step * k2)
    k4 = field(time + step, state + step * k3)
    return state + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_BATCH_STEPPERS = {
    "euler": euler_step_batch,
    "rk4": rk4_step_batch,
}


def batch_stepper_for(method: str):
    """Return the batched stepper for ``method`` ('euler' or 'rk4')."""
    try:
        return _BATCH_STEPPERS[method]
    except KeyError as error:
        raise ValueError(f"unknown integration method {method!r}; use 'euler' or 'rk4'") from error


def num_integration_steps(duration: float, max_step: float) -> int:
    """Return the number of equal sub-steps ``integrate`` uses for one interval.

    The batched engines apply the same rule so every engine takes the same
    step count (floating-point effects can make ``ceil(T / (T / n))``
    exceed ``n``).
    """
    return max(1, int(np.ceil(duration / max_step)))


def integrate(
    field: RateField,
    state: np.ndarray,
    start_time: float,
    end_time: float,
    max_step: float,
    method: str = "rk4",
) -> np.ndarray:
    """Integrate ``field`` from ``start_time`` to ``end_time``.

    The interval is divided into equal steps no longer than ``max_step``;
    the final sub-step lands exactly on ``end_time`` so phase boundaries are
    honoured to machine precision.
    """
    if end_time < start_time:
        raise ValueError("end_time must not precede start_time")
    if max_step <= 0:
        raise ValueError("max_step must be positive")
    try:
        stepper = _STEPPERS[method]
    except KeyError as error:
        raise ValueError(f"unknown integration method {method!r}; use 'euler' or 'rk4'") from error
    duration = end_time - start_time
    if duration == 0:
        return state.copy()
    num_steps = num_integration_steps(duration, max_step)
    step = duration / num_steps
    time = start_time
    current = state.copy()
    for _ in range(num_steps):
        current = stepper(field, time, current, step)
        time += step
    return current


def integration_step_for(update_period: float, steps_per_phase: int = 50) -> float:
    """Return a step size resolving each bulletin-board phase into ``steps_per_phase`` steps."""
    if update_period <= 0 or steps_per_phase <= 0:
        raise ValueError("update period and steps per phase must be positive")
    return update_period / steps_per_phase
