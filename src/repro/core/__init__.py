"""The paper's primary contribution: smooth adaptive rerouting under staleness.

This subpackage implements the two-step (sample, migrate) rerouting policies
of Section 2.2, the bulletin-board model of stale information of Section 2.3,
the fluid-limit and finite-agent simulators, the best-response baseline and
the closed-form bounds of the theorems.
"""

from .agents import AgentBasedSimulator, AgentSimulationConfig, simulate_agents
from .best_response import (
    best_reply_target,
    simulate_best_response,
    two_link_best_response_flow,
)
from .bounds import (
    max_update_period_for_latency,
    oscillation_amplitude,
    oscillation_fixed_point,
    proportional_convergence_bound,
    theorem_update_period,
    uniform_convergence_bound,
)
from .bulletin import BoardSnapshot, BulletinBoard
from .dynamics import (
    batch_stepper_for,
    euler_step,
    euler_step_batch,
    integrate,
    integration_step_for,
    num_integration_steps,
    rk4_step,
    rk4_step_batch,
)
from .migration import (
    BetterResponseMigration,
    LinearMigration,
    MigrationRule,
    ScaledLinearMigration,
    SmoothedBetterResponseMigration,
)
from .policy import (
    ReroutingPolicy,
    better_response_policy,
    replicator_policy,
    scaled_policy,
    smoothed_best_response_policy,
    uniform_policy,
)
from .sampling import ProportionalSampling, SamplingRule, SoftmaxSampling, UniformSampling
from .simulator import ReroutingSimulator, SimulationConfig, simulate
from .smoothness import (
    SmoothnessCheck,
    check_alpha_smoothness,
    max_safe_alpha,
    migration_rule_for_period,
    safe_update_period,
    safe_update_period_for_rule,
)
from .trajectory import PhaseRecord, Trajectory, TrajectoryPoint

__all__ = [
    "AgentBasedSimulator",
    "AgentSimulationConfig",
    "BetterResponseMigration",
    "BoardSnapshot",
    "BulletinBoard",
    "LinearMigration",
    "MigrationRule",
    "PhaseRecord",
    "ProportionalSampling",
    "ReroutingPolicy",
    "ReroutingSimulator",
    "SamplingRule",
    "ScaledLinearMigration",
    "SimulationConfig",
    "SmoothedBetterResponseMigration",
    "SmoothnessCheck",
    "SoftmaxSampling",
    "Trajectory",
    "TrajectoryPoint",
    "UniformSampling",
    "batch_stepper_for",
    "best_reply_target",
    "better_response_policy",
    "check_alpha_smoothness",
    "euler_step",
    "euler_step_batch",
    "integrate",
    "integration_step_for",
    "num_integration_steps",
    "rk4_step_batch",
    "max_safe_alpha",
    "max_update_period_for_latency",
    "migration_rule_for_period",
    "oscillation_amplitude",
    "oscillation_fixed_point",
    "proportional_convergence_bound",
    "replicator_policy",
    "rk4_step",
    "safe_update_period",
    "safe_update_period_for_rule",
    "scaled_policy",
    "simulate",
    "simulate_agents",
    "simulate_best_response",
    "smoothed_best_response_policy",
    "theorem_update_period",
    "two_link_best_response_flow",
    "uniform_convergence_bound",
    "uniform_policy",
]
