"""Simulation and verification toolkit for incentive-design dynamics.

Strongly monotone games over box constraints, the incentive flow that
steers their equilibria toward a planner target, a two-timescale
strategy-incentive iteration, and numerical certification of the
assumptions behind both.
"""

from .flow import (
    FlowConfig,
    FlowDomainError,
    compute_c_star,
    in_sublevel_set,
    integrate_social_gradient_flow,
    lyapunov_derivative,
    make_sublevel_geometry,
)
from .games import BoxSpace, GameModel, certify_strong_monotonicity, symmetry_check
from .objectives import SocialObjective, quadratic_objective
from .presets import (
    AggregativeGameSpec,
    OscillatorGameSpec,
    build_aggregative,
    build_game_from_spec,
    build_oscillator,
    default_aggregative_spec,
    gershgorin_scan,
    load_preset,
)
from .records import FlowRecord, TtsaRecord
from .solvers import (
    ResponseOracle,
    ResponseSolverConfig,
    SolverError,
    response_jacobian_fd,
    solve_response,
)
from .ttsa import (
    LearningRule,
    StepSchedule,
    TtsaConfig,
    br_flow_rate,
    learning_rule_br,
    learning_rule_ne,
    learning_rule_pg,
    make_learning_rule,
    pg_contraction_factor,
    run_ttsa,
)
from .experiments import (
    ExperimentConfig,
    resolve_config,
    resolve_instance,
    run_flow_batch,
    run_timescale_sweep,
    run_ttsa_batch,
    run_verify,
    sample_initial_conditions,
)

__version__ = "0.1.0"

__all__ = [
    "AggregativeGameSpec",
    "BoxSpace",
    "ExperimentConfig",
    "FlowConfig",
    "FlowDomainError",
    "FlowRecord",
    "GameModel",
    "LearningRule",
    "OscillatorGameSpec",
    "ResponseOracle",
    "ResponseSolverConfig",
    "SocialObjective",
    "SolverError",
    "StepSchedule",
    "TtsaConfig",
    "TtsaRecord",
    "br_flow_rate",
    "build_aggregative",
    "build_game_from_spec",
    "build_oscillator",
    "certify_strong_monotonicity",
    "compute_c_star",
    "default_aggregative_spec",
    "gershgorin_scan",
    "in_sublevel_set",
    "integrate_social_gradient_flow",
    "learning_rule_br",
    "learning_rule_ne",
    "learning_rule_pg",
    "load_preset",
    "lyapunov_derivative",
    "make_learning_rule",
    "make_sublevel_geometry",
    "pg_contraction_factor",
    "quadratic_objective",
    "resolve_config",
    "resolve_instance",
    "response_jacobian_fd",
    "run_flow_batch",
    "run_timescale_sweep",
    "run_ttsa",
    "run_ttsa_batch",
    "run_verify",
    "sample_initial_conditions",
    "solve_response",
    "symmetry_check",
    "__version__",
]
