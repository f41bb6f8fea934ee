"""Robust identification of discrete-time LTI systems from a single
trajectory corrupted by adversarial disturbances.

The package fits x_{i+1} = A x_i + B u_i + d_i from one observed rollout in
which an unknown subset of steps carries a nonzero attack d_i. Two convex
sum-of-norms estimators (group-l2 and entry-l1 residual penalties) recover
the true matrices exactly under spacing or probabilistic attack models where
ordinary least squares does not; optimality certificates, sample-complexity
bounds, and reproducible experiment drivers round out the toolkit.
"""

from .lti import (
    AttackSchedule,
    GaussianAttackConfig,
    InputPolicy,
    LtiSystem,
    SimulationOverflowError,
    StealthAttackConfig,
    Trajectory,
    discretize_euler,
    hovorka_continuous,
    load_system_json,
    load_trajectory_csv,
    make_bernoulli,
    make_delta_spaced,
    random_stable_system,
    sample_stealth_attack,
    save_system_json,
    save_trajectory_csv,
    simulate,
    spectral_radius,
)
from .estimators import (
    EstimationResult,
    SolverConfig,
    estimation_error,
    fit,
    least_squares,
    objective,
    polish_estimate,
    solve_irls,
    solve_scalar_exact,
    solve_subgradient,
)
from .certificates import (
    Certificate,
    FarkasInstance,
    cnk_bound,
    dual_min_fz,
    eigen_condition,
    farkas_feasible,
    kkt_certificate,
    lemma2_condition,
    span_condition,
)
from .complexity import (
    ComplexityInputs,
    PhaseScenario,
    input_bound_constants,
    phase_transition,
    t_sample_auto_l1,
    t_sample_auto_l2,
    t_sample_input,
)
from .experiments import ExperimentSpec, emit_plot_data, run_experiment
from .rng import substream, trial_seed

__version__ = "0.1.0"

__all__ = [
    "AttackSchedule",
    "Certificate",
    "ComplexityInputs",
    "EstimationResult",
    "ExperimentSpec",
    "FarkasInstance",
    "GaussianAttackConfig",
    "InputPolicy",
    "LtiSystem",
    "PhaseScenario",
    "SimulationOverflowError",
    "SolverConfig",
    "StealthAttackConfig",
    "Trajectory",
    "cnk_bound",
    "discretize_euler",
    "dual_min_fz",
    "eigen_condition",
    "emit_plot_data",
    "estimation_error",
    "farkas_feasible",
    "fit",
    "hovorka_continuous",
    "input_bound_constants",
    "kkt_certificate",
    "least_squares",
    "lemma2_condition",
    "load_system_json",
    "load_trajectory_csv",
    "make_bernoulli",
    "make_delta_spaced",
    "objective",
    "phase_transition",
    "polish_estimate",
    "random_stable_system",
    "run_experiment",
    "sample_stealth_attack",
    "save_system_json",
    "save_trajectory_csv",
    "simulate",
    "solve_irls",
    "solve_scalar_exact",
    "solve_subgradient",
    "span_condition",
    "spectral_radius",
    "substream",
    "t_sample_auto_l1",
    "t_sample_auto_l2",
    "t_sample_input",
    "trial_seed",
]
