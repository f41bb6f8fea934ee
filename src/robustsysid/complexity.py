"""Sample-complexity predictors and empirical phase-transition sweeps.

The closed-form T_sample expressions predict (up to an unspecified universal
constant, exposed as ``multiplier``) how much data the sum-of-norms
estimators need for exact recovery under Bernoulli(p) attacks, for the
autonomous group-l2 / entry-l1 cases and the controlled case. They are
evaluated in extended precision so parameter corners (p near 1, rho near 1,
c near 0) degrade to inf instead of overflowing. phase_transition measures
the empirical counterpart: recovery frequency as a function of the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import mpmath
import numpy as np

from .estimators import SolverConfig, canonical_kind, estimation_error, fit
from .lti import (GaussianAttackConfig, InputPolicy, LtiSystem,
                  StealthAttackConfig, _integer, _real, make_bernoulli,
                  make_delta_spaced, simulate)
from .rng import trial_seed

_DPS = 50  # working decimal digits for the formula evaluations


@dataclass(frozen=True)
class ComplexityInputs:
    """Parameters the T_sample formulas consume.

    kappa defaults to its floor 1/(1 - rho); c = 1 matches Gaussian or
    bounded attack-length laws. ``multiplier`` stands in for the bounds'
    unspecified universal constant (all outputs are order predictions).
    """

    n: int
    p: float
    rho: float
    m: int = 0
    c: float = 1.0
    kappa: float | None = None
    delta: float = 0.05
    multiplier: float = 1.0

    def __post_init__(self):
        if self.n < 1 or self.m < 0:
            raise ValueError("need n >= 1 and m >= 0")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly inside (0, 1)")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly inside (0, 1)")
        if not 0.0 < self.c <= 1.0:
            raise ValueError("c must lie in (0, 1]")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")
        floor = 1.0 / (1.0 - self.rho)
        if self.kappa is None:
            object.__setattr__(self, "kappa", floor)
        elif self.kappa < floor * (1.0 - 1e-12):
            raise ValueError(f"kappa must be >= 1/(1-rho) = {floor:.6g}")


def _to_float(x) -> float:
    if x > mpmath.mpf("1.7976e308"):
        return math.inf
    return float(x)


def _auto_R(ci: ComplexityInputs):
    n, p, c, rho = mpmath.mpf(ci.n), mpmath.mpf(ci.p), mpmath.mpf(ci.c), mpmath.mpf(ci.rho)
    lc = mpmath.log(1 / c)
    lr = mpmath.log(1 / rho)
    b1 = lc / (n * c ** 4 * p * (1 - p) * lr)
    b2 = lc ** 2 / (c ** 10 * (1 - p) ** 2 * (1 - rho) ** 3 * lr ** 2)
    b3 = 1 / (n * p * (1 - p))
    return max(b1, b2, b3)


def t_sample_auto_l2(inputs: ComplexityInputs) -> float:
    """Horizon prediction for the autonomous group-l2 estimator:
    n R [n log(nR) + log(1/delta)]."""
    with mpmath.workdps(_DPS):
        R = _auto_R(inputs)
        n = mpmath.mpf(inputs.n)
        t = n * R * (n * mpmath.log(n * R) + mpmath.log(1 / mpmath.mpf(inputs.delta)))
        return _to_float(mpmath.mpf(inputs.multiplier) * t)


def t_sample_auto_l1(inputs: ComplexityInputs) -> float:
    """Autonomous entry-l1 prediction: the group-l2 expression without the
    leading n, i.e. R [n log(nR) + log(1/delta)]."""
    with mpmath.workdps(_DPS):
        R = _auto_R(inputs)
        n = mpmath.mpf(inputs.n)
        t = R * (n * mpmath.log(n * R) + mpmath.log(1 / mpmath.mpf(inputs.delta)))
        return _to_float(mpmath.mpf(inputs.multiplier) * t)


class InputSampleBound(NamedTuple):
    T1: float  # state-system requirement
    T2: float  # input-system requirement
    T: float   # max of the two


def t_sample_input(inputs: ComplexityInputs, l1: bool = False) -> InputSampleBound:
    """Horizon prediction with control inputs present (m >= 1).

    T1 = n R1 [n log(nR1) + log(1/delta)] with
    R1 = max{ log(kappa/c)/(n c^4 log(1/rho)),
              p kappa^2/(c^10 (1-p)^2 (1-rho)^2),
              p kappa^2 log^2(kappa/c)/(c^10 (1-rho)^2 log^2(1/rho)),
              1/(np) },
    T2 = n R2 [m log(nR2) + log(1/delta)] with
    R2 = max{ 1/(np), p/(1-p)^2, m/n }. The l1 flag drops the leading n
    from both, as for the autonomous pair.
    """
    if inputs.m < 1:
        raise ValueError("the input-case bound needs m >= 1")
    with mpmath.workdps(_DPS):
        n, m = mpmath.mpf(inputs.n), mpmath.mpf(inputs.m)
        p, c = mpmath.mpf(inputs.p), mpmath.mpf(inputs.c)
        rho, kap = mpmath.mpf(inputs.rho), mpmath.mpf(inputs.kappa)
        ld = mpmath.log(1 / mpmath.mpf(inputs.delta))
        lr = mpmath.log(1 / rho)
        lkc = mpmath.log(kap / c)

        R1 = max(
            lkc / (n * c ** 4 * lr),
            p * kap ** 2 / (c ** 10 * (1 - p) ** 2 * (1 - rho) ** 2),
            p * kap ** 2 * lkc ** 2 / (c ** 10 * (1 - rho) ** 2 * lr ** 2),
            1 / (n * p),
        )
        R2 = max(1 / (n * p), p / (1 - p) ** 2, m / n)

        lead = mpmath.mpf(1) if l1 else n
        t1 = lead * R1 * (n * mpmath.log(n * R1) + ld)
        t2 = lead * R2 * (m * mpmath.log(n * R2) + ld)
        mult = mpmath.mpf(inputs.multiplier)
        return InputSampleBound(_to_float(mult * t1), _to_float(mult * t2),
                                _to_float(mult * max(t1, t2)))


class InputBoundConstants(NamedTuple):
    c: float
    kappa: float
    eta_B: float  # smallest singular value of the scaled controllability matrix
    rho_B: float  # largest singular value of B


def input_bound_constants(system: LtiSystem, xi: float, sigma: float,
                       p: float) -> InputBoundConstants:
    """Plausible (c, kappa) for the input-case bound, from the system itself.

    Builds the controllability matrix [B AB ... A^{n-1}B] scaled by
    (1-rho)^-2; its smallest singular value eta_B lower-bounds the input
    excitation reaching every state direction, while rho_B = ||B||_2 and the
    attack energy p sigma^2/n cap the per-step variance. c is the ratio of
    those variance proxies clamped into (0, 1], kappa the reverse ratio
    clamped to its floor 1/(1-rho).
    """
    if system.m < 1:
        raise ValueError("needs a system with inputs (m >= 1)")
    if not system.stable:
        raise ValueError("needs a stable system (rho < 1)")
    if xi <= 0 or sigma < 0 or not 0.0 <= p < 1.0:
        raise ValueError("need xi > 0, sigma >= 0, p in [0, 1)")
    n, m = system.n, system.m
    blocks, Ak = [], np.eye(n)
    for _ in range(n):
        blocks.append(Ak @ system.B)
        Ak = system.A @ Ak
    ctrb = np.hstack(blocks) / (1.0 - system.rho) ** 2
    eta_B = float(np.linalg.svd(ctrb, compute_uv=False)[-1])
    if eta_B <= 0:
        raise ValueError("system is not controllable (controllability matrix "
                         "is rank-deficient)")
    rho_B = float(np.linalg.norm(system.B, 2))
    var_lo = eta_B ** 2 * xi ** 2 / m
    var_hi = rho_B ** 2 * xi ** 2 / m + p * sigma ** 2 / n
    c = min(1.0, var_lo / var_hi)
    kappa = max(math.sqrt(var_hi / var_lo), 1.0 / (1.0 - system.rho))
    return InputBoundConstants(c, kappa, eta_B, rho_B)


# ---------------------------------------------------------------------------
# empirical phase transitions


@dataclass(frozen=True)
class PhaseScenario:
    """Everything a recovery trial needs except the horizon and the seed."""

    system: LtiSystem
    attack: str = "bernoulli"           # or "delta-spaced"
    p: float = 0.3                      # bernoulli attack probability
    delta: int = 2                      # delta-spaced period
    first_attack: int = 0
    attack_cfg: object = None           # Stealth/GaussianAttackConfig; None -> stealth defaults
    policy: InputPolicy = field(default_factory=InputPolicy)
    estimator: str = "entry-l1"
    solver: SolverConfig = field(default_factory=SolverConfig)
    polish: bool = True
    success_level: float = 0.9
    recovery_tol: float | None = None

    def __post_init__(self):
        if self.attack not in ("bernoulli", "delta-spaced"):
            raise ValueError("attack must be 'bernoulli' or 'delta-spaced'")
        if not (_real(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError("p must be a number in [0, 1]")
        if not (_integer(self.delta) and self.delta >= 1):
            raise ValueError("delta must be an integer >= 1")
        if not (_integer(self.first_attack) and self.first_attack >= 0):
            raise ValueError("first_attack must be an integer >= 0")
        if not isinstance(self.polish, bool):
            raise ValueError("polish must be true or false")
        if not (_real(self.success_level) and 0.0 < self.success_level <= 1.0):
            raise ValueError("success_level must be a number in (0, 1]")
        object.__setattr__(self, "estimator", canonical_kind(self.estimator))
        if self.attack_cfg is None:
            object.__setattr__(self, "attack_cfg", StealthAttackConfig())
        elif not isinstance(self.attack_cfg,
                            (StealthAttackConfig, GaussianAttackConfig)):
            raise TypeError("attack_cfg must be a Stealth/GaussianAttackConfig")
        if isinstance(self.attack_cfg, GaussianAttackConfig):
            self.attack_cfg.check_states(self.system.n, "attack_model support")

    def default_recovery_tol(self) -> float:
        if self.recovery_tol is not None:
            return self.recovery_tol
        if (self.system.n == 1 and self.system.m == 0
                and self.estimator != "least-squares"):
            return 1e-9  # fit solves this case exactly
        return 1e-3 * (1.0 + float(np.linalg.norm(self.system.A)))


class PhaseRow(NamedTuple):
    T: int
    success_rate: float
    trials: int
    threshold_flag: int  # 1 on the smallest T reaching the success level


class PhaseCurve(NamedTuple):
    rows: tuple
    threshold: int | None  # smallest grid T with success_rate >= level
    success_level: float


def _run_trial(scenario: PhaseScenario, T: int, master_seed: int, index: int,
               tol: float) -> bool:
    seed = trial_seed(master_seed, T, index)
    sys_ = scenario.system
    if scenario.attack == "bernoulli":
        schedule = make_bernoulli(T, scenario.p, seed)
    else:
        schedule = make_delta_spaced(T, scenario.delta, scenario.first_attack)
    traj = simulate(sys_, scenario.policy, schedule, scenario.attack_cfg, seed)

    res = fit(traj, scenario.estimator, scenario.solver, scenario.polish)
    return estimation_error(res.A_hat, sys_.A, res.B_hat, sys_.B) <= tol


def phase_transition(scenario: PhaseScenario, T_grid, trials: int,
                     recovery_tol: float | None = None, seed: int = 0,
                     stop_after_threshold: bool = False) -> PhaseCurve:
    """Empirical recovery curve over a horizon grid.

    For each T, runs ``trials`` independent simulate -> fit trials with
    per-(T, trial) derived seeds and records the fraction whose estimation
    error is <= recovery_tol (scenario default when None); success is judged
    by that error alone, not by a certificate. The returned threshold is the
    smallest grid T whose rate reaches the scenario's success level; with
    stop_after_threshold the scan ends there (rows for larger T are omitted).
    """
    T_grid = [int(T) for T in T_grid]
    if any(b <= a for a, b in zip(T_grid, T_grid[1:])):
        raise ValueError("T_grid must be strictly increasing")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tol = recovery_tol if recovery_tol is not None else scenario.default_recovery_tol()

    rows = []
    threshold = None
    for T in T_grid:
        successes = 0
        for k in range(trials):
            try:
                successes += _run_trial(scenario, T, seed, k, tol)
            except Exception as exc:
                raise RuntimeError(f"trial {k} at T={T} failed: {exc}") from exc
        rate = successes / trials
        hit = threshold is None and rate >= scenario.success_level
        if hit:
            threshold = T
        rows.append(PhaseRow(T, rate, trials, int(hit)))
        if hit and stop_after_threshold:
            break
    return PhaseCurve(tuple(rows), threshold, scenario.success_level)
