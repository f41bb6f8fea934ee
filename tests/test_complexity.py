"""Sample-size predictions and the empirical recovery-vs-horizon scan."""

import math

import numpy as np
import pytest

from robustsysid.complexity import (
    ComplexityInputs,
    PhaseScenario,
    _run_trial,
    phase_transition,
    t_sample_auto_l1,
    t_sample_auto_l2,
    t_sample_input,
    input_bound_constants,
)
from robustsysid.estimators import SolverConfig
from robustsysid.lti import (
    InputPolicy,
    LtiSystem,
    StealthAttackConfig,
    random_stable_system,
)


def test_inputs_validation():
    with pytest.raises(ValueError):
        ComplexityInputs(n=0, p=0.3, rho=0.5)
    with pytest.raises(ValueError):
        ComplexityInputs(n=2, p=0.0, rho=0.5)
    with pytest.raises(ValueError):
        ComplexityInputs(n=2, p=0.3, rho=1.0)
    with pytest.raises(ValueError):
        ComplexityInputs(n=2, p=0.3, rho=0.5, c=1.5)
    # kappa below its structural floor 1/(1-rho)
    with pytest.raises(ValueError):
        ComplexityInputs(n=2, p=0.3, rho=0.5, kappa=1.5)
    ok = ComplexityInputs(n=2, p=0.3, rho=0.5)
    assert ok.kappa == pytest.approx(2.0)


def test_degenerate_c_closed_form():
    # at c = 1 the log(1/c) branches vanish and R = 1/(n p (1-p))
    n, p, delta = 4, 0.5, 0.05
    ci = ComplexityInputs(n=n, p=p, rho=0.5, c=1.0, delta=delta)
    R = 1.0 / (n * p * (1 - p))
    expected = n * R * (n * math.log(n * R) + math.log(1 / delta))
    assert t_sample_auto_l2(ci) == pytest.approx(expected, rel=1e-12)


def test_l2_l1_ratio_is_n():
    for n in (1, 2, 3, 5, 8):
        ci = ComplexityInputs(n=n, p=0.35, rho=0.7, c=0.6)
        assert t_sample_auto_l2(ci) / t_sample_auto_l1(ci) == pytest.approx(n, rel=1e-12)


def test_doubling_confidence_adds_log2():
    ci1 = ComplexityInputs(n=3, p=0.3, rho=0.5, c=0.8, delta=0.05)
    ci2 = ComplexityInputs(n=3, p=0.3, rho=0.5, c=0.8, delta=0.025)
    # T = n R (n log(nR) + log(1/delta)): halving delta adds n R log 2
    c = 0.8
    b1 = math.log(1 / c) / (3 * c ** 4 * 0.3 * 0.7 * math.log(2.0))
    b2 = math.log(1 / c) ** 2 / (c ** 10 * 0.7 ** 2 * 0.5 ** 3 * math.log(2.0) ** 2)
    b3 = 1.0 / (3 * 0.3 * 0.7)
    R = max(b1, b2, b3)
    assert t_sample_auto_l2(ci2) - t_sample_auto_l2(ci1) == pytest.approx(
        3 * R * math.log(2.0), rel=1e-9)


def test_monotone_in_confidence_and_rho():
    base = dict(n=3, p=0.3, c=0.5)
    deltas = [0.2, 0.1, 0.05, 0.01]
    vals = [t_sample_auto_l2(ComplexityInputs(rho=0.5, delta=d, **base)) for d in deltas]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    rhos = [0.3, 0.5, 0.7, 0.9, 0.99]
    vals = [t_sample_auto_l2(ComplexityInputs(rho=r, delta=0.05, **base)) for r in rhos]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_multiplier_scales_linearly():
    ci1 = ComplexityInputs(n=3, p=0.3, rho=0.5, c=0.7)
    ci2 = ComplexityInputs(n=3, p=0.3, rho=0.5, c=0.7, multiplier=2.5)
    assert t_sample_auto_l2(ci2) == pytest.approx(2.5 * t_sample_auto_l2(ci1), rel=1e-12)
    b1 = t_sample_input(ComplexityInputs(n=3, m=1, p=0.3, rho=0.5, c=0.7))
    b2 = t_sample_input(ComplexityInputs(n=3, m=1, p=0.3, rho=0.5, c=0.7, multiplier=2.0))
    assert b2.T1 == pytest.approx(2 * b1.T1, rel=1e-12)
    assert b2.T2 == pytest.approx(2 * b1.T2, rel=1e-12)


def test_input_bound_r2_example():
    # R2 = max{1/(np), p/(1-p)^2, m/n} = max{1/3.6, 3.75, 1/6}
    ci = ComplexityInputs(n=6, m=1, p=0.6, rho=0.9, c=0.5, delta=0.05)
    R2 = 3.75
    T2 = 6 * R2 * (1 * math.log(6 * R2) + math.log(20.0))
    res = t_sample_input(ci)
    assert res.T2 == pytest.approx(T2, rel=1e-9)
    assert res.T == max(res.T1, res.T2)


def test_input_bound_l1_drops_leading_n():
    ci = ComplexityInputs(n=5, m=2, p=0.4, rho=0.6, c=0.5)
    full = t_sample_input(ci, l1=False)
    lean = t_sample_input(ci, l1=True)
    assert full.T1 / lean.T1 == pytest.approx(5.0, rel=1e-12)
    assert full.T2 / lean.T2 == pytest.approx(5.0, rel=1e-12)


def test_input_bound_needs_inputs():
    with pytest.raises(ValueError):
        t_sample_input(ComplexityInputs(n=3, p=0.3, rho=0.5))


def test_overflow_guard_returns_inf():
    ci = ComplexityInputs(n=2, p=0.3, rho=0.5, c=1e-31)
    assert math.isinf(t_sample_auto_l2(ci))


def test_input_bound_constants_controllable():
    sysd = random_stable_system(3, 0.7, seed=2, m=1)
    tc = input_bound_constants(sysd, xi=1.0, sigma=2.0, p=0.3)
    assert 0.0 < tc.c <= 1.0
    assert tc.kappa >= 1.0 / (1.0 - sysd.rho) - 1e-9
    assert tc.eta_B > 0.0 and tc.rho_B > 0.0


def test_input_bound_constants_uncontrollable():
    A = np.diag([0.5, 0.6])
    B = np.array([[1.0], [0.0]])  # second mode is unreachable (diagonal A)
    sysd = LtiSystem(A, B)
    with pytest.raises(ValueError, match="controllable"):
        input_bound_constants(sysd, xi=1.0, sigma=1.0, p=0.2)


def test_input_bound_constants_validation():
    sysd = random_stable_system(2, 0.5, seed=1, m=1)
    with pytest.raises(ValueError):
        input_bound_constants(sysd, xi=0.0, sigma=1.0, p=0.2)
    with pytest.raises(ValueError):
        input_bound_constants(sysd, xi=1.0, sigma=1.0, p=1.0)
    auto = random_stable_system(2, 0.5, seed=1)
    with pytest.raises(ValueError):
        input_bound_constants(auto, xi=1.0, sigma=1.0, p=0.2)


# ---------------------------------------------------------------------------
# phase transition scans


def test_phase_clean_always_succeeds():
    sysd = random_stable_system(2, 0.6, seed=3, m=1)
    sc = PhaseScenario(system=sysd, attack="bernoulli", p=1e-9,
                       policy=InputPolicy("iid-gaussian", 1.0),
                       estimator="l2", solver=SolverConfig(max_iters=200))
    curve = phase_transition(sc, [10, 20], trials=5, seed=0)
    assert [r.success_rate for r in curve.rows] == [1.0, 1.0]
    assert curve.threshold == 10


def test_phase_scalar_exact_path():
    sysd = LtiSystem(np.array([[0.7]]))
    sc = PhaseScenario(system=sysd, attack="delta-spaced", delta=2,
                       attack_cfg=StealthAttackConfig(sigma=2.0))
    curve = phase_transition(sc, [3, 5, 9], trials=30, seed=1)
    assert all(r.success_rate == 1.0 for r in curve.rows)
    assert curve.rows[0].threshold_flag == 1
    assert all(r.threshold_flag == 0 for r in curve.rows[1:])


def test_phase_reproducible():
    sysd = random_stable_system(2, 0.5, seed=9)
    sc = PhaseScenario(system=sysd, attack="bernoulli", p=0.3,
                       estimator="l1", solver=SolverConfig(max_iters=400))
    a = phase_transition(sc, [8, 16], trials=8, seed=5)
    b = phase_transition(sc, [8, 16], trials=8, seed=5)
    assert a == b


def test_phase_stop_after_threshold():
    sysd = LtiSystem(np.array([[0.5]]))
    sc = PhaseScenario(system=sysd, attack="delta-spaced", delta=3)
    curve = phase_transition(sc, [4, 8, 16, 32], trials=10, seed=2,
                             stop_after_threshold=True)
    assert curve.threshold == 4
    assert len(curve.rows) == 1  # scan stops once the level is hit


def test_phase_grid_validation():
    sysd = LtiSystem(np.array([[0.5]]))
    sc = PhaseScenario(system=sysd)
    with pytest.raises(ValueError):
        phase_transition(sc, [10, 10], trials=2)
    with pytest.raises(ValueError):
        phase_transition(sc, [10, 5], trials=2)
    with pytest.raises(ValueError):
        phase_transition(sc, [10, 20], trials=0)


def test_phase_ls_estimator_fails_under_attack():
    sysd = LtiSystem(np.array([[0.8]]))
    sc = PhaseScenario(system=sysd, attack="delta-spaced", delta=2,
                       attack_cfg=StealthAttackConfig(sigma=3.0),
                       estimator="ls", recovery_tol=1e-6)
    curve = phase_transition(sc, [20, 40], trials=10, seed=3)
    assert all(r.success_rate == 0.0 for r in curve.rows)
    assert curve.threshold is None


@pytest.mark.parametrize("bad", [
    {"p": 2}, {"p": -0.1}, {"p": float("nan")}, {"p": "0.3"},
    {"delta": 0}, {"delta": 2.5}, {"delta": True},
    {"first_attack": -1}, {"first_attack": 1.0},
    {"polish": "no"}, {"polish": 1}, {"success_level": "0.9"},
], ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()))
def test_phase_scenario_rejects_bad_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        PhaseScenario(system=LtiSystem(np.array([[0.5]])), **bad)


@pytest.mark.parametrize("p, index", [(0.7, 6), (0.7, 10), (0.5, 4)])
def test_phase_acceptance_fault_trials_recover(p, index):
    # trials of the acceptance scenario (seed 123, T = 130) whose truth is
    # the certified minimizer; a 3000-step subgradient + polish stopped
    # 5e-4 to 1e-3 above its objective there
    sc = PhaseScenario(system=random_stable_system(3, 0.7, seed=55), p=p,
                       estimator="group-l2",
                       attack_cfg=StealthAttackConfig(sigma=2.0),
                       solver=SolverConfig(max_iters=3000))
    assert _run_trial(sc, 130, 123, index, sc.default_recovery_tol())
