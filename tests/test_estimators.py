"""Estimator tests: closed forms, the exact scalar solver, subgradient descent
and iteratively reweighted least squares."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustsysid import estimators
from robustsysid.certificates import kkt_certificate
from robustsysid.estimators import (
    EstimationResult,
    SolverConfig,
    estimation_error,
    fit,
    least_squares,
    objective,
    polish_estimate,
    residual_matrix,
    solve_irls,
    solve_scalar_exact,
    solve_subgradient,
)
from robustsysid.lti import (
    AttackSchedule,
    InputPolicy,
    LtiSystem,
    StealthAttackConfig,
    Trajectory,
    make_bernoulli,
    make_delta_spaced,
    random_stable_system,
    simulate,
)


def _scalar_traj(xs, attacked=()):
    xs = np.asarray(xs, dtype=float).reshape(-1, 1)
    T = xs.shape[0] - 1
    sched = AttackSchedule(T, tuple(attacked))
    D = np.zeros((T, 1))
    return Trajectory(xs, np.zeros((T, 0)), D, sched)


# x = (0, 0, 4, 2) under a = 0.5 with one attack at t=1 (d=4)
TOY = _scalar_traj([0.0, 0.0, 4.0, 2.0], attacked=(1,))

# x = (0, 4, 2, 4) under a = 0.5 with attacks at t=0 (d=4) and t=2 (d=3):
# more corrupt rows than clean ones, and the attacked regressors are nonzero
TOY2 = _scalar_traj([0.0, 4.0, 2.0, 4.0], attacked=(0, 2))


def test_least_squares_toy():
    A, B = least_squares(TOY)
    assert B is None
    # the attacked transition has a zero regressor, so LS still lands on 0.5
    assert A[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_least_squares_biased_when_regressor_attacked():
    A, _ = least_squares(TOY2)
    # (0*4 + 4*2 + 2*4) / (0 + 16 + 4) = 16/20
    assert A[0, 0] == pytest.approx(0.8, abs=1e-12)


def test_least_squares_exact_on_clean_excited_data():
    sysd = random_stable_system(2, 0.7, seed=21, m=2)
    traj = simulate(sysd, InputPolicy("iid-gaussian", 1.0), AttackSchedule(200, ()), None, seed=21)
    A, B = least_squares(traj)
    assert np.linalg.norm(A - sysd.A) <= 1e-8
    assert np.linalg.norm(B - sysd.B) <= 1e-8


def test_least_squares_all_zero_states():
    traj = _scalar_traj([0.0, 0.0, 0.0])
    A, _ = least_squares(traj)
    assert A[0, 0] == 0.0  # minimum-norm solution of a degenerate regressor


def test_scalar_exact_toy():
    res = solve_scalar_exact(TOY)
    assert res.a_hat == pytest.approx(0.5, abs=0.0)
    assert res.objective == pytest.approx(4.0, abs=1e-12)
    assert not res.degenerate


def test_scalar_exact_recovers_with_attacked_majority():
    res = solve_scalar_exact(TOY2)
    assert res.a_hat == pytest.approx(0.5, abs=0.0)
    assert res.objective == pytest.approx(7.0, abs=1e-12)


def test_scalar_exact_degenerate():
    res = solve_scalar_exact(_scalar_traj([0.0, 0.0, 0.0]))
    assert res.a_hat == 0.0
    assert res.degenerate


def test_scalar_exact_clean_recovery():
    for a in (-0.9, 0.3, 0.75):
        sysd = LtiSystem(np.array([[a]]))
        traj = simulate(sysd, InputPolicy(), make_delta_spaced(20, 2, 0),
                        StealthAttackConfig(sigma=2.0), seed=5)
        res = solve_scalar_exact(traj)
        assert res.a_hat == pytest.approx(a, abs=1e-9)


def _scalar_objective(traj, a):
    x = traj.states[:, 0]
    return float(np.abs(x[1:] - a * x[:-1]).sum())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_scalar_exact_matches_brute_grid(seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(3, 12))
    xs = np.concatenate([[0.0], rng.normal(0, 3, T)])
    xs[rng.random(T + 1) < 0.3] = 0.0  # sprinkle exact zeros
    traj = _scalar_traj(xs)
    res = solve_scalar_exact(traj)
    grid = np.arange(-2.0, 2.0001, 1e-4)
    vals = np.abs(xs[1:, None] - grid[None, :] * xs[:-1, None]).sum(axis=0)
    best = vals.min()
    # exact solver is optimal to grid accuracy
    assert _scalar_objective(traj, res.a_hat) <= best + 1e-9
    if not res.degenerate and np.any(xs[:-1] != 0.0):
        # ties break toward the smallest optimal breakpoint
        cands = xs[1:][xs[:-1] != 0.0] / xs[:-1][xs[:-1] != 0.0]
        opt = [c for c in cands if _scalar_objective(traj, c)
               <= _scalar_objective(traj, res.a_hat) + 1e-12]
        if opt:
            assert res.a_hat <= min(opt) + 1e-12


def test_objective_toy_values():
    assert objective(TOY, np.array([[0.5]])) == pytest.approx(4.0)
    assert objective(TOY, np.array([[0.4]])) > 4.0
    with pytest.raises(ValueError):
        objective(TOY, np.array([[0.5]]), kind="least-squares")


def test_objective_kind_equality_scalar():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal()
        A = np.array([[a]])
        assert objective(TOY2, A, kind="group-l2") == pytest.approx(
            objective(TOY2, A, kind="entry-l1"), rel=1e-15)


def test_objective_homogeneity():
    sysd = random_stable_system(3, 0.6, seed=2)
    traj = simulate(sysd, InputPolicy(), make_delta_spaced(30, 3, 1),
                    StealthAttackConfig(sigma=1.0), seed=2)
    A = np.full((3, 3), 0.1)
    c = 7.0
    scaled = Trajectory(c * traj.states, traj.inputs, c * traj.disturbances,
                        traj.schedule)
    for kind in ("group-l2", "entry-l1"):
        assert objective(scaled, A, kind=kind) == pytest.approx(
            c * objective(traj, A, kind=kind), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["group-l2", "entry-l1"]))
def test_objective_convexity(seed, kind):
    rng = np.random.default_rng(seed)
    sysd = random_stable_system(2, 0.5, seed=seed)
    traj = simulate(sysd, InputPolicy(), make_delta_spaced(15, 2, 0),
                    StealthAttackConfig(sigma=2.0), seed=seed)
    A1 = rng.normal(0, 1, (2, 2))
    A2 = rng.normal(0, 1, (2, 2))
    mid = objective(traj, 0.5 * (A1 + A2), kind=kind)
    avg = 0.5 * (objective(traj, A1, kind=kind) + objective(traj, A2, kind=kind))
    assert mid <= avg + 1e-10 * (1.0 + avg)


def test_residual_matrix_shape_check():
    with pytest.raises(ValueError):
        residual_matrix(TOY, np.eye(2))


def test_estimation_error_joint():
    A1, A2 = np.zeros((2, 2)), np.eye(2)
    B1, B2 = np.zeros((2, 1)), np.ones((2, 1))
    assert estimation_error(A1, A1) == 0.0
    assert estimation_error(A1, A2) == pytest.approx(np.sqrt(2.0))
    joint = estimation_error(A1, A2, B1, B2)
    assert joint == pytest.approx(2.0)
    # a zero-column B (autonomous system) counts as absent
    empty = np.zeros((2, 0))
    assert estimation_error(A1, A2, empty, empty) == estimation_error(A1, A2)
    assert estimation_error(A1, A2, None, empty) == estimation_error(A1, A2)
    with pytest.raises(ValueError):
        estimation_error(A1, A2, B1, None)


def test_subgradient_clean_data_zero_steps():
    sysd = random_stable_system(2, 0.6, seed=9, m=2)
    traj = simulate(sysd, InputPolicy("iid-gaussian", 1.0), AttackSchedule(60, ()),
                    None, seed=9)
    res = solve_subgradient(traj, "group-l2")
    assert res.iterations_used == 0
    assert res.stop_reason == "tolerance"
    assert res.objective <= 1e-10
    assert np.linalg.norm(res.A_hat - sysd.A) <= 1e-8
    assert np.linalg.norm(res.B_hat - sysd.B) <= 1e-8


def test_subgradient_matches_scalar_exact():
    sysd = LtiSystem(np.array([[0.7]]))
    traj = simulate(sysd, InputPolicy(), make_delta_spaced(30, 3, 0),
                    StealthAttackConfig(sigma=2.0), seed=13)
    exact = solve_scalar_exact(traj)
    res = solve_subgradient(traj, "entry-l1", SolverConfig(max_iters=100_000))
    assert res.objective - exact.objective <= 1e-6


def test_subgradient_trace_non_increasing():
    sysd = random_stable_system(3, 0.6, seed=4)
    traj = simulate(sysd, InputPolicy(), make_delta_spaced(60, 2, 0),
                    StealthAttackConfig(sigma=2.0), seed=4)
    res = solve_subgradient(traj, "group-l2", SolverConfig(max_iters=3000))
    vals = [v for _, v in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    ks = [k for k, _ in res.trace]
    assert ks[0] == 0 and ks[-1] == res.iterations_used


def test_result_objective_recomputes():
    sysd = random_stable_system(2, 0.5, seed=6)
    traj = simulate(sysd, InputPolicy(), make_delta_spaced(40, 2, 1),
                    StealthAttackConfig(sigma=1.5), seed=6)
    for kind in ("group-l2", "entry-l1"):
        res = solve_subgradient(traj, kind, SolverConfig(max_iters=500))
        again = objective(traj, res.A_hat, res.B_hat, kind=kind)
        assert res.objective == pytest.approx(again, rel=1e-10)
        # residuals field agrees with the recomputed residual matrix
        assert np.allclose(res.residuals, residual_matrix(traj, res.A_hat, res.B_hat))


def test_subgradient_divergence_names_iteration():
    sysd = random_stable_system(2, 0.5, seed=3)
    traj = simulate(sysd, InputPolicy(), make_delta_spaced(30, 2, 0),
                    StealthAttackConfig(sigma=1.0), seed=3)
    with pytest.raises(RuntimeError, match=r"iteration \d+"):
        solve_subgradient(traj, "group-l2", SolverConfig(max_iters=50),
                          eta0=1e300)


@pytest.mark.parametrize("eta0", [0.0, -1.0, math.nan])
def test_subgradient_rejects_non_positive_eta0(eta0):
    with pytest.raises(ValueError, match="eta0"):
        solve_subgradient(TOY, "group-l2", eta0=eta0)


def test_subgradient_rejects_non_finite_start():
    # finite data whose group-l2 objective overflows: ||r_1||^2 = 1e600
    traj = _scalar_traj([0.0, 1e300, 1.0])
    with pytest.raises(RuntimeError, match="not finite at the starting point"):
        solve_subgradient(traj, "group-l2")


def test_subgradient_rejects_overflowing_stop_tolerance():
    # the entry-l1 objective at the start is 1e300, but the default stop
    # tolerance 1e-9 * (1 + sum ||x_{t+1}||_2) overflows, with no warning
    traj = _scalar_traj([0.0, 1e300, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="stop tolerance is not finite"):
            solve_subgradient(traj, "entry-l1")


@pytest.mark.parametrize("kind", ["ls", "least-squares"])
def test_fit_least_squares_is_closed_form(kind):
    sysd = random_stable_system(2, 0.6, seed=3, m=1)
    traj = simulate(sysd, InputPolicy("iid-gaussian", 1.0),
                    make_delta_spaced(40, 3, 0), StealthAttackConfig(), seed=3)
    A, B = least_squares(traj)
    res = fit(traj, kind)
    assert np.array_equal(res.A_hat, A) and np.array_equal(res.B_hat, B)
    assert math.isnan(res.objective)
    assert res.iterations_used == 0
    assert res.stop_reason == "closed-form"
    assert res.kind == "least-squares"
    assert np.array_equal(res.residuals, residual_matrix(traj, A, B))


@pytest.mark.parametrize("kind", ["l1", "l2"])
def test_fit_scalar_is_exact(kind):
    sysd = LtiSystem(np.array([[0.7]]))
    traj = simulate(sysd, InputPolicy(), make_delta_spaced(30, 3, 0),
                    StealthAttackConfig(sigma=2.0), seed=13)
    for data in (traj, TOY2):
        exact = solve_scalar_exact(data)
        res = fit(data, kind, SolverConfig(max_iters=10))
        assert res.A_hat.shape == (1, 1) and res.A_hat[0, 0] == exact.a_hat
        assert res.B_hat is None
        assert res.objective == exact.objective
        assert res.iterations_used == 0
        assert res.stop_reason == "exact"
    assert abs(fit(traj, kind).A_hat[0, 0] - 0.7) <= 1e-12


def test_subgradient_rejects_ls_kind():
    with pytest.raises(ValueError):
        solve_subgradient(TOY, "least-squares")


def test_polish_reaches_exact_minimum():
    sysd = random_stable_system(3, 0.6, seed=31)
    traj = simulate(sysd, InputPolicy(), make_delta_spaced(120, 3, 0),
                    StealthAttackConfig(sigma=3.0), seed=31)
    rough = solve_subgradient(traj, "group-l2", SolverConfig(max_iters=400))
    pol = polish_estimate(traj, rough.A_hat, rough.B_hat, "group-l2")
    assert pol is not None
    assert pol.objective <= rough.objective
    assert pol.stop_reason == "polish-certified"
    assert np.linalg.norm(pol.A_hat - sysd.A) <= 1e-9


def test_polish_none_when_already_optimal():
    res = solve_scalar_exact(TOY)
    pol = polish_estimate(TOY, np.array([[res.a_hat]]), kind="entry-l1")
    # nothing strictly below the optimum exists
    assert pol is None or pol.objective >= res.objective - 1e-12


# ---------------------------------------------------------------------------
# iteratively reweighted least squares


def _attacked_traj(T=120, p=0.5, seed=7):
    sysd = random_stable_system(3, 0.7, seed=55)
    traj = simulate(sysd, InputPolicy(), make_bernoulli(T, p, seed),
                    StealthAttackConfig(sigma=2.0), seed)
    return sysd, traj


@pytest.mark.parametrize("kind", ["group-l2", "entry-l1"])
def test_irls_converges_to_the_truth(kind):
    sysd, traj = _attacked_traj()
    assert kkt_certificate(traj, sysd.A, None, kind).verdict == "optimal"
    res = solve_irls(traj, kind, SolverConfig(max_iters=3000))
    assert res.stop_reason == "converged"
    assert 0 < res.iterations_used < 3000
    assert np.linalg.norm(res.A_hat - sysd.A) <= 1e-9
    assert res.objective == pytest.approx(
        objective(traj, res.A_hat, kind=kind), rel=1e-12)
    assert np.allclose(res.residuals, residual_matrix(traj, res.A_hat))
    vals = [v for _, v in res.trace]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert res.trace[0][0] == 0 and res.trace[-1][0] == res.iterations_used


def test_irls_clean_data_zero_steps():
    sysd = random_stable_system(2, 0.6, seed=9, m=2)
    traj = simulate(sysd, InputPolicy("iid-gaussian", 1.0),
                    AttackSchedule(60, ()), None, seed=9)
    res = solve_irls(traj, "entry-l1")
    assert res.iterations_used == 0 and res.stop_reason == "tolerance"
    assert np.linalg.norm(res.B_hat - sysd.B) <= 1e-8


def test_irls_theta0_and_max_iters():
    sysd, traj = _attacked_traj()
    A_ls, _ = least_squares(traj)
    capped = solve_irls(traj, "group-l2", SolverConfig(max_iters=3))
    assert capped.iterations_used == 3 and capped.stop_reason == "max-iters"
    assert capped.objective < objective(traj, A_ls)
    again = solve_irls(traj, "group-l2", theta0=capped.theta())
    assert np.linalg.norm(again.A_hat - sysd.A) <= 1e-9
    with pytest.raises(ValueError):
        solve_irls(traj, "group-l2", theta0=np.zeros((5, 2)))
    with pytest.raises(ValueError):
        solve_irls(traj, "least-squares")


@pytest.mark.parametrize("key, value", [("eta0", 1.0), ("warm_start", "zero"),
                                        ("step_offset", 3)],
                         ids=["eta0", "warm_start", "step_offset"])
def test_solver_config_rejects_retired_keys(key, value):
    # the subgradient's step knobs and zero start are not solver settings
    with pytest.raises(TypeError, match=key):
        SolverConfig(**{key: value})


def test_irls_rejects_non_finite_start():
    traj = _scalar_traj([0.0, 1e300, 1.0])
    with pytest.raises(RuntimeError, match="not finite at the starting point"):
        solve_irls(traj, "group-l2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="stop tolerance is not finite"):
            solve_irls(traj, "entry-l1")


@pytest.mark.parametrize("kind", ["group-l2", "entry-l1"])
@pytest.mark.parametrize("fault, message", [
    ("raise", "iteration 1: SVD did not converge"),
    ("nan", "diverged at iteration 1"),
])
def test_irls_step_failures_raise_runtime_error(monkeypatch, kind, fault,
                                                message):
    # every step's factorization fails or returns non-finite factors: the
    # lstsq of a group-l2 step (every lstsq after the least-squares start)
    # or the batched QR of an entry-l1 step
    _, traj = _attacked_traj(T=40)
    name = "lstsq" if kind == "group-l2" else "qr"
    original = getattr(np.linalg, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        out = original(*args, **kwargs)
        if name == "lstsq" and len(calls) == 1:
            return out  # the least-squares start
        if fault == "raise":
            raise np.linalg.LinAlgError("SVD did not converge")
        if name == "qr":
            return np.full_like(out, np.nan)
        return (np.full_like(out[0], np.nan), *out[1:])

    monkeypatch.setattr(np.linalg, name, patched)
    with pytest.raises(RuntimeError, match=message):
        solve_irls(traj, kind)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3, 6]), m=st.integers(0, 1),
       T=st.integers(15, 300), seed=st.integers(0, 10_000),
       log_eps=st.floats(-8.0, 0.0))
def test_l1_step_matches_per_column_lstsq(n, m, T, seed, log_eps):
    # the batched entry-l1 step against n separate lstsq fits on the same
    # IRLS weights, eps from the median residual down to 1e-8 of it
    sysd = random_stable_system(n, 0.7, seed=seed, m=m)
    policy = InputPolicy("iid-gaussian", 1.0) if m else InputPolicy()
    traj = simulate(sysd, policy, make_bernoulli(T, 0.5, seed),
                    StealthAttackConfig(sigma=2.0), seed)
    Z, Y = estimators._regressors(traj)
    R = np.abs(Y - Z @ np.linalg.lstsq(Z, Y, rcond=None)[0])
    w = 1.0 / np.sqrt(np.maximum(R, float(np.median(R)) * 10.0 ** log_eps))
    buf = np.empty((n, T, Z.shape[1] + 1))
    got = estimators._l1_step(Z, Y, w, buf, 1)
    want = np.column_stack([
        np.linalg.lstsq(Z * w[:, [j]], Y[:, j] * w[:, j], rcond=None)[0]
        for j in range(n)])
    assert got.shape == want.shape
    assert np.all(np.linalg.norm(got - want, axis=0)
                  <= 1e-12 * np.linalg.norm(want, axis=0))


def test_l1_step_rank_deficient_takes_minimum_norm_fallback(monkeypatch):
    # an input column that is identically zero leaves R singular: every
    # step fits each column by lstsq, whose minimum-norm solution keeps B at 0
    sysd = random_stable_system(2, 0.6, seed=3, m=1)
    traj = simulate(sysd, InputPolicy(), make_bernoulli(60, 0.4, 3),
                    StealthAttackConfig(sigma=2.0), 3)
    assert traj.m == 1 and not traj.inputs.any()
    lstsq = estimators._lstsq
    calls = []

    def counted(*args):
        calls.append(None)
        return lstsq(*args)

    monkeypatch.setattr(estimators, "_lstsq", counted)
    res = solve_irls(traj, "entry-l1")
    assert res.iterations_used > 0
    assert len(calls) == 1 + traj.n * res.iterations_used
    assert np.all(res.B_hat == 0.0)
    assert np.linalg.norm(res.A_hat - sysd.A) <= 1e-9


def test_irls_eps_starts_above_floor_when_most_rows_fit():
    # the truth fits more than half the rows exactly, so the median residual
    # is 0; eps starts at the mean residual and IRLS from the truth reaches
    # the cold fit's certified minimum instead of stalling at once
    sysd = random_stable_system(2, 0.5, seed=2)
    traj = simulate(sysd, InputPolicy(), make_bernoulli(15, 0.25, 2),
                    StealthAttackConfig(sigma=2.0), 2)
    cold = fit(traj, "group-l2")
    assert cold.stop_reason == "polish-certified"
    assert cold.objective == pytest.approx(7.014503, abs=1e-6)
    warm = fit(traj, "group-l2", theta0=sysd.A.T)
    assert warm.stop_reason != "warm-certified" and warm.iterations_used > 5
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 3), m=st.integers(0, 1), rho=st.floats(0.3, 0.8),
       p=st.floats(0.1, 0.7), T=st.integers(15, 80),
       seed=st.integers(0, 10_000),
       kind=st.sampled_from(["group-l2", "entry-l1"]))
def test_irls_never_above_subgradient_and_certifies(n, m, rho, p, T, seed,
                                                     kind):
    # IRLS + polish against the reference solver, subgradient + polish, on
    # the same data: never a higher objective, and a certified minimizer
    # whenever the truth certifies optimal
    sysd = random_stable_system(n, rho, seed=seed, m=m)
    policy = InputPolicy("iid-gaussian", 1.0) if m else InputPolicy()
    traj = simulate(sysd, policy, make_bernoulli(T, p, seed),
                    StealthAttackConfig(sigma=2.0), seed)
    irls = fit(traj, kind, SolverConfig(max_iters=3000))
    sub = solve_subgradient(traj, kind, SolverConfig(max_iters=3000))
    pol = polish_estimate(traj, sub.A_hat, sub.B_hat, kind)
    sub_obj = sub.objective if pol is None else min(sub.objective,
                                                    pol.objective)
    assert irls.objective <= sub_obj * (1.0 + 1e-9)
    B = sysd.B if m else None
    if kkt_certificate(traj, sysd.A, B, kind).verdict == "optimal":
        cert = kkt_certificate(traj, irls.A_hat, irls.B_hat, kind)
        assert cert.verdict == "optimal", irls.stop_reason


# ---------------------------------------------------------------------------
# warm starts that certify optimal skip IRLS


@pytest.mark.parametrize("kind", ["group-l2", "entry-l1"])
def test_fit_warm_start_certified_skips_irls(monkeypatch, kind):
    _, traj = _attacked_traj(T=200)
    res = fit(traj.prefix(150), kind)
    theta0 = res.theta()

    def no_irls(*args, **kwargs):
        raise AssertionError("IRLS ran from a certified warm start")

    monkeypatch.setattr(estimators, "solve_irls", no_irls)
    warm = fit(traj, kind, theta0=theta0)
    assert warm.stop_reason == "warm-certified"
    assert warm.iterations_used == 0 and warm.trace == ((0, warm.objective),)
    assert np.array_equal(warm.A_hat, theta0.T)
    assert warm.objective == objective(traj, warm.A_hat, kind=kind)
    assert kkt_certificate(traj, warm.A_hat, None, kind).verdict == "optimal"


@pytest.mark.parametrize("kind", ["group-l2", "entry-l1"])
def test_fit_uncertified_warm_start_runs_irls(kind):
    # least squares is not optimal here, so the least-squares warm start
    # runs the same IRLS and polish as the cold fit
    _, traj = _attacked_traj()
    A_ls, _ = least_squares(traj)
    assert kkt_certificate(traj, A_ls, None, kind).verdict != "optimal"
    warm = fit(traj, kind, theta0=A_ls.T)
    cold = fit(traj, kind)
    assert warm.stop_reason == cold.stop_reason != "warm-certified"
    assert warm.iterations_used == cold.iterations_used > 0
    assert np.array_equal(warm.A_hat, cold.A_hat)
    assert warm.objective == cold.objective and warm.trace == cold.trace


@pytest.mark.parametrize("kind", ["group-l2", "entry-l1"])
def test_fit_rejects_bad_warm_start(kind):
    sysd, traj = _attacked_traj(T=60)
    with pytest.raises(ValueError, match="theta0 must have shape"):
        fit(traj, kind, theta0=np.zeros((5, 3)))
    for bad in (math.nan, math.inf):
        theta0 = sysd.A.T.copy()
        theta0[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="not finite at the starting"):
                fit(traj, kind, theta0=theta0)


def test_fit_does_not_certify_an_overflowing_warm_start():
    # entry-l1 residuals of 1e200 keep the objective finite, but their
    # squared row norms overflow and kkt_certificate would read every row as
    # clean and call the start optimal; IRLS runs from it instead
    sysd, traj = _attacked_traj()
    theta0 = sysd.A.T.copy()
    theta0[0, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit(traj, "entry-l1", theta0=theta0)
    assert res.stop_reason != "warm-certified" and res.iterations_used > 0
    assert np.linalg.norm(res.A_hat - sysd.A) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 3), m=st.integers(0, 1), rho=st.floats(0.3, 0.8),
       p=st.floats(0.1, 0.7), T=st.integers(15, 80),
       seed=st.integers(0, 10_000),
       kind=st.sampled_from(["group-l2", "entry-l1"]),
       start=st.sampled_from(["truth", "least-squares", "perturbed"]))
def test_warm_fit_never_above_cold_fit(n, m, rho, p, T, seed, kind, start):
    # a "warm-certified" fit is a certified minimizer, so it ends no higher
    # than the cold fit; any other warm fit is IRLS from the warm start and
    # ends no higher than that start. (Warm and cold IRLS runs are not
    # ordered: IRLS can stop short of the minimum from either start.)
    sysd = random_stable_system(n, rho, seed=seed, m=m)
    policy = InputPolicy("iid-gaussian", 1.0) if m else InputPolicy()
    traj = simulate(sysd, policy, make_bernoulli(T, p, seed),
                    StealthAttackConfig(sigma=2.0), seed)
    if start == "least-squares":
        A0, B0 = least_squares(traj)
    else:
        A0, B0 = sysd.A, sysd.B
        if start == "perturbed":
            rng = np.random.default_rng(seed)
            A0 = A0 + 1e-3 * rng.standard_normal(A0.shape)
            B0 = B0 + 1e-3 * rng.standard_normal(B0.shape)
    theta0 = np.vstack([A0.T, B0.T]) if m else A0.T
    cold = fit(traj, kind, SolverConfig(max_iters=3000))
    warm = fit(traj, kind, SolverConfig(max_iters=3000), theta0=theta0)
    if warm.stop_reason == "warm-certified":
        cert = kkt_certificate(traj, warm.A_hat, warm.B_hat, kind)
        assert cert.verdict == "optimal"
        assert warm.objective <= cold.objective + 1e-9 * (1.0 + cold.objective)
    else:
        start_obj = objective(traj, A0, B0 if m else None, kind)
        assert warm.objective <= start_obj + 1e-9 * (1.0 + start_obj)
