"""Simulation-layer tests: systems, schedules, attack samplers, round-trips."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustsysid.lti import (
    AttackSchedule,
    GaussianAttackConfig,
    InputPolicy,
    LtiSystem,
    SimulationOverflowError,
    StealthAttackConfig,
    Trajectory,
    discretize_euler,
    hovorka_continuous,
    load_default_hovorka_params,
    load_system_json,
    load_trajectory_csv,
    make_bernoulli,
    make_delta_spaced,
    random_stable_system,
    replay_residual,
    sample_stealth_attack,
    save_system_json,
    save_trajectory_csv,
    simulate,
    spectral_radius,
)
from robustsysid.rng import substream


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.9, 0.5])) == pytest.approx(0.9, abs=1e-12)


def test_spectral_radius_rotation():
    # complex eigenvalues 0.8 * exp(+-i theta)
    th = 0.7
    R = 0.8 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert spectral_radius(R) == pytest.approx(0.8, abs=1e-12)


def test_system_flags():
    s = LtiSystem(np.array([[0.5]]))
    assert s.stable and s.autonomous and s.n == 1 and s.m == 0
    s2 = LtiSystem(np.array([[1.5]]), np.array([[1.0]]))
    assert not s2.stable and s2.m == 1


def test_discretize_euler():
    n = 3
    z = discretize_euler(np.zeros((n, n)), dt=0.5)
    assert np.array_equal(z.A, np.eye(n))
    s = discretize_euler(np.eye(n), np.ones((n, 1)), dt=0.5)
    assert np.allclose(s.A, 1.5 * np.eye(n))
    assert np.allclose(s.B, 0.5 * np.ones((n, 1)))


def test_hovorka_structure():
    Ac, Bc, labels = hovorka_continuous()
    p = load_default_hovorka_params()
    assert labels == ("x1", "x2", "x3", "S1", "S2", "I")
    assert Bc.shape == (6, 0)
    t = p["t_max_I"]
    assert Ac[0, 0] == -p["k_a1"] and Ac[0, 5] == -p["k_b1"]
    assert Ac[1, 1] == -p["k_a2"] and Ac[1, 5] == -p["k_b2"]
    assert Ac[2, 2] == -p["k_a3"] and Ac[2, 5] == -p["k_b3"]
    assert Ac[3, 3] == -1.0 / t
    assert Ac[4, 3] == 1.0 / t and Ac[4, 4] == -1.0 / t
    assert Ac[5, 4] == 1.0 / (t * p["V_I"]) and Ac[5, 5] == -p["k_e"]
    disc = discretize_euler(Ac, Bc, dt=0.5)
    assert disc.stable
    assert 0.99 < disc.rho < 1.0


def test_delta_spaced_schedule():
    s = make_delta_spaced(7, 2, 1)
    assert s.times == (1, 3, 5)
    assert s.delta == 2
    assert s.clean_times() == (0, 2, 4, 6)
    mask = s.mask()
    assert mask.dtype == bool and mask.sum() == 3
    with pytest.raises(ValueError):
        make_delta_spaced(7, 1, 0)
    with pytest.raises(ValueError):
        make_delta_spaced(7, 3, 3)


def test_bernoulli_schedule_extremes():
    assert make_bernoulli(50, 0.0, seed=1).times == ()
    assert make_bernoulli(50, 1.0, seed=1).times == tuple(range(50))
    T = 200_000
    frac = len(make_bernoulli(T, 0.5, seed=3).times) / T
    assert 0.49 < frac < 0.51


def test_bernoulli_deterministic():
    assert make_bernoulli(100, 0.3, seed=9).times == make_bernoulli(100, 0.3, seed=9).times
    assert make_bernoulli(100, 0.3, seed=9).times != make_bernoulli(100, 0.3, seed=10).times


@given(st.integers(2, 6), st.integers(0, 5), st.integers(10, 60))
def test_delta_spaced_gaps(delta, first, T):
    if first >= delta:
        first = first % delta
    s = make_delta_spaced(T, delta, first)
    gaps = np.diff(s.times)
    assert np.all(gaps == delta)
    assert all(0 <= t < T for t in s.times)


def _toy_system():
    A = np.array([[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]])
    return LtiSystem(A)


def test_simulate_replay_and_sparsity():
    sysd = _toy_system()
    sched = make_bernoulli(120, 0.3, seed=4)
    traj = simulate(sysd, InputPolicy(), sched, StealthAttackConfig(sigma=2.0), seed=4)
    assert traj.states.shape == (121, 3)
    assert np.all(traj.states[0] == 0.0)
    # disturbance support is exactly the schedule
    nz = np.any(traj.disturbances != 0.0, axis=1)
    assert np.array_equal(np.flatnonzero(nz), np.array(sched.times))
    peak = np.abs(traj.states).max()
    assert replay_residual(traj, sysd) <= 1e-12 * (1.0 + peak)


def test_simulate_deterministic():
    sysd = _toy_system()
    sched = make_bernoulli(60, 0.4, seed=2)
    cfg = GaussianAttackConfig(variance=5.0)
    a = simulate(sysd, InputPolicy(), sched, cfg, seed=2)
    b = simulate(sysd, InputPolicy(), sched, cfg, seed=2)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.disturbances, b.disturbances)
    c = simulate(sysd, InputPolicy(), sched, cfg, seed=3)
    assert not np.array_equal(a.disturbances, c.disturbances)


def test_simulate_with_inputs_replay():
    sysd = random_stable_system(2, 0.6, seed=8, m=2)
    sched = make_bernoulli(80, 0.2, seed=8)
    pol = InputPolicy("iid-gaussian", xi=1.5)
    traj = simulate(sysd, pol, sched, StealthAttackConfig(), seed=8)
    assert traj.inputs.shape == (80, 2)
    assert traj.inputs.std() > 0
    peak = np.abs(traj.states).max()
    assert replay_residual(traj, sysd) <= 1e-12 * (1.0 + peak)


def test_gaussian_attack_support():
    sysd = LtiSystem(discretize_euler(*hovorka_continuous()[:2], dt=0.5).A)
    cfg = GaussianAttackConfig(variance=10.0, support=(3, 5))
    sched = make_bernoulli(100, 0.5, seed=6)
    traj = simulate(sysd, InputPolicy(), sched, cfg, seed=6)
    D = traj.disturbances
    off = [c for c in range(6) if c not in (3, 5)]
    assert np.all(D[:, off] == 0.0)
    assert np.any(D[np.array(sched.times)][:, [3, 5]] != 0.0)


@pytest.mark.parametrize("bad", [
    {"support": (-1,)}, {"support": (0.5,)}, {"support": 1},
    {"history_coupling": "x"},
], ids=["support-negative", "support-fraction", "support-int",
        "coupling-string"])
def test_gaussian_attack_rejects_bad_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        GaussianAttackConfig(**bad)


def test_gaussian_attack_support_beyond_states():
    sysd = LtiSystem(np.diag([0.5, 0.4]))
    cfg = GaussianAttackConfig(support=(0, 2))
    with pytest.raises(ValueError, match="support index 2 .* 2 states"):
        simulate(sysd, InputPolicy(), make_bernoulli(10, 0.5, seed=1), cfg, 1)


def test_stealth_direction_isotropy():
    # empirical mean ~ 0 and covariance ~ I/n for the unit directions
    rng = substream(123, "directions")
    n, N = 3, 100_000
    draws = np.empty((N, n))
    for i in range(N):
        d = sample_stealth_attack(StealthAttackConfig(sigma=1.0), n, rng=rng, length_rng=rng)
        draws[i] = d / np.linalg.norm(d)
    assert np.linalg.norm(draws.mean(axis=0)) < 6.0 / np.sqrt(N)
    cov = draws.T @ draws / N
    assert np.abs(cov - np.eye(n) / n).max() < 0.01


def test_stealth_length_laws_scale():
    n, N = 2, 40_000
    for law in ("gaussian", "uniform-bounded", "rademacher-scaled"):
        rng = substream(5, "lengths", law)
        cfg = StealthAttackConfig(sigma=2.0, length_law=law)
        vals = np.array([
            np.linalg.norm(sample_stealth_attack(cfg, n, rng=rng, length_rng=rng))
            for _ in range(N)
        ])
        # E ||d||^2 = sigma^2 for every law
        assert np.sqrt((vals ** 2).mean()) == pytest.approx(2.0, rel=0.05)
        if law == "uniform-bounded":
            assert vals.max() <= 2.0 * np.sqrt(3.0) + 1e-12


def test_history_coupling_conditional_mean_zero():
    from robustsysid.lti import _next_length

    cfg = StealthAttackConfig(sigma=1.0, history_coupling=0.8)
    rng = substream(7, "lengths")
    N = 60_000
    prev = 3.0  # large fixed history
    lens = np.array([_next_length(cfg, prev, rng) for _ in range(N)])
    # fresh sign kills the conditional mean but keeps |history| dependence
    assert abs(lens.mean()) < 6.0 * lens.std() / np.sqrt(N)
    assert np.sqrt((lens ** 2).mean()) > 1.5


def test_trajectory_prefix():
    sysd = _toy_system()
    sched = make_bernoulli(50, 0.3, seed=1)
    traj = simulate(sysd, InputPolicy(), sched, StealthAttackConfig(), seed=1)
    pre = traj.prefix(20)
    assert pre.T == 20
    assert np.array_equal(pre.states, traj.states[:21])
    assert pre.schedule.times == tuple(t for t in sched.times if t < 20)
    with pytest.raises(ValueError):
        traj.prefix(51)


def test_trajectory_requires_zero_start():
    states = np.ones((3, 2))
    with pytest.raises(ValueError):
        Trajectory(states, np.zeros((2, 0)), np.zeros((2, 2)), AttackSchedule(2, ()))


@pytest.mark.parametrize("field", ["states", "inputs", "disturbances"])
def test_trajectory_rejects_non_finite(field):
    arrays = {"states": np.zeros((3, 2)), "inputs": np.zeros((2, 1)),
              "disturbances": np.zeros((2, 2))}
    arrays[field][-1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Trajectory(arrays["states"], arrays["inputs"], arrays["disturbances"],
                   AttackSchedule(2, ()))


def test_overflow_reports_step():
    sysd = LtiSystem(np.array([[2.0]]))  # rho = 2, explodes fast
    sched = make_delta_spaced(200, 2, 0)
    with pytest.raises(SimulationOverflowError) as exc:
        simulate(sysd, InputPolicy(), sched, StealthAttackConfig(sigma=1.0), seed=0)
    assert exc.value.step > 0


def test_trajectory_csv_roundtrip(tmp_path):
    sysd = random_stable_system(2, 0.7, seed=12, m=1)
    sched = make_bernoulli(40, 0.25, seed=12)
    traj = simulate(sysd, InputPolicy("iid-gaussian", 1.0), sched,
                    GaussianAttackConfig(variance=4.0), seed=12)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x_0,x_1,u_0,d_0,d_1,attacked"
    back = load_trajectory_csv(path)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.inputs, traj.inputs)
    assert np.array_equal(back.disturbances, traj.disturbances)
    assert back.schedule.times == traj.schedule.times


# SHA-256 of save_trajectory_csv output for fixed seeds. Any change to the
# order or number of draws a sampler takes from its streams shifts the bytes.
_PINNED_A = np.array([[0.5, 0.2, 0.0], [-0.1, 0.4, 0.3], [0.2, 0.0, 0.6]])
_PINNED = {
    "stealth": (None, InputPolicy(), 7,
                StealthAttackConfig(sigma=2.0, history_coupling=0.5),
                "724247853fe5cc0cd543b3a29c1a2d4568a2771438ff0e8819baf01c6b4d4e3e"),
    "gaussian": (np.array([[1.0], [0.0], [0.5]]), InputPolicy("iid-gaussian", 1.0), 8,
                 GaussianAttackConfig(10.0, support=(0, 2), history_coupling=0.5),
                 "3256d2e13054761fe18abde8007448afee9f6b61927cb8d60732a683fceb52b5"),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_simulated_csv_bytes_pinned(tmp_path, case):
    B, policy, seed, attack_cfg, digest = _PINNED[case]
    traj = simulate(LtiSystem(_PINNED_A, B), policy, make_bernoulli(80, 0.5, seed),
                    attack_cfg, seed)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_system_json_roundtrip(tmp_path):
    sysd = random_stable_system(3, 0.85, seed=3, m=2)
    path = tmp_path / "sys.json"
    save_system_json(sysd, path)
    payload = json.loads(path.read_text())
    assert payload["n"] == 3 and payload["m"] == 2
    assert payload["stable"] is True
    back = load_system_json(path)
    assert np.array_equal(back.A, sysd.A)
    assert np.array_equal(back.B, sysd.B)
    assert back.rho == pytest.approx(sysd.rho, abs=0.0)


def test_system_json_inputs_from_b_shape(tmp_path):
    path = tmp_path / "sys.json"
    payload = {"A": [[0.5, 0.0], [0.0, 0.4]], "B": [[1.0], [2.0]]}
    path.write_text(json.dumps(payload))
    sysd = load_system_json(path)
    assert sysd.m == 1 and np.array_equal(sysd.B, [[1.0], [2.0]])
    for m in (0, 2):
        path.write_text(json.dumps(dict(payload, m=m)))
        with pytest.raises(ValueError, match="dimension fields"):
            load_system_json(path)
    path.write_text(json.dumps({"A": payload["A"]}))
    assert load_system_json(path).m == 0


def test_system_rejects_non_finite(tmp_path):
    for A, B in (([[0.5, np.nan], [0.0, 0.4]], None),
                 ([[0.5, 0.0], [0.0, 0.4]], [[np.inf], [0.0]])):
        with pytest.raises(ValueError, match="A and B must be finite"):
            LtiSystem(np.array(A), None if B is None else np.array(B))
    path = tmp_path / "sys.json"
    for text in ('{"A": [[0.5, NaN], [0.0, 0.4]]}',
                 '{"A": [[0.5, 0.0], [0.0, 0.4]], "B": [[Infinity], [1.0]]}'):
        path.write_text(text)
        with pytest.raises(ValueError, match="A and B must be finite"):
            load_system_json(path)


def test_random_stable_system_hits_radius():
    for seed in (0, 1, 2):
        s = random_stable_system(4, 0.6, seed=seed)
        assert s.rho == pytest.approx(0.6, rel=1e-9)
        assert s.stable


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.integers(5, 40), st.floats(0.05, 0.9))
def test_simulate_replay_property(seed, T, p):
    sysd = _toy_system()
    sched = make_bernoulli(T, p, seed=seed)
    traj = simulate(sysd, InputPolicy(), sched, StealthAttackConfig(sigma=3.0), seed=seed)
    peak = np.abs(traj.states).max()
    assert replay_residual(traj, sysd) <= 1e-12 * (1.0 + peak)
    nz = np.any(traj.disturbances != 0.0, axis=1)
    assert set(np.flatnonzero(nz)) <= set(sched.times)
