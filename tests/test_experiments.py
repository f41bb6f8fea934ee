"""Experiment-grid tests: spec round-trips, cell bookkeeping, plot-data files."""

import json
import math

import numpy as np
import pytest

from robustsysid.estimators import SolverConfig, estimation_error
from robustsysid.experiments import (
    ExperimentSpec,
    attack_config,
    default_checkpoints,
    emit_plot_data,
    read_plot_csv,
    resolve_system,
    run_experiment,
    spec_from_dict,
    spec_to_dict,
)
from robustsysid.lti import InputPolicy, make_bernoulli, simulate
from robustsysid.rng import trial_seed


def test_default_checkpoints_shape():
    cps = default_checkpoints()
    assert cps[0] == 50 and cps[-1] == 2000
    assert all(b > a for a, b in zip(cps, cps[1:]))
    assert len(cps) == 16


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(p=-0.1)
    with pytest.raises(ValueError):
        ExperimentSpec(p=1.5)
    with pytest.raises(ValueError):
        ExperimentSpec(trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(T_checkpoints=(100, 100))
    with pytest.raises(ValueError):
        ExperimentSpec(estimators=("huber",))
    with pytest.raises(ValueError):
        ExperimentSpec(attack_model="stealth", sparse_support=(3, 5))


def test_spec_roundtrip():
    spec = ExperimentSpec(p=0.4, attack_model="gaussian", sparse_support=(3, 5),
                          trials=2, T_checkpoints=(100, 200), seed=9,
                          solver=SolverConfig(max_iters=750, tol=1e-6))
    assert spec_from_dict(spec_to_dict(spec)) == spec


@pytest.mark.parametrize("bad", [
    {"p": "0.3"}, {"attack_variance": "10"}, {"input_xi": "1"},
    {"polish": "no"}, {"polish": 1},
    {"trials": 2.5}, {"trials": True}, {"seed": 1.0},
    {"T_checkpoints": (50.7, 60)}, {"sparse_support": (3.5,)},
    {"solver": {"max_iters": 10}},
], ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()))
def test_spec_rejects_bad_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        ExperimentSpec(**bad)


@pytest.mark.parametrize("key, value", [
    ("max_iters", "10"), ("max_iters", -1), ("max_iters", 2.5),
    ("tol", "1e-6"), ("tol", -1.0), ("tol", math.nan),
])
def test_solver_config_rejects_bad_values(key, value):
    with pytest.raises(ValueError, match=key):
        SolverConfig(**{key: value})


def test_spec_estimator_aliases():
    spec = ExperimentSpec(estimators=("ls", "l2", "l1"))
    assert spec.estimators == ("least-squares", "group-l2", "entry-l1")


def test_resolve_system_sources():
    hov = resolve_system(ExperimentSpec())
    assert hov.n == 6 and hov.autonomous and hov.stable
    rnd = resolve_system(ExperimentSpec(
        system_source={"random-stable": {"n": 3, "rho": 0.5, "seed": 4, "m": 1}}))
    assert rnd.n == 3 and rnd.m == 1
    assert rnd.rho == pytest.approx(0.5, rel=1e-9)


def test_attack_config_mapping():
    g = attack_config(ExperimentSpec(attack_variance=4.0, sparse_support=(3, 5)))
    assert g.variance == 4.0 and g.support == (3, 5)
    s = attack_config(ExperimentSpec(attack_model="stealth", attack_variance=4.0))
    assert s.sigma == pytest.approx(2.0)


def _small_spec(**kw):
    base = dict(system_source={"random-stable": {"n": 2, "rho": 0.6, "seed": 1, "m": 1}},
                input_xi=1.0, p=0.3, trials=2, T_checkpoints=(60, 120), seed=5,
                solver=SolverConfig(max_iters=400))
    base.update(kw)
    return ExperimentSpec(**base)


def test_run_experiment_cells_consistent():
    spec = _small_spec()
    res = run_experiment(spec)
    truth = res.system
    assert len(res.cells) == 2 * 2 * 3  # trials x checkpoints x estimators
    rng = np.random.default_rng(0)
    for cell in rng.choice(len(res.cells), size=3, replace=False):
        c = res.cells[cell]
        if c.diverged:
            continue
        again = estimation_error(np.asarray(c.A_hat), truth.A,
                                 None if c.B_hat is None else np.asarray(c.B_hat),
                                 truth.B if truth.m else None)
        assert c.error == pytest.approx(again, rel=1e-12)
    # aggregates match the finite cells
    for row in res.aggregates:
        vals = [c.error for c in res.cells
                if c.estimator == row.estimator and c.T == row.T and not c.diverged]
        assert row.trials == len(vals)
        assert row.mean_error == pytest.approx(float(np.mean(vals)), rel=1e-12)
        assert row.min_error == pytest.approx(min(vals), rel=1e-12)
        assert row.max_error == pytest.approx(max(vals), rel=1e-12)


def _assert_cells_equal(xs, ys):
    assert len(xs) == len(ys)
    for a, b in zip(xs, ys):
        assert (a.trial, a.T, a.estimator, a.iterations, a.diverged,
                a.stop_reason) == (b.trial, b.T, b.estimator, b.iterations,
                                   b.diverged, b.stop_reason)
        assert (a.error == b.error) or (math.isnan(a.error) and math.isnan(b.error))
        assert np.array_equal(np.asarray(a.A_hat), np.asarray(b.A_hat), equal_nan=True)


def test_run_experiment_reproducible():
    spec = _small_spec()
    a = run_experiment(spec)
    b = run_experiment(spec)
    _assert_cells_equal(a.cells, b.cells)
    assert a.aggregates == b.aggregates


def test_run_experiment_clean_data_ls_exact():
    spec = _small_spec(p=0.0, trials=1)
    res = run_experiment(spec)
    for row in res.aggregates:
        if row.estimator == "least-squares":
            assert row.mean_error <= 1e-8


def test_run_experiment_estimator_subset():
    spec = _small_spec(estimators=("ls",))
    res = run_experiment(spec)
    assert {c.estimator for c in res.cells} == {"least-squares"}
    assert {r.estimator for r in res.aggregates} == {"least-squares"}


def test_run_experiment_divergence_recorded(monkeypatch):
    # each fit's least-squares start succeeds and its first IRLS step
    # raises LinAlgError: every cell is recorded as diverged
    lstsq = np.linalg.lstsq
    calls = []

    def alternating(a, b, rcond=None):
        calls.append(None)
        if len(calls) % 2 == 0:
            raise np.linalg.LinAlgError("SVD did not converge")
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", alternating)
    res = run_experiment(_small_spec(estimators=("l2",)))
    assert res.cells and all(c.diverged for c in res.cells)
    assert all(c.stop_reason == "diverged" for c in res.cells)
    assert all(math.isnan(c.error) for c in res.cells)
    assert len(calls) == 2 * len(res.cells)
    for row in res.aggregates:
        assert row.trials == 0
        assert math.isnan(row.mean_error)


def test_emit_plot_data_roundtrip(tmp_path):
    spec = _small_spec()
    res = run_experiment(spec)
    paths = emit_plot_data(res, tmp_path / "out")
    names = {p.name for p in paths}
    assert names == {"errors_ls.csv", "errors_l2.csv", "errors_l1.csv",
                     "experiment_manifest.json"}
    for p in paths:
        if p.suffix != ".csv":
            continue
        short = p.stem.split("_")[1]
        kind = {"ls": "least-squares", "l2": "group-l2", "l1": "entry-l1"}[short]
        rows = read_plot_csv(p)
        agg = [r for r in res.aggregates if r.estimator == kind]
        assert len(rows) == len(agg)
        for got, want in zip(rows, agg):
            assert got[0] == want.T
            assert got[1] == want.mean_error  # exact float round-trip
            assert got[4] == want.trials
    manifest = json.loads((tmp_path / "out" / "experiment_manifest.json").read_text())
    assert spec_from_dict(manifest["spec"]) == spec
    assert manifest["seed"] == spec.seed


def test_emit_plot_data_bad_header(tmp_path):
    bad = tmp_path / "x.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_plot_csv(bad)


def test_insulin_entry_l1_not_above_truth():
    # p = 0.6, seed 4: a 3000-step subgradient + polish ended entry-l1 above
    # the truth's objective at T = 64, 82 and 105; at T = 105 IRLS crawls
    # (about 5e-12 relative per step) and must stop before its cap
    spec = ExperimentSpec(p=0.6, trials=1, seed=4)
    res = run_experiment(spec)
    ts = trial_seed(spec.seed, 0)
    traj = simulate(res.system, InputPolicy(),
                    make_bernoulli(spec.T_checkpoints[-1], spec.p, ts),
                    attack_config(spec), ts)
    cells = {c.T: c for c in res.cells if c.estimator == "entry-l1"}
    for T in (64, 82, 105):
        truth = float(np.abs(traj.disturbances[:T]).sum())
        assert not cells[T].diverged
        assert cells[T].objective <= truth * (1.0 + 1e-12), T
    assert all(c.iterations < spec.solver.max_iters for c in res.cells)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_insulin_long_horizons_are_warm_certified(seed):
    # past the recovery horizon each checkpoint's minimizer is the previous
    # one's, so every robust refit from T = 585 on returns its certified
    # warm start without running IRLS
    spec = ExperimentSpec(p=0.6, trials=1, seed=seed)
    res = run_experiment(spec)
    for c in res.cells:
        if c.estimator == "least-squares":
            assert c.stop_reason == "closed-form"
        elif c.T >= 585:
            assert (c.stop_reason, c.iterations) == ("warm-certified", 0), c.T
