"""Tests of the benchmark itself: every check must flag a wrong output, and
the tracer must report what it saw (0 for a layer that made no calls).

    python3 -m pytest benchmark/
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import WrongResult  # noqa: E402

import robustsysid as rs  # noqa: E402
from robustsysid.complexity import PhaseCurve, PhaseRow  # noqa: E402


@pytest.fixture(scope="module")
def exact_case():
    """A trajectory on which the truth is the certified group-l2 minimizer."""
    system = rs.random_stable_system(2, 0.6, seed=3)
    traj = rs.simulate(system, rs.InputPolicy(), rs.make_bernoulli(120, 0.2, 3),
                       rs.StealthAttackConfig(sigma=2.0), 3)
    cert = rs.kkt_certificate(traj, system.A, None, "group-l2")
    assert cert.verdict == "optimal"
    A_ls, _ = rs.least_squares(traj)
    value_at = workloads.value_fn(traj.states, traj.inputs, "group-l2", 2)
    return system, traj, A_ls, value_at


def _systems(cert):
    return [(r.label, r.verdict, r.z) for r in cert.systems]


def test_verdict_check_passes_true_verdicts(exact_case):
    system, traj, A_ls, value_at = exact_case
    rng = np.random.default_rng(0)
    for A, other in ((system.A, A_ls), (A_ls, system.A)):
        cert = rs.kkt_certificate(traj, A, None, "group-l2")
        checks.check_verdict("case", "group-l2", cert.verdict, _systems(cert), A,
                             value_at, [("other", other)], rng)


def test_verdict_check_flags_flipped_verdicts(exact_case):
    system, traj, A_ls, value_at = exact_case
    rng = np.random.default_rng(0)
    ls_cert = rs.kkt_certificate(traj, A_ls, None, "group-l2")
    assert ls_cert.verdict == "not-optimal"
    # least squares claimed optimal: the truth beats it
    with pytest.raises(WrongResult):
        checks.check_verdict("flip", "group-l2", "optimal", [], A_ls, value_at,
                             [("truth", system.A)], rng)
    # ... and so do random perturbations, with no other candidate held
    with pytest.raises(WrongResult):
        checks.check_verdict("flip", "group-l2", "optimal", [], A_ls, value_at,
                             [], rng)
    # the truth claimed not-optimal, with a witness borrowed from elsewhere
    with pytest.raises(WrongResult):
        checks.check_verdict("flip", "group-l2", "not-optimal",
                             _systems(ls_cert), system.A, value_at, [], rng)
    with pytest.raises(WrongResult):
        checks.check_verdict("flip", "group-l2", "not-optimal", [], system.A,
                             value_at, [], rng)


def test_replay_and_objective_checks_flag_perturbations(exact_case):
    system, traj, _, _ = exact_case
    checks.check_replay("ok", traj.states, traj.inputs, traj.disturbances,
                        system.A)
    states = traj.states.copy()
    states[7, 1] += 1e-9
    with pytest.raises(WrongResult):
        checks.check_replay("bad", states, traj.inputs, traj.disturbances,
                            system.A)
    truth = checks.sum_of_norms(traj.disturbances, "group-l2")
    obj = checks.sum_of_norms(
        checks.residuals(traj.states, traj.inputs, system.A + 1e-6), "group-l2")
    assert checks.above_truth(obj, truth)
    assert not checks.above_truth(truth, truth)
    with pytest.raises(WrongResult):
        checks.expect_close("error", 0.0, checks.frobenius_error(system.A + 1e-6,
                                                                 system.A))


@pytest.fixture(scope="module")
def insulin_case(tmp_path_factory):
    wl = workloads.Insulin(ROOT, tmp_path_factory.mktemp("ins"),
                           np.random.default_rng(0))
    wl.specs = {0: rs.ExperimentSpec(p=0.2, trials=1, seed=0,
                                     T_checkpoints=(100, 1000))}
    wl.prepare_checks()
    return wl, wl.run(0)


def test_insulin_check_accepts_the_program_output(insulin_case):
    wl, out = insulin_case
    assert wl.check(0, out) is False


def _replace_cell(out, kind, T, **fields):
    cells = tuple(c._replace(**fields) if (c.estimator, c.T) == (kind, T) else c
                  for c in out.cells)
    return out.__class__(out.spec, out.system, cells, out.aggregates)


def test_insulin_check_flags_a_perturbed_estimate(insulin_case):
    wl, out = insulin_case
    cell = next(c for c in out.cells if (c.estimator, c.T) == ("group-l2", 1000))
    A_bad = cell.A_hat + 1e-3
    with pytest.raises(WrongResult):  # error no longer matches the estimate
        wl.check(0, _replace_cell(out, "group-l2", 1000, A_hat=A_bad))
    A, B, states, inputs, _ = wl.truth[0]
    consistent = _replace_cell(
        out, "group-l2", 1000, A_hat=A_bad,
        error=checks.frobenius_error(A_bad, A),
        objective=checks.sum_of_norms(checks.residuals(states, inputs, A_bad),
                                      "group-l2"))
    # a self-consistent estimate above the truth's objective: the known fault
    assert wl.check(0, consistent) is True


def test_phase_checks_flag_inconsistent_rows():
    wl = workloads.Phase(ROOT, Path("."), np.random.default_rng(0))
    wl.build()
    good = PhaseCurve((PhaseRow(80, 0.95, 20, 1),), 80, 0.9)
    assert wl.check((0.3, 80), good) is False
    for bad in (PhaseCurve((PhaseRow(80, 0.95, 20, 0),), 80, 0.9),
                PhaseCurve((PhaseRow(80, 0.85, 20, 0),), 80, 0.9),
                PhaseCurve((PhaseRow(80, 0.93, 20, 1),), 80, 0.9)):
        with pytest.raises(WrongResult):
            wl.check((0.3, 80), bad)

    def curves(rates):
        return {(p, T): PhaseCurve((PhaseRow(T, r, 20, 0),), None, 0.9)
                for p, row in zip(wl.PS, rates) for T, r in zip(wl.GRID, row)}

    wl.check_round(curves([[1.0] * 5, [0.5, 0.5, 1.0, 1.0, 1.0]]))
    with pytest.raises(WrongResult):  # T*(p) decreases as p grows
        wl.check_round(curves([[0.5, 0.5, 1.0, 1.0, 1.0], [1.0] * 5]))
    with pytest.raises(WrongResult):  # the largest T misses the level
        wl.check_round(curves([[1.0] * 5, [0.5, 1.0, 1.0, 1.0, 0.85]]))


@pytest.fixture(scope="module")
def cli_case(tmp_path_factory):
    wl = workloads.Cli(ROOT, tmp_path_factory.mktemp("cli"),
                       np.random.default_rng(0))
    wl.T = 300
    wl.before(1)
    return wl, wl.run(1)


def test_cli_check_accepts_the_program_output(cli_case):
    wl, d = cli_case
    assert wl.check(1, d) in (False, True)


@pytest.mark.parametrize("name", ["traj.csv", "est_l2.json", "cert_l1.json"])
def test_cli_check_flags_a_changed_byte(cli_case, tmp_path, name):
    wl, d = cli_case
    copy = tmp_path / "op"
    shutil.copytree(d, copy)
    data = bytearray((copy / name).read_bytes())
    i = max(j for j, b in enumerate(data) if chr(b).isdigit())
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    (copy / name).write_bytes(bytes(data))
    with pytest.raises(WrongResult):
        wl.check(1, copy)


def test_cli_check_flags_a_wrong_replay(cli_case, tmp_path):
    wl, d = cli_case
    path = tmp_path / "traj.csv"
    lines = (d / "traj.csv").read_text().splitlines()
    cells = lines[10].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[10] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    traj = checks.read_trajectory_csv(path)
    A = np.asarray(json.loads((d / "sys.json").read_text())["A"])
    with pytest.raises(WrongResult):
        checks.check_replay("edited", traj["states"], traj["inputs"],
                            traj["dist"], A)


def test_tracer_reports_zero_for_idle_layers_and_self_time(exact_case):
    system, traj, _, _ = exact_case
    tracer = tracing.Tracer()
    orig = rs.estimators.polish_estimate
    tracer.install()
    try:
        tracer.op = 0
        fit = rs.estimators.solve_subgradient(traj, "group-l2",
                                              rs.SolverConfig(max_iters=200))
        rs.estimators.polish_estimate(traj, fit.A_hat, fit.B_hat, "group-l2")
    finally:
        tracer.uninstall()
    assert rs.estimators.polish_estimate is orig
    totals = tracer.totals()
    m = tracing.layer_metrics(totals, 1, 3.5)
    assert set(m) == set(tracing.METRICS) | {"trace.overhead_pct"}
    assert m["estimators.solve_subgradient.calls"]["value"] == 1
    assert (m["estimators.solve_subgradient.iterations"]["value"]
            == fit.iterations_used)
    assert m["estimators.polish_estimate.calls"]["value"] == 1
    assert m["certificates.kkt_certificate.calls"]["value"] >= 1
    for idle in ("lti.simulate.calls", "lti.csv.busy_ms", "cli.startup_ms",
                 "complexity.phase_transition.self_ms",
                 "experiments.run_experiment.self_ms"):
        assert m[idle]["value"] == 0.0
    assert m["trace.overhead_pct"]["value"] == 3.5
    spans = tracer.export()["spans"]
    polish = next(s for s in spans if s["name"] == "estimators.polish_estimate")
    assert polish["end"] - polish["start"] > \
        totals["estimators.polish_estimate.self_ms"] / 1e3


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                           "certify", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
