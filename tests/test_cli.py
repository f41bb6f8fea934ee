"""End-to-end CLI tests driven through the in-process dispatcher."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustsysid.cli import dispatch


def run(*argv):
    return dispatch(list(argv))


def test_version(capsys):
    assert run("--version") == 0
    assert "0.1.0" in capsys.readouterr().out


def test_no_subcommand_is_an_error(capsys):
    assert run() == 1


def test_unknown_flag_is_an_error():
    assert run("bound", "--cnk", "2", "1", "--bogus") == 1


def test_bound_cnk_prints_exact_half(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("bound", "--cnk", "2", "1") == 0
    assert capsys.readouterr().out == "0.5\n"


def test_bound_theorem_json(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("bound", "--theorem", "5", "--n", "6", "--m", "1",
               "--p", "0.6", "--rho", "0.9", "--c", "0.5") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "order prediction"
    assert payload["T"] if "T" in payload else payload["T_sample"] > 0
    assert {"T1", "T2"} <= set(payload)


def test_bound_eigen_condition(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("bound", "--eigen-condition", "--eigs", "0.5", "--delta", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["lhs"] == pytest.approx(0.25)
    assert payload["rhs"] == pytest.approx(1.5)


def test_bound_eigen_needs_args(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("bound", "--eigen-condition") == 1


def test_domain_error_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("bound", "--cnk", "0", "1") == 1


def test_io_error_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("estimate", "--traj", "missing.csv", "--norm", "l2") == 2


def test_simulate_estimate_certify_pipeline(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "2", "0.6", "--input-dim", "1",
               "--T", "120", "--attack", "none", "--policy", "iid-gaussian",
               "--xi", "1.0", "--seed", "4",
               "--out", "traj.csv", "--system-out", "sys.json") == 0
    assert run("estimate", "--traj", "traj.csv", "--norm", "ls",
               "--system", "sys.json", "--out", "est.json") == 0
    est = json.loads((tmp_path / "est.json").read_text())
    assert est["error_vs_truth"] <= 1e-8
    assert est["iterations"] == 0

    # certify the ground-truth system on attacked data
    assert run("simulate", "--random-stable", "2", "0.6", "--T", "80",
               "--attack", "delta", "--delta", "3", "--attack-model", "stealth",
               "--seed", "4", "--out", "traj2.csv", "--system-out", "sys2.json") == 0
    assert run("certify", "--traj", "traj2.csv", "--norm", "l1",
               "--system", "sys2.json", "--out", "cert.json") == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["verdict"] == "optimal"
    assert all(s["verdict"] == "optimal" for s in cert["systems"])


@pytest.mark.parametrize("estimate, names_file", [
    ({"A_hat": [[math.nan, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]}, False),
    ({"A_hat": [[math.inf, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]}, False),
    ([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]], True),
    ({"A": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]}, True),
])
def test_certify_rejects_bad_estimate(capfd, tmp_path, monkeypatch, estimate,
                                      names_file):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "3", "0.6", "--T", "40",
               "--seed", "2", "--out", "t.csv") == 0
    (tmp_path / "e.json").write_text(json.dumps(estimate))
    capfd.readouterr()
    assert run("certify", "--traj", "t.csv", "--norm", "l2",
               "--estimate", "e.json") == 1
    out, err = capfd.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert ("e.json" in err[0]) == names_file, err


def test_estimate_stdout_mode(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "2", "0.5", "--T", "30",
               "--attack", "delta", "--delta", "2", "--attack-model", "stealth",
               "--seed", "1", "--out", "t.csv") == 0
    capsys.readouterr()
    assert run("estimate", "--traj", "t.csv", "--norm", "l1",
               "--max-iters", "2000", "--polish") == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.asarray(payload["A_hat"]).shape == (2, 2)
    assert payload["objective"] >= 0.0
    assert payload["stop_reason"] == "polish-certified"
    assert payload["iterations"] == 49  # the IRLS steps, not polish's 0


@pytest.mark.parametrize("norm, seed", [("l2", "0"), ("l1", "8")])
def test_estimate_recovers_exactly_where_subgradient_stalled(
        capsys, tmp_path, monkeypatch, norm, seed):
    # the 20,000-step subgradient + polish stopped at max-iters here with
    # error_vs_truth 4.8e-4 (l2, seed 0) and 2.8e-4 (l1, seed 8)
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "3", "0.7", "--T", "2000",
               "--p", "0.4", "--attack-model", "stealth", "--sigma", "2",
               "--seed", seed, "--out", "t.csv", "--system-out", "s.json") == 0
    capsys.readouterr()
    assert run("estimate", "--traj", "t.csv", "--norm", norm, "--polish",
               "--system", "s.json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stop_reason"] == "polish-certified"
    assert payload["error_vs_truth"] <= 1e-12


def test_estimate_failed_irls_step_is_one_error_line(capfd, tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "2", "0.6", "--T", "40",
               "--seed", "3", "--out", "t.csv") == 0
    lstsq = np.linalg.lstsq
    calls = []

    def failing(a, b, rcond=None):  # the start succeeds, the first step fails
        calls.append(None)
        if len(calls) > 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", failing)
    capfd.readouterr()
    assert run("estimate", "--traj", "t.csv", "--norm", "l2") == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: least squares failed at iteration 1: SVD did not converge"]


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_estimate_scalar_is_exact(capsys, tmp_path, monkeypatch, norm):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "1", "0.5", "--T", "30",
               "--attack", "delta", "--delta", "2", "--attack-model", "stealth",
               "--seed", "1", "--out", "t.csv", "--system-out", "s.json") == 0
    capsys.readouterr()
    assert run("estimate", "--traj", "t.csv", "--norm", norm,
               "--system", "s.json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stop_reason"] == "exact"
    assert payload["iterations"] == 0
    assert payload["error_vs_truth"] <= 1e-12


def _blank_line(lines):
    return lines[:3] + [""] + lines[3:]


def _short_row(lines):
    return lines[:3] + [",".join(lines[3].split(",")[:-2])] + lines[4:]


def _nan_state(lines):
    fields = lines[5].split(",")
    fields[1] = "nan"
    return lines[:5] + [",".join(fields)] + lines[6:]


def _set_attacked(lines, old, new):
    # first data row whose attacked cell is `old` gets `new` instead
    i = next(i for i in range(1, len(lines) - 1) if lines[i].endswith("," + old))
    return lines[:i] + [lines[i][:-len(old)] + new] + lines[i + 1:]


def _flipped_attack(lines):
    return _set_attacked(lines, "1", "0")


def _attacked_yes(lines):
    return _set_attacked(lines, "0", "yes")


def _terminal_attack(lines):
    # the terminal row (n = 2, m = 0) claims an attack with d_0 = 5
    fields = lines[-1].split(",")
    fields[3], fields[-1] = "5.0", "1"
    return lines[:-1] + [",".join(fields)]


def _disturbances_as_inputs(lines):
    return [lines[0].replace("d_", "u_")] + lines[1:]


def _misspelt_column(lines):
    return [lines[0].replace("d_0", "dd")] + lines[1:]


@pytest.mark.parametrize("corrupt", [_blank_line, _short_row, _nan_state,
                                     _flipped_attack, _attacked_yes,
                                     _terminal_attack, _disturbances_as_inputs,
                                     _misspelt_column])
def test_estimate_rejects_bad_trajectory(capfd, tmp_path, monkeypatch, corrupt):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "2", "0.6", "--T", "40",
               "--seed", "3", "--out", "t.csv") == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    (tmp_path / "t.csv").write_text("\n".join(corrupt(lines)) + "\n")
    capfd.readouterr()
    assert run("estimate", "--traj", "t.csv", "--norm", "l2") == 1
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "SVD" not in err[0]
    assert "t.csv: line " in err[0]


@pytest.mark.parametrize("norm, message", [
    pytest.param("l2", "objective is not finite at the starting point", id="l2"),
    pytest.param("l1", "stop tolerance is not finite", id="l1"),
])
def test_estimate_rejects_overflowing_start(capfd, tmp_path, monkeypatch, norm,
                                            message):
    # one finite state of 1e300 overflows the group-l2 objective at the start
    # and, for both norms, the default stop tolerance
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "2", "0.6", "--T", "40",
               "--seed", "3", "--out", "t.csv") == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = "1e300"
    lines[5] = ",".join(fields)
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
    capfd.readouterr()
    assert run("estimate", "--traj", "t.csv", "--norm", norm) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_manifest_contents_and_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--hovorka", "--T", "40", "--attack", "bernoulli",
               "--p", "0.3", "--seed", "2", "--out", "h.csv") == 0
    manifest = json.loads((tmp_path / "h.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["version"] == "0.1.0"
    assert manifest["seed"] == 2
    assert manifest["config"]["T"] == 40
    digest = hashlib.sha256((tmp_path / "h.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["h.csv"] == digest


def test_replay_reproduces_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "3", "0.7", "--T", "60",
               "--attack", "bernoulli", "--p", "0.25", "--seed", "11",
               "--out", "r.csv") == 0
    first = (tmp_path / "r.csv").read_bytes()
    first_manifest = (tmp_path / "r.csv.manifest.json").read_bytes()
    (tmp_path / "r.csv").unlink()
    assert run("replay", "--manifest", "r.csv.manifest.json") == 0
    assert (tmp_path / "r.csv").read_bytes() == first
    assert (tmp_path / "r.csv.manifest.json").read_bytes() == first_manifest


def test_replay_refuses_changed_input(capfd, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "2", "0.6", "--T", "60",
               "--seed", "5", "--out", "sim.csv") == 0
    assert run("estimate", "--traj", "sim.csv", "--norm", "ls",
               "--out", "est.json") == 0
    est = (tmp_path / "est.json").read_bytes()
    manifest = (tmp_path / "est.json.manifest.json").read_bytes()
    lines = (tmp_path / "sim.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[1] = repr(float(fields[1]) + 1.0)
    lines[3] = ",".join(fields)
    (tmp_path / "sim.csv").write_text("\n".join(lines) + "\n")
    capfd.readouterr()
    assert run("replay", "--manifest", "est.json.manifest.json") == 1
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "sim.csv" in err[0]
    assert (tmp_path / "est.json").read_bytes() == est
    assert (tmp_path / "est.json.manifest.json").read_bytes() == manifest


def test_replay_flags_changed_output(capfd, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("bound", "--cnk", "2", "1", "--out", "b.json") == 0
    path = tmp_path / "b.json.manifest.json"
    manifest = json.loads(path.read_text())
    manifest["outputs"]["b.json"] = "0" * 64
    path.write_text(json.dumps(manifest))
    capfd.readouterr()
    assert run("replay", "--manifest", "b.json.manifest.json") == 1
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "b.json" in err[0]


def test_replay_ignores_retired_escalate_key(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "2", "0.6", "--T", "40",
               "--seed", "2", "--out", "t.csv", "--system-out", "s.json") == 0
    assert run("certify", "--traj", "t.csv", "--norm", "l2",
               "--system", "s.json", "--out", "c.json") == 0
    cert = (tmp_path / "c.json").read_bytes()
    path = tmp_path / "c.json.manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["escalate"] = False
    path.write_text(json.dumps(manifest))
    assert run("replay", "--manifest", "c.json.manifest.json") == 0
    assert (tmp_path / "c.json").read_bytes() == cert
    assert [s["label"] for s in json.loads(cert)["systems"]] == ["l2-ball"]


def test_replay_ignores_retired_warm_start_key(tmp_path, monkeypatch):
    # estimate manifests used to record the subgradient's start; IRLS always
    # starts from least squares, so replay ignores the key
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "2", "0.6", "--T", "40",
               "--p", "0.4", "--seed", "2", "--out", "t.csv") == 0
    assert run("estimate", "--traj", "t.csv", "--norm", "l1",
               "--out", "e.json") == 0
    est = (tmp_path / "e.json").read_bytes()
    path = tmp_path / "e.json.manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["warm_start"] = "zero"
    path.write_text(json.dumps(manifest))
    assert run("replay", "--manifest", "e.json.manifest.json") == 0
    assert (tmp_path / "e.json").read_bytes() == est
    assert run("estimate", "--traj", "t.csv", "--norm", "l1",
               "--warm-start", "zero") == 1


def test_replay_missing_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("replay", "--manifest", "nope.json") == 2


def test_phase_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scenario = {"system": {"random-stable": {"n": 1, "rho": 0.5, "seed": 3}},
                "attack": "delta-spaced", "delta": 2,
                "attack_model": {"model": "stealth", "sigma": 2.0}}
    (tmp_path / "sc.json").write_text(json.dumps(scenario))
    assert run("phase", "--scenario", "sc.json", "--t-grid", "4,8",
               "--trials", "6", "--seed", "0", "--out", "curve.csv") == 0
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "T,success_rate,trials,threshold_flag"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "4" and first[2] == "6"


def test_phase_cli_rejects_unknown_scenario_key(capfd, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scenario = {"system": {"random-stable": {"n": 2, "rho": 0.5, "seed": 3}},
                "estimater": "l2"}
    (tmp_path / "sc.json").write_text(json.dumps(scenario))
    capfd.readouterr()
    assert run("phase", "--scenario", "sc.json", "--t-grid", "10",
               "--trials", "2", "--out", "curve.csv") == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "estimater" in err, err
    assert not (tmp_path / "curve.csv").exists()


_SCENARIO = {"system": {"random-stable": {"n": 2, "rho": 0.5, "seed": 3}}}


@pytest.mark.parametrize("scenario, names", [
    ({**_SCENARIO, "polish": "no"}, "polish"),
    ({**_SCENARIO, "p": 2}, "p"),
    ({**_SCENARIO, "delta": 0}, "delta"),
    ({**_SCENARIO, "delta": 2.5}, "delta"),
    ({**_SCENARIO, "solver": {"eta0": 1.0}}, "eta0"),
    ({**_SCENARIO, "attack_model": {"sigma": 2.0}}, "'model'"),
    ({**_SCENARIO, "policy": {"kind": "iid-gaussian"}}, "'xi'"),
    ({"system": {"random-stable": {"rho": 0.5}}}, "'n'"),
    ([_SCENARIO], "sc.json"),
    ({"attack_model": {"model": "gaussian", "support": [9]}}, "6 states"),
    ({**_SCENARIO, "attack_model": {"model": "gaussian", "support": [-1]}},
     "support"),
    ({**_SCENARIO, "attack_model": {"model": "gaussian", "support": [0.5]}},
     "support"),
    ({**_SCENARIO, "attack_model": {"model": "gaussian", "support": 1}},
     "support"),
    ({**_SCENARIO, "attack_model": {"model": "gaussian", "coupling": "0.5"}},
     "coupling"),
    ({**_SCENARIO, "attack_model": {"model": "gaussian", "variance": "10"}},
     "variance"),
    ({**_SCENARIO, "attack_model": {"model": "stealth", "sigma": "2"}},
     "sigma"),
    ({"system": {"random-stable": {"n": 2, "rho": 0.5, "seed": 3, "m": 1}},
      "policy": {"kind": "iid-gaussian", "xi": "1"}}, "xi"),
    ({**_SCENARIO, "dt": "0.5"}, "dt"),
], ids=["polish-no", "p-2", "delta-0", "delta-2.5", "solver-eta0",
        "attack-model-no-model", "policy-no-xi", "random-stable-no-n",
        "list-file", "support-9-of-6", "support-negative", "support-fraction",
        "support-not-a-list", "coupling-string", "variance-string",
        "sigma-string", "xi-string", "dt-string"])
def test_phase_cli_rejects_bad_scenario_value(capfd, tmp_path, monkeypatch,
                                              scenario, names):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sc.json").write_text(json.dumps(scenario))
    capfd.readouterr()
    assert run("phase", "--scenario", "sc.json", "--t-grid", "10",
               "--trials", "2", "--out", "curve.csv") == 1
    out, err = capfd.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert names in err[0] and "trial" not in err[0], err
    assert not (tmp_path / "curve.csv").exists()


_SPEC = {"system_source": {"random-stable": {"n": 2, "rho": 0.6, "seed": 1}},
         "T_checkpoints": [40, 80], "trials": 1}


@pytest.mark.parametrize("spec, names", [
    ({**_SPEC, "solver": {"warm_start": "zero"}}, "warm_start"),
    ({**_SPEC, "polish": "no"}, "polish"),
    ({**_SPEC, "T_checkpoints": [50.7, 60]}, "T_checkpoints"),
    ({**_SPEC, "sparse_support": [3.5]}, "sparse_support"),
    ({**_SPEC, "trials": 2.5}, "trials"),
    ({**_SPEC, "system_source": {"random-stable": {"rho": 0.5}}}, "'n'"),
    ([_SPEC], "spec.json"),
    ({**_SPEC, "sparse_support": [-1]}, "sparse_support"),
    ({**_SPEC, "sparse_support": [2]}, "sparse_support index 2"),
    ({**_SPEC, "dt": "0.5"}, "dt"),
    ({**_SPEC, "dt": 0}, "dt"),
    ({**_SPEC, "history_coupling": "x"}, "history_coupling"),
    ({**_SPEC, "history_coupling": 1.0}, "history_coupling"),
], ids=["solver-warm-start", "polish-no", "T-fraction", "support-fraction",
        "trials-fraction", "random-stable-no-n", "list-file",
        "support-negative", "support-2-of-2", "dt-string", "dt-zero",
        "coupling-string", "coupling-1"])
def test_experiment_cli_rejects_bad_spec(capfd, tmp_path, monkeypatch, spec,
                                         names):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    capfd.readouterr()
    assert run("experiment", "--spec", "spec.json", "--out-dir", "out") == 1
    out, err = capfd.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert names in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sparse, names", [
    ("9", ("sparse_support index 9", "6 states")),
    ("-1", ("sparse_support",)),
], ids=["support-9-of-6", "support-negative"])
def test_experiment_cli_rejects_bad_sparse(capfd, tmp_path, monkeypatch, sparse,
                                           names):
    # the default insulin system has 6 states
    monkeypatch.chdir(tmp_path)
    capfd.readouterr()
    assert run("experiment", "--sparse", sparse, "--trials", "1",
               "--out-dir", "out") == 1
    out, err = capfd.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert all(name in err[0] for name in names), err
    assert not (tmp_path / "out").exists()


def test_experiment_cli_with_overrides(capfd, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = {"system_source": {"random-stable": {"n": 2, "rho": 0.6, "seed": 1, "m": 1}},
            "input_xi": 1.0, "T_checkpoints": [40, 80], "trials": 1,
            "solver": {"max_iters": 300}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    capfd.readouterr()
    assert run("experiment", "--spec", "spec.json", "--p", "0.2",
               "--trials", "2", "--seed", "7", "--out-dir", "out") == 0
    out, err = capfd.readouterr()
    assert out == ""
    # one stop-reason line per estimator, counting its 2 x 2 cells
    err = err.splitlines()
    assert len(err) == 4 and err[0].startswith("experiment: wrote 4 files")
    assert err[1] == "experiment: least-squares stop reasons: closed-form=4"
    for line, kind in zip(err[2:], ("group-l2", "entry-l1")):
        head, counts = line.split(" stop reasons: ")
        assert head == f"experiment: {kind}"
        assert sum(int(c.split("=")[1]) for c in counts.split()) == 4
    manifest = json.loads((tmp_path / "out" / "run.manifest.json").read_text())
    assert manifest["config"]["spec"]["p"] == 0.2
    assert manifest["config"]["spec"]["trials"] == 2
    assert manifest["config"]["spec"]["seed"] == 7
    for name in ("errors_ls.csv", "errors_l2.csv", "errors_l1.csv"):
        assert (tmp_path / "out" / name).exists()


# ---------------------------------------------------------------------------
# fuzzed input files: every malformed file gives exit 1 or 2 and one stderr line


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    assert run("simulate", "--random-stable", "2", "0.6", "--input-dim", "1",
               "--policy", "iid-gaussian", "--T", "30", "--p", "0.3",
               "--seed", "3", "--out", str(d / "t.csv"),
               "--system-out", str(d / "s.json")) == 0
    return d


def _one_error_line(capfd, *argv):
    capfd.readouterr()
    code = run(*argv)
    err = capfd.readouterr().err.splitlines()
    assert code in (1, 2) and len(err) == 1, (code, err)


FUZZ = settings(max_examples=80, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(st.data())
def test_fuzz_trajectory_csv(capfd, monkeypatch, fuzz_dir, data):
    monkeypatch.chdir(fuzz_dir)  # a manifest written by mistake lands here
    with open(fuzz_dir / "t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    n = sum(h.startswith("x_") for h in rows[0])
    last = len(rows) - 1  # the terminal row
    how = data.draw(st.sampled_from(
        ["drop", "number", "rename", "terminal", "blank", "flip"]))
    if how == "drop":
        i = data.draw(st.integers(0, last))
        del rows[i][data.draw(st.integers(0, len(rows[i]) - 1))]
    elif how == "number":
        i = data.draw(st.integers(1, last))
        j = data.draw(st.integers(0, n if i == last else len(rows[i]) - 2))
        rows[i][j] = data.draw(st.sampled_from(
            ["abc", "", "1e", "nan", "NaN", "inf", "-inf"]))
    elif how == "rename":
        j = data.draw(st.integers(0, len(rows[0]) - 1))
        rows[0][j] = data.draw(st.sampled_from(
            ["", "dd", "x", "t", "x_2", "u_0", "u_1", "d_0", "attacked"]
        ).filter(lambda v: v != rows[0][j]))
    elif how == "terminal":
        j = data.draw(st.integers(n + 1, len(rows[last]) - 1))
        rows[last][j] = data.draw(st.sampled_from(["0", "1", "5.0", "nan", " "]))
    elif how == "blank":
        rows.insert(data.draw(st.integers(0, len(rows))), [])
    else:
        i = data.draw(st.integers(1, last - 1))
        rows[i][-1] = "1" if rows[i][-1] == "0" else "0"
    path = fuzz_dir / "bad.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    _one_error_line(capfd, "estimate", "--traj", str(path), "--norm", "ls")


@FUZZ
@given(st.data())
def test_fuzz_system_json(capfd, monkeypatch, fuzz_dir, data):
    monkeypatch.chdir(fuzz_dir)
    payload = json.loads((fuzz_dir / "s.json").read_text())
    how = data.draw(st.sampled_from(
        ["ragged", "non-finite", "wrong-type", "dimension", "not-an-object"]))
    if how in ("ragged", "non-finite"):
        M = payload[data.draw(st.sampled_from(["A", "B"]))]
        row = M[data.draw(st.integers(0, len(M) - 1))]
        if how == "ragged":
            row.pop()
        else:
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
    elif how == "wrong-type":
        payload[data.draw(st.sampled_from(["A", "B", "n", "m"]))] = data.draw(
            st.sampled_from(["x", "2", [2], {"k": 1}, [["a"]], None]))
    elif how == "dimension":
        key = data.draw(st.sampled_from(["n", "m"]))
        payload[key] = data.draw(st.integers(-1, 4).filter(
            lambda v: v != payload[key]))
    else:
        payload = data.draw(st.sampled_from([[], "A", 3, None, [payload["A"]]]))
    path = fuzz_dir / "bad.json"
    path.write_text(json.dumps(payload))
    _one_error_line(capfd, "simulate", "--system", str(path), "--T", "10",
                    "--out", str(fuzz_dir / "x.csv"))
