"""End-to-end CLI tests driven through the in-process dispatcher."""

import hashlib
import json

import numpy as np
import pytest

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


def test_estimate_stdout_mode(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--random-stable", "1", "0.5", "--T", "30",
               "--attack", "delta", "--delta", "2", "--attack-model", "stealth",
               "--seed", "1", "--out", "t.csv") == 0
    capsys.readouterr()
    assert run("estimate", "--traj", "t.csv", "--norm", "l1",
               "--max-iters", "2000", "--polish") == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.asarray(payload["A_hat"]).shape == (1, 1)
    assert payload["objective"] >= 0.0
    if payload["stop_reason"].startswith("polish"):
        assert payload["iterations"] == 2000  # the subgradient's, not polish's


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


@pytest.mark.parametrize("corrupt", [_blank_line, _short_row, _nan_state,
                                     _flipped_attack, _attacked_yes])
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
    if corrupt in (_flipped_attack, _attacked_yes):
        assert "t.csv: line " in err[0]


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


def test_experiment_cli_with_overrides(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = {"system_source": {"random-stable": {"n": 2, "rho": 0.6, "seed": 1, "m": 1}},
            "input_xi": 1.0, "T_checkpoints": [40, 80], "trials": 1,
            "solver": {"max_iters": 300}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert run("experiment", "--spec", "spec.json", "--p", "0.2",
               "--trials", "2", "--seed", "7", "--out-dir", "out") == 0
    manifest = json.loads((tmp_path / "out" / "run.manifest.json").read_text())
    assert manifest["config"]["spec"]["p"] == 0.2
    assert manifest["config"]["spec"]["trials"] == 2
    assert manifest["config"]["spec"]["seed"] == 7
    for name in ("errors_ls.csv", "errors_l2.csv", "errors_l1.csv"):
        assert (tmp_path / "out" / name).exists()
