"""The four benchmark workloads.

Each workload builds the program's inputs (``build``, timed as set-up), lists
the ops of one round (``ops``), runs one op through the program's public entry
points (``run``, timed) and checks its output apart from the program
(``check``, untimed). ``check`` returns True when the op hit the known
estimator fault (an estimate whose objective lies above the truth's) and
raises checks.WrongResult for any other wrong output.

The program's inputs are fixed: consecutive seeds from base 0 in every
workload. The estimator fault strikes some of those seeds and not others, and
the cost of one op differs several-fold between seeds (ball-check
escalations, polish paths), so seeded inputs would change both the failed
share and the medians from run to run. The benchmark's --seed orders each
round and draws the random perturbations of the optimality checks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from checks import WrongResult

import robustsysid.certificates as rs_cert
import robustsysid.complexity as rs_cx
import robustsysid.estimators as rs_est
import robustsysid.experiments as rs_exp
import robustsysid.lti as rs_lti
from robustsysid.rng import trial_seed

BENCH_DIR = Path(__file__).resolve().parent


def value_fn(states, inputs, kind: str, n: int):
    """The sum-of-norms objective as a function of M = [A B], computed by
    the benchmark from the raw arrays."""
    def value_at(M):
        return checks.sum_of_norms(
            checks.residuals(states, inputs, M[:, :n], M[:, n:]), kind)
    return value_at


class Workload:
    name = ""

    def __init__(self, root: Path, work_dir: Path, rng: np.random.Generator):
        self.root = root
        self.work_dir = work_dir
        self.rng = rng

    def build(self) -> None:
        """Build the program's inputs (timed as part of set-up)."""

    def prepare_checks(self) -> None:
        """Build data only the checks use (untimed)."""

    def ops(self) -> list:
        raise NotImplementedError

    def before(self, op) -> None:
        """Untimed preparation right before an op runs."""

    def run(self, op, tracer=None):
        raise NotImplementedError

    def check(self, op, out) -> bool:
        raise NotImplementedError

    def check_round(self, outs: dict) -> None:
        """Checks that span a whole round (default: none)."""


# ---------------------------------------------------------------------------


class Insulin(Workload):
    """run_experiment with the shipped insulin defaults at p = 0.6; one op is
    one trial (a spec with trials=1 and experiment seed s)."""

    name = "insulin"
    P = 0.6
    SEEDS = (0, 1, 2)

    def build(self):
        self.specs = {s: rs_exp.ExperimentSpec(p=self.P, trials=1, seed=s)
                      for s in self.SEEDS}

    def prepare_checks(self):
        # regenerate each trial's trajectory to read its recorded disturbances
        self.truth = {}
        for s, spec in self.specs.items():
            system = rs_exp.resolve_system(spec)
            ts = trial_seed(spec.seed, 0)
            T = spec.T_checkpoints[-1]
            traj = rs_lti.simulate(system, rs_lti.InputPolicy(),
                                   rs_lti.make_bernoulli(T, spec.p, ts),
                                   rs_exp.attack_config(spec), ts)
            B = system.B if system.m else None
            checks.check_replay(f"insulin seed {s}", traj.states, traj.inputs,
                                traj.disturbances, system.A, B)
            self.truth[s] = (system.A, B, traj.states, traj.inputs,
                             traj.disturbances)

    def ops(self):
        return list(self.SEEDS)

    def run(self, s, tracer=None):
        return rs_exp.run_experiment(self.specs[s])

    def check(self, s, out) -> bool:
        A, B, states, inputs, dist = self.truth[s]
        spec = self.specs[s]
        what = f"insulin seed {s}"
        cells = {(c.T, c.estimator): c for c in out.cells}
        want = {(T, k) for T in spec.T_checkpoints for k in spec.estimators}
        if set(cells) != want or len(out.cells) != len(want):
            raise WrongResult(f"{what}: cells do not cover every (T, estimator)")
        fault = False
        final = {}
        for (T, kind), c in sorted(cells.items()):
            if c.diverged:
                raise WrongResult(f"{what}: {kind} diverged at T={T}")
            err = checks.frobenius_error(c.A_hat, A, c.B_hat, B)
            checks.expect_close(f"{what} {kind} T={T} error", c.error, err)
            final_fault = False
            if kind != "least-squares":
                R = checks.residuals(states[:T + 1], inputs[:T], c.A_hat,
                                     c.B_hat)
                obj = checks.sum_of_norms(R, kind)
                checks.expect_close(f"{what} {kind} T={T} objective",
                                    c.objective, obj)
                truth_obj = checks.sum_of_norms(dist[:T], kind)
                final_fault = checks.above_truth(obj, truth_obj)
                fault |= final_fault
            if T == spec.T_checkpoints[-1]:
                final[kind] = (err, final_fault)
        # the paper's separation at the longest horizon
        exact = 1e-9 * (1.0 + float(np.linalg.norm(A)))
        robust = []
        for kind in ("group-l2", "entry-l1"):
            err, hit = final[kind]
            if not hit and err > exact:
                raise WrongResult(f"{what}: {kind} error {err:.3e} at "
                                  f"T={spec.T_checkpoints[-1]} is not exact")
            robust.append(err)
        ls_err = final["least-squares"][0]
        if not ls_err > 10.0 * max(robust):
            raise WrongResult(f"{what}: least squares is not 10x worse "
                              f"({ls_err:.3e} vs {max(robust):.3e})")
        return fault


# ---------------------------------------------------------------------------


class Phase(Workload):
    """phase_transition on the acceptance scenario; one op is one cell
    (p, T) of 20 trials."""

    name = "phase"
    PS = (0.3, 0.7)
    GRID = (50, 80, 130, 210, 340)
    TRIALS = 20
    SEED = 0

    def build(self):
        system = rs_lti.random_stable_system(3, 0.7, seed=55)
        attack = rs_lti.StealthAttackConfig(sigma=2.0)
        solver = rs_est.SolverConfig(max_iters=3000)
        self.scenarios = {
            p: rs_cx.PhaseScenario(system=system, p=p, estimator="group-l2",
                                   attack_cfg=attack, solver=solver)
            for p in self.PS}

    def ops(self):
        return [(p, T) for p in self.PS for T in self.GRID]

    def run(self, op, tracer=None):
        p, T = op
        return rs_cx.phase_transition(self.scenarios[p], (T,), self.TRIALS,
                                      seed=self.SEED)

    def check(self, op, curve) -> bool:
        p, T = op
        what = f"phase p={p} T={T}"
        level = self.scenarios[p].success_level
        if len(curve.rows) != 1 or curve.rows[0].T != T:
            raise WrongResult(f"{what}: expected one row for T={T}")
        row = curve.rows[0]
        hits = row.success_rate * self.TRIALS
        if row.trials != self.TRIALS or abs(hits - round(hits)) > 1e-9:
            raise WrongResult(f"{what}: rate {row.success_rate} is not "
                              f"k/{self.TRIALS}")
        reached = row.success_rate >= level
        if (curve.threshold != (T if reached else None)
                or row.threshold_flag != reached):
            raise WrongResult(f"{what}: threshold disagrees with its row")
        return False

    def check_round(self, outs):
        thresholds = []
        for p in self.PS:
            rates = [outs[(p, T)].rows[0].success_rate for T in self.GRID]
            level = self.scenarios[p].success_level
            if rates[-1] < level:
                raise WrongResult(f"phase p={p}: largest T={self.GRID[-1]} "
                                  f"reaches only {rates[-1]}")
            thresholds.append(next(T for T, r in zip(self.GRID, rates)
                                   if r >= level))
        if any(a > b for a, b in zip(thresholds, thresholds[1:])):
            raise WrongResult(f"phase: T*(p) = {thresholds} decreases as p grows")


# ---------------------------------------------------------------------------


class Cli(Workload):
    """simulate -> estimate --polish -> certify for l2 and l1 through real
    subprocesses; one op is one simulate seed."""

    name = "cli"
    SEEDS = (0, 1, 2)
    T = 2000
    NORMS = {"l2": "group-l2", "l1": "entry-l1"}

    def __init__(self, root, work_dir, rng):
        super().__init__(root, work_dir, rng)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def commands(self, s):
        cmds = [["simulate", "--random-stable", "3", "0.7", "--T", str(self.T),
                 "--p", "0.4", "--attack-model", "stealth", "--sigma", "2",
                 "--seed", str(s), "--out", "traj.csv",
                 "--system-out", "sys.json"]]
        for norm in self.NORMS:
            cmds.append(["estimate", "--traj", "traj.csv", "--norm", norm,
                         "--polish", "--system", "sys.json",
                         "--out", f"est_{norm}.json"])
            cmds.append(["certify", "--traj", "traj.csv", "--norm", norm,
                         "--estimate", f"est_{norm}.json",
                         "--out", f"cert_{norm}.json"])
        return cmds

    def op_dir(self, s) -> Path:
        return self.work_dir / f"seed{s}"

    def ops(self):
        return list(self.SEEDS)

    def before(self, s):
        """Fresh, empty directory so a failed command cannot pass on stale
        files (untimed)."""
        d = self.op_dir(s)
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)

    def run(self, s, tracer=None):
        d = self.op_dir(s)
        for i, argv in enumerate(self.commands(s)):
            env = dict(self.env)
            if tracer is None:
                cmd = [sys.executable, "-m", "robustsysid.cli", *argv]
            else:
                trace_file = d / f"trace{i}.json"
                env["BENCH_TRACE_OUT"] = str(trace_file)
                env["BENCH_SPAWN_T"] = repr(time.perf_counter())
                cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), *argv]
            proc = subprocess.run(cmd, cwd=d, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"`robustsysid {' '.join(argv)}` exited "
                                   f"{proc.returncode}: {proc.stderr.strip()}")
            if tracer is not None:
                tracer.absorb(json.loads(trace_file.read_text()))
                trace_file.unlink()
        return d

    def check(self, s, d) -> bool:
        what = f"cli seed {s}"
        manifests = sorted(d.glob("*.manifest.json"))
        if len(manifests) != len(self.commands(s)):
            raise WrongResult(f"{what}: expected one manifest per command")
        for mf in manifests:
            checks.check_manifest(mf, d)
        traj = checks.read_trajectory_csv(d / "traj.csv")
        system = json.loads((d / "sys.json").read_text())
        A = np.asarray(system["A"], dtype=float)
        n = A.shape[0]
        if traj["states"].shape != (self.T + 1, 3) or traj["inputs"].size:
            raise WrongResult(f"{what}: trajectory has shape "
                              f"{traj['states'].shape}")
        checks.check_replay(what, traj["states"], traj["inputs"], traj["dist"],
                            A)
        fault = False
        for norm, kind in self.NORMS.items():
            est = json.loads((d / f"est_{norm}.json").read_text())
            cert = json.loads((d / f"cert_{norm}.json").read_text())
            A_hat = np.asarray(est["A_hat"], dtype=float)
            checks.expect_close(f"{what} {norm} error_vs_truth",
                                est["error_vs_truth"],
                                checks.frobenius_error(A_hat, A))
            value_at = value_fn(traj["states"], traj["inputs"], kind, n)
            obj = value_at(A_hat)
            checks.expect_close(f"{what} {norm} objective", est["objective"],
                                obj)
            fault |= checks.above_truth(obj,
                                        checks.sum_of_norms(traj["dist"], kind))
            systems = [(r["label"], r["verdict"], r["z"])
                       for r in cert["systems"]]
            checks.check_verdict(f"{what} {norm} certificate", kind,
                                 cert["verdict"], systems, A_hat, value_at,
                                 [("truth", A)], self.rng)
        return fault


# ---------------------------------------------------------------------------


class Certify(Workload):
    """kkt_certificate alone on candidates built during set-up; one op is the
    whole batch of short-horizon trajectories, so every op does the same
    work."""

    name = "certify"
    SEEDS = tuple(range(6))
    T = 50
    P = 0.7

    def build(self):
        system = rs_lti.random_stable_system(3, 0.7, seed=55)
        attack = rs_lti.StealthAttackConfig(sigma=2.0)
        self.items = []
        for s in self.SEEDS:
            traj = rs_lti.simulate(system, rs_lti.InputPolicy(),
                                   rs_lti.make_bernoulli(self.T, self.P, s),
                                   attack, s)
            A_ls, _ = rs_est.least_squares(traj)
            for kind in checks.KINDS:
                fit = rs_est.solve_subgradient(
                    traj, kind, rs_est.SolverConfig(max_iters=3000))
                pol = rs_est.polish_estimate(traj, fit.A_hat, fit.B_hat, kind,
                                             certify=False)
                if pol is not None and pol.objective < fit.objective:
                    fit = pol
                cands = (("truth", system.A), ("minimizer", fit.A_hat),
                         ("least-squares", A_ls))
                self.items.append((s, traj, kind, cands))
        order = self.rng.permutation(len(self.items))
        self.items = [self.items[i] for i in order]

    def ops(self):
        return ["batch"]

    def run(self, op, tracer=None):
        return [[rs_cert.kkt_certificate(traj, A, None, kind)
                 for _, A in cands]
                for _, traj, kind, cands in self.items]

    def check(self, op, out) -> bool:
        for (s, traj, kind, cands), certs in zip(self.items, out):
            value_at = value_fn(traj.states, traj.inputs, kind, traj.n)
            for (name, A), cert in zip(cands, certs):
                others = [c for c in cands if c[0] != name]
                systems = [(r.label, r.verdict, r.z) for r in cert.systems]
                checks.check_verdict(f"certify seed {s} {kind} {name}", kind,
                                     cert.verdict, systems, A, value_at,
                                     others, self.rng)
        return False


WORKLOADS = {w.name: w for w in (Insulin, Phase, Cli, Certify)}
