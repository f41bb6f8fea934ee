"""Error-vs-horizon experiment driver (insulin-model study and variants).

One trajectory per trial; at each checkpoint T every selected estimator is
refit on the prefix of length T and its Frobenius error against the true A
recorded. The headline configuration is the discretized 6-state insulin
model under dense per-coordinate Gaussian attacks (variance 10) at Bernoulli
rate p; a sparse variant restricts the attack to a coordinate subset, and the
sphere-decomposed stealth sampler is available via ``attack_model``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .estimators import SolverConfig, canonical_kind, estimation_error, fit
from .lti import (GaussianAttackConfig, InputPolicy, LtiSystem,
                  StealthAttackConfig, _integer, _real, _require,
                  discretize_euler, hovorka_continuous, load_system_json,
                  make_bernoulli, random_stable_system, simulate)
from .rng import trial_seed

SHORT_NAMES = {"least-squares": "ls", "group-l2": "l2", "entry-l1": "l1"}


def default_checkpoints(lo: int = 50, hi: int = 2000, count: int = 16) -> tuple:
    """Log-spaced integer sample counts, default 16 points in [50, 2000]."""
    pts = np.unique(np.rint(np.geomspace(lo, hi, count)).astype(int))
    return tuple(int(t) for t in pts)


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one error-vs-horizon study (reproducible by seed).

    system_source: "hovorka-default", {"file": path}, or
    {"random-stable": {"n": ..., "rho": ..., "seed": ..., "m": ...}}.
    """

    system_source: object = "hovorka-default"
    dt: float = 0.5                      # discretization step for hovorka-default
    p: float = 0.2
    attack_model: str = "gaussian"       # or "stealth" (sphere decomposition)
    attack_variance: float = 10.0
    sparse_support: tuple | None = None  # gaussian model only
    history_coupling: float = 0.0
    input_xi: float = 0.0                # > 0 turns on iid-gaussian inputs
    T_checkpoints: tuple = ()            # empty -> default_checkpoints()
    estimators: tuple = ("ls", "l2", "l1")
    trials: int = 5
    seed: int = 0
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(max_iters=3000))
    polish: bool = True

    def __post_init__(self):
        if not (_real(self.dt) and self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be a positive number")
        if not (_real(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError("p must be a number in [0, 1]")
        if not (_real(self.attack_variance) and self.attack_variance > 0):
            raise ValueError("attack_variance must be a positive number")
        if self.attack_model not in ("gaussian", "stealth"):
            raise ValueError("attack_model must be 'gaussian' or 'stealth'")
        if self.sparse_support is not None:
            if self.attack_model != "gaussian":
                raise ValueError("sparse_support needs the gaussian attack model")
            if not all(_integer(i) and i >= 0 for i in self.sparse_support):
                raise ValueError("sparse_support entries must be integers >= 0")
            object.__setattr__(self, "sparse_support",
                               tuple(int(i) for i in self.sparse_support))
        if not (_real(self.history_coupling)
                and 0.0 <= self.history_coupling < 1.0):
            raise ValueError("history_coupling must be a number in [0, 1)")
        if not (_integer(self.trials) and self.trials >= 1):
            raise ValueError("trials must be an integer >= 1")
        if not _integer(self.seed):
            raise ValueError("seed must be an integer")
        if not isinstance(self.polish, bool):
            raise ValueError("polish must be true or false")
        if not isinstance(self.solver, SolverConfig):
            raise ValueError("solver must be a SolverConfig")
        if not (_real(self.input_xi) and self.input_xi >= 0):
            raise ValueError("input_xi must be a number >= 0")
        if not all(_integer(t) for t in self.T_checkpoints):
            raise ValueError("T_checkpoints entries must be integers")
        cps = tuple(int(t) for t in self.T_checkpoints) or default_checkpoints()
        if any(b <= a for a, b in zip(cps, cps[1:])) or cps[0] < 1:
            raise ValueError("T_checkpoints must be strictly increasing and >= 1")
        object.__setattr__(self, "T_checkpoints", cps)
        object.__setattr__(self, "estimators",
                           tuple(canonical_kind(e) for e in self.estimators))


def system_from_source(src, dt: float = 0.5, seed: int = 0) -> LtiSystem:
    """The system named by a source: "hovorka-default" (discretized with step
    ``dt``), {"file": path}, or {"random-stable": {"n", "rho", "seed", "m"}}
    (``seed`` fills a missing "seed")."""
    if src == "hovorka-default":
        Ac, Bc, _ = hovorka_continuous()
        return discretize_euler(Ac, Bc, dt)
    if isinstance(src, dict) and "file" in src:
        return load_system_json(src["file"])
    if isinstance(src, dict) and "random-stable" in src:
        kw = src["random-stable"]
        _require(kw, "a random-stable system source", "n", "rho")
        return random_stable_system(int(kw["n"]), float(kw["rho"]),
                                    int(kw.get("seed", seed)),
                                    int(kw.get("m", 0)))
    raise ValueError(f"unrecognized system source: {src!r}")


def resolve_system(spec: ExperimentSpec) -> LtiSystem:
    return system_from_source(spec.system_source, spec.dt, spec.seed)


def attack_config(spec: ExperimentSpec):
    if spec.attack_model == "gaussian":
        return GaussianAttackConfig(spec.attack_variance, spec.sparse_support,
                                    spec.history_coupling)
    return StealthAttackConfig(math.sqrt(spec.attack_variance), "gaussian",
                               spec.history_coupling)


class CellRecord(NamedTuple):
    trial: int
    T: int
    estimator: str
    error: float
    objective: float
    iterations: int
    diverged: bool
    A_hat: np.ndarray
    B_hat: np.ndarray | None
    stop_reason: str  # the fit's stop_reason; "diverged" for a failed fit


class AggregateRow(NamedTuple):
    estimator: str
    T: int
    mean_error: float
    min_error: float
    max_error: float
    trials: int  # trials aggregated (divergent cells excluded)


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    system: LtiSystem
    cells: tuple
    aggregates: tuple


def _fit_trial(spec: ExperimentSpec, system: LtiSystem, policy: InputPolicy,
               cfg, trial: int) -> list:
    seed = trial_seed(spec.seed, trial)
    T_max = spec.T_checkpoints[-1]
    schedule = make_bernoulli(T_max, spec.p, seed)
    traj = simulate(system, policy, schedule, cfg, seed)

    cells = []
    warm = {k: None for k in spec.estimators}
    for T in spec.T_checkpoints:
        pre = traj.prefix(T)
        for kind in spec.estimators:
            try:
                res = fit(pre, kind, spec.solver, spec.polish,
                          theta0=warm[kind])
            except RuntimeError:
                # divergence is recorded, not fatal; restart cold next time
                warm[kind] = None
                cells.append(CellRecord(trial, T, kind, math.nan, math.nan, 0,
                                        True, np.full_like(system.A, math.nan),
                                        None, "diverged"))
                continue
            warm[kind] = res.theta()
            err = estimation_error(res.A_hat, system.A, res.B_hat, system.B)
            cells.append(CellRecord(trial, T, kind, err, res.objective,
                                    res.iterations_used, False,
                                    res.A_hat, res.B_hat, res.stop_reason))
    return cells


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the study described by ``spec``; deterministic under its seed.

    Each trial simulates one trajectory of the longest horizon and refits all
    selected estimators on each checkpoint prefix (warm-starting every refit
    from the previous checkpoint's solution). Solver divergence or failure
    marks the cell and is skipped in the aggregates.
    """
    system = resolve_system(spec)
    policy = (InputPolicy() if spec.input_xi == 0.0
              else InputPolicy("iid-gaussian", spec.input_xi))
    if policy.kind != "zero" and system.m == 0:
        raise ValueError("input_xi > 0 needs a system with m >= 1")
    cfg = attack_config(spec)
    if isinstance(cfg, GaussianAttackConfig):
        cfg.check_states(system.n, "sparse_support")

    cells = tuple(c for k in range(spec.trials)
                  for c in _fit_trial(spec, system, policy, cfg, k))

    aggregates = []
    for kind in spec.estimators:
        for T in spec.T_checkpoints:
            vals = [c.error for c in cells
                    if c.estimator == kind and c.T == T and not c.diverged]
            if vals:
                aggregates.append(AggregateRow(kind, T, float(np.mean(vals)),
                                               float(np.min(vals)),
                                               float(np.max(vals)), len(vals)))
            else:
                aggregates.append(AggregateRow(kind, T, math.nan, math.nan,
                                               math.nan, 0))
    return ExperimentResult(spec, system, cells, tuple(aggregates))


# ---------------------------------------------------------------------------
# serialization


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return asdict(spec)


def spec_from_dict(payload: dict) -> ExperimentSpec:
    payload = dict(payload)  # ExperimentSpec turns the lists into tuples
    if isinstance(payload.get("solver"), dict):
        payload["solver"] = SolverConfig(**payload["solver"])
    return ExperimentSpec(**payload)


def emit_plot_data(result: ExperimentResult, out_dir) -> list:
    """Write one `T,mean_error,min_error,max_error,trials` CSV per estimator
    plus a manifest JSON carrying the full spec; returns the written paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for kind in result.spec.estimators:
            path = out / f"errors_{SHORT_NAMES[kind]}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["T", "mean_error", "min_error", "max_error",
                                 "trials"])
                for row in result.aggregates:
                    if row.estimator == kind:
                        writer.writerow([str(row.T), repr(row.mean_error),
                                         repr(row.min_error), repr(row.max_error),
                                         str(row.trials)])
            paths.append(path)
        manifest = out / "experiment_manifest.json"
        with open(manifest, "w") as fh:
            json.dump({"spec": spec_to_dict(result.spec),
                       "seed": result.spec.seed}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(manifest)
        return paths
    except OSError as exc:
        raise OSError(f"cannot write experiment outputs under {out}: {exc}") from exc


def read_plot_csv(path) -> list:
    """Inverse of one emit_plot_data CSV (exact float round-trip)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["T", "mean_error", "min_error", "max_error",
                               "trials"]:
        raise ValueError(f"{path}: unrecognized plot-data header")
    return [(int(r[0]), float(r[1]), float(r[2]), float(r[3]), int(r[4]))
            for r in rows[1:]]
