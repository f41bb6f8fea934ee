"""Command-line entry point.

Subcommands: simulate, estimate, certify, bound, phase, experiment, replay.
Every run writes a manifest JSON (subcommand, fully resolved config, seed,
tool version, SHA-256 digests of inputs/outputs/stdout); `replay --manifest M`
re-executes the stored config and reproduces every output byte-for-byte. It
refuses to re-run (exit 1, nothing written) when an input's digest changed,
and exits 1 when a re-run output's digest differs from the recorded one.
Exit codes: 0 success, 1 validation/domain error, 2 I/O error. Diagnostics go
to stderr; data only to files and stdout. No environment variables are
consulted: all randomness flows from the --seed flag.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import __version__
from .certificates import cnk_bound, eigen_condition, kkt_certificate
from .complexity import (ComplexityInputs, PhaseScenario, phase_transition,
                         t_sample_auto_l1, t_sample_auto_l2, t_sample_input)
from .estimators import SolverConfig, estimation_error, fit
from .experiments import (emit_plot_data, run_experiment, spec_from_dict,
                          spec_to_dict, system_from_source)
from .lti import (AttackSchedule, GaussianAttackConfig, InputPolicy,
                  StealthAttackConfig, _real, _require, load_system_json,
                  load_trajectory_csv, make_bernoulli, make_delta_spaced,
                  save_system_json, save_trajectory_csv, simulate)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise _UsageError(message)


class HandlerOutput(NamedTuple):
    stdout: str
    inputs: tuple = ()
    outputs: tuple = ()


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_line(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _load_object(path: str, what: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: {what} is a JSON object")
    return payload


# ---------------------------------------------------------------------------
# shared config resolution


def _number(key: str, value) -> float:
    """``value`` as a float; ValueError naming ``key`` unless it is a real
    number (a string such as "0.5" is not)."""
    if not _real(value):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _attack_from_cfg(d):
    if d is None:
        return None
    _require(d, "attack_model", "model")
    if d["model"] == "gaussian":
        support = d.get("support")
        return GaussianAttackConfig(
            _number("variance", d.get("variance", 10.0)),
            None if support == [] else support,
            _number("coupling", d.get("coupling", 0.0)))
    if d["model"] == "stealth":
        return StealthAttackConfig(
            _number("sigma", d.get("sigma", 1.0)),
            d.get("length_law", "gaussian"),
            _number("coupling", d.get("coupling", 0.0)))
    raise ValueError(f"unrecognized attack model: {d['model']!r}")


def _policy_from_cfg(d):
    if d is None:
        return InputPolicy()
    _require(d, "policy")
    if d.get("kind", "zero") == "zero":
        return InputPolicy()
    if d["kind"] == "iid-gaussian":
        _require(d, "an iid-gaussian policy", "xi")
        return InputPolicy("iid-gaussian", _number("xi", d["xi"]))
    if d["kind"] == "feedback":
        _require(d, "a feedback policy", "xi", "K_fb")
        return InputPolicy("feedback", _number("xi", d["xi"]),
                           np.asarray(d["K_fb"]))
    raise ValueError(f"unrecognized input policy: {d['kind']!r}")


def _schedule_from_cfg(d, T: int, seed: int) -> AttackSchedule:
    kind = d.get("kind", "bernoulli")
    if kind == "bernoulli":
        return make_bernoulli(T, float(d.get("p", 0.2)), seed)
    if kind == "delta":
        return make_delta_spaced(T, int(d["delta"]), int(d.get("first", 0)))
    if kind == "none":
        return AttackSchedule(T, ())
    raise ValueError(f"unrecognized attack schedule: {kind!r}")


def _ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


# ---------------------------------------------------------------------------
# handlers (take a fully resolved JSON-safe config dict)


def _run_simulate(cfg: dict) -> HandlerOutput:
    seed = int(cfg["seed"])
    src = cfg["system"]
    system = system_from_source(src, float(cfg["dt"]), seed)
    schedule = _schedule_from_cfg(cfg["attack"], int(cfg["T"]), seed)
    attack_cfg = _attack_from_cfg(cfg.get("attack_model"))
    policy = _policy_from_cfg(cfg.get("policy"))
    traj = simulate(system, policy, schedule, attack_cfg, seed)
    save_trajectory_csv(traj, cfg["out"])
    outputs = [cfg["out"]]
    if cfg.get("system_out"):
        save_system_json(system, cfg["system_out"])
        outputs.append(cfg["system_out"])
    print(f"simulate: T={traj.T} n={traj.n} m={traj.m} "
          f"attacks={len(schedule.times)} -> {cfg['out']}", file=sys.stderr)
    inputs = (src["file"],) if isinstance(src, dict) and "file" in src else ()
    return HandlerOutput("", inputs, tuple(outputs))


def _run_estimate(cfg: dict) -> HandlerOutput:
    traj = load_trajectory_csv(cfg["traj"])
    inputs = [cfg["traj"]]
    tol = cfg.get("tol")
    solver = SolverConfig(max_iters=int(cfg["max_iters"]),
                          tol=None if tol is None else float(tol))
    res = fit(traj, cfg["norm"], solver, polish=bool(cfg.get("polish")))
    payload = {
        "objective": None if math.isnan(res.objective) else res.objective,
        "iterations": res.iterations_used, "stop_reason": res.stop_reason,
        "A_hat": res.A_hat.tolist(),
        "B_hat": None if res.B_hat is None else res.B_hat.tolist(),
    }
    if cfg.get("system"):
        truth = load_system_json(cfg["system"])
        inputs.append(cfg["system"])
        payload["error_vs_truth"] = estimation_error(res.A_hat, truth.A,
                                                     res.B_hat, truth.B)
    if cfg.get("out"):
        _write_json(cfg["out"], payload)
        return HandlerOutput("", tuple(inputs), (cfg["out"],))
    return HandlerOutput(_json_line(payload), tuple(inputs), ())


def _run_certify(cfg: dict) -> HandlerOutput:
    traj = load_trajectory_csv(cfg["traj"])
    inputs = [cfg["traj"]]
    if cfg.get("estimate"):
        est = _load_object(cfg["estimate"], "an estimate")
        _require(est, cfg["estimate"], "A_hat")
        A_hat = np.asarray(est["A_hat"], dtype=float)
        B_hat = None if est.get("B_hat") is None else np.asarray(est["B_hat"])
        inputs.append(cfg["estimate"])
    else:
        truth = load_system_json(cfg["system"])
        A_hat = truth.A
        B_hat = truth.B if truth.m else None
        inputs.append(cfg["system"])
    cert = kkt_certificate(traj, A_hat, B_hat, kind=cfg["norm"],
                           tol=float(cfg["tol"]),
                           support_tol=cfg.get("support_tol"))
    payload = {
        "verdict": cert.verdict,
        "margin": cert.margin,
        "flags": list(cert.flags),
        "witness_z": None if cert.witness_z is None else cert.witness_z.tolist(),
        "systems": [{"label": r.label, "verdict": r.verdict, "margin": r.margin,
                     "w": None if r.w is None else r.w.tolist(),
                     "z": None if r.z is None else r.z.tolist()}
                    for r in cert.systems],
    }
    if cfg.get("out"):
        _write_json(cfg["out"], payload)
        return HandlerOutput("", tuple(inputs), (cfg["out"],))
    return HandlerOutput(_json_line(payload), tuple(inputs), ())


def _run_bound(cfg: dict) -> HandlerOutput:
    mode = cfg["mode"]
    if mode == "cnk":
        value = cnk_bound(int(cfg["n"]), int(cfg["k"]), float(cfg["tol"]))
        text = f"{value!r}\n"
        payload = {"n": cfg["n"], "k": cfg["k"], "C_nk": value}
    elif mode == "eigen":
        eigs = [complex(re, im) for re, im in cfg["eigs"]]
        res = eigen_condition(eigs, int(cfg["delta"]))
        payload = {"holds": res.holds, "lhs": res.lhs, "rhs": res.rhs,
                   "boundary": res.boundary}
        text = _json_line(payload)
    else:
        ci = ComplexityInputs(**cfg["params"])
        theorem = int(cfg["theorem"])
        if theorem in (2, 3):
            fn = t_sample_auto_l2 if theorem == 2 else t_sample_auto_l1
            payload = {"theorem": theorem, "kind": "order prediction",
                       "T_sample": fn(ci)}
        else:
            res = t_sample_input(ci, l1=(theorem == 6))
            payload = {"theorem": theorem, "kind": "order prediction",
                       "T1": res.T1, "T2": res.T2, "T_sample": res.T}
        text = _json_line(payload)
    if cfg.get("out"):
        _write_json(cfg["out"], payload)
        return HandlerOutput(text, (), (cfg["out"],))
    return HandlerOutput(text, (), ())


def _scenario_from_cfg(d: dict, seed: int) -> PhaseScenario:
    """PhaseScenario from a scenario object; keys other than the converted
    ones pass through, so an unknown key fails and PhaseScenario alone holds
    the defaults."""
    d = dict(d)
    system = system_from_source(d.pop("system", "hovorka-default"),
                                _number("dt", d.pop("dt", 0.5)), seed)
    return PhaseScenario(system=system,
                         attack_cfg=_attack_from_cfg(d.pop("attack_model", None)),
                         policy=_policy_from_cfg(d.pop("policy", None)),
                         solver=SolverConfig(**d.pop("solver", {})), **d)


def _run_phase(cfg: dict) -> HandlerOutput:
    seed = int(cfg["seed"])
    scenario = _scenario_from_cfg(cfg["scenario"], seed)
    curve = phase_transition(scenario, cfg["t_grid"], int(cfg["trials"]),
                             recovery_tol=cfg.get("recovery_tol"), seed=seed,
                             stop_after_threshold=bool(
                                 cfg.get("stop_after_threshold", False)))
    lines = ["T,success_rate,trials,threshold_flag"]
    for row in curve.rows:
        lines.append(f"{row.T},{row.success_rate!r},{row.trials},"
                     f"{row.threshold_flag}")
    with open(cfg["out"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"phase: threshold T* = {curve.threshold} "
          f"(success level {curve.success_level})", file=sys.stderr)
    inputs = (cfg["scenario_file"],) if cfg.get("scenario_file") else ()
    return HandlerOutput("", inputs, (cfg["out"],))


def _run_experiment(cfg: dict) -> HandlerOutput:
    spec = spec_from_dict(cfg["spec"])
    result = run_experiment(spec)
    paths = emit_plot_data(result, cfg["out_dir"])
    print(f"experiment: wrote {len(paths)} files under {cfg['out_dir']}",
          file=sys.stderr)
    for kind in spec.estimators:
        counts = Counter(c.stop_reason for c in result.cells
                         if c.estimator == kind)
        print(f"experiment: {kind} stop reasons: "
              + " ".join(f"{r}={counts[r]}" for r in sorted(counts)),
              file=sys.stderr)
    inputs = (cfg["spec_file"],) if cfg.get("spec_file") else ()
    return HandlerOutput("", inputs, tuple(str(p) for p in paths))


HANDLERS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "certify": _run_certify,
    "bound": _run_bound,
    "phase": _run_phase,
    "experiment": _run_experiment,
}


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="64-bit master seed (all randomness derives from it)")
    common.add_argument("--manifest", default=None,
                        help="manifest path (default: derived from the output)")

    p = _Parser(prog="robustsysid",
                description="Robust LTI system identification from a single "
                            "attack-corrupted trajectory")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="cmd", parser_class=_Parser)

    sim = sub.add_parser("simulate", parents=[common],
                         help="simulate a trajectory under an attack model")
    g = sim.add_mutually_exclusive_group()
    g.add_argument("--system", help="discrete system JSON file")
    g.add_argument("--hovorka", action="store_true",
                   help="discretized 6-state insulin model (default)")
    g.add_argument("--random-stable", nargs=2, metavar=("N", "RHO"),
                   help="random dense system rescaled to spectral radius RHO")
    sim.add_argument("--input-dim", type=int, default=0,
                     help="input count m for --random-stable")
    sim.add_argument("--dt", type=float, default=0.5)
    sim.add_argument("--T", type=int, required=True, help="horizon (steps)")
    sim.add_argument("--attack", choices=["bernoulli", "delta", "none"],
                     default="bernoulli")
    sim.add_argument("--p", type=float, default=0.2)
    sim.add_argument("--delta", type=int, default=2)
    sim.add_argument("--first", type=int, default=0)
    sim.add_argument("--attack-model", choices=["gaussian", "stealth"],
                     default="gaussian")
    sim.add_argument("--variance", type=float, default=10.0)
    sim.add_argument("--sigma", type=float, default=None,
                     help="stealth length scale (default sqrt(variance))")
    sim.add_argument("--length-law", default="gaussian",
                     choices=["gaussian", "uniform-bounded", "rademacher-scaled"])
    sim.add_argument("--support", default=None,
                     help="comma-separated attacked coordinates (gaussian model)")
    sim.add_argument("--coupling", type=float, default=0.0)
    sim.add_argument("--policy", choices=["zero", "iid-gaussian"], default="zero")
    sim.add_argument("--xi", type=float, default=1.0)
    sim.add_argument("--out", required=True, help="trajectory CSV path")
    sim.add_argument("--system-out", default=None,
                     help="also write the discrete system JSON here")

    est = sub.add_parser("estimate", parents=[common],
                         help="fit (A, B) to a trajectory CSV")
    est.add_argument("--traj", required=True)
    est.add_argument("--norm", choices=["l1", "l2", "ls"], required=True)
    est.add_argument("--max-iters", type=int, default=20_000)
    est.add_argument("--tol", type=float, default=None,
                     help="objective stopping tolerance (default: scale-aware)")
    est.add_argument("--polish", action="store_true",
                     help="attempt a certified exact refit of the support")
    est.add_argument("--system", default=None,
                     help="truth JSON; adds error_vs_truth to the output")
    est.add_argument("--out", default=None, help="output JSON (default stdout)")

    cert = sub.add_parser("certify", parents=[common],
                          help="KKT optimality certificate for an estimate",
                          description="l1 checks one exact box system per "
                                      "state coordinate, l2 the one exact "
                                      "l2-ball system; each verdict comes "
                                      "with a witness.")
    cert.add_argument("--traj", required=True)
    cert.add_argument("--norm", choices=["l1", "l2"], required=True)
    cg = cert.add_mutually_exclusive_group(required=True)
    cg.add_argument("--estimate", help="estimate JSON (from `estimate`)")
    cg.add_argument("--system", help="system JSON used as the candidate")
    cert.add_argument("--tol", type=float, default=1e-8)
    cert.add_argument("--support-tol", type=float, default=None)
    cert.add_argument("--out", default=None, help="output JSON (default stdout)")

    bnd = sub.add_parser("bound", parents=[common],
                         help="closed-form thresholds and sample-size predictions")
    bg = bnd.add_mutually_exclusive_group(required=True)
    bg.add_argument("--cnk", nargs=2, type=int, metavar=("N", "K"),
                    help="spectral-radius threshold C_{n,k}")
    bg.add_argument("--eigen-condition", action="store_true",
                    help="test the eigenvalue-sum condition (needs --eigs, --delta)")
    bg.add_argument("--theorem", type=int, choices=[2, 3, 5, 6],
                    help="sample-size order prediction")
    bnd.add_argument("--eigs", default=None,
                     help="comma-separated eigenvalues, e.g. '0.5,0.2+0.1j'")
    bnd.add_argument("--delta", type=int, default=None, help="attack period")
    bnd.add_argument("--tol", type=float, default=1e-12)
    bnd.add_argument("--n", type=int, default=None)
    bnd.add_argument("--m", type=int, default=0)
    bnd.add_argument("--p", type=float, default=None)
    bnd.add_argument("--rho", type=float, default=None)
    bnd.add_argument("--c", type=float, default=1.0)
    bnd.add_argument("--kappa", type=float, default=None)
    bnd.add_argument("--delta-prob", type=float, default=0.05,
                     help="failure probability delta")
    bnd.add_argument("--multiplier", type=float, default=1.0)
    bnd.add_argument("--out", default=None, help="also write JSON here")

    ph = sub.add_parser("phase", parents=[common],
                        help="empirical recovery-vs-horizon curve")
    ph.add_argument("--scenario", required=True, help="scenario JSON file")
    ph.add_argument("--t-grid", required=True,
                    help="comma-separated horizons, strictly increasing")
    ph.add_argument("--trials", type=int, default=50)
    ph.add_argument("--recovery-tol", type=float, default=None)
    ph.add_argument("--stop-after-threshold", action="store_true")
    ph.add_argument("--out", required=True, help="curve CSV path")

    exp = sub.add_parser("experiment", parents=[common],
                         help="error-vs-horizon study (insulin defaults)")
    exp.add_argument("--spec", default=None, help="experiment spec JSON")
    exp.add_argument("--p", type=float, default=None, help="override attack rate")
    exp.add_argument("--sparse", default=None,
                     help="override sparse support, e.g. '3,5' ('none' clears)")
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--out-dir", required=True)

    rep = sub.add_parser("replay", help="re-run a recorded manifest")
    rep.add_argument("--manifest", required=True)

    return p


# ---------------------------------------------------------------------------
# config resolution from parsed args


def _default_manifest(args, primary_out: str | None, cmd: str) -> str:
    if args.manifest:
        return args.manifest
    if primary_out:
        return f"{primary_out}.manifest.json"
    return f"{cmd}-manifest.json"


def _cfg_simulate(args) -> dict:
    if args.system:
        source = {"file": args.system}
    elif args.random_stable:
        n, rho = args.random_stable
        source = {"random-stable": {"n": int(n), "rho": float(rho),
                                    "m": args.input_dim, "seed": args.seed}}
    else:
        source = "hovorka-default"
    if args.attack == "none":
        attack = {"kind": "none"}
    elif args.attack == "delta":
        attack = {"kind": "delta", "delta": args.delta, "first": args.first}
    else:
        attack = {"kind": "bernoulli", "p": args.p}
    if args.attack_model == "gaussian":
        model = {"model": "gaussian", "variance": args.variance,
                 "support": list(_ints(args.support)) if args.support else None,
                 "coupling": args.coupling}
    else:
        sigma = args.sigma if args.sigma is not None else float(np.sqrt(args.variance))
        model = {"model": "stealth", "sigma": sigma,
                 "length_law": args.length_law, "coupling": args.coupling}
    policy = ({"kind": "zero"} if args.policy == "zero"
              else {"kind": "iid-gaussian", "xi": args.xi})
    return {"system": source, "dt": args.dt, "T": args.T, "attack": attack,
            "attack_model": model, "policy": policy, "seed": args.seed,
            "out": args.out, "system_out": args.system_out,
            "manifest": _default_manifest(args, args.out, "simulate")}


def _cfg_estimate(args) -> dict:
    return {"traj": args.traj, "norm": args.norm, "max_iters": args.max_iters,
            "tol": args.tol, "polish": args.polish, "system": args.system,
            "out": args.out, "seed": args.seed,
            "manifest": _default_manifest(args, args.out, "estimate")}


def _cfg_certify(args) -> dict:
    return {"traj": args.traj, "norm": args.norm, "estimate": args.estimate,
            "system": args.system, "tol": args.tol,
            "support_tol": args.support_tol, "out": args.out,
            "seed": args.seed,
            "manifest": _default_manifest(args, args.out, "certify")}


def _parse_eigs(text: str) -> list:
    vals = [complex(tok.strip().replace(" ", "")) for tok in text.split(",")
            if tok.strip()]
    if not vals:
        raise ValueError("--eigs needs at least one eigenvalue")
    return [[v.real, v.imag] for v in vals]


def _cfg_bound(args) -> dict:
    cfg = {"seed": args.seed, "out": args.out,
           "manifest": _default_manifest(args, args.out, "bound")}
    if args.cnk:
        cfg.update(mode="cnk", n=args.cnk[0], k=args.cnk[1], tol=args.tol)
    elif args.eigen_condition:
        if args.eigs is None or args.delta is None:
            raise _UsageError("--eigen-condition needs --eigs and --delta")
        cfg.update(mode="eigen", eigs=_parse_eigs(args.eigs), delta=args.delta)
    else:
        if args.n is None or args.p is None or args.rho is None:
            raise _UsageError("--theorem needs --n, --p and --rho")
        cfg.update(mode="theorem", theorem=args.theorem,
                   params={"n": args.n, "m": args.m, "p": args.p,
                           "rho": args.rho, "c": args.c, "kappa": args.kappa,
                           "delta": args.delta_prob,
                           "multiplier": args.multiplier})
    return cfg


def _cfg_phase(args) -> dict:
    scenario = _load_object(args.scenario, "a phase scenario")
    t_grid = [int(t) for t in _ints(args.t_grid)]
    return {"scenario": scenario, "scenario_file": args.scenario,
            "t_grid": t_grid, "trials": args.trials,
            "recovery_tol": args.recovery_tol,
            "stop_after_threshold": args.stop_after_threshold,
            "seed": args.seed, "out": args.out,
            "manifest": _default_manifest(args, args.out, "phase")}


def _cfg_experiment(args) -> dict:
    payload = {}
    if args.spec:
        payload = _load_object(args.spec, "an experiment spec")
    if args.p is not None:
        payload["p"] = args.p
    if args.sparse is not None:
        payload["sparse_support"] = (None if args.sparse == "none"
                                     else list(_ints(args.sparse)))
    if args.trials is not None:
        payload["trials"] = args.trials
    if args.seed != 0 or "seed" not in payload:
        payload["seed"] = args.seed
    spec = spec_from_dict(payload)  # validate + fill defaults now
    return {"spec": spec_to_dict(spec), "spec_file": args.spec,
            "out_dir": args.out_dir, "seed": spec.seed,
            "manifest": _default_manifest(
                args, str(args.out_dir).rstrip("/") + "/run", "experiment")}


CONFIG_BUILDERS = {
    "simulate": _cfg_simulate,
    "estimate": _cfg_estimate,
    "certify": _cfg_certify,
    "bound": _cfg_bound,
    "phase": _cfg_phase,
    "experiment": _cfg_experiment,
}


# ---------------------------------------------------------------------------
# dispatch


def _execute(cmd: str, cfg: dict) -> HandlerOutput:
    out = HANDLERS[cmd](cfg)
    manifest = {
        "subcommand": cmd,
        "config": cfg,
        "seed": cfg.get("seed"),
        "version": __version__,
        "inputs": {p: _sha256(p) for p in out.inputs},
        "outputs": {p: _sha256(p) for p in out.outputs},
        "stdout_sha256": hashlib.sha256(out.stdout.encode()).hexdigest(),
    }
    _write_json(cfg["manifest"], manifest)
    return out


def _changed_files(digests: dict) -> list:
    return [path for path, digest in digests.items() if _sha256(path) != digest]


def _run_replay(manifest_path: str) -> HandlerOutput:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    cmd = manifest["subcommand"]
    if cmd not in HANDLERS:
        raise ValueError(f"manifest names unknown subcommand {cmd!r}")
    changed = _changed_files(manifest["inputs"])
    if changed:
        raise ValueError(f"replay: inputs changed since the manifest was "
                         f"written, nothing re-run: {', '.join(changed)}")
    out = _execute(cmd, manifest["config"])
    changed = _changed_files(manifest["outputs"])
    if hashlib.sha256(out.stdout.encode()).hexdigest() != manifest["stdout_sha256"]:
        changed.append("stdout")
    if changed:
        raise ValueError(f"replay: outputs differ from the manifest: "
                         f"{', '.join(changed)}")
    return out


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)

    if args.cmd is None:
        parser.print_help(sys.stderr)
        return 1

    try:
        if args.cmd == "replay":
            out = _run_replay(args.manifest)
        else:
            cfg = CONFIG_BUILDERS[args.cmd](args)
            out = _execute(args.cmd, cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(out.stdout)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
