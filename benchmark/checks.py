"""Correctness checks computed apart from the program.

Everything here is plain numpy, csv, json and hashlib: objectives, errors,
replays and digests are recomputed from the raw arrays and files, never read
back from robustsysid. A check that fails raises WrongResult, except the
objective bound, which reports the known estimator fault (an estimate whose
objective lies above the truth's is not the estimator's minimizer) so that the
caller can count the op as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

REL = 1e-9          # relative slack for recomputed floating-point values
KINDS = ("group-l2", "entry-l1")


class WrongResult(Exception):
    """The program produced an output that is wrong."""


def residuals(states, inputs, A, B=None) -> np.ndarray:
    """Rows x_{t+1} - A x_t - B u_t for t < T."""
    states = np.asarray(states, dtype=float)
    R = states[1:] - states[:-1] @ np.asarray(A, dtype=float).T
    if B is not None and np.size(B):
        R = R - np.asarray(inputs, dtype=float) @ np.asarray(B, dtype=float).T
    return R


def sum_of_norms(R, kind: str) -> float:
    R = np.asarray(R, dtype=float)
    if kind == "group-l2":
        return float(np.sqrt((R * R).sum(axis=1)).sum())
    if kind == "entry-l1":
        return float(np.abs(R).sum())
    raise ValueError(f"unknown kind {kind!r}")


def frobenius_error(A_hat, A, B_hat=None, B=None) -> float:
    err2 = float(np.sum((np.asarray(A_hat, dtype=float) - A) ** 2))
    if B is not None and np.size(B):
        err2 += float(np.sum((np.asarray(B_hat, dtype=float) - B) ** 2))
    return float(np.sqrt(err2))


def above_truth(obj: float, truth_obj: float) -> bool:
    """The known fault: an estimate's objective above the truth's."""
    return obj > truth_obj * (1.0 + REL) + 1e-12


def expect_close(what: str, reported, recomputed, rel: float = REL,
                 abs_tol: float = 1e-12) -> None:
    if not abs(reported - recomputed) <= abs_tol + rel * abs(recomputed):
        raise WrongResult(f"{what}: program reports {reported!r}, "
                          f"recomputed {recomputed!r}")


def check_replay(what: str, states, inputs, dist, A, B=None,
                 tol: float = 1e-12) -> None:
    """x_{t+1} = A x_t + B u_t + d_t must hold on every recorded step."""
    states = np.asarray(states, dtype=float)
    gap = residuals(states, inputs, A, B) - np.asarray(dist, dtype=float)
    worst = float(np.max(np.abs(gap))) if gap.size else 0.0
    if not worst <= tol * (1.0 + float(np.max(np.abs(states)))):
        raise WrongResult(f"{what}: replay residual {worst:.3e}")


def read_trajectory_csv(path) -> dict:
    """Parse a trajectory CSV (header t,x_*,u_*,d_*,attacked) from scratch."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise WrongResult(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    n = sum(h.startswith("x_") for h in header)
    m = sum(h.startswith("u_") for h in header)
    expected = (["t"] + [f"x_{j}" for j in range(n)]
                + [f"u_{j}" for j in range(m)]
                + [f"d_{j}" for j in range(n)] + ["attacked"])
    if n == 0 or header != expected:
        raise WrongResult(f"{path}: bad header {header}")
    T = len(body) - 1
    try:
        if T < 1 or any(len(r) != len(header) or int(r[0]) != t
                        for t, r in enumerate(body)):
            raise WrongResult(f"{path}: ragged or non-contiguous rows")
        data = np.array([[float(v) for v in r[1:-1]] for r in body[:-1]])
        last = body[-1]
        if any(v != "" for v in last[1 + n:]):
            raise WrongResult(f"{path}: terminal row carries more than a state")
        x_T = np.array([float(v) for v in last[1:1 + n]])
        attacked = np.array([r[-1] for r in body[:-1]])
    except ValueError as exc:
        raise WrongResult(f"{path}: unparsable cell ({exc})") from exc
    states = np.vstack([data[:, :n], x_T])
    inputs = data[:, n:n + m]
    dist = data[:, n + m:]
    if not set(attacked) <= {"0", "1"}:
        raise WrongResult(f"{path}: attacked column must hold 0 or 1")
    if np.any((attacked == "1") != np.any(dist != 0.0, axis=1)):
        raise WrongResult(f"{path}: attacked flags disagree with d_t")
    return {"states": states, "inputs": inputs, "dist": dist}


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_manifest(path, base) -> None:
    """Every digest a CLI manifest records must match the file it names."""
    manifest = json.loads(Path(path).read_text())
    for group in ("inputs", "outputs"):
        for name, digest in manifest[group].items():
            if sha256_file(Path(base) / name) != digest:
                raise WrongResult(f"{path}: {group} digest of {name} "
                                  "does not match")
    if manifest["stdout_sha256"] != hashlib.sha256(b"").hexdigest():
        raise WrongResult(f"{path}: stdout digest of a run that wrote to --out")


# ---------------------------------------------------------------------------
# certificate verdicts, checked against the objective itself


def _descends(value_at, M: np.ndarray, D: np.ndarray) -> bool:
    """Some step along -D lowers the objective below its value at M."""
    f0 = value_at(M)
    scale = ((1.0 + float(np.linalg.norm(M)))
             / max(float(np.linalg.norm(D)), 1e-300))
    return any(value_at(M - scale * 10.0 ** -k * D) < f0 - 1e-12 * (1.0 + f0)
               for k in range(15))


def check_verdict(what: str, kind: str, verdict: str, systems, M, value_at,
                  others, rng) -> None:
    """Check a certificate verdict for the coefficient matrix M = [A B].

    ``systems`` holds (label, verdict, z) per certificate subsystem; ``others``
    are the other candidates held for the same data and norm. An "optimal"
    candidate may not be beaten by any of them nor by random perturbations of
    M. A "not-optimal" witness, applied to M, must lower the objective:
    entry-l1 coordinate witnesses move one row of M, the group-l2 ball witness
    all of it. (Group-l2 coordinate systems are only a sufficient test; their
    witnesses prove nothing, so the ball check's witness is the one checked.)
    """
    M = np.asarray(M, dtype=float)
    f0 = value_at(M)
    slack = REL * (1.0 + f0)
    if verdict == "optimal":
        for name, other in others:
            if value_at(other) < f0 - slack:
                raise WrongResult(f"{what}: certified optimal, but candidate "
                                  f"{name} has a lower objective")
        for _ in range(4):
            E = rng.standard_normal(M.shape)
            E *= (1.0 + float(np.linalg.norm(M))) / float(np.linalg.norm(E))
            for eps in (1e-6, 1e-3):
                if value_at(M + eps * E) < f0 - slack:
                    raise WrongResult(f"{what}: certified optimal, but a random "
                                      f"perturbation of size {eps:g} is lower")
    elif verdict == "not-optimal":
        witnesses = [(label, z) for label, v, z in systems
                     if v == "not-optimal" and z is not None
                     and (label == "l2-ball") == (kind == "group-l2")]
        if not witnesses:
            raise WrongResult(f"{what}: not-optimal without a witness")
        for label, z in witnesses:
            z = np.asarray(z, dtype=float)
            if label.startswith("coord-"):
                D = np.zeros_like(M)
                D[int(label[len("coord-"):])] = z
            else:
                D = z.reshape(M.shape)
            if not _descends(value_at, M, D):
                raise WrongResult(f"{what}: the {label} witness does not lower "
                                  "the objective")
    elif verdict != "inconclusive":
        raise WrongResult(f"{what}: unknown verdict {verdict!r}")
