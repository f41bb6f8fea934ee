"""Discrete-time LTI systems, attack models, and trajectory simulation.

The dynamics are x_{i+1} = A x_i + B u_i + d_i with x_0 = 0, where d_i is an
adversarial disturbance that is nonzero exactly on a set K of attack times.
This module builds systems (including a continuous-time insulin-glucose
compartment model plus forward-Euler discretization), attack schedules
(periodic and Bernoulli), disturbance samplers, and fully reproducible
simulated trajectories with CSV/JSON round-trip serialization.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .rng import substream

#: simulation aborts once any state coordinate exceeds this magnitude
OVERFLOW_LIMIT = 1e12

LENGTH_LAWS = ("gaussian", "uniform-bounded", "rademacher-scaled")
POLICY_KINDS = ("zero", "iid-gaussian", "feedback")


class SimulationOverflowError(RuntimeError):
    """State blew past OVERFLOW_LIMIT; ``step`` is the first offending index."""

    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(
            f"state overflow at step {step}: |x|_inf = {value:.3e} > {OVERFLOW_LIMIT:.0e}"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


# checks shared by the loaders of systems, specs and scenarios


def _real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _require(d, what: str, *keys) -> None:
    """ValueError naming ``what`` unless ``d`` is a dict with all ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object")
    for key in keys:
        if key not in d:
            raise ValueError(f"{what} needs the key {key!r}")


def spectral_radius(A) -> float:
    """Largest eigenvalue magnitude of a square matrix (dense eigensolve)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        return 0.0
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # QR iteration hit its cap
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    return float(np.max(np.abs(eigs)))


@dataclass(frozen=True)
class LtiSystem:
    """State-space pair (A, B); ``m = 0`` encodes an autonomous system.

    The spectral radius is computed once at construction and cached together
    with the ``stable`` flag (rho < 1, exact comparison).
    """

    A: np.ndarray
    B: np.ndarray
    rho: float = 0.0
    stable: bool = False

    def __init__(self, A, B=None):
        A = _readonly(np.atleast_2d(A))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B is None:
            B = np.zeros((n, 0))
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(n, -1)
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape}")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("A and B must be finite")
        B = _readonly(B)
        rho = spectral_radius(A)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "stable", bool(rho < 1.0))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def autonomous(self) -> bool:
        return self.m == 0


def discretize_euler(Ac, Bc=None, dt: float = 0.5) -> LtiSystem:
    """Forward-Euler discretization: A = I + dt*Ac, B = dt*Bc."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    Ac = np.atleast_2d(np.asarray(Ac, dtype=float))
    n = Ac.shape[0]
    A = np.eye(n) + dt * Ac
    B = None if Bc is None else dt * np.asarray(Bc, dtype=float)
    return LtiSystem(A, B)


# ---------------------------------------------------------------------------
# insulin-glucose compartment model (continuous time)

HOVORKA_PARAM_NAMES = (
    "k_a1", "k_a2", "k_a3", "k_b1", "k_b2", "k_b3", "t_max_I", "V_I", "k_e",
)

HOVORKA_STATE_LABELS = ("x1", "x2", "x3", "S1", "S2", "I")


def load_default_hovorka_params() -> dict:
    """Shipped default rate constants for the insulin compartment model."""
    text = resources.files("robustsysid").joinpath("data/hovorka_params.json").read_text()
    return json.loads(text)


def hovorka_continuous(params=None):
    """Continuous-time matrix of the 6-state insulin action/absorption model.

    States are ordered (x1, x2, x3, S1, S2, I): three insulin-action
    compartments, the two-stage subcutaneous absorption chain, and plasma
    insulin. Each action compartment decays at its own rate k_ai and is
    driven by plasma insulin through k_bi; S1 -> S2 -> I is a linear chain
    with time constant t_max_I; I is cleared at rate k_e. The model is
    autonomous here (B_c has zero columns): boluses and physiological shocks
    enter as disturbances, not control inputs.

    ``params`` may be a mapping, a path to a JSON file, or None for the
    shipped defaults (standard published values for this compartment model).

    Returns (Ac, Bc, labels).
    """
    if params is None:
        params = load_default_hovorka_params()
    elif isinstance(params, (str, Path)):
        with open(params) as fh:
            params = json.load(fh)
    missing = [k for k in HOVORKA_PARAM_NAMES if k not in params]
    if missing:
        raise ValueError(f"missing parameters: {missing}")
    vals = {k: float(params[k]) for k in HOVORKA_PARAM_NAMES}
    bad = [k for k, v in vals.items() if not (v > 0 and math.isfinite(v))]
    if bad:
        raise ValueError(f"parameters must be positive and finite: {bad}")

    tmi = vals["t_max_I"]
    Ac = np.zeros((6, 6))
    # insulin-action compartments: own decay plus plasma-insulin drive
    Ac[0, 0] = -vals["k_a1"]
    Ac[0, 5] = -vals["k_b1"]
    Ac[1, 1] = -vals["k_a2"]
    Ac[1, 5] = -vals["k_b2"]
    Ac[2, 2] = -vals["k_a3"]
    Ac[2, 5] = -vals["k_b3"]
    # absorption chain S1 -> S2
    Ac[3, 3] = -1.0 / tmi
    Ac[4, 3] = 1.0 / tmi
    Ac[4, 4] = -1.0 / tmi
    # plasma insulin fed by S2, cleared at k_e
    Ac[5, 4] = 1.0 / (tmi * vals["V_I"])
    Ac[5, 5] = -vals["k_e"]

    Bc = np.zeros((6, 0))
    return Ac, Bc, HOVORKA_STATE_LABELS


# ---------------------------------------------------------------------------
# attack schedules


@dataclass(frozen=True)
class AttackSchedule:
    """Horizon T plus the ordered set of attack times K subset {0..T-1}."""

    T: int
    times: tuple
    delta: int | None = None  # set when built periodic, informational

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("horizon T must be >= 1")
        times = tuple(int(t) for t in self.times)
        if any(t < 0 or t >= self.T for t in times):
            raise ValueError("attack times must lie in {0..T-1}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("attack times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def mask(self) -> np.ndarray:
        out = np.zeros(self.T, dtype=bool)
        if self.times:
            out[list(self.times)] = True
        return out

    def clean_times(self) -> tuple:
        attacked = set(self.times)
        return tuple(i for i in range(self.T) if i not in attacked)

    def truncated(self, T: int) -> "AttackSchedule":
        return AttackSchedule(T, tuple(t for t in self.times if t < T), self.delta)


def make_delta_spaced(T: int, delta: int, first_attack: int) -> AttackSchedule:
    """Periodic schedule: attacks at first_attack, first_attack+delta, ..."""
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if not 0 <= first_attack < delta:
        raise ValueError("first_attack must lie in {0..delta-1}")
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    return AttackSchedule(T, tuple(range(first_attack, T, delta)), delta=delta)


def make_bernoulli(T: int, p: float, seed: int) -> AttackSchedule:
    """Each time attacked independently with probability p (seeded)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    rng = substream(seed, "schedule")
    hits = rng.random(T) < p
    return AttackSchedule(T, tuple(int(i) for i in np.nonzero(hits)[0]))


# ---------------------------------------------------------------------------
# disturbance samplers


@dataclass(frozen=True)
class StealthAttackConfig:
    """Disturbance d = l*f: uniform direction f on the unit sphere and a
    mean-zero sub-Gaussian signed length l with scale ``sigma``.

    ``history_coupling`` beta in [0,1) makes successive length magnitudes
    dependent: l_k = sqrt(1-beta^2)*eps_k + beta*s_k*|l_{k-1}| with a fresh
    symmetric sign s_k, which keeps the conditional mean at zero (an AR
    recursion on the raw signed length would not).
    """

    sigma: float = 1.0
    length_law: str = "gaussian"
    history_coupling: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive")
        if self.length_law not in LENGTH_LAWS:
            raise ValueError(f"length_law must be one of {LENGTH_LAWS}")
        if not (_real(self.history_coupling) and 0.0 <= self.history_coupling < 1.0):
            raise ValueError("history_coupling must be a number in [0, 1)")


@dataclass(frozen=True)
class GaussianAttackConfig:
    """Dense Gaussian disturbance with per-coordinate ``variance``.

    ``support`` restricts nonzero coordinates to the given index subset.
    ``history_coupling`` works coordinate-wise like the stealth sampler's.
    """

    variance: float = 10.0
    support: tuple | None = None
    history_coupling: float = 0.0

    def __post_init__(self):
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValueError("variance must be positive")
        if self.support is not None:
            if not (isinstance(self.support, (tuple, list))
                    and all(_integer(i) and i >= 0 for i in self.support)):
                raise ValueError("support must be a list of integers >= 0")
            sup = tuple(sorted(int(i) for i in self.support))
            if len(set(sup)) != len(sup) or not sup:
                raise ValueError("support must be a nonempty set of indices")
            object.__setattr__(self, "support", sup)
        if not (_real(self.history_coupling) and 0.0 <= self.history_coupling < 1.0):
            raise ValueError("history_coupling must be a number in [0, 1)")

    def check_states(self, n: int, key: str = "support") -> None:
        """ValueError naming ``key`` unless every support index is below n."""
        if self.support is not None and self.support[-1] >= n:
            raise ValueError(f"{key} index {self.support[-1]} is out of range "
                             f"for a system with {n} states")


def _draw_length(cfg: StealthAttackConfig, rng) -> float:
    if cfg.length_law == "gaussian":
        return cfg.sigma * rng.standard_normal()
    if cfg.length_law == "uniform-bounded":
        # variance sigma^2 on the bounded interval
        half = math.sqrt(3.0) * cfg.sigma
        return rng.uniform(-half, half)
    return cfg.sigma * (1.0 if rng.random() < 0.5 else -1.0)


def _next_length(cfg: StealthAttackConfig, prev, rng) -> float:
    eps = _draw_length(cfg, rng)
    beta = cfg.history_coupling
    if beta == 0.0 or prev is None:
        return eps
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return math.sqrt(1.0 - beta * beta) * eps + beta * sign * abs(prev)


def _draw_direction(n: int, rng) -> np.ndarray:
    while True:
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
        if norm > 0:
            return g / norm


# Every sampler maps (cfg, n, prev, rng_dir, rng_len) to (d, history): one
# disturbance vector and the state the next attack depends on (the signed
# length for stealth, the vector itself for gaussian; prev is None at first).


def _sample_stealth(cfg: StealthAttackConfig, n: int, prev, rng_dir, rng_len):
    length = _next_length(cfg, prev, rng_len)
    while length == 0.0:  # measure-zero guard: attack vectors must be nonzero
        length = _draw_length(cfg, rng_len)
    return length * _draw_direction(n, rng_dir), length


def _sample_gaussian(cfg: GaussianAttackConfig, n: int, prev, rng_dir, rng_len):
    # the values come from rng_dir; rng_len draws the coupling signs
    scale = math.sqrt(cfg.variance)
    while True:
        d = scale * rng_dir.standard_normal(n)
        beta = cfg.history_coupling
        if beta > 0.0 and prev is not None:
            signs = np.where(rng_len.random(n) < 0.5, 1.0, -1.0)
            d = math.sqrt(1.0 - beta * beta) * d + beta * signs * np.abs(prev)
        if cfg.support is not None:
            keep = np.zeros(n, dtype=bool)
            keep[list(cfg.support)] = True
            d = np.where(keep, d, 0.0)
        if np.any(d != 0.0):
            return d, d


_SAMPLERS = {StealthAttackConfig: _sample_stealth,
             GaussianAttackConfig: _sample_gaussian}


def sample_stealth_attack(cfg: StealthAttackConfig, n: int, history=None, rng=None,
                          length_rng=None) -> np.ndarray:
    """One disturbance vector l*f with ||f||_2 = 1 exactly.

    ``history`` is the previous attack's signed length (None for the first
    attack). Directions are drawn from ``rng``; lengths from ``length_rng``
    (defaults to the same generator).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    if length_rng is None:
        length_rng = rng
    return _sample_stealth(cfg, n, history, rng, length_rng)[0]


# ---------------------------------------------------------------------------
# input policies


@dataclass(frozen=True)
class InputPolicy:
    """How u_i is generated: zero, iid Gaussian N(0, xi^2/m I), or linear
    feedback u_i = K_fb x_i + omega with Gaussian excitation omega."""

    kind: str = "zero"
    xi: float = 0.0
    K_fb: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"kind must be one of {POLICY_KINDS}")
        if self.kind != "zero":
            if not (self.xi > 0 and math.isfinite(self.xi)):
                raise ValueError(f"{self.kind} policy needs xi > 0")
        if self.kind == "feedback":
            if self.K_fb is None:
                raise ValueError("feedback policy needs K_fb")
            object.__setattr__(self, "K_fb", _readonly(np.atleast_2d(self.K_fb)))


def _draw_input(policy: InputPolicy, m: int, x: np.ndarray, rng) -> np.ndarray:
    if policy.kind == "zero":
        return np.zeros(m)
    noise = rng.normal(0.0, policy.xi / math.sqrt(m), m)
    if policy.kind == "iid-gaussian":
        return noise
    return policy.K_fb @ x + noise


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    """States x_0..x_T, inputs u_0..u_{T-1}, true disturbances d_0..d_{T-1}.

    ``schedule.times`` is exactly {i : d_i != 0}. ``seed`` is the master seed
    used to generate the data (None for trajectories loaded from disk).
    """

    states: np.ndarray
    inputs: np.ndarray
    disturbances: np.ndarray
    schedule: AttackSchedule
    seed: int | None = None

    def __post_init__(self):
        states = _readonly(np.atleast_2d(self.states))
        T = states.shape[0] - 1
        n = states.shape[1]
        inputs = _readonly(np.atleast_2d(self.inputs) if np.size(self.inputs) else
                           np.asarray(self.inputs, dtype=float).reshape(T, -1))
        dist = _readonly(np.atleast_2d(self.disturbances))
        if T < 1:
            raise ValueError("need at least one transition")
        if inputs.shape[0] != T or dist.shape != (T, n):
            raise ValueError("inconsistent trajectory array shapes")
        if self.schedule.T != T:
            raise ValueError("schedule horizon does not match trajectory length")
        if not all(np.isfinite(a).all() for a in (states, inputs, dist)):
            raise ValueError("trajectory states, inputs and disturbances "
                             "must be finite")
        if np.any(states[0] != 0.0):
            raise ValueError("trajectories start at x_0 = 0")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "disturbances", dist)

    @property
    def T(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    def prefix(self, T: int) -> "Trajectory":
        """The first T transitions of this trajectory (a true prefix)."""
        if not 1 <= T <= self.T:
            raise ValueError(f"prefix length must lie in [1, {self.T}]")
        return Trajectory(self.states[: T + 1], self.inputs[:T],
                          self.disturbances[:T], self.schedule.truncated(T), self.seed)


def simulate(system: LtiSystem, policy: InputPolicy, schedule: AttackSchedule,
             attack_cfg=None, seed: int = 0) -> Trajectory:
    """Roll the dynamics forward from x_0 = 0 under the given attack model.

    ``attack_cfg`` is a StealthAttackConfig or GaussianAttackConfig; it may be
    None only when the schedule has no attack times. Identical arguments give
    bit-identical trajectories: inputs, attack directions, and attack lengths
    each consume an independent sub-stream of the master seed.
    """
    n, m = system.n, system.m
    if policy.kind == "feedback" and policy.K_fb.shape != (m, n):
        raise ValueError(f"K_fb must be {m}x{n}, got {policy.K_fb.shape}")
    if policy.kind != "zero" and m == 0:
        raise ValueError(f"{policy.kind} policy requires m >= 1")
    if schedule.times and attack_cfg is None:
        raise ValueError("schedule has attacks but no attack_cfg was given")
    sample = _SAMPLERS.get(type(attack_cfg))
    if attack_cfg is not None and sample is None:
        raise TypeError("attack_cfg must be a Stealth/GaussianAttackConfig")
    if isinstance(attack_cfg, GaussianAttackConfig):
        attack_cfg.check_states(n)

    T = schedule.T
    rng_u = substream(seed, "inputs")
    rng_dir = substream(seed, "directions")
    rng_len = substream(seed, "lengths")

    states = np.zeros((T + 1, n))
    inputs = np.zeros((T, m))
    dist = np.zeros((T, n))
    attacked = schedule.mask()
    history = None

    x = states[0]
    for i in range(T):
        u = _draw_input(policy, m, x, rng_u)
        inputs[i] = u
        if attacked[i]:
            dist[i], history = sample(attack_cfg, n, history, rng_dir, rng_len)
        x = system.A @ x + (system.B @ u if m else 0.0) + dist[i]
        peak = float(np.max(np.abs(x))) if n else 0.0
        if not peak <= OVERFLOW_LIMIT:  # catches NaN too
            raise SimulationOverflowError(i, peak)
        states[i + 1] = x

    return Trajectory(states, inputs, dist, schedule, seed)


def replay_residual(traj: Trajectory, system: LtiSystem) -> float:
    """max_i ||x_{i+1} - A x_i - B u_i - d_i||_inf (0 for a faithful replay)."""
    X0 = traj.states[:-1]
    X1 = traj.states[1:]
    pred = X0 @ system.A.T + traj.disturbances
    if system.m:
        pred = pred + traj.inputs @ system.B.T
    return float(np.max(np.abs(X1 - pred)))


# ---------------------------------------------------------------------------
# serialization

def _fmt(v: float) -> str:
    return repr(float(v))


def _csv_header(n: int, m: int) -> list:
    return (["t"] + [f"x_{j}" for j in range(n)] + [f"u_{j}" for j in range(m)]
            + [f"d_{j}" for j in range(n)] + ["attacked"])


def save_trajectory_csv(traj: Trajectory, path) -> None:
    """Write header t,x_*,u_*,d_*,attacked; one row per time step.

    The final row (t = T) carries the terminal state only -- its input,
    disturbance, and attacked cells are left empty.
    """
    n, m, T = traj.n, traj.m, traj.T
    attacked = traj.schedule.mask()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(n, m))
        for t in range(T):
            row = ([str(t)] + [_fmt(v) for v in traj.states[t]]
                   + [_fmt(v) for v in traj.inputs[t]]
                   + [_fmt(v) for v in traj.disturbances[t]]
                   + [str(int(attacked[t]))])
            writer.writerow(row)
        writer.writerow([str(T)] + [_fmt(v) for v in traj.states[T]]
                        + [""] * (m + n) + [""])


def load_trajectory_csv(path) -> Trajectory:
    """Inverse of save_trajectory_csv (seed is not stored in the CSV).

    The header must be the one save_trajectory_csv writes for its n and m,
    and the terminal row must leave its input, disturbance and attacked
    cells empty. Every error names the file and the line.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty trajectory file")
    header = rows[0]
    n = sum(1 for h in header if h.startswith("x_"))
    m = sum(1 for h in header if h.startswith("u_"))
    if n == 0 or header != _csv_header(n, m):
        raise ValueError(f"{path}: line 1: the header must read t, x_0.., u_0.., "
                         "d_0.., attacked")
    body = rows[1:]
    T = len(body) - 1
    if T < 1:
        raise ValueError(f"{path}: need at least two data rows")
    states = np.zeros((T + 1, n))
    inputs = np.zeros((T, m))
    dist = np.zeros((T, n))
    times = []
    for t, row in enumerate(body):
        where = f"{path}: line {t + 2}"
        if len(row) != len(header):
            raise ValueError(f"{where} has {len(row)} fields, "
                             f"the header has {len(header)}")
        if row[0] != str(t):
            raise ValueError(f"{where}: time is {row[0]!r}, expected {t}")
        terminal = t == T
        if terminal and any(row[1 + n:]):
            raise ValueError(f"{where}: the terminal row carries the state "
                             "only; its u, d and attacked cells must be empty")
        try:
            values = [float(v) for v in (row[1:1 + n] if terminal else row[1:-1])]
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{where}: values must be finite")
        states[t] = values[:n]
        if terminal:
            break
        inputs[t] = values[n:n + m]
        dist[t] = values[n + m:]
        attacked = row[-1] == "1"
        if row[-1] not in ("0", "1") or attacked != bool(np.any(dist[t])):
            raise ValueError(f"{where}: attacked is {row[-1]!r}, but it must "
                             "be 1 where the disturbance is nonzero and 0 "
                             "elsewhere")
        if attacked:
            times.append(t)
    schedule = AttackSchedule(T, tuple(times))
    return Trajectory(states, inputs, dist, schedule, seed=None)


def save_system_json(system: LtiSystem, path) -> None:
    payload = {
        "n": system.n,
        "m": system.m,
        "A": system.A.tolist(),
        "B": system.B.tolist(),
        "rho": system.rho,
        "stable": system.stable,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_system_json(path) -> LtiSystem:
    """Inverse of save_system_json. n and m come from the shapes of A and B
    (no B: autonomous); optional n and m fields must agree with them."""
    with open(path) as fh:
        payload = json.load(fh)
    _require(payload, f"{path}: a system JSON", "A")
    system = LtiSystem(np.asarray(payload["A"], dtype=float), payload.get("B"))
    if (payload.get("n", system.n) != system.n
            or payload.get("m", system.m) != system.m):
        raise ValueError(f"{path}: dimension fields disagree with matrix shapes")
    return system


def random_stable_system(n: int, rho_target: float, seed: int, m: int = 0) -> LtiSystem:
    """Random dense A rescaled to spectral radius ``rho_target`` (plus
    optional Gaussian B), for synthetic studies."""
    if not 0 < rho_target:
        raise ValueError("rho_target must be positive")
    rng = substream(seed, "system")
    while True:
        A = rng.standard_normal((n, n))
        r = spectral_radius(A)
        if r > 0:
            break
    A = A * (rho_target / r)
    B = rng.standard_normal((n, m)) if m else None
    return LtiSystem(A, B)
