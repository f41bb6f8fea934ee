"""Least squares and the two sum-of-norms convex estimators.

Given one trajectory of x_{i+1} = A x_i + B u_i + d_i, the group-l2 estimator
minimizes sum_t ||x_{t+1} - A x_t - B u_t||_2 and the entry-l1 estimator the
same sum with ||.||_1. Both are convex and non-smooth; large residuals enter
linearly, so sparse-in-time attacks are absorbed by the residual instead of
biasing (A, B). ``fit`` is the one entry point for every kind and picks the
solver: least squares in closed form; a sum-of-norms fit of a scalar
autonomous trajectory exactly, as a weighted median; a warm start that the
KKT certificate proves optimal as it is; everything else by iteratively
reweighted least squares (IRLS), then an optional certified refit that
jumps from a near-solution to the exact minimizer. The
diminishing-step subgradient solver ``solve_subgradient``, whose step size is
its own argument, is the reference the IRLS fits are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lti import Trajectory, _integer, _real

KINDS = ("least-squares", "group-l2", "entry-l1")

_ALIASES = {
    "ls": "least-squares",
    "l2": "group-l2",
    "l1": "entry-l1",
}


def canonical_kind(kind: str) -> str:
    kind = _ALIASES.get(kind, kind)
    if kind not in KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    return kind


def _regressors(traj: Trajectory):
    # rows z_t = (x_t, u_t); targets y_t = x_{t+1}
    X0 = traj.states[:-1]
    Y = traj.states[1:]
    Z = np.hstack([X0, traj.inputs]) if traj.m else X0
    return Z, Y


def _split(theta: np.ndarray, n: int, m: int):
    A_hat = theta[:n].T.copy()
    B_hat = theta[n:].T.copy() if m else None
    return A_hat, B_hat


def least_squares(traj: Trajectory):
    """Joint (A, B) least-squares fit; minimum-norm on rank-deficient data.

    Returns (A_hat, B_hat) with B_hat None for autonomous trajectories.
    """
    Z, Y = _regressors(traj)
    theta, *_ = np.linalg.lstsq(Z, Y, rcond=None)
    return _split(theta, traj.n, traj.m)


def residual_matrix(traj: Trajectory, A, B=None) -> np.ndarray:
    """Implied disturbances d_hat_t = x_{t+1} - A x_t - B u_t, shape (T, n).

    Raises ValueError when A or B has the wrong shape or a non-finite entry.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = traj.n
    if A.shape != (n, n):
        raise ValueError(f"A must be {n}x{n}, got {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("A and B must be finite")
    R = traj.states[1:] - traj.states[:-1] @ A.T
    if traj.m:
        if B is None:
            raise ValueError("trajectory has inputs but no B was given")
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape != (n, traj.m):
            raise ValueError(f"B must be {n}x{traj.m}, got {B.shape}")
        if not np.isfinite(B).all():
            raise ValueError("A and B must be finite")
        R = R - traj.inputs @ B.T
    elif B is not None and np.size(B):
        raise ValueError("autonomous trajectory but B was given")
    return R


def _norm_sum(R: np.ndarray, kind: str) -> float:
    if kind == "group-l2":
        return float(np.sqrt(np.einsum("ij,ij->i", R, R)).sum())
    return float(np.abs(R).sum())


def objective(traj: Trajectory, A, B=None, kind: str = "group-l2") -> float:
    """Sum-of-norms objective at (A, B); at the truth it equals sum ||d_i||."""
    kind = canonical_kind(kind)
    if kind == "least-squares":
        raise ValueError("least-squares has no sum-of-norms objective")
    return _norm_sum(residual_matrix(traj, A, B), kind)


def estimation_error(A_hat, A_true, B_hat=None, B_true=None) -> float:
    """Frobenius error ||A_hat - A_true||_F, jointly over (A, B) when given.

    A B with no entries (the (n, 0) B of an autonomous system) counts as absent.
    """
    A_hat = np.atleast_2d(np.asarray(A_hat, dtype=float))
    A_true = np.atleast_2d(np.asarray(A_true, dtype=float))
    if A_hat.shape != A_true.shape:
        raise ValueError(f"shape mismatch: {A_hat.shape} vs {A_true.shape}")
    err2 = float(np.sum((A_hat - A_true) ** 2))
    if B_hat is not None and not np.size(B_hat):
        B_hat = None
    if B_true is not None and not np.size(B_true):
        B_true = None
    if (B_hat is None) != (B_true is None):
        raise ValueError("give both B_hat and B_true or neither")
    if B_hat is not None:
        B_hat = np.atleast_2d(np.asarray(B_hat, dtype=float))
        B_true = np.atleast_2d(np.asarray(B_true, dtype=float))
        if B_hat.shape != B_true.shape:
            raise ValueError(f"shape mismatch: {B_hat.shape} vs {B_true.shape}")
        err2 += float(np.sum((B_hat - B_true) ** 2))
    return math.sqrt(err2)


# ---------------------------------------------------------------------------
# exact scalar solver


@dataclass(frozen=True)
class ScalarExactResult:
    a_hat: float
    objective: float
    degenerate: bool = False  # every a optimal (all regressor states zero)


def solve_scalar_exact(traj: Trajectory) -> ScalarExactResult:
    """Exact minimizer of sum_i |x_{i+1} - a x_i| (scalar autonomous case).

    The objective is piecewise linear in a:

        sum_{x_i != 0} |x_i| * |x_{i+1}/x_i - a|  +  sum_{x_i = 0} |x_{i+1}|,

    so the minimizer is a weighted median of the breakpoints x_{i+1}/x_i with
    weights |x_i|. Ties (a flat optimal interval) break toward the smallest
    breakpoint. All x_i = 0 makes every a optimal: returns 0 with the
    degenerate flag set.
    """
    if traj.n != 1 or traj.m != 0:
        raise ValueError("solve_scalar_exact needs a scalar autonomous trajectory")
    x = traj.states[:, 0]
    xi, xnext = x[:-1], x[1:]
    nz = xi != 0.0
    if not np.any(nz):
        return ScalarExactResult(0.0, float(np.abs(xnext).sum()), degenerate=True)
    b = xnext[nz] / xi[nz]
    w = np.abs(xi[nz])
    order = np.argsort(b, kind="stable")
    b, w = b[order], w[order]
    csum = np.cumsum(w)
    # first index where the cumulative weight reaches half the total: left
    # endpoint of the optimal interval, i.e. the smallest optimal breakpoint
    idx = int(np.searchsorted(csum, csum[-1] / 2.0, side="left"))
    a_hat = float(b[idx])
    obj = float(np.abs(xnext - a_hat * xi).sum())
    return ScalarExactResult(a_hat, obj)


# ---------------------------------------------------------------------------
# iterative sum-of-norms solvers


@dataclass(frozen=True)
class SolverConfig:
    """Settings of solve_irls and solve_subgradient: ``max_iters`` caps the
    steps, ``tol`` stops on the best objective (None: scale-aware default)."""

    max_iters: int = 20_000
    tol: float | None = None

    def __post_init__(self):
        if not (_integer(self.max_iters) and self.max_iters >= 0):
            raise ValueError("max_iters must be an integer >= 0")
        if self.tol is not None and not (_real(self.tol) and self.tol >= 0):
            raise ValueError("tol must be a number >= 0")


@dataclass(frozen=True)
class EstimationResult:
    """Solver output: estimate, objective, implied disturbances, trace."""

    A_hat: np.ndarray
    B_hat: np.ndarray | None
    objective: float
    residuals: np.ndarray
    iterations_used: int
    trace: tuple = field(repr=False)  # ((iteration, best objective), ...)
    kind: str = "group-l2"
    stop_reason: str = "max-iters"

    def theta(self) -> np.ndarray:
        if self.B_hat is None:
            return self.A_hat.T.copy()
        return np.vstack([self.A_hat.T, self.B_hat.T])


def _log_points(max_iters: int):
    pts = {0, max_iters}
    k = 1
    while k < max_iters:
        pts.add(k)
        k = max(k + 1, int(k * 1.12))
    return pts


def _lstsq(Z: np.ndarray, Y: np.ndarray, step: int) -> np.ndarray:
    try:
        return np.linalg.lstsq(Z, Y, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"least squares failed at iteration {step}: {exc}") from exc


def _l1_step(Z: np.ndarray, Y: np.ndarray, w: np.ndarray, buf: np.ndarray,
             step: int) -> np.ndarray:
    """Entry-l1 IRLS coefficients: column j least-squares fits Y[:, j] on Z
    with row t weighted by w[t, j] (w of shape (T, n)).

    Fills ``buf`` (shape (n, T, d + 1)) with the blocks [Z w_j | y_j w_j]
    and solves all n fits from one batched QR of them. When T < d or a
    diagonal of R shows rank deficiency, fits each column by ``lstsq``
    instead, which returns the minimum-norm solution. Raises RuntimeError
    naming ``step`` when a factorization fails.
    """
    T, d = Z.shape
    np.multiply(Z, w.T[:, :, None], out=buf[:, :, :d])
    np.multiply(Y.T, w.T, out=buf[:, :, d])
    if T >= d:
        try:
            R = np.linalg.qr(buf, mode="r")
            diag = np.abs(np.diagonal(R[:, :d, :d], axis1=1, axis2=2))
            rank_tol = np.finfo(float).eps * T * diag.max(axis=1)
            if not (diag <= rank_tol[:, None]).any():
                return np.linalg.solve(R[:, :d, :d], R[:, :d, d:])[:, :, 0].T
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"least squares failed at iteration {step}: {exc}") from exc
    return np.column_stack([_lstsq(buf[j, :, :d], buf[j, :, d], step)
                            for j in range(buf.shape[0])])


def _start(traj: Trajectory, kind: str, cfg: SolverConfig, theta0=None):
    """Regressors, starting coefficients and stop tolerance of a solver.

    The start is ``theta0`` when given, else least squares. Raises
    RuntimeError when the least-squares start fails or when the objective at
    the start or the stop tolerance is not finite.
    """
    kind = canonical_kind(kind)
    if kind == "least-squares":
        raise ValueError("use least_squares() for the quadratic objective")
    Z, Y = _regressors(traj)
    shape = (Z.shape[1], traj.n)
    if theta0 is not None:
        theta = np.array(theta0, dtype=float)
        if theta.shape != shape:
            raise ValueError(f"theta0 must have shape {shape}, got {theta.shape}")
    else:
        theta = _lstsq(Z, Y, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        start_obj = _norm_sum(Y - Z @ theta, kind)
    if not math.isfinite(start_obj):
        raise RuntimeError("objective is not finite at the starting point")
    stop_tol = cfg.tol
    if stop_tol is None:
        with np.errstate(over="ignore"):
            stop_tol = 1e-9 * (1.0 + float(np.linalg.norm(Y, axis=1).sum()))
    if not math.isfinite(stop_tol):
        raise RuntimeError("stop tolerance is not finite")
    return kind, Z, Y, theta, stop_tol


def _finish(traj: Trajectory, kind: str, best_theta, best_obj: float,
            iters: int, trace: list, stop: str) -> EstimationResult:
    """EstimationResult of a solver run; closes the trace at ``iters``."""
    if trace[-1][0] != iters:
        trace.append((iters, best_obj))
    A_hat, B_hat = _split(best_theta, traj.n, traj.m)
    return EstimationResult(
        A_hat=A_hat, B_hat=B_hat, objective=best_obj,
        residuals=residual_matrix(traj, A_hat, B_hat),
        iterations_used=iters, trace=tuple(trace), kind=kind, stop_reason=stop)


def solve_subgradient(traj: Trajectory, kind: str = "group-l2",
                      config: SolverConfig | None = None,
                      eta0: float | None = None) -> EstimationResult:
    """Diminishing-step subgradient descent on the sum-of-norms objective.

    The reference solver the IRLS fits are tested against (``fit`` does not
    run it), started from least squares. Residual rows r_t accumulate
    subgradient directions g_t x_t^T (and g_t u_t^T) with g_t = r_t/||r_t||_2
    for group-l2, sign(r_t) for entry-l1, and g_t = 0 at r_t = 0, so an exact
    solution is a fixed point. Step k has size eta0 / sqrt(k + 1); eta0 =
    None calibrates it so the first move is ~5% of the coefficient scale.
    Returns the best iterate seen; the trace logs (iteration, best
    objective) on a sparse geometric grid. Stops on best objective <= tol
    (tol = None picks 1e-9 * (1 + sum_t ||x_{t+1}||_2), so exact fits stop
    immediately at any data scale) or at max_iters.

    Raises ValueError when eta0 is not positive, and RuntimeError when the
    objective or the stop tolerance is not finite at the start, or when the
    objective becomes non-finite (divergence).
    """
    if eta0 is not None and not eta0 > 0:
        raise ValueError("eta0 must be positive")
    cfg = config or SolverConfig()
    kind, Z, Y, theta, stop_tol = _start(traj, kind, cfg)
    R = np.empty_like(Y)
    G = np.empty_like(Y)
    norms = np.empty(Z.shape[0])
    l2 = kind == "group-l2"

    def eval_objective(th) -> float:
        np.matmul(Z, th, out=R)
        np.subtract(Y, R, out=R)
        if l2:
            np.einsum("ij,ij->i", R, R, out=norms)
            np.sqrt(norms, out=norms)
            return float(norms.sum())
        return float(np.abs(R).sum())

    obj = eval_objective(theta)
    if eta0 is None:
        # a fixed step misbehaves at large ||x_t||: the subgradient grows
        # with the state scale while the distance to the optimum does not
        if l2:
            G[:] = R / np.maximum(norms, 1e-300)[:, None]
        else:
            np.sign(R, out=G)
        g0 = float(np.linalg.norm(Z.T @ G))
        eta0 = 0.05 * (1.0 + float(np.linalg.norm(theta))) / max(g0, 1e-300)
    best_obj = obj
    best_theta = theta.copy()
    trace = [(0, best_obj)]
    log_at = _log_points(cfg.max_iters)
    stop = "max-iters"
    iters = 0

    if best_obj <= stop_tol:
        stop = "tolerance"
    else:
        for k in range(cfg.max_iters):
            # R currently holds the residuals at theta (left by eval_objective)
            if l2:
                # 0/tiny = 0 keeps the zero-residual subgradient at 0
                G[:] = R / np.maximum(norms, 1e-300)[:, None]
            else:
                np.sign(R, out=G)
            eta = eta0 / math.sqrt(k + 1)
            theta += eta * (Z.T @ G)

            obj = eval_objective(theta)
            if not math.isfinite(obj):
                raise RuntimeError(
                    f"objective diverged at iteration {k + 1}; reduce eta0")
            iters = k + 1
            if obj < best_obj:
                best_obj = obj
                best_theta[:] = theta
            if iters in log_at:
                trace.append((iters, best_obj))
            if best_obj <= stop_tol:
                stop = "tolerance"
                break

    return _finish(traj, kind, best_theta, best_obj, iters, trace, stop)


# ---------------------------------------------------------------------------
# iteratively reweighted least squares


_EPS_FLOOR = 1e-14   # smallest smoothing of the IRLS weights
_STALL_STEPS = 5     # window of steps at the floor that IRLS judges progress on
_STALL_RTOL = 1e-10  # relative fall of the best objective over that window


def solve_irls(traj: Trajectory, kind: str = "group-l2",
               config: SolverConfig | None = None,
               theta0=None) -> EstimationResult:
    """Iteratively reweighted least squares on the sum-of-norms objective.

    Each step solves a weighted least-squares problem whose weights come
    from the current residuals: row t gets 1/max(||r_t||_2, eps) for
    group-l2 (Weiszfeld's weights), entry (t, l) gets 1/max(|r_tl|, eps) for
    entry-l1 (a separate weighted fit per state coordinate). The smoothing
    eps starts at the median residual norm (the mean when more than half the
    rows fit exactly) and halves every step down to 1e-14, so clean rows
    gain weight as their residuals shrink and attacked rows lose it
    (Daubechies, DeVore, Fornasier & Guentuerk, CPAM 2010; Beck & Sabach,
    JOTA 2015). Each step works on sqrt-weighted rows, never the normal
    equations, which turn singular once the weights blow up: group-l2 by
    one ``lstsq``, entry-l1 by one batched QR of the per-coordinate blocks
    (``_l1_step``).

    Starts from least squares, or from ``theta0``. Returns the best iterate
    seen, with the trace on the grid solve_subgradient uses. Stops on best
    objective <= tol ("tolerance", tol = None as for solve_subgradient),
    once eps is at its floor and the best objective has fallen by at most
    1e-10 relative over the last 5 steps ("converged": this also ends the
    slow crawl IRLS can fall into at the floor), or at max_iters. Raises
    RuntimeError when the objective or the stop tolerance is not finite at
    the start, or when a step fails or leaves a non-finite objective.
    """
    cfg = config or SolverConfig()
    kind, Z, Y, theta, stop_tol = _start(traj, kind, cfg, theta0)
    l2 = kind == "group-l2"

    def sizes(R):
        return np.sqrt(np.einsum("ij,ij->i", R, R)) if l2 else np.abs(R)

    R = Y - Z @ theta
    best_obj = _norm_sum(R, kind)
    best_theta = theta
    eps = float(np.median(sizes(R)))
    if eps <= _EPS_FLOOR:
        # more than half the rows fit exactly: a floor start would end the
        # run in one stall window, before the other rows are down-weighted
        eps = max(float(sizes(R).mean()), _EPS_FLOOR)
    buf = None if l2 else np.empty((traj.n, Z.shape[0], Z.shape[1] + 1))
    trace = [(0, best_obj)]
    log_at = _log_points(cfg.max_iters)
    stop = "max-iters"
    iters = 0
    floor_best = []  # best objective before each step taken at the eps floor

    if best_obj <= stop_tol:
        stop = "tolerance"
    else:
        for k in range(cfg.max_iters):
            if eps <= _EPS_FLOOR:
                floor_best.append(best_obj)
            w = 1.0 / np.sqrt(np.maximum(sizes(R), eps))
            if l2:
                theta = _lstsq(Z * w[:, None], Y * w[:, None], k + 1)
            else:
                theta = _l1_step(Z, Y, w, buf, k + 1)
            R = Y - Z @ theta
            obj = _norm_sum(R, kind)
            if not math.isfinite(obj):
                raise RuntimeError(f"objective diverged at iteration {k + 1}")
            iters = k + 1
            if obj < best_obj:
                best_obj, best_theta = obj, theta
            if iters in log_at:
                trace.append((iters, best_obj))
            if best_obj <= stop_tol:
                stop = "tolerance"
                break
            if (len(floor_best) >= _STALL_STEPS
                    and floor_best[-_STALL_STEPS] - best_obj
                    <= _STALL_RTOL * best_obj):
                stop = "converged"
                break
            eps = max(eps / 2.0, _EPS_FLOOR)

    return _finish(traj, kind, best_theta, best_obj, iters, trace, stop)


_POLISH_ROUNDS = 3       # refit rounds, each splitting at the last round's residuals
_POLISH_SPLITS = 4       # largest gaps tried as the clean/attacked split per round
_POLISH_MIN_RATIO = 2.0  # smallest multiplicative gap that counts as a split


def polish_estimate(traj: Trajectory, A0, B0=None, kind: str = "group-l2",
                    certify: bool = True):
    """Jump from a near-solution to the exact minimizer by support trimming.

    Sorts the residual row norms at the current iterate, splits them at the
    4 largest multiplicative gaps of at least 2 (clean rows below, attacked
    rows above), refits (A, B) by least squares on the clean rows, and keeps
    the refit with the lowest sum-of-norms objective; repeats up to 3 rounds
    so a partially-right split can sharpen the next one. Acceptance is by
    strict objective decrease, which is sound for a convex objective no
    matter how the candidate was produced. Returns an EstimationResult or
    None when nothing improved; with ``certify`` the stop_reason upgrades to
    "polish-certified" when the KKT check confirms a global minimizer.

    Near exact recovery the clean rows have residual ~ ||A0 - A|| * ||x_t||
    while attacked rows keep ||d_t||, so the gap is wide and the refit on
    the true clean rows lands on the truth exactly.
    """
    kind = canonical_kind(kind)
    if kind == "least-squares":
        raise ValueError("polish applies to the sum-of-norms objectives")
    Z, Y = _regressors(traj)
    T, d = Z.shape
    if T < 2:
        return None

    def row_norms(R):
        if kind == "group-l2":
            return np.linalg.norm(R, axis=1)
        return np.abs(R).sum(axis=1)

    R_cur = residual_matrix(traj, A0, B0)
    base_obj = _norm_sum(R_cur, kind)
    A_cur, B_cur, obj_cur = None, None, base_obj

    for _ in range(_POLISH_ROUNDS):
        s_all = row_norms(R_cur)
        order = np.argsort(s_all, kind="stable")
        s = s_all[order]
        ratios = s[1:] / np.maximum(s[:-1], 1e-300)
        step = None
        for j in np.argsort(ratios)[::-1][:_POLISH_SPLITS]:
            if ratios[j] < _POLISH_MIN_RATIO:  # no plausible separation left
                break
            if j + 1 < d:  # refit would be underdetermined
                continue
            clean = order[: j + 1]
            theta, *_ = np.linalg.lstsq(Z[clean], Y[clean], rcond=None)
            A_hat, B_hat = _split(theta, traj.n, traj.m)
            Rj = residual_matrix(traj, A_hat, B_hat)
            obj = _norm_sum(Rj, kind)
            if obj < obj_cur and (step is None or obj < step[0]):
                step = (obj, A_hat, B_hat, Rj)
        if step is None:
            break
        obj_cur, A_cur, B_cur, R_cur = step

    if A_cur is None or not obj_cur < base_obj:
        return None
    stop = "polish"
    if certify:
        from .certificates import kkt_certificate
        if kkt_certificate(traj, A_cur, B_cur, kind).verdict == "optimal":
            stop = "polish-certified"
    return EstimationResult(
        A_hat=A_cur, B_hat=B_cur, objective=obj_cur, residuals=R_cur,
        iterations_used=0, trace=((0, obj_cur),), kind=kind, stop_reason=stop)


def _certified_start(traj: Trajectory, kind: str, config, theta0):
    """The warm start as solve_irls would return it unmoved, with stop_reason
    "warm-certified", when kkt_certificate proves it a minimizer; else None.

    Validates ``theta0`` as solve_irls does (same ValueError and
    RuntimeError), so a start that passes is finite.
    """
    from .certificates import kkt_certificate
    kind, Z, Y, theta, _ = _start(traj, kind, config or SolverConfig(), theta0)
    A_hat, B_hat = _split(theta, traj.n, traj.m)
    if kkt_certificate(traj, A_hat, B_hat, kind).verdict != "optimal":
        return None
    obj = _norm_sum(Y - Z @ theta, kind)
    return _finish(traj, kind, theta, obj, 0, [(0, obj)], "warm-certified")


def fit(traj: Trajectory, kind: str, config: SolverConfig | None = None,
        polish: bool = True, theta0=None) -> EstimationResult:
    """Fit (A, B) with the solver that suits ``kind`` and the data.

    Least squares is solved in closed form (objective nan, stop_reason
    "closed-form") and a sum-of-norms fit of a scalar autonomous trajectory
    exactly by solve_scalar_exact (stop_reason "exact"); both report 0
    iterations and ignore the other arguments. Anything else first checks a
    given ``theta0`` with kkt_certificate: a warm start it proves optimal is
    returned as is (stop_reason "warm-certified", 0 iterations, whatever
    ``config`` and ``polish`` say). Otherwise it runs solve_irls with
    ``config`` from ``theta0`` or least squares, then with ``polish`` the
    exact refit of its support once, kept only when its objective is
    strictly lower; the result reports the IRLS iteration count. Raises
    ValueError when ``theta0`` has the wrong shape, and RuntimeError when
    the objective or stop tolerance is not finite at the start, or when an
    IRLS step fails.
    """
    kind = canonical_kind(kind)
    if kind == "least-squares":
        A_hat, B_hat = least_squares(traj)
        obj, stop = math.nan, "closed-form"
    elif traj.n == 1 and traj.m == 0:
        exact = solve_scalar_exact(traj)
        A_hat, B_hat = np.array([[exact.a_hat]]), None
        obj, stop = exact.objective, "exact"
    else:
        if theta0 is not None:
            warm = _certified_start(traj, kind, config, theta0)
            if warm is not None:
                return warm
        res = solve_irls(traj, kind, config, theta0)
        if polish:
            pol = polish_estimate(traj, res.A_hat, res.B_hat, kind)
            if pol is not None and pol.objective < res.objective:
                return replace(pol, iterations_used=res.iterations_used)
        return res
    return EstimationResult(
        A_hat=A_hat, B_hat=B_hat, objective=obj,
        residuals=residual_matrix(traj, A_hat, B_hat), iterations_used=0,
        trace=((0, obj),), kind=kind, stop_reason=stop)
