"""Optimality certificates and deterministic exact-recovery conditions.

Whether a candidate (A, B) minimizes the sum-of-norms objective reduces to a
feasibility question over the clean-time regressors z_i: do columns v_i with
||v_i||_2 <= 1 solve sum_i v_i z_i' = G? Group-l2 asks it once, with v_i in
R^n. Entry-l1 asks it once per coordinate with v_i in R^1, where the ball is
the box: do multipliers w with ||w||_inf <= 1 exist with F w = g, where F
collects the free regressors and g the pinned subgradient load? By duality
this holds iff f(z) = z'g + ||z'F||_1 is nonnegative on the unit sphere. One
projected-gradient solver, ``_ball_feasible``, decides both. Every 50 steps
it tests the dual value of the current residual direction and stops at the
first direction that refutes feasibility; failing that, it refines the
iterate and stops as soon as the refined one solves the system. Every
verdict ships a checkable witness: a feasible w or V, or a direction z or Z
along which the dual value is negative.

Also here: the scalar clean-mass condition, the Krylov span condition and the
eigenvalue-sum condition for periodic attacks, and the spectral-radius
threshold C_{n,k} those conditions induce for repeated eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import _regressors, canonical_kind, residual_matrix
from .lti import Trajectory

NET_BUDGET = 10_000_000  # hard cap on sphere-net evaluations
DUAL_CHECK_EVERY = 50  # projected-gradient steps between refutation tests


@dataclass(frozen=True)
class FarkasInstance:
    """One coordinate's box-feasibility system: columns of F are the free
    regressors, g the pinned subgradient load."""

    F: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        g = np.asarray(self.g, dtype=float).ravel()
        if F.shape[0] != g.size:
            raise ValueError(f"F has {F.shape[0]} rows but g has {g.size}")
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(g))):
            raise ValueError("F and g must be finite")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class SystemReport:
    """One system's outcome inside a Certificate, with its own witness. For
    "l2-ball", F holds the clean regressors as columns, g is G flattened, w
    the matrix V (one column per clean time) and z the direction Z."""

    label: str
    verdict: str
    margin: float
    F: np.ndarray
    g: np.ndarray
    w: np.ndarray | None = None
    z: np.ndarray | None = None


@dataclass(frozen=True)
class Certificate:
    """verdict in {optimal, not-optimal, inconclusive}; margin is the worst
    2-norm (Frobenius) feasibility residual (optimal, inconclusive) or the
    dual value found (violation)."""

    verdict: str
    margin: float
    witness_w: np.ndarray | None = None
    witness_z: np.ndarray | None = None
    flags: tuple = ()
    systems: tuple = ()


def farkas_value(F, g, z) -> float:
    """f(z) = z'g + ||z'F||_1; nonnegative on the sphere iff Fw = g is
    solvable with ||w||_inf <= 1."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    g = np.asarray(g, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    return float(z @ g + np.abs(z @ F).sum())


def farkas_feasible(F, g, tol: float = 1e-8, max_iters: int = 20_000) -> Certificate:
    """Decide solvability of Fw = g with w entrywise in [-1, 1].

    The box [-1, 1] is the unit ball of R^1, so this is the one-row ball
    system of ``_ball_feasible`` with columns F' and load g' (v_i = w_i).
    Optimal: witness w, margin the 2-norm residual ||Fw - g|| <= tol.
    Not-optimal: witness z = (Fw - g)/||Fw - g||, margin f(z) < 0 (the ball
    direction Z is -z', since f(z) = ball_dual_value(F', g', -z')).
    Inconclusive: witness w, margin the residual in (tol, 10*tol].
    """
    inst = FarkasInstance(F, g)
    verdict, margin, V, Z = _ball_feasible(inst.F.T, inst.g[None, :], tol, max_iters)
    return Certificate(verdict, margin,
                       witness_w=None if V is None else V.ravel(),
                       witness_z=None if Z is None else -Z.ravel())


# ---------------------------------------------------------------------------
# epsilon-net dual search


class DualNetResult(NamedTuple):
    min_value: float
    z: np.ndarray
    certified: bool
    evaluations: int


def _circle_net(eps: float) -> np.ndarray:
    # angular step 2*eps: nearest point within eps arc, chord 2sin(eps/2) <= eps
    k = max(4, int(math.ceil(math.pi / eps)))
    ang = 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _sphere_net(n: int, eps: float) -> np.ndarray:
    if eps >= 2.0:  # any single point covers: the sphere has diameter 2
        e = np.zeros(n)
        e[0] = 1.0
        return e[None, :]
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        return _circle_net(eps)
    return np.concatenate(list(_net_blocks(n, eps)), axis=0)


def _net_blocks(n: int, eps: float):
    """Latitude blocks of an eps-net of S^{n-1} (chordal metric), recursive:
    z = (cos phi, sin phi * omega). The error splits as
    dist^2 <= chord(phi gap)^2 + sin(phi) sin(phi_i) * ||omega gap||^2,
    so a phi grid of pitch eps*sqrt(2) plus latitude sub-nets of resolution
    (eps/sqrt(2))/(sin phi_i + pitch/2) cover within eps."""
    if n <= 2 or eps >= 2.0:
        yield _sphere_net(n, eps)
        return
    h = eps * math.sqrt(2.0)
    n_lat = int(math.ceil(math.pi / h))
    for i in range(n_lat + 1):
        phi = min(i * h, math.pi)
        s, c = math.sin(phi), math.cos(phi)
        if s <= 1e-15:  # pole: a single point
            block = np.zeros((1, n))
            block[0, 0] = 1.0 if c >= 0 else -1.0
            yield block
            continue
        sub = _sphere_net(n - 1, (eps / math.sqrt(2.0)) / (s + h / 2.0))
        block = np.empty((sub.shape[0], n))
        block[:, 0] = c
        block[:, 1:] = s * sub
        yield block


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


def dual_min_fz(F, g, epsilon: float = 0.05, theta: float | None = None,
                n_random_pow2: int = 12, budget: int = NET_BUDGET) -> DualNetResult:
    """Minimize f(z) = z'g + ||z'F||_1 over a deterministic epsilon-net of the
    unit sphere, refined with unscrambled Sobol points.

    f is L-Lipschitz with L = ||g||_2 + sum_j ||F_j||_2 (columns), so the true
    sphere minimum is at least net_min - L*epsilon. ``certified`` means f >= 0
    everywhere: net_min - L*epsilon > 0, or, when ``theta`` is given, net_min
    >= theta together with L*epsilon < theta. Ties in the minimum break toward
    the lexicographically smallest z.
    """
    inst = FarkasInstance(F, g)
    F, g = inst.F, inst.g
    n = g.size
    if n > 6:
        raise ValueError("sphere net only supported for n <= 6; "
                         "use farkas_feasible for larger systems")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    lipschitz = float(np.linalg.norm(g) + np.linalg.norm(F, axis=0).sum()) \
        if F.shape[1] else float(np.linalg.norm(g))

    best_val = math.inf
    best_z = None
    evals = 0

    def consider(block: np.ndarray):
        nonlocal best_val, best_z, evals
        evals += block.shape[0]
        if evals > budget:
            raise ValueError(
                f"epsilon-net exceeds the {budget:.0e} evaluation budget; "
                "increase epsilon or use farkas_feasible")
        vals = block @ g
        if F.shape[1]:
            vals = vals + np.abs(block @ F).sum(axis=1)
        j = int(np.argmin(vals))
        v = float(vals[j])
        if v < best_val:
            ties = np.flatnonzero(vals == v)
            zbest = block[ties[0]]
            for t in ties[1:]:
                if _lex_smaller(block[t], zbest):
                    zbest = block[t]
            best_val, best_z = v, zbest.copy()
        elif v == best_val:
            for t in np.flatnonzero(vals == v):
                if _lex_smaller(block[t], best_z):
                    best_z = block[t].copy()

    for block in _net_blocks(n, epsilon):
        consider(block)

    if n >= 2:  # quasi-random refinement (never affects the certificate bound)
        from scipy.stats import norm as _gauss
        from scipy.stats import qmc
        pts = qmc.Sobol(d=n, scramble=False).random_base2(n_random_pow2)
        gz = _gauss.ppf(pts)
        keep = np.all(np.isfinite(gz), axis=1)
        gz = gz[keep]
        norms = np.linalg.norm(gz, axis=1)
        gz = gz[norms > 0] / norms[norms > 0, None]
        if gz.size:
            consider(gz)

    if n == 1:  # the net {-1, +1} is the whole sphere: no covering slack
        certified = best_val >= theta if theta is not None else best_val > 0.0
    elif theta is None:
        certified = best_val - lipschitz * epsilon > 0.0
    else:
        certified = best_val >= theta and lipschitz * epsilon < theta
    return DualNetResult(best_val, best_z, certified, evals)


# ---------------------------------------------------------------------------
# KKT certificate for a candidate estimate


def ball_dual_value(columns: np.ndarray, G: np.ndarray, Z: np.ndarray) -> float:
    """sum_i ||Z z_i||_2 - <Z, G>; nonnegative for every matrix Z iff some
    column-wise unit-ball V solves sum_i v_i z_i' = G."""
    return float(np.linalg.norm(Z @ columns.T, axis=0).sum() - np.sum(Z * G))


def _refine(Zc: np.ndarray, G: np.ndarray, V: np.ndarray) -> np.ndarray:
    # hold the columns on the sphere, least-squares the rest, scale back into
    # the ball; keep the candidate only if it reduces the residual
    r_old = np.linalg.norm(V @ Zc - G)
    for _ in range(3):
        free = np.linalg.norm(V, axis=0) < 1.0 - 1e-9
        if not free.any():
            break
        rhs = G - V[:, ~free] @ Zc[~free]
        sol, *_ = np.linalg.lstsq(Zc[free].T, rhs.T, rcond=None)
        cand = V.copy()
        cand[:, free] = sol.T
        cand /= np.maximum(np.linalg.norm(cand, axis=0), 1.0)
        r_new = np.linalg.norm(cand @ Zc - G)
        if r_new < r_old - 1e-15:
            V, r_old = cand, r_new
        else:
            break
    return V


def _ball_feasible(columns: np.ndarray, G: np.ndarray, tol: float,
                   max_iters: int = 50_000):
    """Feasibility of { sum_i v_i z_i' = G, ||v_i||_2 <= 1 } for the z_i given
    as the rows of ``columns`` and G of shape (n, d); with n = 1 the balls
    are the box of ``farkas_feasible``.

    Projected gradient on the squared Frobenius residual R, with an
    active-set least-squares refinement every 500 steps and at the end.
    ||R|| <= tol: optimal, witness V. ||R|| > 10*tol and a negative
    re-verified ball_dual_value of the direction -R/||R|| (-||R|| at the
    exact optimum): not-optimal, margin that value, witness the direction.
    Otherwise inconclusive, margin ||R||, witness V. Returns (verdict,
    margin, V or None, Z or None).

    Every DUAL_CHECK_EVERY steps the run also tests both verdicts, in this
    order: it ends at the first refuted direction (a negative dual value
    proves infeasibility), and otherwise refines a copy of V and ends
    "optimal" with that copy when its residual is within tol (the copy lies
    in the ball, so it proves feasibility). Both tests only read V, so a
    run that does not stop early takes the same iterates as one without
    them.
    """
    n = G.shape[0]
    q = columns.shape[0]
    Zc = columns  # (q, d) rows z_i
    Gn = float(np.linalg.norm(G))
    if Gn <= tol:
        return "optimal", Gn, np.zeros((n, q)), None
    spec = float(np.linalg.norm(Zc, 2)) if q else 0.0
    if spec == 0.0:
        # nothing reachable: V @ Zc is identically zero, so G != 0 settles it
        Zdir = G / Gn
        return "not-optimal", ball_dual_value(columns, G, Zdir), None, Zdir

    # fast path: the min-Frobenius-norm solution often has small columns
    Vt, *_ = np.linalg.lstsq(Zc.T, G.T, rcond=None)
    V = Vt.T
    cn = np.linalg.norm(V, axis=0)
    if cn.max() <= 1.0 and np.linalg.norm(V @ Zc - G) <= tol:
        return "optimal", float(np.linalg.norm(V @ Zc - G)), V, None

    def refute(V):
        # reads V only: (||R||, dual value of -R/||R||, that direction); the
        # value is tested only when ||R|| > 10*tol and is +inf otherwise
        R = V @ Zc - G
        rnorm = float(np.linalg.norm(R))
        if rnorm <= 10.0 * tol:
            return rnorm, math.inf, None
        Zdir = -R / rnorm
        return rnorm, ball_dual_value(columns, G, Zdir), Zdir

    V = V / np.maximum(cn, 1.0)
    Zs = Zc.T / spec ** 2  # gradient step 1/L folded into the regressors
    for it in range(max_iters):
        V_new = V - (V @ Zc - G) @ Zs
        V_new /= np.maximum(np.sqrt((V_new * V_new).sum(axis=0)), 1.0)
        moved = float(abs(V_new - V).max())
        V = V_new
        if moved <= 1e-15:  # gradient mapping has vanished
            break
        if (it + 1) % 500 == 0:
            V = _refine(Zc, G, V)
        if (it + 1) % DUAL_CHECK_EVERY == 0:
            _, val, Zdir = refute(V)
            if val < 0.0:
                return "not-optimal", val, None, Zdir
            W = _refine(Zc, G, V)
            rnorm = float(np.linalg.norm(W @ Zc - G))
            if rnorm <= tol:
                return "optimal", rnorm, W, None
    V = _refine(Zc, G, V)

    rnorm, val, Zdir = refute(V)
    if rnorm <= tol:
        return "optimal", rnorm, V, None
    if val < 0.0:
        return "not-optimal", val, None, Zdir
    return "inconclusive", rnorm, V, None


def kkt_certificate(traj: Trajectory, A_hat, B_hat=None, kind: str = "group-l2",
                    tol: float = 1e-8, support_tol: float | None = None) -> Certificate:
    """Certify whether (A_hat, B_hat) minimizes the sum-of-norms objective.

    Splits times into estimated support (residual norm > support_tol) and
    clean, with regressors z_i = (x_i, u_i). Entry-l1 checks one exact
    box-feasibility system per state coordinate l with load g_l = sum over
    the times pinned in coordinate l of sign(r_il) z_i; a time enters column
    l's system as free whenever its l-th residual entry is small (attack
    times with a zero entry keep that coordinate's freedom). Group-l2 checks
    the exact matrix system "l2-ball": some V with ||v_i||_2 <= 1 over the
    clean times solves sum_i v_i z_i' = G, where G is minus the support's
    subgradient load; its margin is the Frobenius residual (optimal, witness
    V) or the dual value of a violating direction Z (not-optimal).

    support_tol defaults to 1e-6 * (1 + median residual norm); residual norms
    within a factor 10 of it are flagged as ambiguous.
    """
    kind = canonical_kind(kind)
    if kind == "least-squares":
        raise ValueError("KKT certificate applies to the sum-of-norms estimators")
    R = residual_matrix(traj, A_hat, B_hat)
    # rows scaled by a power of two near their largest entry: exact, so the
    # norms are those of R itself, but finite where squares would overflow
    scale = np.ldexp(1.0, np.frexp(np.abs(R).max(axis=1))[1])
    norms = scale * np.linalg.norm(R / scale[:, None], axis=1)
    if support_tol is None:
        support_tol = 1e-6 * (1.0 + float(np.median(norms)))
    Z, _ = _regressors(traj)

    flags = ()
    amb = int(np.sum((norms > 0.1 * support_tol) & (norms < 10.0 * support_tol)))
    if amb:
        flags = (f"support-ambiguous:{amb}",)

    if kind == "group-l2":
        sup = norms > support_tol
        G = -((R[sup] / np.maximum(norms[sup], 1e-300)[:, None]).T @ Z[sup])
        verdict, margin, V, Zdir = _ball_feasible(Z[~sup], G, tol=tol)
        reports = [SystemReport("l2-ball", verdict, margin, Z[~sup].T, G.ravel(),
                                V, Zdir)]
    else:
        reports = []
        for l in range(traj.n):
            pinned = np.abs(R[:, l]) > support_tol
            g_l = Z[pinned].T @ np.sign(R[pinned, l])
            sub = farkas_feasible(Z[~pinned].T, g_l, tol=tol)
            reports.append(SystemReport(f"coord-{l}", sub.verdict, sub.margin,
                                        Z[~pinned].T, g_l,
                                        sub.witness_w, sub.witness_z))
    verdicts = {r.verdict for r in reports}
    if verdicts == {"optimal"}:
        margin = max(r.margin for r in reports)
        return Certificate("optimal", margin, flags=flags,
                           systems=tuple(reports))
    if "not-optimal" in verdicts:
        bad = min((r for r in reports if r.verdict == "not-optimal"),
                  key=lambda r: r.margin)
        return Certificate("not-optimal", bad.margin, witness_z=bad.z,
                           flags=flags, systems=tuple(reports))
    worst = max(r.margin for r in reports if r.verdict != "not-optimal")
    return Certificate("inconclusive", worst, flags=flags,
                       systems=tuple(reports))


# ---------------------------------------------------------------------------
# deterministic recovery conditions


class Lemma2Result(NamedTuple):
    holds: bool
    lhs: float  # clean-time mass  sum_{i not in K} |x_i|
    rhs: float  # attack-time mass sum_{i in K} |x_i|


def lemma2_condition(traj: Trajectory) -> Lemma2Result:
    """Scalar exact-recovery condition: clean |x_i| mass strictly exceeds
    attacked |x_i| mass (true attack set from the trajectory's schedule)."""
    if traj.n != 1 or traj.m != 0:
        raise ValueError("lemma2_condition needs a scalar autonomous trajectory")
    x = np.abs(traj.states[:-1, 0])
    mask = traj.schedule.mask()
    lhs = float(x[~mask].sum())
    rhs = float(x[mask].sum())
    return Lemma2Result(lhs > rhs, lhs, rhs)


class SpanResult(NamedTuple):
    holds: tuple
    residuals: tuple  # relative Krylov projection residual per attack pair


def span_condition(traj: Trajectory, A, delta: int | None = None,
                   tol: float = 1e-9) -> SpanResult:
    """Per consecutive attack pair (i, i+delta): is d_{i+delta} inside
    span{d_i, A d_i, ..., A^{delta-2} d_i}? A zero d_i makes the basis empty
    and the pair reports False (residual 1)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    times = traj.schedule.times
    if delta is None:
        delta = traj.schedule.delta
    if delta is None:
        raise ValueError("delta not stored on the schedule; pass it explicitly")
    if delta < 2:
        raise ValueError("delta must be >= 2")
    gaps = [b - a for a, b in zip(times, times[1:])]
    if any(gap != delta for gap in gaps):
        raise ValueError("attack times are not delta-spaced")

    holds, residuals = [], []
    for i, j in zip(times, times[1:]):
        d_i = traj.disturbances[i]
        d_next = traj.disturbances[j]
        tgt = float(np.linalg.norm(d_next))
        cols = []
        v = d_i.copy()
        for _ in range(delta - 1):
            cols.append(v.copy())
            v = A @ v
        basis = np.column_stack(cols)
        coef, *_ = np.linalg.lstsq(basis, d_next, rcond=None)
        rel = float(np.linalg.norm(d_next - basis @ coef)) / max(tgt, 1e-300)
        holds.append(rel <= tol)
        residuals.append(rel)
    return SpanResult(tuple(holds), tuple(residuals))


class EigenConditionResult(NamedTuple):
    holds: bool
    lhs: float
    rhs: float
    boundary: bool  # lhs and rhs equal to within 1e-12 relative


def eigen_condition(eigs, delta: int) -> EigenConditionResult:
    """Eigenvalue-sum condition for a delta-periodic attack schedule.

    With h_t the complete homogeneous symmetric polynomial of the eigenvalues
    (sum of all degree-t monomials), tests |h_{delta-n}| <= sum_{t<delta-n}
    |h_t|. h_t comes from the Newton identity k h_k = sum_j p_j h_{k-j} with
    power sums p_j, evaluated in extended precision on eigenvalues rescaled
    by M = max(1, max |eig|) so only the scale-free comparison is exact-safe;
    the reported lhs/rhs are in original units (inf if they overflow).
    """
    lam = np.asarray(eigs, dtype=complex).ravel()
    n = lam.size
    if n < 1:
        raise ValueError("need at least one eigenvalue")
    if delta < n + 1:
        raise ValueError(f"delta must be >= n + 1 = {n + 1}")
    K = delta - n

    M = max(1.0, float(np.max(np.abs(lam))))
    mu = lam.astype(np.clongdouble) / np.clongdouble(M)
    p = np.array([np.sum(mu ** j) for j in range(1, K + 1)], dtype=np.clongdouble)
    h = np.zeros(K + 1, dtype=np.clongdouble)
    h[0] = 1.0
    for k in range(1, K + 1):
        acc = np.clongdouble(0)
        for j in range(1, k + 1):
            acc += p[j - 1] * h[k - j]
        h[k] = acc / k

    habs = np.abs(h).astype(np.longdouble)
    lhs_scaled = habs[K]
    # rhs in lhs units: sum_t |h_t| M^(t-K), dividing as we go so nothing blows up
    rhs_scaled = np.longdouble(0)
    for t in range(K):
        rhs_scaled = rhs_scaled / np.longdouble(M) + habs[t]
    rhs_scaled = rhs_scaled / np.longdouble(M)

    diff = float(lhs_scaled - rhs_scaled)
    boundary = abs(diff) <= 1e-12 * max(1.0, float(rhs_scaled))
    holds = bool(lhs_scaled <= rhs_scaled or boundary)

    logM = math.log(M) if M > 1.0 else 0.0

    def _unscale(v: np.longdouble) -> float:
        if v == 0:
            return 0.0
        lv = float(np.log(v)) + K * logM
        return math.exp(lv) if lv < 709 else math.inf

    return EigenConditionResult(holds, _unscale(lhs_scaled), _unscale(rhs_scaled),
                                boundary)


def cnk_bound(n: int, k: int, tol: float = 1e-12) -> float:
    """Largest |eigenvalue| for which the repeated-eigenvalue form of the
    eigenvalue-sum condition holds: the unique positive root of

        C(n+k-1, k) x^k - sum_{i<k} C(n+i-1, i) x^i = 0,

    by bisection on [0, 4]. The root is unique (one sign change in the
    coefficients); the upper bisection endpoint is returned so an exact root
    hit on the dyadic grid (e.g. 1.0 when k = n) comes back exactly.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    coeffs = [-float(math.comb(n + i - 1, i)) for i in range(k)]
    coeffs.append(float(math.comb(n + k - 1, k)))

    def phi(x: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    lo, hi = 0.0, 4.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if phi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi
