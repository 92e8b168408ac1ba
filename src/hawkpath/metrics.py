"""Distances between piecewise-constant paths.

All metrics here are exact for step paths: the fractional Sobolev norm
reduces to a closed-form double sum over segment pairs, the Skorokhod
distance to a bisection over a feasibility decision computed by dynamic
programming on the interleaved jumps, and the sparse modulus to a minimax
partition search over a finite candidate set.  Every operation is a pure
function, safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .simulate import StepPath, make_step_path

__all__ = [
    "SKOROKHOD_JUMP_CAP",
    "PowerLawFit",
    "step_sub",
    "uniform_distance",
    "sobolev_norm",
    "sobolev_distance",
    "feasible_eps",
    "skorokhod_distance",
    "modulus_sparse",
    "skorokhod_upper_bound",
    "fit_powerlaw",
]


# Jumps per path above which the exact Skorokhod algorithm refuses a pair;
# callers fall back to the grid surrogate.
SKOROKHOD_JUMP_CAP = 500


def _require_same_horizon(f: StepPath, g: StepPath) -> float:
    if f.horizon != g.horizon:
        raise ParameterError("mismatched horizons")
    return f.horizon


def step_sub(f: StepPath, g: StepPath) -> StepPath:
    """Canonical pointwise difference f - g on the breakpoint union."""
    T = _require_same_horizon(f, g)
    bp = np.union1d(f.breakpoints, g.breakpoints)
    return make_step_path(bp, f.value_at(bp) - g.value_at(bp), T)


def uniform_distance(f: StepPath, g: StepPath) -> float:
    """sup |f - g|, attained on the breakpoint union."""
    _require_same_horizon(f, g)
    bp = np.union1d(f.breakpoints, g.breakpoints)
    return float(np.abs(f.value_at(bp) - g.value_at(bp)).max())


# --------------------------------------------------------------------------
# Fractional Sobolev norm (q = 1)
# --------------------------------------------------------------------------

def sobolev_norm(path: StepPath, eta: float) -> float:
    """Exact W^{eta,1} norm of a step path on [0, T].

    First term: integral of |u|.  Second term: double integral of
    |u(t) - u(s)| / |t - s|^{1 + eta}, which for step paths collapses to a
    sum over ordered segment pairs of |value difference| times the
    closed-form integral of (t - s)^{-(1+eta)} over the rectangle, using
    F(x) = x^{1 - eta}:

        [F(t1-s1) + F(t2-s2) - F(t2-s1) - F(t1-s2)] / (eta (1 - eta)),

    doubled for (s, t) symmetry; same-segment pairs vanish.
    """
    if not 0.0 < eta < 1.0:
        raise ParameterError("eta must lie in (0, 1)")
    edges = np.append(path.breakpoints, path.horizon)
    v = path.values
    term1 = float(np.dot(np.abs(v), np.diff(edges)))
    if len(v) == 1:
        return term1
    x = 1.0 - eta
    P = np.abs(np.subtract.outer(edges, edges)) ** x
    # rows index the later segment (j), columns the earlier one (i)
    W = (P[:-1, :-1] + P[1:, 1:] - P[1:, :-1] - P[:-1, 1:]) / (eta * x)
    dv = np.abs(np.subtract.outer(v, v))
    return term1 + 2.0 * float(np.tril(dv * W, -1).sum())


def sobolev_distance(f: StepPath, g: StepPath, eta: float) -> float:
    """W^{eta,1} norm of the pointwise difference."""
    return sobolev_norm(step_sub(f, g), eta)


# --------------------------------------------------------------------------
# Skorokhod distance
# --------------------------------------------------------------------------

def _merge_intervals(ivs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    ivs.sort()
    out = [ivs[0]]
    for lo, hi in ivs[1:]:
        plo, phi = out[-1]
        if lo <= phi:
            out[-1] = (plo, max(phi, hi))
        else:
            out.append((lo, hi))
    return out


def feasible_eps(f: StepPath, g: StepPath, eps: float) -> bool:
    """Decide whether a time change achieves distortion and mismatch <= eps.

    Dynamic program over states (i, j) = (f-segment, g-segment).  A g-jump
    targeted at c may be placed anywhere in [c - eps, c + eps]; the segments
    active between consecutive placed jumps must satisfy the value
    constraint |f_value - g_value| <= eps.  The constraint on a state is
    waived only when it is crossed instantaneously, which a strictly
    increasing time change permits solely at a coincidence of one f-jump
    with one g-jump: consecutive jumps on the same axis always bracket a
    time interval of positive length (a bijection cannot delete a segment).
    States therefore record how they were entered: by an f-jump (position
    fixed at that jump) or by a g-jump (an interval of feasible positions).
    Monotone in eps; the caller's bisection tolerance absorbs the closure
    of the strict inequalities.
    """
    T = _require_same_horizon(f, g)
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    fa = f.breakpoints[1:]
    ga = g.breakpoints[1:]
    fv = f.values
    gv = g.values
    m, n = len(fa), len(ga)

    # t = 0 and t = T are fixed by the time change
    if abs(fv[0] - gv[0]) > eps or abs(fv[m] - gv[n]) > eps:
        return False

    # Entry flavors per state.  An f-entry position is always the jump into
    # segment i, so booleans suffice; "clean" records that the previous
    # g-jump sits strictly below it (a further g-jump may still land on it),
    # "tied" that a g-jump already occupies that exact position.
    clean = np.zeros((m + 1, n + 1), dtype=bool)
    tied = np.zeros((m + 1, n + 1), dtype=bool)
    by_g: dict[tuple[int, int], list[tuple[float, float]]] = {(0, 0): [(0.0, 0.0)]}

    for diag in range(m + n + 1):
        for i in range(min(diag, m), -1, -1):
            j = diag - i
            if j > n:
                break
            ivs = by_g.get((i, j))
            if ivs:
                ivs = _merge_intervals(ivs)
                by_g[(i, j)] = ivs
            from_f = bool(clean[i, j] or tied[i, j])
            if not ivs and not from_f:
                continue
            matches = abs(fv[i] - gv[j]) <= eps
            a0 = float(fa[i - 1]) if i >= 1 else 0.0
            lows = []
            if ivs:
                lows.append(ivs[0][0])
            if from_f:
                lows.append(a0)
            min_pos = min(lows)
            if i < m:
                a = float(fa[i])
                if matches and min_pos <= a:
                    # leaving through a gap of positive width (or a tie from
                    # an f-entry, whose previous g-jump is already below a)
                    if from_f or (ivs and ivs[0][0] < a):
                        clean[i + 1, j] = True
                    if ivs and any(lo <= a <= hi for lo, hi in ivs):
                        tied[i + 1, j] = True
                elif not matches and ivs and any(lo <= a <= hi for lo, hi in ivs):
                    tied[i + 1, j] = True  # g-jump placed exactly at a
            if j < n:
                c = float(ga[j])
                wlo, whi = max(c - eps, 0.0), min(c + eps, T)
                if wlo <= whi:
                    if matches and min_pos <= whi:
                        nlo = max(min_pos, wlo)
                        if nlo <= whi:
                            by_g.setdefault((i, j + 1), []).append((nlo, whi))
                    if not matches and clean[i, j] and wlo <= a0 <= whi:
                        # place the g-jump exactly on the entering f-jump;
                        # legal only when no g-jump occupies it yet
                        by_g.setdefault((i, j + 1), []).append((a0, a0))
    return bool(clean[m, n] or tied[m, n]) or bool(by_g.get((m, n)))


def skorokhod_distance(
    f: StepPath,
    g: StepPath,
    *,
    tol: float | None = None,
    max_jumps: int = SKOROKHOD_JUMP_CAP,
) -> float:
    """Skorokhod distance between canonical step paths, by bisection.

    Bisects the feasibility predicate on [0, uniform distance]; the result
    overestimates the infimum by at most ``tol`` (default 1e-9 * T) and never
    exceeds the uniform distance.  Exact computation is limited to paths
    with at most ``max_jumps`` jumps each; larger paths should use the grid
    surrogate instead.
    """
    T = _require_same_horizon(f, g)
    if f.jump_count > max_jumps or g.jump_count > max_jumps:
        raise ParameterError(
            f"exact Skorokhod computation is capped at {max_jumps} jumps per path"
        )
    if f.equals(g):
        return 0.0
    hi = uniform_distance(f, g)
    if hi == 0.0:
        return 0.0
    if tol is None:
        tol = 1e-9 * T
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible_eps(f, g, mid):
            hi = mid
        else:
            lo = mid
    return hi


# --------------------------------------------------------------------------
# Sparse modulus of continuity
# --------------------------------------------------------------------------

def modulus_sparse(path: StepPath, delta: float) -> float:
    """Infimum over partitions with all gaps > delta of the worst cell oscillation.

    Exact for step paths: it suffices to search partitions whose points are
    jump times, midpoints between consecutive jumps, or the endpoints, since
    a cell's oscillation only changes when a boundary crosses a jump.  Cells
    are right-open, gaps strictly greater than delta.
    """
    T = path.horizon
    if not 0.0 < delta < T:
        raise ParameterError("need 0 < delta < T")
    jumps = [float(t) for t in path.breakpoints[1:]]
    cands = {0.0, T}
    cands.update(jumps)
    cands.update(
        0.5 * (a + b) for a, b in zip(jumps[:-1], jumps[1:])
    )
    pos = np.array(sorted(c for c in cands if 0.0 <= c <= T))
    K = len(pos)
    bp = path.breakpoints
    vals = path.values
    # segment holding each candidate, and last segment strictly before it
    start_seg = np.searchsorted(bp, pos, side="right") - 1
    end_seg = np.searchsorted(bp, pos, side="left") - 1

    INF = math.inf
    dp = np.full(K, INF)
    dp[0] = 0.0
    for k in range(1, K):
        hi_seg = end_seg[k]
        cur_lo = INF
        cur_hi = -INF
        a_idx = hi_seg + 1  # segments covered so far: [a_idx, hi_seg]
        for c in range(k - 1, -1, -1):
            new_a = start_seg[c]
            if new_a <= hi_seg and new_a < a_idx:
                chunk = vals[new_a:min(a_idx, hi_seg + 1)]
                cur_lo = min(cur_lo, float(chunk.min()))
                cur_hi = max(cur_hi, float(chunk.max()))
                a_idx = new_a
            if pos[k] - pos[c] > delta and dp[c] < INF:
                osc = (cur_hi - cur_lo) if cur_hi >= cur_lo else 0.0
                cand = max(dp[c], osc)
                if cand < dp[k]:
                    dp[k] = cand
    return float(dp[-1])


def skorokhod_upper_bound(
    f_grid_vals: np.ndarray,
    g_grid_vals: np.ndarray,
    modulus: float,
    delta: float,
) -> float:
    """Scalable surrogate: delta + sparse modulus + worst grid discrepancy.

    Valid whenever both paths are sampled on the same delta-grid; always an
    upper bound on the exact Skorokhod distance.
    """
    f_grid_vals = np.asarray(f_grid_vals, dtype=float)
    g_grid_vals = np.asarray(g_grid_vals, dtype=float)
    if f_grid_vals.shape != g_grid_vals.shape:
        raise ParameterError("grid value arrays must have matching shapes")
    return float(delta + modulus + np.abs(f_grid_vals - g_grid_vals).max())


# --------------------------------------------------------------------------
# Power-law fitting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawFit:
    """y ~ coefficient * x^exponent fitted by least squares in log-log."""

    coefficient: float
    exponent: float
    residual_se: float


def fit_powerlaw(points: list[tuple[float, float]]) -> PowerLawFit:
    """Ordinary least squares of log(error) on log(delta)."""
    if len(points) < 3:
        raise ParameterError("need at least 3 points")
    arr = np.asarray(points, dtype=float)
    if np.any(arr <= 0.0):
        raise ParameterError("all deltas and errors must be positive (log domain)")
    lx = np.log(arr[:, 0])
    ly = np.log(arr[:, 1])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = len(points) - 2
    se = math.sqrt(float(resid @ resid) / dof) if dof > 0 else 0.0
    return PowerLawFit(
        coefficient=float(math.exp(intercept)),
        exponent=float(slope),
        residual_se=se,
    )
