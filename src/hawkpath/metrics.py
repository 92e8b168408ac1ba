"""Distances between piecewise-constant paths.

The Sobolev norm and the Skorokhod distance are exact for step paths: the
fractional Sobolev norm reduces to a closed-form double sum over segment
pairs (added in row blocks of bounded size), the Skorokhod distance (at any
jump count) to its lower bound, the Hausdorff distance between the two
value sets, whenever that bound is feasible, and otherwise
to a bisection over finitely many critical values above it.  Each
step is a feasibility decision computed by dynamic programming on the
interleaved jumps (one chronological path through its states first, which
proves a feasible eps in m + n steps, and the sweep of every reachable
state only when that path stops).  The sparse modulus is a minimax
partition search over a finite candidate set, an upper bound on the
infimum over all partitions that can lie above it; ``modulus_zero`` tells,
with no search, when jump times that clear delta make it 0.  Every
operation is a pure function, safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .simulate import StepPath, distinct, make_step_path

__all__ = [
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


def _require_same_horizon(f: StepPath, g: StepPath) -> float:
    if f.horizon != g.horizon:
        raise ParameterError("mismatched horizons")
    return f.horizon


def step_sub(f: StepPath, g: StepPath) -> StepPath:
    """Canonical pointwise difference f - g on the breakpoint union."""
    T = _require_same_horizon(f, g)
    bp = distinct(np.concatenate((f.breakpoints, g.breakpoints)))
    return make_step_path(bp, f.value_at(bp) - g.value_at(bp), T)


def uniform_distance(f: StepPath, g: StepPath) -> float:
    """sup |f - g|, attained on the breakpoint union."""
    _require_same_horizon(f, g)
    bp = distinct(np.concatenate((f.breakpoints, g.breakpoints)))
    return float(np.abs(f.value_at(bp) - g.value_at(bp)).max())


# --------------------------------------------------------------------------
# Fractional Sobolev norm (q = 1)
# --------------------------------------------------------------------------

# Most elements in one row block of the Sobolev segment-pair sum.
_SOBOLEV_BLOCK = 1 << 16


def sobolev_norm(path: StepPath, eta: float) -> float:
    """Exact W^{eta,1} norm of a step path on [0, T].

    First term: integral of |u|.  Second term: double integral of
    |u(t) - u(s)| / |t - s|^{1 + eta}, which for step paths collapses to a
    sum over ordered segment pairs of |value difference| times the
    closed-form integral of (t - s)^{-(1+eta)} over the rectangle, using
    F(x) = x^{1 - eta}:

        [F(t1-s1) + F(t2-s2) - F(t2-s1) - F(t1-s2)] / (eta (1 - eta)),

    doubled for (s, t) symmetry; same-segment pairs vanish.  The pairs are
    summed in blocks of rows (the later segment j) of about
    ``_SOBOLEV_BLOCK`` elements, one row at least, so memory stays bounded
    and time is O(J^2) for J segments.  A path of up to 255 segments, whose
    (J + 1)^2 fits the block, is one block, the dense J x J sum; a longer
    one adds its block sums left to right.
    """
    if not 0.0 < eta < 1.0:
        raise ParameterError("eta must lie in (0, 1)")
    edges = np.append(path.breakpoints, path.horizon)
    v = path.values
    term1 = float(np.dot(np.abs(v), np.diff(edges)))
    J = len(v)
    if J == 1:
        return term1
    x = 1.0 - eta
    # P, rows + 1 by at most J + 1, fits the block
    rows = min(J, max(1, _SOBOLEV_BLOCK // (J + 1) - 1))
    # the pairs i >= j of a block: the upper triangle of its last columns
    later = np.tri(rows, dtype=bool).T
    pairs = 0.0
    for r0 in range(0, J, rows):
        r1 = min(r0 + rows, J)
        # rows j in [r0, r1) against columns i < r1, which hold every i < j;
        # each array formed in place, by the operations of
        # W = (P[:-1, :-1] + P[1:, 1:] - P[1:, :-1] - P[:-1, 1:]) / (eta x)
        P = np.subtract.outer(edges[r0 : r1 + 1], edges[: r1 + 1])
        np.abs(P, out=P)
        P **= x
        W = P[:-1, :-1] + P[1:, 1:]
        W -= P[1:, :-1]
        W -= P[:-1, 1:]
        W /= eta * x
        dv = np.subtract.outer(v[r0:r1], v[:r1])
        np.abs(dv, out=dv)
        dv *= W
        np.copyto(dv[:, r0:], 0.0, where=later[: r1 - r0, : r1 - r0])
        pairs += float(dv.sum())
    return term1 + 2.0 * pairs


def sobolev_distance(f: StepPath, g: StepPath, eta: float) -> float:
    """W^{eta,1} norm of the pointwise difference."""
    return sobolev_norm(step_sub(f, g), eta)


# --------------------------------------------------------------------------
# Skorokhod distance
# --------------------------------------------------------------------------

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
    ``moves`` holds the transition rules: what a reached state gives the
    state after its next f-jump and the one after its next g-jump.  Each
    field of a state is written by one predecessor only (its f-entry flags
    by the state entering it by an f-jump, its g-entry by the one entering
    it by a g-jump).  Monotone in eps.

    Two searches read those rules.  ``_chronological_path`` follows one
    path from (0, 0): at each state it takes the move whose jump comes
    first in time (the f-jump on a tie), or the other move when that one is
    closed, and eps is feasible if it reaches (m, n).  Only when it stops
    does ``_sweep`` visit every reachable state, one anti-diagonal i + j at
    a time, and decide.  The path is exact because each of its steps is a
    step of the sweep.  A state on the path was entered from one
    predecessor, so it holds a subset of the flags the sweep gives that
    state, and a g-entry ``lo`` no lower than the sweep's (None, standing
    for c - eps, counts as lower than any f-jump time within eps of c); no
    rule closes a move as flags are added or ``lo`` is lowered.  In floats
    one rule could break that order: leaving a g-entry through a gap tests
    c - a < eps for None but lo < a for an f-jump time, and c - a may round
    to eps although lo < a and c - lo <= eps.  Not on the path: it holds an
    f-jump time where the sweep holds None only after g-moves from states
    whose values match and whose position is an f-jump time at or below the
    current one.  The f-move of such a state is open, so the path took each
    of those g-jumps because it came before the pending f-jump a, and
    c - a < 0 <= eps.  A path that stops at diagonal k has visited k states,
    no more than the k diagonals the sweep crosses before it can refute
    eps.  On coupled paths it reached (m, n) at every feasible eps measured,
    about m + n states where the sweep visits every reachable one.

    A placement is never rounded to the float c - eps or c + eps: whether
    f-jump a lies in the window of g-jump c is decided by comparing the
    float a - c (or c - a) with eps, the same difference the critical values
    of ``skorokhod_distance`` are built from.  So the answer changes only at
    critical values.  Some of the comparisons are strict, so the feasible set
    need not be closed: the answer at a critical value may be False while
    every larger eps up to the next critical value is feasible.
    """
    _require_same_horizon(f, g)
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    fb = f.breakpoints.tolist()  # fb[i]: the jump into f-segment i (fb[0] = 0)
    gb = g.breakpoints.tolist()
    fv = f.values.tolist()
    gv = g.values.tolist()
    m, n = len(fb) - 1, len(gb) - 1

    # t = 0 and t = T are fixed by the time change
    if abs(fv[0] - gv[0]) > eps or abs(fv[m] - gv[n]) > eps:
        return False

    # A reached state is (clean, tied, g-entry).  An f-entry position is
    # always the jump fb[i], so booleans suffice; "clean" records that the
    # last g-jump sits strictly below it (a further g-jump may still land on
    # it), "tied" that a g-jump already occupies that exact position.  A
    # g-entry places the last g-jump gb[j] at (lo, False), or anywhere in
    # [lo, gb[j] + eps] as (lo, True), where lo is an f-jump time or None for
    # gb[j] - eps.
    def moves(i, j, clean, tied, entry):
        """The clean and tied f-entry flags reached state (i, j) gives
        (i + 1, j), and the g-entry it gives (i, j + 1) or None."""
        a0, c = fb[i], gb[j]
        from_f = clean or tied
        matches = abs(fv[i] - gv[j]) <= eps
        lo, window = entry if entry is not None else (a0, False)
        # the lowest position of the last placed jump (None: c - eps)
        low = lo
        if from_f and (c - a0 > eps if lo is None else a0 < lo):
            low = a0
        f_clean = f_tied = False
        if i < m:
            a = fb[i + 1]
            # leave through a gap of positive width (or a tie from an
            # f-entry, whose last g-jump is already below a)
            f_clean = matches and (from_f or (c - a < eps if lo is None else lo < a))
            # a g-jump placed exactly at a
            f_tied = window and (lo is None or lo <= a) and abs(a - c) <= eps
        g_entry = None
        if j < n:
            c1 = gb[j + 1]
            if matches and (low is None or low - c1 <= eps):
                g_entry = (low if low is not None and c1 - low <= eps else None, True)
            elif not matches and clean and abs(a0 - c1) <= eps:
                # place the g-jump exactly on the entering f-jump; legal only
                # when no g-jump occupies it yet
                g_entry = (a0, False)
        return f_clean, f_tied, g_entry

    return _chronological_path(moves, fb, gb) or _sweep(moves, m, n)


# ``feasible_eps``'s state (0, 0): entered by no f-jump, the g-jump at time 0
# placed exactly at 0
_START = (False, False, (0.0, False))


def _chronological_path(moves, fb: list[float], gb: list[float]) -> bool:
    """Whether one path of ``moves`` from (0, 0) reaches (m, n), taking at
    each state the move whose jump fb[i + 1] or gb[j + 1] comes first (the
    f-jump on a tie), or the other move when that one is closed."""
    m, n = len(fb) - 1, len(gb) - 1
    i = j = 0
    clean, tied, entry = _START
    while i < m or j < n:
        f_clean, f_tied, g_entry = moves(i, j, clean, tied, entry)
        if (f_clean or f_tied) and (g_entry is None or fb[i + 1] <= gb[j + 1]):
            i += 1
            clean, tied, entry = f_clean, f_tied, None
        elif g_entry is not None:
            j += 1
            clean, tied, entry = False, False, g_entry
        else:
            return False
    return True


def _sweep(moves, m: int, n: int) -> bool:
    """Whether ``moves`` reach (m, n) from (0, 0), visiting every reachable
    state one anti-diagonal at a time.

    A diagonal is a list of its reached states [i, clean, tied, g-entry] in
    ascending i.  State i sends its g-entry to i and its f-entry to i + 1 of
    the next diagonal, so that list comes out ascending too and only its
    last state can be entered twice.
    """
    frontier = [(0, *_START)]
    for diag in range(m + n):
        reached: list[list] = []
        for i, clean, tied, entry in frontier:
            f_clean, f_tied, g_entry = moves(i, diag - i, clean, tied, entry)
            if g_entry is not None:
                if reached and reached[-1][0] == i:
                    reached[-1][3] = g_entry
                else:
                    reached.append([i, False, False, g_entry])
            if f_clean or f_tied:
                reached.append([i + 1, f_clean, f_tied, None])
        if not reached:
            return False
        frontier = reached
    # the last diagonal holds the single state (m, n), reached by any entry
    return True


# Rows per block in ``_gaps_within``: it never holds an m x n table.
_GAP_ROWS = 256


def _gaps_within(x: np.ndarray, y: np.ndarray, u: float) -> np.ndarray:
    """Every |x_i - y_j| <= u of ascending x and y: the same floats as the
    dense table ``np.abs(np.subtract.outer(x, y))`` holds, in row blocks.

    Each block of x meets only the columns of y within u of it, plus a few
    ulps of the largest magnitude to cover rounding (one index either side
    does not: floats just past x_i - u can sit closer than an ulp of u).
    """
    if len(x) == 0 or len(y) == 0:
        return np.empty(0)
    # 4 machine epsilons of the largest magnitude (x and y are sorted)
    reach = u + 2.0**-50 * max(-x[0], x[-1], -y[0], y[-1], u)
    gaps = []
    for k in range(0, len(x), _GAP_ROWS):
        rows = x[k : k + _GAP_ROWS]
        lo = np.searchsorted(y, rows[0] - reach)
        hi = np.searchsorted(y, rows[-1] + reach, "right")
        block = np.abs(np.subtract.outer(rows, y[lo:hi])).ravel()
        gaps.append(block[block <= u])
    return np.concatenate(gaps)


def _farthest_nearest(x: np.ndarray, y: np.ndarray) -> float:
    """max over x_i of min over y_j of |x_i - y_j|, for sorted nonempty x
    and y, as the floats ``_gaps_within`` builds value gaps from.  The
    nearest y_j is a neighbour of x_i's place in y: rounding is monotone,
    so |x_i - y_j| computed in floats only grows as y_j moves away."""
    k = np.searchsorted(y, x)
    below = np.abs(x - y[np.maximum(k - 1, 0)])
    above = np.abs(x - y[np.minimum(k, len(y) - 1)])
    return float(np.minimum(below, above).max())


def skorokhod_distance(f: StepPath, g: StepPath) -> float:
    """Exact Skorokhod distance between canonical step paths.

    Every comparison ``feasible_eps`` makes sets eps against one of the
    critical values, computed as the same floats: 0, a value gap
    |f_i - g_j|, a jump-time gap |a_i - c_j|, or a jump's distance to 0 or T
    (a_i, T - a_i, c_j, T - c_j).  So feasibility is constant on each open
    gap (c_k, c_{k+1}) between consecutive critical values and, being
    monotone, switches on at most once.  The infimum of the feasible eps is
    therefore the critical value c_k below the first gap whose midpoint is
    feasible, and every eps above it is feasible.  Midpoints are tested
    rather than the critical values themselves because the DP's strict
    inequalities can make eps = c_k itself infeasible although it is the
    infimum.  A gap between two adjacent floats has no midpoint (it rounds
    onto an endpoint) and no eps inside, so it is decided at c_k itself: an
    infeasible c_k sends the search to the gaps above it.  Only critical
    values up to the uniform distance u are kept: u is a value gap and
    always feasible (identity time change), so it is the largest and the
    answer when no midpoint passes.

    The answer is first bounded below by L, the Hausdorff distance between
    the two value sets: the largest |f_i - g_j| over the values f_i of the
    nearest g_j to each, and over the values g_j of the nearest f_i.  No eps
    below L is feasible.  Each segment of either path ends with a move out
    of it or with the check at T, and each needs a state whose values match
    within eps (compared as the same float L is built from).  An f-move
    leaves a matching state, or, tied onto a g-jump, a state entered through
    a g-window, which only a matching state gives.  A g-move leaves a
    matching state, or, tied onto the f-jump that entered its state, a clean
    f-entry, which only a matching state gives.  The last segments, one of
    zero length when a path jumps at T, are covered by the check at T, and
    the first by the one at 0.  L is a value gap no larger than u, so a
    critical value (critical value 0 needs no entry of its own: it matters
    only as L), and every gap below it fails.  So when eps = L is
    feasible, L is the answer, with one ``feasible_eps`` call and no u, gap
    table or sweep; on coupled count and risk paths it is feasible on every
    pair measured.

    Otherwise one bisection over the gaps between the k critical values in
    [L, u] finds the first passing one, in at most ⌈log₂ k⌉ calls.
    Every gap below L fails, so it is the first passing gap of a search
    over every critical value up to u.  When L = u (as when u = 0), u is
    returned with no further call.  The gaps up to u come in bounded row
    blocks from ``_gaps_within``.

    A call that passes costs about m + n states when ``feasible_eps``'s
    chronological path proves it, as on every coupled pair measured, and a
    call that fails costs the diagonals its sweep crosses before refuting,
    plus at most as many path steps.
    """
    T = _require_same_horizon(f, g)
    fv, gv = distinct(f.values), distinct(g.values)
    low = max(_farthest_nearest(fv, gv), _farthest_nearest(gv, fv))
    if feasible_eps(f, g, low):
        return low
    u = uniform_distance(f, g)
    fa = f.breakpoints[1:]
    ga = g.breakpoints[1:]
    cands = np.concatenate(
        (_gaps_within(fv, gv, u), _gaps_within(fa, ga, u), fa, T - fa, ga, T - ga)
    )
    crit = distinct(cands[(low <= cands) & (cands <= u)])

    lo, hi = 0, len(crit) - 1  # crit[hi] is u, which passes
    while lo < hi:  # the first feasible gap (crit[k], crit[k + 1])
        k = (lo + hi) // 2
        c, nxt = float(crit[k]), float(crit[k + 1])
        mid = 0.5 * (c + nxt)
        # adjacent floats: no eps lies inside the gap, so decide it at c
        if feasible_eps(f, g, c if mid in (c, nxt) else mid):
            hi = k
        else:
            lo = k + 1
    return float(crit[lo])


# --------------------------------------------------------------------------
# Sparse modulus of continuity
# --------------------------------------------------------------------------

def modulus_zero(jumps: np.ndarray, horizon: float, delta: float) -> bool:
    """Whether every gap between 0, the sorted ``jumps`` and ``horizon``
    exceeds delta.  Then the partition {0, jumps, horizon} is one of
    ``modulus_sparse``'s candidates and its cells are flat, so the sparse
    modulus of any path jumping at no other time is hi - lo of equal floats,
    +0.0.  The gaps are the floats its walk compares with delta, and dropping
    a jump (a tie, a zero mark) only widens a gap: raw times decide too."""
    edges = np.concatenate(([0.0], jumps, [horizon]))
    return bool((edges[1:] - edges[:-1] > delta).all())


def modulus_sparse(path: StepPath, delta: float) -> float:
    """Upper bound on the infimum, over partitions with all gaps > delta, of
    the worst cell oscillation.

    The search covers the partitions whose points are jump times, midpoints
    between consecutive jumps, or the endpoints.  A cell's oscillation only
    changes when a boundary crosses a jump, but the gaps can pin the best
    point of a flat stretch away from its midpoint, so the result can lie
    above the infimum: unit jumps at 0.025, 0.134, 0.156, 0.373 and 0.919 on
    [0, 1] give 5 at delta = 0.383, where the partition {0, 0.5, 1} reaches
    4.  ``skorokhod_upper_bound`` stays an upper bound with it, and the
    ``modulus_poisson`` verdict of ``verify`` is conservative.  Cells
    are right-open, gaps strictly greater than delta.  The minimax DP over
    the sorted candidates walks, for each right end k, the left ends c with
    pos[k] - pos[c] > delta downwards from the last one (a two-pointer, as
    that set only grows with k), keeping the running min and max of the
    segment values the cell [pos_c, pos_k) covers.  The oscillation only
    grows as c falls, so the walk stops once it reaches the best cell so
    far: no further left end can improve max(dp[c], oscillation).  The
    first gap exceeds delta, so no partition has a point in (0, delta]:
    those candidates are left out, and a walk past the first candidate
    beyond delta steps straight to 0, still covering every segment between.
    """
    T = path.horizon
    if not 0.0 < delta < T:
        raise ParameterError("need 0 < delta < T")
    bp = path.breakpoints
    jumps = bp[1:]
    cands = distinct(np.concatenate(([0.0, T], jumps, 0.5 * (jumps[:-1] + jumps[1:]))))
    pos = cands[(cands == 0.0) | ((delta < cands) & (cands <= T))]
    vals = path.values.tolist()
    # segment holding each candidate, and last segment strictly before it
    start_seg = (np.searchsorted(bp, pos, side="right") - 1).tolist()
    end_seg = (np.searchsorted(bp, pos, side="left") - 1).tolist()
    pos = pos.tolist()

    inf = math.inf
    dp = [0.0] + [inf] * (len(pos) - 1)
    # the last left end c with pos[k] - pos[c] > delta; every right end has
    # one, as pos[1] > delta
    w = -1
    for k in range(1, len(pos)):
        p = pos[k]
        while p - pos[w + 1] > delta:
            w += 1
        # segments [a, b] meet the cell [pos[c], pos[k]), c = w first
        a, b = start_seg[w], end_seg[k]
        if a == b:
            lo = hi = vals[a]
        else:
            covered = vals[a : b + 1]
            lo, hi = min(covered), max(covered)
        best = inf
        for c in range(w, -1, -1):
            while start_seg[c] < a:  # the segments the cell now also covers
                a -= 1
                y = vals[a]
                if y < lo:
                    lo = y
                elif y > hi:
                    hi = y
            osc = hi - lo
            if osc >= best:
                break
            d = dp[c]
            if d < best:
                best = osc if osc > d else d
        dp[k] = best
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
