"""Independent reference computations used to check the fast implementations.

Every oracle here deliberately uses a different algorithm (or a different
library) from the code under test: scipy QUADPACK instead of the package's
adaptive Simpson, the depth-first recursive Simpson with one scalar
integrand call per node instead of the level-batched one, dense Riemann
sums instead of closed forms, a lattice
minimax alignment instead of the interval DP, a float bisection over the
full-grid feasibility walk instead of the critical-value search over
reachable states, a plain binary search over all critical values instead
of the value-gap-bracketed one, the dense m x n difference table instead
of the row-blocked gap enumeration, a Python double loop over every candidate
instead of the pruned sparse-modulus walk, every partition of a short path
by where its points sit (on a jump or inside a flat stretch) instead of the
jump-and-midpoint candidate set, the dense (J + 1)^2 Sobolev arrays instead
of the row-blocked sum, the atom-by-atom continuous scan
under the global envelope instead of the local one, the dense masked matrix
of every time's lag to every event instead of the run-blocked excitation
read of a finished path.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad

from hawkpath.errors import DivergingKernelError, RunawayIntensityError
from hawkpath.kernels import grid_coefficients
from hawkpath.metrics import feasible_eps, uniform_distance
from hawkpath.randomness import ATOM_BUDGET, extend_ceiling
from hawkpath.simulate import StepPath, make_step_path


def quad_abs_l1(fn, T, points=()):
    """scipy quadrature of |h| on [0, T]."""
    val, _ = quad(lambda t: abs(fn(t)), 0.0, T, points=list(points) or None, limit=400)
    return val


def dense_shift_modulus(fn, delta, T, n_eps=257, points=()):
    """Max over a dense eps grid of the L1 shift difference, by scipy quadrature."""
    best = 0.0
    for eps in np.linspace(0.0, delta, n_eps):
        if eps == 0.0:
            continue
        pts = sorted(
            {p for p in points if 0 < p < T - delta}
            | {p - eps for p in points if 0 < p - eps < T - delta}
        )
        val, _ = quad(
            lambda y: abs(fn(y + eps) - fn(y)),
            0.0,
            T - delta,
            points=pts or None,
            limit=400,
        )
        best = max(best, val)
    return best


def riemann_projection_modulus(fn, delta, T, n=2**22):
    """Midpoint Riemann sum of |h(y) - h((y)_grid + delta)| over [0, T - delta]."""
    upper = T - delta
    dx = upper / n
    y = (np.arange(n) + 0.5) * dx
    target = (np.floor(y / delta) + 1.0) * delta
    return float(np.abs(fn(y) - fn(target)).sum() * dx)


def _simpson_step_reference(f, a, fa, m, fm, b, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = float(f(lm))
    frm = float(f(rm))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise DivergingKernelError(
            f"quadrature did not converge on [{a:g}, {b:g}] "
            f"(residual {abs(err):.3e}); kernel may have a non-integrable singularity"
        )
    return (
        _simpson_step_reference(f, a, fa, lm, flm, m, fm, left, 0.5 * tol, depth - 1)
        + _simpson_step_reference(f, m, fm, rm, frm, b, fb, right, 0.5 * tol, depth - 1)
    )


def adaptive_simpson_reference(f, a, b, tol=1e-9, breakpoints=(), max_depth=50):
    """Adaptive Simpson as the classic depth-first recursion, f called per scalar.

    Same panels, per-panel tolerance tol / n and acceptance test as
    ``kernels.integrate``; the panels are added left to right from 0.
    """
    if b <= a:
        return 0.0
    edges = [a, *sorted(p for p in breakpoints if a < p < b), b]
    n_panels = len(edges) - 1
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        fa = float(f(lo))
        fb = float(f(hi))
        m = 0.5 * (lo + hi)
        fm = float(f(m))
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
        total += _simpson_step_reference(
            f, lo, fa, m, fm, hi, fb, whole, tol / n_panels, max_depth
        )
    return total


def _h_scalar(kernel, t):
    return float(kernel.evaluate(np.array([t]))[0])


def _shift_integral_reference(kernel, eps, upper, tol):
    if eps == 0.0:
        return 0.0
    H = kernel.abs_antiderivative
    if kernel.monotone_decreasing and H is not None:
        return H(upper) - (H(upper + eps) - H(eps))
    breaks = set(kernel.nonsmooth_points)
    breaks.update(p - eps for p in kernel.nonsmooth_points)
    return adaptive_simpson_reference(
        lambda y: abs(_h_scalar(kernel, y + eps) - _h_scalar(kernel, max(y, 1e-300))),
        0.0, upper, tol, tuple(breaks),
    )


def regularity_terms_reference(kernel, delta, T, tol=1e-9):
    """(head, shift modulus, grid-projection modulus) of ``kernels.c_r``, one
    scalar integral after another through ``adaptive_simpson_reference``."""
    H = kernel.abs_antiderivative
    if H is not None:
        head = H(delta) - H(0.0)
    else:
        head = adaptive_simpson_reference(
            lambda t: abs(_h_scalar(kernel, t)), 0.0, delta, tol, kernel.nonsmooth_points
        )

    upper = T - delta
    eps = np.linspace(0.0, delta, 33)
    vals = [_shift_integral_reference(kernel, e, upper, tol) for e in eps]
    k = int(np.argmax(vals))
    shift = float(vals[k])
    lo, hi = eps[max(k - 1, 0)], eps[min(k + 1, 32)]
    for _ in range(2):
        fine = np.linspace(lo, hi, 5)
        fvals = [_shift_integral_reference(kernel, e, upper, tol) for e in fine]
        j = int(np.argmax(fvals))
        shift = max(shift, float(fvals[j]))
        lo, hi = fine[max(j - 1, 0)], fine[min(j + 1, 4)]

    proj = 0.0
    k = 1
    while (k - 1) * delta < upper - 1e-15:
        lo, hi = (k - 1) * delta, min(k * delta, upper)
        target = _h_scalar(kernel, k * delta)
        if kernel.monotone_decreasing and H is not None:
            proj += (H(hi) - H(lo)) - (hi - lo) * target
        else:
            proj += adaptive_simpson_reference(
                lambda y, c=target: abs(_h_scalar(kernel, max(y, 1e-300)) - c),
                lo, hi, tol, kernel.nonsmooth_points,
            )
        k += 1
    return head, shift, proj


def sobolev_riemann(
    path: StepPath, eta: float, grid: int = 10_000, band: int = 64, refine: int = 64
) -> float:
    """Midpoint double-Riemann sum of the W^{eta,1} norm on a grid x grid mesh.

    Requires the path breakpoints to sit on multiples of T/grid.  Cell pairs
    within ``band`` cells of the diagonal use a ``refine`` x ``refine``
    midpoint submesh (the integrand varies steeply there); farther pairs use
    the plain cell midpoints.  The double sum is evaluated by counting
    midpoint pairs at each lattice distance, which reproduces the
    brute-force cell-by-cell sum exactly (the integrand is constant on
    midpoints of one segment pair).
    """
    T = path.horizon
    dx = T / grid
    edges = np.append(path.breakpoints, T)
    starts = np.rint(edges / dx).astype(int)
    if not np.allclose(starts * dx, edges, atol=1e-9 * max(T, 1.0)):
        raise ValueError("path breakpoints must be aligned to the oracle grid")
    # per-distance weight of one cell pair: refined midpoint mesh in the band
    weights = np.empty(grid)
    weights[0] = np.nan  # same-cell pairs never pair distinct values
    offs = (np.arange(refine) + 0.5) * dx / refine
    gaps = offs[None, :] - offs[:, None]
    for d in range(1, min(band, grid - 1) + 1):
        sep = d * dx + gaps
        weights[d] = float((sep ** (-1.0 - eta)).sum()) * (dx / refine) ** 2
    far = np.arange(band + 1, grid)
    weights[band + 1:] = (far * dx) ** (-1.0 - eta) * dx * dx
    v = path.values
    nseg = len(v)
    term1 = float(
        sum(abs(v[s]) * (starts[s + 1] - starts[s]) * dx for s in range(nseg))
    )
    total2 = 0.0
    for s in range(nseg):
        a1, b1 = starts[s], starts[s + 1]
        if b1 == a1:
            continue
        for u in range(s + 1, nseg):
            dvv = abs(v[s] - v[u])
            a2, b2 = starts[u], starts[u + 1]
            if dvv == 0.0 or b2 == a2:
                continue
            d = np.arange(a2 - b1 + 1, b2 - a1)
            counts = (
                np.minimum(b1 - 1, b2 - 1 - d) - np.maximum(a1, a2 - d) + 1
            ).clip(min=0)
            total2 += dvv * float((counts * weights[d]).sum())
    return term1 + 2.0 * total2


def sobolev_dense(path: StepPath, eta: float) -> float:
    """The W^{eta,1} norm's closed-form segment-pair sum over dense (J + 1)^2
    arrays, all at once: the formula ``sobolev_norm`` sums in row blocks."""
    edges = np.append(path.breakpoints, path.horizon)
    v = path.values
    term1 = float(np.dot(np.abs(v), np.diff(edges)))
    if len(v) == 1:
        return term1
    x = 1.0 - eta
    P = np.abs(np.subtract.outer(edges, edges)) ** x
    W = (P[:-1, :-1] + P[1:, 1:] - P[1:, :-1] - P[:-1, 1:]) / (eta * x)
    dv = np.abs(np.subtract.outer(v, v))
    return term1 + 2.0 * float(np.tril(dv * W, -1).sum())


def skorokhod_lattice(f: StepPath, g: StepPath, n: int = 2000) -> float:
    """Minimax alignment of both paths over a shared time lattice.

    Monotone lattice paths from (0, 0) to (n, n) stand in for time changes;
    the cost of a visited node (i, j) is max(|t_i - t_j|, |f(t_i) - g(t_j)|)
    and the path cost is the max over visited nodes, minimized by a
    wavefront dynamic program.  Converges to the Skorokhod distance as the
    lattice refines; exact up to one lattice cell for jump-aligned paths.
    """
    T = f.horizon
    ts = np.linspace(0.0, T, n + 1)
    fv = np.asarray(f.value_at(ts), dtype=float)
    gv = np.asarray(g.value_at(ts), dtype=float)
    dp = np.full((n + 1, n + 1), np.inf)
    dp[0, 0] = max(abs(fv[0] - gv[0]), 0.0)
    for diag in range(1, 2 * n + 1):
        i = np.arange(max(0, diag - n), min(diag, n) + 1)
        j = diag - i
        best = np.full(len(i), np.inf)
        m = i >= 1
        best[m] = np.minimum(best[m], dp[i[m] - 1, j[m]])
        m = j >= 1
        best[m] = np.minimum(best[m], dp[i[m], j[m] - 1])
        m = (i >= 1) & (j >= 1)
        best[m] = np.minimum(best[m], dp[i[m] - 1, j[m] - 1])
        cost = np.maximum(np.abs(ts[i] - ts[j]), np.abs(fv[i] - gv[j]))
        dp[i, j] = np.maximum(cost, best)
    return float(dp[n, n])


def _pos_le(x, y, eps, strict=False):
    """x <= y (x < y if strict) for positions (t, k) standing for t + k * eps.

    Decided on the float difference t_x - t_y against (k_y - k_x) * eps, so
    no position is ever rounded to a float of its own.
    """
    (tx, kx), (ty, ky) = x, y
    lhs, rhs = (tx, ty) if kx == ky else (tx - ty, (ky - kx) * eps)
    return lhs < rhs if strict else lhs <= rhs


def _pos_min(x, y, eps):
    return x if _pos_le(x, y, eps) else y


def _pos_max(x, y, eps):
    return y if _pos_le(x, y, eps) else x


def _merge_intervals(ivs, eps):
    def cmp(x, y):
        if not _pos_le(x, y, eps):
            return 1
        return 0 if _pos_le(y, x, eps) else -1

    ivs.sort(key=functools.cmp_to_key(lambda u, v: cmp(u[0], v[0]) or cmp(u[1], v[1])))
    out = [ivs[0]]
    for lo, hi in ivs[1:]:
        plo, phi = out[-1]
        if _pos_le(lo, phi, eps):
            out[-1] = (plo, _pos_max(phi, hi, eps))
        else:
            out.append((lo, hi))
    return out


def feasible_eps_grid(f: StepPath, g: StepPath, eps: float) -> bool:
    """The Skorokhod feasibility DP walked over every cell of the state grid.

    Same states and transitions as ``metrics.feasible_eps``, but every
    anti-diagonal is scanned in full over (m + 1) x (n + 1) boolean arrays
    and a dict of interval lists, with numpy scalar reads; unreached cells
    are skipped one by one.  Window edges stay symbolic, as positions
    (c, -1) and (c, +1) for c - eps and c + eps, clipped to (0, 0) and
    (T, 0), and every comparison goes through ``_pos_le``.
    """
    T = f.horizon
    fa = f.breakpoints[1:]
    ga = g.breakpoints[1:]
    fv = f.values
    gv = g.values
    m, n = len(fa), len(ga)

    if abs(fv[0] - gv[0]) > eps or abs(fv[m] - gv[n]) > eps:
        return False

    clean = np.zeros((m + 1, n + 1), dtype=bool)
    tied = np.zeros((m + 1, n + 1), dtype=bool)
    by_g = {(0, 0): [((0.0, 0), (0.0, 0))]}

    def le(x, y):
        return _pos_le(x, y, eps)

    for diag in range(m + n + 1):
        for i in range(min(diag, m), -1, -1):
            j = diag - i
            if j > n:
                break
            ivs = by_g.get((i, j))
            if ivs:
                ivs = _merge_intervals(ivs, eps)
                by_g[(i, j)] = ivs
            from_f = bool(clean[i, j] or tied[i, j])
            if not ivs and not from_f:
                continue
            matches = abs(fv[i] - gv[j]) <= eps
            a0 = (float(fa[i - 1]) if i >= 1 else 0.0, 0)
            lows = []
            if ivs:
                lows.append(ivs[0][0])
            if from_f:
                lows.append(a0)
            min_pos = functools.reduce(lambda x, y: _pos_min(x, y, eps), lows)
            if i < m:
                a = (float(fa[i]), 0)
                at_a = bool(ivs) and any(le(lo, a) and le(a, hi) for lo, hi in ivs)
                if matches and le(min_pos, a):
                    if from_f or (ivs and _pos_le(ivs[0][0], a, eps, strict=True)):
                        clean[i + 1, j] = True
                    if at_a:
                        tied[i + 1, j] = True
                elif not matches and at_a:
                    tied[i + 1, j] = True
            if j < n:
                c = float(ga[j])
                wlo = _pos_max((c, -1), (0.0, 0), eps)
                whi = _pos_min((c, 1), (T, 0), eps)
                if le(wlo, whi):
                    if matches and le(min_pos, whi):
                        nlo = _pos_max(min_pos, wlo, eps)
                        if le(nlo, whi):
                            by_g.setdefault((i, j + 1), []).append((nlo, whi))
                    if not matches and clean[i, j] and le(wlo, a0) and le(a0, whi):
                        by_g.setdefault((i, j + 1), []).append((a0, a0))
    return bool(clean[m, n] or tied[m, n]) or bool(by_g.get((m, n)))


def skorokhod_bisection(f: StepPath, g: StepPath, tol: float | None = None) -> float:
    """Bisection of ``feasible_eps_grid`` on [0, uniform distance].

    Returns a feasible eps at most ``tol`` (default 1e-9 * T) above the
    infimum, never above the uniform distance.
    """
    if f.equals(g):
        return 0.0
    hi = uniform_distance(f, g)
    if hi == 0.0:
        return 0.0
    if tol is None:
        tol = 1e-9 * f.horizon
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible_eps_grid(f, g, mid):
            hi = mid
        else:
            lo = mid
    return hi


def dense_gaps_within(x: np.ndarray, y: np.ndarray, u: float) -> np.ndarray:
    """Every |x_i - y_j| <= u, read off the dense m x n difference table."""
    gaps = np.abs(np.subtract.outer(x, y)).ravel()
    return gaps[gaps <= u]


def skorokhod_critical_bisection(f: StepPath, g: StepPath) -> float:
    """Binary search of ``feasible_eps`` over every critical value <= the
    uniform distance, without the value-gap bracket.

    It tests the midpoint of each gap between consecutive critical values
    (the lower endpoint when the two are adjacent floats) and returns the
    critical value below the first feasible gap, or the uniform distance.
    """
    if f.equals(g):
        return 0.0
    u = uniform_distance(f, g)
    if u == 0.0:
        return 0.0
    T = f.horizon
    fa, ga = f.breakpoints[1:], g.breakpoints[1:]
    cands = np.concatenate((
        [0.0], dense_gaps_within(f.values, g.values, u), dense_gaps_within(fa, ga, u),
        fa, T - fa, ga, T - ga,
    ))
    crit = np.unique(cands[cands <= u])
    lo, hi = 0, len(crit) - 1
    while lo < hi:
        k = (lo + hi) // 2
        c, nxt = float(crit[k]), float(crit[k + 1])
        mid = 0.5 * (c + nxt)
        if feasible_eps(f, g, c if mid in (c, nxt) else mid):
            hi = k
        else:
            lo = k + 1
    return float(crit[lo])


def modulus_sparse_quadratic(path: StepPath, delta: float) -> float:
    """The sparse-modulus minimax DP as a Python double loop over candidates.

    For each right end k it walks the left ends c downwards, growing the
    covered segment range one chunk at a time and keeping its running min
    and max as Python floats.
    """
    T = path.horizon
    jumps = [float(t) for t in path.breakpoints[1:]]
    cands = {0.0, T}
    cands.update(jumps)
    cands.update(0.5 * (a + b) for a, b in zip(jumps[:-1], jumps[1:]))
    pos = np.array(sorted(c for c in cands if 0.0 <= c <= T))
    K = len(pos)
    bp = path.breakpoints
    vals = path.values
    start_seg = np.searchsorted(bp, pos, side="right") - 1
    end_seg = np.searchsorted(bp, pos, side="left") - 1

    INF = math.inf
    dp = np.full(K, INF)
    dp[0] = 0.0
    for k in range(1, K):
        hi_seg = end_seg[k]
        cur_lo = INF
        cur_hi = -INF
        a_idx = hi_seg + 1
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


def modulus_sparse_brute(path: StepPath, delta: float) -> float:
    """The exact sparse modulus of a path with at most 5 jumps, by enumeration.

    A cell [a, b) covers the segments from the one holding a to the one
    holding b-, so its oscillation depends only on where a and b sit: on a
    jump inside (0, T), or inside an open flat stretch between consecutive
    breakpoints (0, the jumps, T).  Two points in one stretch are never
    needed: dropping the first merges two cells into one whose oscillation
    is that of the second.  So the oracle tries every ordered choice of
    these places, puts each point as early as gaps > delta allow (a jump at
    its time, a stretch point just above max(its left end, previous point +
    delta)), keeps the choices that leave a gap > delta before T, and takes
    the least worst cell oscillation.
    """
    T = path.horizon
    bp = [float(b) for b in path.breakpoints]
    vals = [float(v) for v in path.values]
    if len(bp) > 6:
        raise ValueError("enumeration is for paths of at most 5 jumps")
    ends = bp + ([T] if bp[-1] < T else [])
    # (jump time or stretch's left end, stretch?, segment at the point, segment just before it)
    places = []
    for k in range(len(ends) - 1):
        if k > 0:
            places.append((ends[k], False, k, k - 1))  # the jump at ends[k]
        places.append((ends[k], True, k, k))  # the stretch (ends[k], ends[k + 1])
    last = len(bp) - 1 if bp[-1] < T else len(bp) - 2  # segment holding T-

    def oscillation(first, last_seg):
        covered = vals[first : last_seg + 1]
        return max(covered) - min(covered)

    best = math.inf
    for mask in range(1 << len(places)):
        q, seg, worst, feasible = 0.0, 0, 0.0, True
        for i, (left, stretch, first, before) in enumerate(places):
            if not mask >> i & 1:
                continue
            if stretch:
                right = ends[first + 1]
                at = max(left, q + delta)
                if not at < right:
                    feasible = False
                    break
            else:
                at = left
                if not at - q > delta:
                    feasible = False
                    break
            worst = max(worst, oscillation(seg, before))
            q, seg = at, first
        if feasible and T - q > delta:
            best = min(best, max(worst, oscillation(seg, last)))
    return best


def brute_uniform(f: StepPath, g: StepPath, n: int = 20001) -> float:
    ts = np.linspace(0.0, f.horizon, n)
    return float(np.abs(f.value_at(ts) - g.value_at(ts)).max())


def random_step_path(
    rng: np.random.Generator,
    horizon: float = 1.0,
    max_jumps: int = 8,
    align: int | None = None,
    integer_values: bool = False,
) -> StepPath:
    """Random canonical step path; ``align`` snaps jumps to multiples of T/align."""
    n_jumps = int(rng.integers(1, max_jumps + 1))
    if align is not None:
        idx = rng.choice(np.arange(1, align), size=min(n_jumps, align - 1), replace=False)
        times = np.sort(idx) * (horizon / align)
    else:
        times = np.sort(rng.uniform(0.0, horizon, n_jumps))
        times = np.unique(times)
    if integer_values:
        steps = rng.choice([-2, -1, 1, 2, 3], size=len(times))
    else:
        steps = rng.normal(0.0, 1.0, size=len(times))
        steps[np.abs(steps) < 0.05] = 0.25
    values = np.concatenate(([0.0], np.cumsum(steps)))
    return make_step_path(np.concatenate(([0.0], times)), values, horizon)


def discrete_scheme_reference(kernel, jump_rate, mark_model, delta, count, atoms):
    """The discrete scheme thinned bin by bin, every bin on its own.

    Each bin looks up its atoms with two searches, selects the ones under the
    frozen bin intensity and keeps them as a separate array, so the accepted
    atoms come out as per-bin lists.  A bin's mass and mark gain are summed
    in an explicit loop, left to right from 0.0, oldest atom first.  The
    ceiling is doubled in the bin that needs it, exactly as in the scheme
    under test.
    """
    M = int(count)
    coeffs = grid_coefficients(kernel, delta, M * delta).values
    nz = np.nonzero(coeffs)[0]
    span = int(nz[-1]) + 1 if len(nz) else 0
    psi = jump_rate.fn

    tau, theta, y, _ = atoms.merged()
    b = mark_model.modulate(y)

    intensity = np.empty(M + 1)
    mass = np.zeros(M + 1)
    events = np.zeros(M + 1, dtype=np.int64)
    risk = np.zeros(M + 1)
    bin_marks = [np.empty(0)] * (M + 1)
    bin_times = [np.empty(0)] * (M + 1)

    intensity[0] = jump_rate.at_zero
    for n in range(1, M + 1):
        if n == 1:
            l_n = jump_rate.at_zero
        else:
            k0 = max(1, n - span)
            s = 0.0
            for j in range(k0, n):
                s += coeffs[n - 1 - j] * mass[j]
            l_n = float(psi(s))
        while l_n > atoms.ceiling:
            new_ceiling = atoms.ceiling * 2.0
            if new_ceiling * atoms.horizon > ATOM_BUDGET:
                raise RunawayIntensityError(
                    f"bin intensity {l_n:.4g} needs a ceiling beyond the atom budget"
                )
            extend_ceiling(atoms, new_ceiling)
            tau, theta, y, _ = atoms.merged()
            b = mark_model.modulate(y)
        intensity[n] = l_n
        lo = int(np.searchsorted(tau, (n - 1) * delta, side="right"))
        hi = int(np.searchsorted(tau, n * delta, side="right"))
        sel = theta[lo:hi] <= l_n
        m = gain = 0.0
        for b_k, y_k in zip(b[lo:hi][sel].tolist(), y[lo:hi][sel].tolist()):
            m += b_k
            gain += y_k
        mass[n] = m
        events[n] = int(sel.sum())
        risk[n] = risk[n - 1] + gain
        bin_marks[n] = y[lo:hi][sel].copy()
        bin_times[n] = tau[lo:hi][sel].copy()

    return SimpleNamespace(
        intensity=intensity, mass=mass, events=events, risk=risk,
        bin_times=bin_times, bin_marks=bin_marks,
    )


def _double_to(atoms, level, what):
    """Double the atoms' ceiling until it reaches ``level``, strip by strip."""
    while atoms.ceiling < level:
        if 2.0 * atoms.ceiling * atoms.horizon > ATOM_BUDGET:
            raise RunawayIntensityError(
                f"{what} {level:.4g} needs a ceiling beyond the atom budget"
            )
        extend_ceiling(atoms, 2.0 * atoms.ceiling)


def continuous_scan_reference(kernel, jump_rate, mark_model, T, atoms):
    """Continuous thinning that reads every atom up to T, in time order.

    The ceiling follows the global envelope psi(0) + L * ||h||_inf * (accepted
    modulated mass), capped at sup psi, and doubles at the atom where the
    intensity itself passes it.  After either extension the merged atoms are
    read again and the scan goes on from the first undecided atom.
    """
    psi = jump_rate.fn

    def envelope(mass):
        env = jump_rate.at_zero + jump_rate.lipschitz * kernel.sup_norm * mass
        return env if jump_rate.sup_norm is None else min(env, jump_rate.sup_norm)

    times, marks, weights, intensities = [], [], [], []
    mass = 0.0
    _double_to(atoms, envelope(mass), "intensity envelope")
    resume = 0      # where the last pass stopped, in its (tau, theta) order
    read = atoms.ceiling
    while True:
        tau, theta, y, _ = atoms.merged()
        b = mark_model.modulate(y)
        keep = tau <= T
        tau, theta, y, b = tau[keep], theta[keep], y[keep], b[keep]
        # the last pass read the atoms under its ceiling, which keep their
        # order among the merged atoms
        start = int(np.flatnonzero(theta <= read)[resume - 1]) + 1 if resume else 0
        read = atoms.ceiling
        for i in range(start, len(tau)):
            t = tau[i]
            past_t = np.array(times)
            past_b = np.array(weights)
            before = past_t < t
            if kernel.support is not None:
                before &= past_t > t - kernel.support
            idx = np.flatnonzero(before)
            x = 0.0
            if len(idx):
                lags = t - past_t[idx[0] : idx[-1] + 1]
                x = float(np.dot(np.asarray(kernel.evaluate(lags), dtype=float),
                                 past_b[idx[0] : idx[-1] + 1]))
            lam = float(psi(x))
            if lam > atoms.ceiling:
                _double_to(atoms, lam, "intensity")
                resume = i
                break
            if theta[i] <= lam:
                times.append(t)
                marks.append(y[i])
                weights.append(b[i])
                intensities.append(lam)
                mass += float(b[i])
                if envelope(mass) > atoms.ceiling:
                    _double_to(atoms, envelope(mass), "intensity envelope")
                    resume = i + 1
                    break
        else:
            break
    return SimpleNamespace(
        times=np.array(times), marks=np.array(marks),
        weights=np.array(weights), intensities=np.array(intensities),
    )


def dense_excitation(path, kernel, ts):
    """Kernel-weighted past at each of ``ts`` from the dense masked lag matrix:
    h at every positive lag to every event (no support cut), one matrix
    product with the weights."""
    ts = np.asarray(ts, dtype=float)
    if not len(path.times):
        return np.zeros_like(ts)
    lags = ts[:, None] - path.times[None, :]
    mask = lags > 0
    vals = np.zeros_like(lags)
    safe = np.where(mask, lags, 1.0)
    vals[mask] = np.asarray(kernel.evaluate(safe), dtype=float)[mask]
    return vals @ path.weights


def dense_compensator(path, kernel, jump_rate, T=None, order=16):
    """Integral of the intensity over [0, T]: the ``order``-point Gauss-Legendre
    rule on every inter-event segment, every node read off ``dense_excitation``
    at once."""
    if T is None:
        T = path.horizon
    edges = np.unique(np.concatenate(([0.0], path.times[path.times < T], [T])))
    nodes, weights = np.polynomial.legendre.leggauss(order)
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ts = (mids[:, None] + 0.5 * widths[:, None] * nodes[None, :]).ravel()
    lam = np.asarray(jump_rate.fn(dense_excitation(path, kernel, ts)), dtype=float)
    return float(((lam.reshape(len(widths), order) @ weights) * 0.5 * widths).sum())


def compound_poisson_scheme(kernel, jump_rate, mark_model, delta, count, seed):
    """The discrete scheme sampled without atoms: each bin is compound Poisson.

    Equal in law to the atom-based scheme (a bin's accepted atoms are a
    Poisson number of independent marks given the past), with no pathwise
    coupling to anything.  Returns the per-bin event counts.
    """
    M = int(count)
    coeffs = grid_coefficients(kernel, delta, M * delta).values
    rng = np.random.default_rng(np.random.SeedSequence(entropy=tuple(seed)))
    mass = np.zeros(M + 1)
    events = np.zeros(M + 1, dtype=np.int64)
    for n in range(1, M + 1):
        s = float(np.dot(coeffs[: n - 1], mass[1:n][::-1]))
        d = int(rng.poisson(delta * float(jump_rate.fn(s))))
        events[n] = d
        mass[n] = float(mark_model.modulate(mark_model.sample(rng, d)).sum())
    return events


def local_extrema_one_pass(fn, T):
    """``kernels._local_extrema`` in one pass over every sample and every
    bracket at once, as it ran before it read them in chunks."""
    ts = np.linspace(0.0, T, max(4096, math.ceil(16 * T)))
    sign = np.sign(np.diff(fn(ts)))
    turns = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    rows = np.arange(len(turns))
    a, b = ts[turns], ts[turns + 2]
    for _ in range(8):
        samples = np.linspace(a, b, 65, axis=1)
        k = np.argmax(sign[turns, None] * fn(samples), axis=1)
        a, b = samples[rows, np.maximum(k - 1, 0)], samples[rows, np.minimum(k + 1, 64)]
    return tuple(samples[rows, k].tolist())
