"""Coupled construction of the continuous-time and discrete-time risk processes.

Both processes are built by thinning the *same* materialized Poisson atoms:
the continuous process accepts an atom (tau, theta, y) when theta is below
the left-limit intensity at tau, the discrete scheme freezes its intensity
per time bin and accepts bin atoms under that frozen level.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import rho_continuous, rho_discrete
from .errors import InstabilityError, InstabilityWarning, ParameterError, RunawayIntensityError
from .kernels import REL_TOL, GridCoefficients, Kernel
from .randomness import MarkModel, PoissonAtoms

__all__ = [
    "JumpRate",
    "ContinuousPath",
    "DiscreteTrace",
    "StepPath",
    "relu_affine",
    "clipped_affine",
    "sigmoid_rate",
    "constant_rate",
    "simulate_continuous",
    "eval_intensity",
    "integrate_intensity",
    "simulate_ladder",
    "couple",
    "default_ceiling",
    "path_to_step",
    "make_step_path",
    "step_from_jumps",
]


# --------------------------------------------------------------------------
# Jump rate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpRate:
    """Nonnegative Lipschitz map psi from kernel-weighted past to event rate:
    its family, psi, the Lipschitz constant L and sup psi (``sup_norm``, None
    for unbounded families).  ``at_zero``, the rate of an empty past, is
    psi(0) itself.  A library psi answers a float (continuous thinning reads
    one excitation at a time) with the bits of its array answer, and builds
    no array for it.
    """

    family: str
    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    sup_norm: float | None = None

    def __call__(self, x):
        return self.fn(x)

    @functools.cached_property
    def at_zero(self) -> float:
        return float(self.fn(0.0))


def relu_affine(baseline: float) -> JumpRate:
    """psi(x) = max(baseline + x, 0); the standard unbounded family."""
    mu = float(baseline)

    def fn(x):
        if isinstance(x, float):
            y = mu + x
            return 0.0 if y <= 0.0 else y   # np.maximum's: 0.0 for -0.0, NaN kept
        return np.maximum(mu + np.asarray(x, dtype=float), 0.0)

    return JumpRate("relu-affine", fn, lipschitz=1.0, sup_norm=None)


def clipped_affine(baseline: float, cap: float) -> JumpRate:
    """psi(x) = min(max(baseline + x, 0), cap); bounded by construction."""
    mu, c = float(baseline), float(cap)
    if c <= 0:
        raise ParameterError("cap must be positive")

    def fn(x):
        if isinstance(x, float):
            y = mu + x
            return 0.0 if y < 0.0 else min(y, c)    # np.clip's: -0.0 and NaN kept
        return np.clip(mu + np.asarray(x, dtype=float), 0.0, c)

    return JumpRate("clipped-affine", fn, lipschitz=1.0, sup_norm=c)


def sigmoid_rate(scale: float) -> JumpRate:
    """psi(x) = scale / (1 + exp(-x)); bounded, Lipschitz constant scale / 4."""
    lam = float(scale)
    if lam <= 0:
        raise ParameterError("scale must be positive")

    def fn(x):
        if not isinstance(x, float):
            x = np.asarray(x, dtype=float)
        # np.exp, not math.exp, whose last bit can differ
        return lam / (1.0 + np.exp(-x))

    return JumpRate("sigmoid", fn, lipschitz=lam / 4.0, sup_norm=lam)


def constant_rate(value: float) -> JumpRate:
    """psi identically equal to ``value``: the pure Poisson case."""
    c = float(value)
    if c < 0:
        raise ParameterError("rate must be nonnegative")

    def fn(x):
        if isinstance(x, float):
            return c
        return np.full_like(np.asarray(x, dtype=float), c)

    return JumpRate("constant", fn, lipschitz=0.0, sup_norm=c)


# --------------------------------------------------------------------------
# Path containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousPath:
    """Accepted events of the continuous-time process, in time order.

    ``intensities[i]`` is the left-limit intensity at the accepting atom, so
    it always dominates that atom's theta.
    """

    horizon: float
    times: np.ndarray
    marks: np.ndarray
    weights: np.ndarray       # modulation b(y) per event
    intensities: np.ndarray

    @property
    def terminal_count(self) -> int:
        return len(self.times)

    @property
    def terminal_risk(self) -> float:
        """The marks added left to right, the last value of the risk path."""
        return float(np.cumsum(self.marks)[-1]) if len(self.marks) else 0.0

    @functools.cached_property
    def risk_path(self) -> StepPath:
        """The risk step path, embedded on first read and kept."""
        return path_to_step(self, "risk")


@dataclass(frozen=True)
class DiscreteTrace:
    """Arrays of the discrete scheme on the points t_0 .. t_count of ``grid``.

    Index n holds the bin (t_{n-1}, t_n]; index 0 is the initial state.
    ``intensity[0] == intensity[1]`` equals the empty-past rate.  ``mass[n]``
    and bin n's mark gain sum b and y over its accepted atoms left to right
    from 0.0, oldest first, as a weighted ``np.bincount`` does; ``risk`` is
    the gains' running sum at the grid points.  ``times`` and ``marks`` hold
    the accepted atoms in bin order; bin n's atoms are the slice
    ``cumsum(events)[n-1]:cumsum(events)[n]``.  ``intensity[n]`` for n >= 2
    is psi of the feedback sum of ``coeffs[n-1-j] * mass[j]`` over the
    earlier bins j, added in IEEE double oldest bin first.  Filling it costs
    one psi call per window of its grid's walk, and one on the whole ladder
    per pass (one pass, plus one per ceiling extension).
    """

    grid: GridCoefficients
    intensity: np.ndarray           # l_0 .. l_M
    mass: np.ndarray                # X_0 .. X_M (modulated per-bin mass)
    events: np.ndarray              # D_0 .. D_M (accepted counts)
    risk: np.ndarray                # R at the grid points
    times: np.ndarray               # accepted atom times, in bin order
    marks: np.ndarray               # their marks

    @property
    def delta(self) -> float:
        return self.grid.delta

    @property
    def count(self) -> int:
        return self.grid.count

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    @property
    def terminal_count(self) -> int:
        return int(self.events.sum())

    @property
    def terminal_risk(self) -> float:
        return float(self.risk[-1])

    @functools.cached_property
    def risk_path(self) -> StepPath:
        return path_to_step(self, "risk")


@dataclass(frozen=True)
class StepPath:
    """Right-continuous piecewise-constant path on [0, horizon].

    Canonical form: breakpoints strictly increasing starting at 0 and no two
    consecutive values equal, so equality of canonical paths is equality of
    the functions.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.values) or len(self.values) == 0:
            raise ParameterError("breakpoints and values must align and be nonempty")
        if self.breakpoints[0] != 0.0:
            raise ParameterError("a step path starts at 0")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ParameterError("breakpoints must be strictly increasing")
        if self.breakpoints[-1] > self.horizon:
            raise ParameterError("breakpoints must not exceed the horizon")

    @property
    def jump_count(self) -> int:
        return len(self.breakpoints) - 1

    def value_at(self, t):
        """Right-continuous evaluation, array-aware."""
        idx = np.searchsorted(self.breakpoints, np.asarray(t, dtype=float), side="right") - 1
        return self.values[np.maximum(idx, 0)]

    def equals(self, other: "StepPath") -> bool:
        return (
            self.horizon == other.horizon
            and len(self.values) == len(other.values)
            and bool(np.all(self.breakpoints == other.breakpoints))
            and bool(np.all(self.values == other.values))
        )


def make_step_path(breakpoints, values, horizon: float) -> StepPath:
    """Canonicalize (merge equal consecutive values) and wrap."""
    b = np.asarray(breakpoints, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(b) == 0 or b[0] != 0.0:
        b = np.concatenate(([0.0], b))
        v = np.concatenate(([v[0] if len(v) else 0.0], v))
    keep = np.ones(len(v), dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return StepPath(b[keep], v[keep], float(horizon))


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D array, as ``np.unique(values)``
    gives them, without the import of ``numpy.ma`` that ``np.unique`` makes
    on its first call."""
    ordered = np.sort(values)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def step_from_jumps(times, increments, horizon: float) -> StepPath:
    """Step path from 0 whose value at each of the sorted ``times`` is the
    running sum, left to right, of the ``increments`` up to its last jump."""
    t = np.asarray(times, dtype=float)
    last = np.ones(len(t), dtype=bool)      # each distinct time's last jump
    last[:-1] = t[1:] != t[:-1]
    return make_step_path(
        np.concatenate(([0.0], t[last])),
        np.concatenate(([0.0], np.cumsum(np.asarray(increments, dtype=float))[last])),
        horizon,
    )


# --------------------------------------------------------------------------
# Continuous-time thinning
# --------------------------------------------------------------------------

# Atoms in the first look-ahead window of a search: the continuous scan's for
# the next atom under its envelope, the discrete walk's after a push for the
# next one that pushes.  Each window that holds none doubles the next one.
_WINDOW = 64
# A discrete window read against a guess makes at most _GUESS_ROWS guessed
# pushes, which bounds the pushes a difference undoes.
_GUESS_ROWS = 16


def simulate_continuous(
    kernel: Kernel,
    jump_rate: JumpRate,
    mark_model: MarkModel,
    T: float,
    atoms: PoissonAtoms,
    *,
    allow_unstable: bool = False,
) -> ContinuousPath:
    """Thin the atoms under the self-exciting intensity, in time order.

    Correctness requires the ceiling to dominate the intensity everywhere,
    not just at materialized atoms.  After each atom it reads at time tau the
    scan sets the local envelope (Ogata's local majorant)

        E = min(psi(0) + L * sum_j b_j * H*(tau - t_j), sup psi)

    over the accepted events t_j <= tau, an event just accepted at lag 0
    included; H*(u) = sup over v >= u of |h(v)| (``Kernel.tail_sup``, from
    the declared monotone breaks; |h| itself for the exponential kernel, so
    the sum is |x|).  H* never increases, b >= 0 and
    psi(x) <= psi(0) + L|x|, so E bounds the intensity until the next
    acceptance.  After an acceptance ``atoms.cover`` doubles the ladder up
    to E; past decisions stay valid because atoms in the new strips carry
    thetas above the old ceiling, which already dominated the intensity on
    the scanned region.  This limits exact continuous thinning to bounded
    kernels: no finite ceiling dominates the post-event spikes of a kernel
    that is singular at lag zero.

    An atom with theta above E * (1 + REL_TOL) is rejected unread; the
    margin is more than the rounding of the intensity's excitation sum.  The
    scan finds the next atom under that level in windows of ``_WINDOW``
    atoms, doubling while none is, so the cost is one intensity read per
    atom under E plus a linear pass over the thetas.  A read is one step of
    the excitation state (``_excitation_state``): O(1) for the exponential
    kernel, nothing for a kernel of support 0, and a sum over the accepted
    events inside the support for any other, so a full-span kernel of that
    kind costs O(events) per read.  H* needs the kernel's monotone breaks,
    so a kernel without them is refused.

    A per-atom exceedance check remains as a backstop for kernels whose
    declared breaks are wrong: it covers the intensity at an atom it reads
    and resumes the scan at that atom.  After either extension the scan re-reads
    the merged atoms and resumes at the first undecided one.  A ceiling past
    the atom budget raises ``RunawayIntensityError``.
    """
    if T > atoms.horizon * (1 + REL_TOL):
        raise ParameterError("T exceeds the atoms' horizon")
    if T > kernel.horizon * (1 + REL_TOL):
        raise ParameterError("T exceeds the kernel horizon")
    if not kernel.bounded:
        raise ParameterError(
            "continuous thinning requires a kernel bounded at lag zero with declared "
            "monotone_breaks; only the discrete scheme supports the others"
        )
    rho = rho_continuous(kernel, jump_rate.lipschitz, mark_model)
    if rho >= 1.0 and not allow_unstable:
        raise InstabilityError(
            f"stability ratio {rho:.4g} >= 1; pass allow_unstable=True to override"
        )

    psi = jump_rate.fn
    sup_h = kernel.sup_norm
    slack = 1 + REL_TOL

    def envelope(tail: float) -> float:
        env = jump_rate.at_zero + jump_rate.lipschitz * tail
        if jump_rate.sup_norm is not None:
            env = min(env, jump_rate.sup_norm)
        return env

    env = envelope(0.0)
    atoms.cover(env, "intensity envelope")
    level = env * slack     # thetas above it go unread
    past = _excitation_state(kernel, np.empty(0), np.empty(0))
    acc_t, acc_y, acc_b, acc_lam = [], [], [], []
    undecided = None    # (tau, theta) of the atom to resume at, and 1 to resume past it
    # one pass per ceiling: read the atoms up to T, scan until an extension
    while True:
        tau, theta, y, _ = atoms.merged()
        b = mark_model.modulate(y)
        n = int(np.searchsorted(tau, T, side="right"))
        ceiling = atoms.ceiling
        i = 0
        if undecided is not None:
            t_u, theta_u, skip = undecided
            i = int(np.searchsorted(tau, t_u, side="left"))
            while theta[i] != theta_u:
                i += 1
            i += skip
        while i < n:
            if theta[i] > level:
                i = _next_under(theta, i + 1, n, level)
                continue
            t_i = float(tau[i])
            x, tail = past.at(t_i)      # the excitation, and its bound by H*
            lam = float(psi(x))
            if lam > ceiling:
                # backstop: the declared breaks failed to bound the kernel
                atoms.cover(lam, "intensity")
                undecided = t_i, theta[i], 0
                break
            accepted = theta[i] <= lam
            if accepted:
                b_i = float(b[i])
                past.add(t_i, b_i)
                acc_t.append(t_i)
                acc_y.append(y[i])
                acc_b.append(b_i)
                acc_lam.append(lam)
                tail += b_i * sup_h
            env = envelope(tail)
            level = env * slack
            if accepted and env > ceiling:
                atoms.cover(env, "intensity envelope")
                undecided = t_i, theta[i], 1
                break
            i += 1
        else:   # the scan reached T
            break

    return ContinuousPath(
        horizon=float(T),
        times=np.array(acc_t, dtype=float),
        marks=np.array(acc_y, dtype=float),
        weights=np.array(acc_b, dtype=float),
        intensities=np.array(acc_lam, dtype=float),
    )


def _next_under(theta: np.ndarray, i: int, n: int, level: float) -> int:
    """The first index k in [i, n) with theta[k] <= level, else n: windows of
    ``_WINDOW`` atoms, each one holding none doubling the next."""
    width = _WINDOW
    while i < n:
        e = min(i + width, n)
        under = theta[i:e] <= level
        k = int(under.argmax())
        if under[k]:
            return i + k
        i, width = e, 2 * width
    return n


def _excitation_state(kernel: Kernel, times: np.ndarray, weights: np.ndarray):
    """The excitation x(t) of ``kernel``, the sum of b_k * h(t - t_k) over the
    events t_k < t whose lag lies inside the support, over the events
    (``times``, ``weights``) in time order.

    The state answers three questions: ``at(t)``, x at a time t no earlier
    than every event held, and its bound sum_k b_k * H*(t - t_k) by the
    envelope of continuous thinning; ``add(t, b)``, an event at such a time
    with weight b; and ``read(ts)``, x at each of the 1-D ``ts``, anywhere,
    each time's value depending on it alone.  It is chosen once per kernel:
    none for support 0, the recursion for the exponential family, the direct
    sum for any other.
    """
    if kernel.support == 0.0:
        return _NoExcitation()
    if kernel.exponential is not None:
        return _Recursion(kernel, times, weights)
    return _DirectSum(kernel, times, weights)


class _NoExcitation:
    """A kernel of support 0: no event excites any time."""

    def at(self, t: float) -> tuple[float, float]:
        return 0.0, 0.0

    def add(self, t: float, b: float) -> None:
        pass

    def read(self, ts: np.ndarray) -> np.ndarray:
        return np.zeros(len(ts))


class _Recursion:
    """h(t) = a * exp(-beta * t).  S = x(t_k+) just after the last event t_k
    gives x(t) = S * exp(-beta * (t - t_k)) until the next, and an event of
    weight b sets S to x + a * b: O(1) per event and per time (Ozaki 1979;
    Dassios and Zhao 2013).  |h| is nonincreasing for either sign of a, so
    H* = |h| and the bound is |x|.  The events' times and S start with S = 0
    at -inf, so a read takes the last event strictly before each time."""

    def __init__(self, kernel: Kernel, times: np.ndarray, weights: np.ndarray):
        self.a, self.beta = kernel.exponential
        self.times, self.levels = [-math.inf], [0.0]
        for t, b in zip(times.tolist(), weights.tolist()):
            self.add(t, b)

    def at(self, t: float) -> tuple[float, float]:
        x = self.levels[-1] * math.exp(-self.beta * (t - self.times[-1]))
        return x, abs(x)

    def add(self, t: float, b: float) -> None:
        self.levels.append(self.at(t)[0] + self.a * b)
        self.times.append(t)

    def read(self, ts: np.ndarray) -> np.ndarray:
        times = np.array(self.times)
        last = times.searchsorted(ts, side="left") - 1
        return np.array(self.levels)[last] * np.exp(-self.beta * (ts - times[last]))


class _DirectSum:
    """Any kernel with declared breaks: x summed over the events in the
    kernel's window, h evaluated at each of their lags, and H* from
    ``Kernel.tail_sup``."""

    def __init__(self, kernel: Kernel, times: np.ndarray, weights: np.ndarray):
        self.kernel = kernel
        self.times, self.weights = times, weights
        self.count = len(times)

    def add(self, t: float, b: float) -> None:
        if self.count == len(self.times):
            self.times, self.weights = (
                np.concatenate((v, np.empty(max(len(v), 64)))) for v in (self.times, self.weights)
            )
        self.times[self.count] = t
        self.weights[self.count] = b
        self.count += 1

    def _window(self, t):
        """The index range [lo, hi) of the events that excite the intensity at
        t (a scalar, or lo and hi arrays at an array of times): those strictly
        before t whose lag lies inside the support."""
        times = self.times[: self.count]
        hi = times.searchsorted(t, side="left")
        if self.kernel.support is None:
            return 0 * hi, hi   # zeros of hi's shape, cheaper than np.zeros_like on a scalar
        return np.minimum(times.searchsorted(t - self.kernel.support, side="right"), hi), hi

    def at(self, t: float) -> tuple[float, float]:
        lo, hi = self._window(t)
        if hi <= lo:
            return 0.0, 0.0
        lags = t - self.times[lo:hi]
        values = np.asarray(self.kernel.evaluate(lags), dtype=float)
        weights = self.weights[lo:hi]
        return (
            float(np.dot(values, weights)),
            float(np.dot(self.kernel.tail_sup(lags, values), weights)),
        )

    def read(self, ts: np.ndarray) -> np.ndarray:
        """Consecutive times with the same window form a run, read as one
        block of lags, so memory is run length x window, never times x
        events.  Each row is summed on its own."""
        lo, hi = self._window(ts)
        runs = np.flatnonzero((np.diff(lo, prepend=-1) != 0) | (np.diff(hi, prepend=-1) != 0))
        ends = [*runs[1:].tolist(), len(ts)]
        out = np.zeros(len(ts))
        for a, z, k, m in zip(runs.tolist(), ends, lo[runs].tolist(), hi[runs].tolist()):
            if k < m:
                lags = ts[a:z, None] - self.times[k:m]
                values = np.asarray(self.kernel.evaluate(lags), dtype=float)
                out[a:z] = (values * self.weights[k:m]).sum(axis=1)
        return out


def eval_intensity(
    path: ContinuousPath, kernel: Kernel, jump_rate: JumpRate, t: float | np.ndarray
) -> float | np.ndarray:
    """Left-limit intensity at t in [0, T] (events strictly before t, cut at
    t - support): a float at a scalar t, an array at a 1-D array of times.

    The excitation is read through ``_excitation_state`` on the path's
    events: for the exponential kernel one pass over the events, then one
    search and one exponential per time; for any other kernel a sum over
    each time's past.  Each time's value depends on it alone."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ParameterError("t must be a scalar or a 1-D array")
    if not np.all((0 <= ts) & (ts <= path.horizon * (1 + REL_TOL))):
        raise ParameterError("t must lie in [0, T]")
    x = _excitation_state(kernel, path.times, path.weights).read(ts.reshape(-1))
    lam = np.asarray(jump_rate.fn(x), dtype=float)
    return float(lam[0]) if ts.ndim == 0 else lam


# The 16-point Gauss-Legendre rule on [-1, 1], bit for bit
# np.polynomial.legendre.leggauss(16); read-only, as every call shares it.
_GL_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False


def integrate_intensity(
    path: ContinuousPath,
    kernel: Kernel,
    jump_rate: JumpRate,
    T: float | None = None,
) -> float:
    """Integral of the intensity over [0, T] by the 16-point Gauss-Legendre
    rule on each inter-event segment.

    T defaults to the path's horizon and must lie in (0, horizon].  The
    intensity is smooth between events for smooth kernels, so a fixed rule
    per inter-event segment is accurate; singular kernel families are not
    supported here.  The nodes are read at once through ``_excitation_state``:
    O(events + nodes) for the exponential kernel; for any other kernel at
    most one block of lags per segment, so memory is 16 x window, never
    nodes x events.
    """
    if T is None:
        T = path.horizon
    if not 0 < T <= path.horizon * (1 + REL_TOL):
        raise ParameterError("T must lie in (0, the path's horizon]")
    return _read_intensity(path, kernel, jump_rate, np.empty(0), T)[1]


def _read_intensity(path: ContinuousPath, kernel: Kernel, jump_rate: JumpRate, ts, T: float):
    """The intensity at each of the 1-D ``ts``, and its integral over [0, T]:
    one excitation state and one psi call read the Gauss-Legendre nodes of
    ``integrate_intensity``, then ``ts``.
    Each time's value depends on it alone and the rule's sums read the nodes
    alone, so both are the floats of separate reads."""
    edges = distinct(np.concatenate(([0.0], path.times[path.times < T], [T])))
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + 0.5 * widths[:, None] * _GL_NODES[None, :]).ravel()
    s = _excitation_state(kernel, path.times, path.weights).read(np.concatenate((nodes, ts)))
    lam = np.asarray(jump_rate.fn(s), dtype=float)
    cells = lam[: len(nodes)].reshape(len(widths), len(_GL_NODES))
    return lam[len(nodes) :].copy(), float(((cells @ _GL_WEIGHTS) * 0.5 * widths).sum())


# --------------------------------------------------------------------------
# Discrete scheme
# --------------------------------------------------------------------------

def simulate_ladder(
    grids: Sequence[GridCoefficients],
    jump_rate: JumpRate,
    mark_model: MarkModel,
    atoms: PoissonAtoms | Sequence[PoissonAtoms],
    *,
    guess: np.ndarray | Sequence[np.ndarray | None] | None = None,
    allow_unstable: bool = False,
) -> list:
    """Euler-type scheme: per-bin thinning under the frozen bin intensity, on
    every grid of one horizon, all reading the same atoms; the trace of each
    grid, or the error that ended it.  ``atoms`` is one trial's ladder, or a
    batch: a sequence of trials' ladders, with ``guess`` None or one guess
    (or None) per trial, which gives one such list per trial, in which a grid
    whose walk ran away at an earlier trial of the batch is None.

    A grid holds the bin edges t_0 = 0 < ... < t_count = T and the kernel
    samples h(t_k), k = 1..count; build it once per delta with
    ``grid_coefficients`` and share it across trials.  Bins are right-closed,
    (t_{n-1}, t_n].  A bin j < count whose atoms accept a nonzero mass m_j
    (their b under its level, added left to right) pushes coeffs[:w] * m_j
    onto the feedback of the next w bins, in bin order, so every feedback
    entry is summed oldest bin first (w is the span of nonzero kernel lags:
    compact-support kernels cost O(r) per push).  A bin's level is psi of its
    feedback, so it depends on the earlier bins alone.

    In a pass, each (trial, grid) walk walks its trial's atoms on its own, in
    windows, and reads the levels in each window with one psi call.
    ``guess`` holds the times of the atoms the caller expects to be accepted,
    in practice the continuous path's events on the same atoms.  While
    guessed pushes lie ahead, a window makes the next ``_GUESS_ROWS`` of them
    in place (fewer after a difference, which halves them, until whole
    windows double them back) and runs up to the next guessed bin.  Its first
    atom that can push (b > 0) and whose acceptance differs from the guess,
    or whose level is above the ceiling, is a difference: the window's
    pushes from its bin on are undone, and those before it kept.  They are
    the true pushes: every earlier bin was exact, so their levels were, and
    their atoms that can push passed exactly as guessed, while an atom of
    b = 0 adds 0.0 to a left-to-right sum, so their guessed push is the same
    float.  The differing bin, its level being exact, is decided and pushes.
    Past the last guessed push, or without a guess, a window holds the next
    ``_WINDOW`` atoms, doubling while none of them could push and passes; the
    first that does ends it, and its bin pushes.  So the traces never depend
    on the guess, only the windows do.

    The first pass of a batch of two or more trials makes and reads the
    first window of every walk as arrays: one ``searchsorted`` per grid
    bins the batch's atoms, one ``bincount`` sums every guessed push, one
    loop over the batch's pushes makes each window's guessed ones, a slice
    add each on its walk's slice of one feedback array, and one gather, psi
    call and flag pass read every window.  A walk whose window confirms its
    guess up to its last atom is done; only a walk that differs from its
    guess, or has more guessed pushes ahead, becomes a walker
    (``_Walk.begin``) and walks on by itself.  A grid of span 0 reads no
    window, and a batch of one walks each grid alone, as a later pass does.
    So where the walks agree with their guesses a batch costs O(trials +
    grids) numpy calls (``_Atoms`` cuts each trial's atoms with a few) and no
    walker, not O(trials x grids) of each: what is left per walk is one slice
    add per push, its trace and a few Python steps of bookkeeping.  Its
    arrays hold sum(count + 1) entries per trial, which ``LADDER_BATCH_BINS``
    bounds in the engine's batches.

    A pass ends after the last atom, or early at an atom whose level is
    above the ceiling.  One psi call on every walk's feedback then checks
    the ceilings, and each trial, in order, extends its own: if some bin's
    level is above its ceiling, ``atoms.cover`` doubles the ceiling up to
    the first such level, the pushes from that bin on are dropped (the
    feedback is rebuilt by replaying the earlier ones in bin order) and the
    trial's next pass walks from that bin with the new strips' atoms; a
    ceiling past the atom budget ends that walk alone, with the
    ``RunawayIntensityError``, and the later trials of the batch draw no
    strip for its grid.  Each extension goes to the first doubling above a
    level of the scheme, so the strips drawn are those of running the grids
    one by one.  The accepted atoms, their counts and sums are read off for
    every walk of the batch at once at the end: an atom added by a later
    ceiling extension has a theta above every earlier bin intensity, so it
    passes no earlier bin.  An unstable step ratio warns rather than fails;
    allow_unstable acknowledges it and silences the warning.
    """
    single = isinstance(atoms, PoissonAtoms)
    ladders = [atoms] if single else list(atoms)
    guesses = [guess] if single else [None] * len(ladders) if guess is None else list(guess)
    grids = list(grids)
    if not grids or not ladders:
        return [] if single else [[] for _ in ladders]
    T, n, G = grids[0].horizon, len(ladders), len(grids)
    if len(guesses) != n:
        raise ParameterError("a batch takes one guess, or None, per trial")
    if any(grid.horizon != T for grid in grids):
        raise ParameterError("the grids of a ladder share one horizon")
    if any(T > ladder.horizon * (1 + REL_TOL) for ladder in ladders):
        raise ParameterError("the grid's horizon exceeds the atoms' horizon")
    for grid in grids:
        rho = rho_discrete(grid, jump_rate.lipschitz, mark_model)
        if rho >= 1.0 and not allow_unstable:
            warnings.warn(
                f"discrete stability ratio {rho:.4g} >= 1; a smaller step restores it "
                "for regular kernels",
                InstabilityWarning,
                stacklevel=2,
            )
    psi = jump_rate.fn
    cut = _Atoms(ladders, T, mark_model, guesses)
    # walk g * n + k is grid g's on trial k: grid-major, so its bins are the
    # entries ends[g * n + k]:ends[g * n + k + 1] of the batch's feedback
    walks = [_Walk(grid) for grid in grids for _ in ladders]
    ends = _ends(walks)
    feedback = np.zeros(ends[-1])
    for walk, a, z in zip(walks, ends, ends[1:]):
        walk.feedback = feedback[a:z]   # sum of coeffs[n-1-j] * mass[j], oldest j first
    ceilings = [ladder.ceiling for ladder in ladders]
    bins, where = _where(grids, cut, ends)
    if n == 1:      # a walk alone reads its first window as a later pass does
        for walk, row in zip(walks, bins):
            walk.walk_pass(cut, psi, ceilings[0], row)
    elif any(grid.span for grid in grids):
        _first_windows(walks, grids, bins, where, cut, ceilings, psi, feedback, ends)
    intensity = psi(feedback)
    _set_levels(walks, intensity, ends, ceilings * G)
    ran_away = [n] * G      # the trial at which each grid's walk ran away
    extended = False
    for k, ladder in enumerate(ladders):
        pending = _extend([walks[g * n + k] for g in range(G) if ran_away[g] > k], ladder)
        while pending:
            extended = True
            trial = _Atoms([ladder], T, mark_model, [guesses[k]])
            for walk in pending:
                walk.walk_pass(trial, psi, ladder.ceiling)
            level = psi(np.concatenate([walk.feedback for walk in pending]))
            _set_levels(pending, level, _ends(pending), [ladder.ceiling] * len(pending))
            pending = _extend(pending, ladder)
        for g in range(G):
            if ran_away[g] == n and walks[g * n + k].error is not None:
                ran_away[g] = k
    if extended:    # read off every trial's final atoms and levels
        cut = _Atoms(ladders, T, mark_model, guesses)
        where = _where(grids, cut, ends)[1]
        intensity = np.concatenate([walk.intensity for walk in walks])
    traces = _read_off(grids, cut, where, intensity, ends)
    out = [
        [
            walks[g * n + k].error if ran_away[g] == k
            else None if ran_away[g] < k
            else traces[g * n + k]
            for g in range(G)
        ]
        for k in range(n)
    ]
    return out[0] if single else out


# The most feedback entries and base-strip atoms of one batch of the engine's
# trials, and the most trials, which bounds what extensions add to them.  A
# batch keeps about 40 bytes per feedback entry alive at once (feedback,
# levels, counts and sums).  perfbench at its 30 s against one trial per
# ladder call, as the engine ran before batches; 2-core Xeon VM, 2 pairs a
# cell (10, 4, 4 at 2^14): trials/s and peak RSS per workload, with its
# batch size.  At one or two trials a batch is slower.
#     bound  ladder-count          verify-fine           poisson-metrics
#     2^12   4:  +4.0%, +0.67 MB   1:  -3.0%, +0.28 MB   23: +23.7%, +0.42 MB
#     2^13   9:  +6.9%, +0.71 MB   2:  -3.0%, +0.32 MB   32: +11.6%, +0.41 MB
#     2^14   19: +11.1%, +0.92 MB  5:  +1.4%, +0.36 MB   32: +14.7%, +0.43 MB
LADDER_BATCH_BINS = 2**14
LADDER_BATCH_TRIALS = 32


def ladder_batch(grids: Sequence[GridCoefficients], atoms: float) -> int:
    """How many trials one ``simulate_ladder`` call of the engine takes on
    ``grids``, for trials of about ``atoms`` atoms each: as many as
    ``LADDER_BATCH_BINS`` feedback entries and atoms hold, at least one and
    at most ``LADDER_BATCH_TRIALS``."""
    per_trial = sum(grid.count + 1 for grid in grids) + atoms
    return max(1, min(LADDER_BATCH_TRIALS, int(LADDER_BATCH_BINS // per_trial)))


def _set_levels(walks: list["_Walk"], levels: np.ndarray, ends: list[int], ceilings) -> None:
    """Give each walk w its levels ``levels[ends[w]:ends[w + 1]]``, and the
    first of its bins whose level is above its ceiling, ``ceilings[w]``."""
    low = min(ceilings)
    over = (levels > low).nonzero()[0]
    if max(ceilings) > low:
        over = over[levels[over] > np.take(ceilings, np.searchsorted(ends, over, "right") - 1)]
    firsts = over.searchsorted(ends).tolist()
    for walk, a, z, f, g in zip(walks, ends, ends[1:], firsts, firsts[1:]):
        walk.intensity = levels[a:z]
        walk.over = int(over[f]) - a if f < g else None


def _extend(walks: list["_Walk"], atoms: PoissonAtoms) -> list["_Walk"]:
    """Cover, in order, the first level above the ceiling of each walk that
    has one, and restart it there; the walks that pass again.  A walk whose
    level passes the atom budget keeps the error instead."""
    again = []
    for walk in walks:
        if walk.over is None:
            continue
        try:
            atoms.cover(float(walk.intensity[walk.over]), "bin intensity")
        except RunawayIntensityError as exc:
            walk.error = exc
            continue
        walk.restart(walk.over)
        again.append(walk)
    return again


class _Atoms:
    """The atoms in (0, T] of a batch of trials' ladders, concatenated in
    trial order, trial k's at ``starts[k]:starts[k + 1]``: tau, theta, y,
    b = mark_model.modulate(y), whether each is a guessed atom that can push,
    and theta where b > 0 (else inf, an atom that cannot push)."""

    def __init__(self, ladders, T: float, mark_model: MarkModel, guesses) -> None:
        cols = []
        for ladder, guess in zip(ladders, guesses):
            tau, theta, y, _ = ladder.merged()
            lo, hi = tau.searchsorted((0.0, T), side="right").tolist()
            tau = tau[lo:hi]
            guessed = np.zeros(hi - lo, dtype=bool)
            if guess is not None:
                guess = np.asarray(guess, dtype=float)
                at = tau.searchsorted(guess)
                inside = at < hi - lo
                at = at[inside]
                guessed[at[tau[at] == guess[inside]]] = True
            cols.append((tau, theta[lo:hi], y[lo:hi], guessed))
        self.starts = list(itertools.accumulate((len(c[0]) for c in cols), initial=0))
        self.tau, self.theta, self.y, self.guessed = (
            cols[0] if len(cols) == 1 else [np.concatenate(c) for c in zip(*cols)]
        )
        self.b = mark_model.modulate(self.y)
        self.guessed &= self.b > 0.0

    @functools.cached_property
    def pushing(self) -> np.ndarray:
        return np.where(self.b > 0.0, self.theta, np.inf)


def _where(grids, cut: _Atoms, ends: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each atom's bin on each grid, and its feedback entry: the bin plus the
    first entry of its trial's walk on that grid.  The walks are grid-major,
    so the entries ascend along each grid's row and over the whole array."""
    n = len(cut.starts) - 1
    trial_of = np.repeat(np.arange(n), np.diff(cut.starts))
    bins = np.array([grid.points.searchsorted(cut.tau) for grid in grids], dtype=np.intp)
    bins.shape = len(grids), len(cut.tau)
    return bins, bins + np.reshape(ends[:-1], (len(grids), n))[:, trial_of]


class _Walk:
    """One (trial, grid) walk: its feedback (a slice of its batch's), levels,
    pushes and guessed-window size, which outlive a pass, and the error that
    ended it."""

    def __init__(self, grid: GridCoefficients) -> None:
        self.grid, self.coeffs, self.span, self.M = grid, grid.values, grid.span, grid.count
        # (j, m_j) of every push, in bin order; a walk done in its batch's
        # first window keeps them as the arrays of j and m_j until a restart
        self.pushes: list[tuple[int, float]] | tuple[np.ndarray, np.ndarray] = []
        self.start = 1                      # the bin a pass walks from
        self.rows = _GUESS_ROWS             # the most guessed pushes the next window makes
        self.over: int | None = None        # the first bin above the ceiling after a pass
        self.error: RunawayIntensityError | None = None

    def push(self, pushes) -> None:
        """Push each (j, m_j) of ``pushes`` onto the feedback, in order:
        coeffs[:w] * m_j onto the w bins after j, w = min(span, M - j)."""
        span, M = self.span, self.M
        _push(self.feedback, self.coeffs, ((j, min(span, M - j), m) for j, m in pushes))

    def restart(self, start: int) -> None:
        """Drop the pushes from bin ``start`` on, before a pass from there."""
        self.start = start
        if isinstance(self.pushes, tuple):
            self.pushes = list(zip(*(v.tolist() for v in self.pushes)))
        if self.pushes and self.pushes[-1][0] >= start:
            self.pushes = [(j, m) for j, m in self.pushes if j < start]
            self.feedback[:] = 0.0
            self.push(self.pushes)

    def walk_pass(self, cut: _Atoms, psi: Callable, ceiling: float, bin_of=None) -> None:
        """Walk the atoms of ``cut``, one trial's (binned ``bin_of``, if
        given), from the start bin."""
        grid = self.grid
        if bin_of is None:
            bin_of = grid.points.searchsorted(cut.tau)
        # an atom in bin M cannot push, so the walk stops before it
        last = int(bin_of.searchsorted(grid.count)) if grid.span else 0
        # the push (j, m_j) each guessed bin j before bin M would make
        sums = np.bincount(bin_of[cut.guessed], weights=cut.b[cut.guessed])[: grid.count]
        at = sums.nonzero()[0]
        self.begin(cut, 0, bin_of, last, at.tolist(), sums[at].tolist(),
                   bin_of.searchsorted(at).tolist())
        self.walk(psi, ceiling)

    def begin(self, cut: _Atoms, a: int, bin_of, last: int, bins, sums, firsts) -> None:
        """Start a pass over the atoms of ``cut`` from atom ``a`` on, binned
        ``bin_of``, that ends before their atom ``last``: the guessed pushes
        (j, m_j) of ``bins`` and ``sums``, and the first atom of each bin."""
        z = a + len(bin_of)
        self.bin_of, self.last = bin_of, last
        self.theta, self.b = cut.theta[a:z], cut.b[a:z]
        self.pushing, self.guessed_at = cut.pushing[a:z], cut.guessed[a:z]
        self.bins, self.guessed, self.firsts = bins, list(zip(bins, sums)), [*firsts, last]
        self.i = int(bin_of.searchsorted(self.start)) if self.start > 1 else 0
        self.width = _WINDOW

    def plan(self, made: bool = False) -> tuple[int, bool]:
        """Open the next window: its end, and whether it reads against the
        guess, in which case it runs up to the next guessed bin and its
        guessed pushes are made in place, unless ``made`` (a batch's first
        window, made on a feedback of zeros)."""
        i, bins = self.i, self.bins
        r0 = bisect.bisect_left(bins, int(self.bin_of[i]))
        if r0 == len(bins):
            self.open = None
            return min(i + self.width, self.last), False
        r1 = min(r0 + self.rows, len(bins))
        guesses = self.guessed[r0:r1]
        reach = slice(guesses[0][0] + 1, guesses[-1][0] + 1 + self.span)
        saved = 0.0 if made else self.feedback[reach].copy()    # what the pushes overwrite
        if not made:
            self.push(guesses)
        self.open = r0, r1, guesses, reach, saved
        return self.firsts[r1], True

    def walk(self, psi: Callable, ceiling: float, read=None) -> None:
        """Walk on, window by window, each window's levels read with one psi
        call, until the last atom that can push or an atom whose level is
        above the ceiling.  ``read`` is (first flagged atom or None, its
        level) of a first window already made and read, closed first."""
        bin_of, feedback = self.bin_of, self.feedback
        while read is not None or self.i < self.last:
            i = self.i
            e, guessing = self.plan(read is not None)
            if read is None:
                levels = psi(feedback[bin_of[i:e]])
                flags = self.pushing[i:e] <= levels
                if guessing:
                    # a difference: accepted otherwise than guessed, or above the ceiling
                    flags ^= self.guessed_at[i:e]
                    flags |= levels > ceiling
                k = int(flags.argmax())
                hit = bool(flags[k])
                level = levels[k]
            else:
                (k, level), read = read, None
                hit = k is not None
            j = int(bin_of[i + k]) if hit else None
            if self.open is not None:
                # keep the guessed pushes before the first differing bin, or all
                (r0, r1, guesses, reach, saved), self.open = self.open, None
                n = bisect.bisect_left(self.bins, j, r0, r1) - r0 if hit else len(guesses)
                if n < len(guesses):
                    feedback[reach] = saved
                    self.push(guesses[:n])
                self.pushes += guesses[:n]
                self.rows = max(self.rows // 2, 1) if hit else min(2 * self.rows, _GUESS_ROWS)
            if not hit:
                self.i, self.width = e, 2 * self.width
                continue
            if level > ceiling:
                # the ceiling check after the pass extends at this bin or an earlier one
                return
            # every bin before j pushed exactly, so bin j's level is exact
            theta, b = self.theta, self.b
            a, z = bin_of.searchsorted((j, j + 1)).tolist()
            if z - a == 1:      # a lone term sums to itself: 0.0 + x is x
                m = float(b[a]) if theta[a] <= level else 0.0
            else:   # left to right, as a weighted bincount; sum() compensates from Python 3.12
                m = functools.reduce(operator.add, b[a:z][theta[a:z] <= level].tolist(), 0.0)
            if m:
                self.push(((j, m),))
                self.pushes.append((j, m))
            self.i, self.width = z, _WINDOW


def _first_windows(walks, grids, bins, where, cut: _Atoms, ceilings, psi, feedback, ends) -> None:
    """The first window of the first pass of every walk of a batch of two or
    more trials, made and read as arrays.  The entries of ``where``
    (``_where``) ascend over the whole batch, so one search bounds every
    walk's window, one ``bincount`` sums every guessed push, one loop over
    the batch's pushes makes the windows' guessed ones through ``_push``, and
    one gather, psi call and flag pass read every window.  A walk whose
    window holds no flag and ends at its last atom is done: its pushes are
    its guesses, kept as arrays.  Only the others begin a walk and walk on
    from the window read."""
    G, N = where.shape
    n = len(cut.starts) - 1
    edges = np.array(ends)
    stops = edges[1:] - 1       # each walk's bin M, whose atoms cannot push
    spans = np.repeat([grid.span for grid in grids], n)
    flat = where.ravel()
    # each walk's first atom, as a position in flat, and its last: its first
    # atom in bin M, or its first for span 0, whose walk reads no window
    firsts = (np.arange(G)[:, None] * N + cut.starts[:-1]).ravel()
    lasts = np.where(spans > 0, flat.searchsorted(stops) - firsts, 0)
    # the push (j, m_j) each guessed bin j before bin M would make
    rows = where[:, cut.guessed][[grid.span > 0 for grid in grids]]
    sums = np.bincount(rows.ravel(), weights=np.tile(cut.b[cut.guessed], len(rows)),
                       minlength=edges[-1])
    sums[stops] = 0.0
    at = sums.nonzero()[0]
    walk_of = edges.searchsorted(at, side="right") - 1
    splits = walk_of.searchsorted(np.arange(len(walks) + 1))
    guessed = np.diff(splits)
    heads = flat.searchsorted(at) - firsts[walk_of]     # each guessed bin's first atom
    local, masses = at - edges[walk_of], sums[at]
    # a window makes up to _GUESS_ROWS guessed pushes and runs to the next
    # guessed bin, or without a guess holds up to _WINDOW atoms
    counts = np.where(guessed > 0, lasts, np.minimum(lasts, _WINDOW))
    more = (guessed > _GUESS_ROWS).nonzero()[0]
    counts[more] = heads[splits[more] + _GUESS_ROWS]
    made = np.arange(len(at)) - splits[walk_of] < _GUESS_ROWS
    js, ms, of = at[made], masses[made], walk_of[made]
    ws = np.minimum(spans[of], stops[of] - js)      # as many bins as follow j in its walk
    cuts = js.searchsorted(edges[::n]).tolist()     # each grid's pushes
    js, ws, ms = js.tolist(), ws.tolist(), ms.tolist()
    for grid, a, z in zip(grids, cuts, cuts[1:]):
        _push(feedback, grid.values, zip(js[a:z], ws[a:z], ms[a:z]))
    walking = counts < lasts
    offsets = [0, *itertools.accumulate(counts.tolist())]
    if offsets[-1]:
        sel = np.arange(offsets[-1]) + np.repeat(firsts - offsets[:-1], counts)
        levels = psi(feedback[flat[sel]])
        atom = sel % N
        flags = cut.pushing[atom] <= levels
        flags ^= cut.guessed[atom]      # no guessed atom lies in a window read without a guess
        flags |= levels > np.repeat(np.where(guessed > 0, np.tile(ceilings, G), np.inf), counts)
        hits = np.append(flags.nonzero()[0], offsets[-1])
        hits = hits[hits.searchsorted(offsets[:-1])].tolist()   # each window's first flag, or past
        walking |= np.less(hits, offsets[1:])
    splits = splits.tolist()
    for w in (~walking & (guessed > 0)).nonzero()[0].tolist():     # done: its pushes are made
        walks[w].pushes = local[splits[w] : splits[w + 1]], masses[splits[w] : splits[w + 1]]
    lasts, local, masses, heads = lasts.tolist(), local.tolist(), masses.tolist(), heads.tolist()
    for w in walking.nonzero()[0].tolist():
        g, k = divmod(w, n)
        a, z, c, d = cut.starts[k], cut.starts[k + 1], splits[w], splits[w + 1]
        walks[w].begin(cut, a, bins[g, a:z], lasts[w], local[c:d], masses[c:d], heads[c:d])
        h = hits[w]
        read = (h - offsets[w], levels[h]) if h < offsets[w + 1] else (None, None)
        walks[w].walk(psi, ceilings[k], read)


def _push(feedback: np.ndarray, coeffs: np.ndarray, pushes) -> None:
    """Push each (j, w, m_j) of ``pushes`` onto ``feedback``, in order:
    coeffs[:w] * m_j onto the w entries after entry j."""
    for j, w, m in pushes:
        after = feedback[j + 1 : j + 1 + w]
        after += coeffs[:w] * m     # in place on the view: no copy back


def _ends(walks: list[_Walk]) -> list[int]:
    """Where each walk's bins start in the concatenation of every walk's
    bins, and where the last one's end."""
    return list(itertools.accumulate((walk.M + 1 for walk in walks), initial=0))


def _read_off(grids, cut: _Atoms, where: np.ndarray, intensity: np.ndarray, ends: list[int]):
    """The trace of every walk of the batch, in walk order, read off its
    trial's final atoms at once, at their feedback entries ``where``: risk
    is one running sum along the rows of each grid's (trials x bins) block."""
    n = len(cut.starts) - 1
    accept = cut.theta <= intensity[where]
    accepted_bins = where[accept]
    atom = accept.nonzero()[1]
    events = np.bincount(accepted_bins, minlength=ends[-1])
    marks = cut.y[atom]
    mass = np.bincount(accepted_bins, weights=cut.b[atom], minlength=ends[-1])
    gain = np.bincount(accepted_bins, weights=marks, minlength=ends[-1])    # marks per bin
    for grid, a, z in zip(grids, ends[::n], ends[n::n]):
        block = gain[a:z].reshape(n, grid.count + 1)
        np.cumsum(block, axis=1, out=block)
    times = cut.tau[atom]
    firsts = accepted_bins.searchsorted(ends).tolist()
    return [
        DiscreteTrace(
            grid=grid,
            intensity=intensity[o:z],
            mass=mass[o:z],
            events=events[o:z],
            risk=gain[o:z],
            times=times[a:c],
            marks=marks[a:c],
        )
        for grid, o, z, a, c in zip(
            (grid for grid in grids for _ in range(n)), ends, ends[1:], firsts, firsts[1:]
        )
    ]


# --------------------------------------------------------------------------
# Coupling
# --------------------------------------------------------------------------

def default_ceiling(jump_rate: JumpRate, kernel: Kernel, mark_model: MarkModel) -> float:
    """The atom ceiling: 4 psi(0) / (1 - rho), four times the stationary
    mean-intensity bound, or 8 psi(0) when rho >= 1; 1 when psi(0) <= 0.

    Keeps the expected number of ladder extensions O(1) per trial; the
    ladder doubles on exhaustion anyway.  A bounded jump rate caps the
    ceiling at its sup, which then dominates the intensity outright.  The
    ceiling has no floor, so a small psi(0) draws few atoms, or none.
    """
    rho = rho_continuous(kernel, jump_rate.lipschitz, mark_model)
    base = jump_rate.at_zero
    if base <= 0.0:
        return 1.0
    ceiling = 4.0 * base / (1.0 - rho) if rho < 1.0 else 8.0 * base
    if jump_rate.sup_norm is not None:
        ceiling = min(ceiling, jump_rate.sup_norm)
    return ceiling


def couple(
    kernel: Kernel,
    jump_rate: JumpRate,
    mark_model: MarkModel,
    grids: Sequence[GridCoefficients],
    atoms: PoissonAtoms | Sequence[PoissonAtoms],
    *,
    allow_unstable: bool = False,
):
    """Run both simulators on shared atom ladders: each trial's continuous
    path up to the grids' shared horizon, in trial order, then one
    ``simulate_ladder`` call on every grid of every trial, each trace or the
    error that ended it.

    ``atoms`` is one trial's ladder, which gives its (path, traces) and
    raises a continuous runaway, or a batch of trials' ladders, which gives
    a list of (path, traces), one per trial: a continuous runaway ends the
    batch at its trial, and is then the list's last entry.

    Either process raises a trial's ceiling through ``atoms.cover``, and
    the other sees the new strips; because every extension doubles the top,
    the k-th strip's contents depend only on the seed and k, so the result
    does not depend on which process triggered which extension.  The
    discrete scheme takes the continuous path's events as its guess, which
    saves windows where the two accept the same atoms of b > 0 and never
    changes the traces; nor does the batch, whose trials share only the
    numpy calls of the ladder's first pass.  That pass costs O(trials +
    grids) numpy calls, not O(trials x grids), where the walks agree with
    their guesses; the engine's batches are sized by ``ladder_batch``,
    whose bound ``LADDER_BATCH_BINS`` carries the measured table.
    """
    if not grids:
        raise ParameterError("a coupling needs at least one grid")
    single = isinstance(atoms, PoissonAtoms)
    ladders = [atoms] if single else list(atoms)
    paths, runaway = [], []
    for ladder in ladders:
        try:
            paths.append(simulate_continuous(
                kernel, jump_rate, mark_model, grids[0].horizon, ladder,
                allow_unstable=allow_unstable,
            ))
        except RunawayIntensityError as exc:
            if single:
                raise
            runaway.append(exc)
            break
    traces = simulate_ladder(
        grids, jump_rate, mark_model, ladders[: len(paths)],
        guess=[path.times for path in paths], allow_unstable=allow_unstable,
    )
    pairs = list(zip(paths, traces))
    return pairs[0] if single else pairs + runaway


# --------------------------------------------------------------------------
# Step-path embedding
# --------------------------------------------------------------------------

_CONTINUOUS_FIELDS = ("count", "mass", "risk")
_DISCRETE_FIELDS = ("count", "mass", "risk", "intensity")


def path_to_step(path: ContinuousPath | DiscreteTrace, field: str) -> StepPath:
    """Embed a simulated process as a canonical step path.

    Continuous paths jump at their event times; discrete traces change value
    only at their grid's points (the bin content becomes visible at the bin's
    right endpoint).
    """
    if isinstance(path, ContinuousPath):
        if field not in _CONTINUOUS_FIELDS:
            raise ParameterError(f"field must be one of {_CONTINUOUS_FIELDS}")
        inc = {
            "count": np.ones_like(path.times),
            "mass": path.weights,
            "risk": path.marks,
        }[field]
        return step_from_jumps(path.times, inc, path.horizon)
    if isinstance(path, DiscreteTrace):
        if field not in _DISCRETE_FIELDS:
            raise ParameterError(f"field must be one of {_DISCRETE_FIELDS}")
        points = path.grid.points
        if field == "intensity":
            return make_step_path(points, path.intensity, path.horizon)
        series = {
            "count": np.cumsum(path.events),
            "mass": np.cumsum(path.mass),
            "risk": path.risk,
        }[field]
        return make_step_path(points, np.asarray(series, dtype=float), path.horizon)
    raise ParameterError("path must be a ContinuousPath or DiscreteTrace")
