"""Excitation kernels on [0, T]: evaluation, grid sampling, norms, regularity moduli.

A kernel weighs the influence of a past event at lag t - s on the current
event rate.  Everything downstream (stability ratios, regularity constants,
theory shapes) is driven by integrals of the kernel and of its shift /
grid-projection differences, so those integrals are computed here, with
closed forms wherever a family admits one and adaptive Simpson quadrature
otherwise.

The quadrature is adaptive Simpson refined level by level (see
``integrate``).  Its integrand is an array function, called once per
refinement level on the new midpoints of every open panel of a whole batch
of integrals.  The regularity constant ``c_r`` is computed for a whole
delta ladder at once: the head integrals of all deltas form one batch, the
``_SHIFT_MESH`` shift integrals of every delta's eps profile another, each
of the two local refinements another, and the cells of every
grid-projection modulus a last one.  The six-step cosine-decay ladder thus
evaluates its kernel 87 times, where one delta at a time took 449 calls for
the same points.  A panel refines on its own and each integral adds its
panels left to right, so every integral is bit-identical to the classic
depth-first recursion, which the tests keep as their oracle, however the
batch is made up; ``_MAX_FRONTIER`` caps the open panels of one level.

A batch is built from arrays: its panels (each integral's ends and the
breakpoints strictly inside), the projection cells and their targets, and
the per-integral and per-delta sums (``np.add.at``, which adds in index
order); each level refines the halves of all open panels as one array.
Only a declared antiderivative is called once per cell end.  So ``c_r``
costs O(cells) numpy work besides its refinement levels.  On a 2-core Xeon
the cosine-decay ladder at T = 80, delta = 0.1 / 2^k for k = 0..6 (51,200
cells at the finest), takes about 0.07 s, and 2^17 cells at T = 5 take
about 0.04 s and a 22 MB traced peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DivergingKernelError, InfiniteVariationError, ParameterError
from .randomness import ATOM_BUDGET

__all__ = [
    "Kernel",
    "GridCoefficients",
    "exponential_kernel",
    "erlang_kernel",
    "cosine_decay_kernel",
    "inverse_sqrt_kernel",
    "compact_kernel",
    "constant_kernel",
    "zero_kernel",
    "custom_kernel",
    "tabulated_kernel",
    "integrate",
    "l1_norm",
    "grid_coefficients",
    "c_r",
    "p_variation",
]

# The one relative tolerance of horizons: for T / delta to be an integer
# (see ``grid_coefficients``) and for one horizon to pass another.
REL_TOL = 1e-9


# --------------------------------------------------------------------------
# Quadrature
# --------------------------------------------------------------------------

_MAX_DEPTH = 50
# Most panels one refinement level may hold, summed over every integral
# refined together.  A panel refines until its error estimate passes, for at
# most _MAX_DEPTH levels; an integrand that fails the estimate everywhere
# (nan on a whole interval) would instead double the frontier at every level.
_MAX_FRONTIER = 1 << 17
# Panels started together: a larger batch is refined in chunks of this many,
# one after another, so the many panels of a long horizon stay below the cap.
_CHUNK = _MAX_FRONTIER // 16


def _simpson_levels(f, a, b, tol, owner) -> np.ndarray:
    """Adaptive Simpson on every panel [a_i, b_i] to absolute tolerance tol_i.

    The open panels of all integrals are refined together, one level at a
    time: ``f(x, owner)`` is called once per level on every new midpoint,
    ``owner`` naming the integral each point belongs to.  Each node does the
    IEEE operations of the classic depth-first recursion, and the tree is
    summed bottom-up as left + right per parent, so every panel value is
    bit-identical to it.  Returns the panel values.
    """
    n = len(a)
    m = 0.5 * (a + b)
    x, at = np.concatenate((a, b, m)), np.concatenate((owner,) * 3)
    fx = np.asarray(f(x, at), dtype=float)
    fa, fb, fm = fx[:n], fx[n:2 * n], fx[2 * n:]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    levels = []
    depth = _MAX_DEPTH
    while True:
        # the halves [a, m] and [m, b] of every open panel, left halves first
        lo, hi = np.concatenate((a, m)), np.concatenate((m, b))
        flo, fhi = np.concatenate((fa, fm)), np.concatenate((fm, fb))
        mid = 0.5 * (lo + hi)
        fmid = np.asarray(f(mid, np.concatenate((owner, owner))), dtype=float)
        half = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
        both = half[:n] + half[n:]
        err = both - whole
        split = np.flatnonzero(~(np.abs(err) <= 15.0 * tol))
        levels.append((both + err / 15.0, split))
        if len(split) == 0:
            break
        if depth <= 0 or 2 * len(split) > _MAX_FRONTIER:
            # the recursion raises at the first failing node it meets: the
            # leftmost one of the deepest level
            i = split[0]
            why = "" if depth <= 0 else f" with more than {_MAX_FRONTIER} panels open"
            raise DivergingKernelError(
                f"quadrature did not converge on [{a[i]:g}, {b[i]:g}] (residual "
                f"{abs(err[i]):.3e}){why}; kernel may have a non-integrable singularity"
            )
        # each split panel's left half, then its right half, at half its tolerance
        kids = np.column_stack((split, split + n)).ravel()
        a, fa, m, fm, b, fb, whole = (v[kids] for v in (lo, flo, mid, fmid, hi, fhi, half))
        tol = np.repeat(0.5 * tol[split], 2)
        owner = np.repeat(owner[split], 2)
        n = len(kids)
        depth -= 1
    total = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        value[split] = total[0::2] + total[1::2]
        total = value
    return total


def _integrate_batch(f, a, b, cuts, tol: float) -> np.ndarray:
    """Integral j of ``f(x, j)`` over [a_j, b_j] for every j, all batched.

    ``cuts`` holds the breakpoints: one sequence shared by every integral, or
    one row per integral, ascending but for nan entries, which are never
    cuts.  Integral j is split at its cuts strictly inside (a_j, b_j),
    ascending, into panels of tolerance tol / (number of panels); its panel
    values are added left to right, starting from 0, and it is 0 where
    b_j <= a_j.  At most ``_CHUNK`` panels are refined together.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros(len(a))
    live = np.flatnonzero(b > a)
    a, b = a[live], b[live]
    # integral j's cuts are cuts[first_j:stop_j]
    if np.ndim(cuts) == 1:
        # sorted by Python: a count ladder calls no numpy sort otherwise, and
        # the first one adds about 0.2 MB of its code to the peak RSS
        cuts = np.array(sorted(filter(math.isfinite, cuts)), dtype=float)
        first, stop = cuts.searchsorted(a, side="right"), cuts.searchsorted(b, side="left")
    else:
        rows = np.asarray(cuts, dtype=float)[live]
        inside = (a[:, None] < rows) & (rows < b[:, None])
        cuts, within = rows[inside], inside.sum(axis=1)
        stop = np.cumsum(within)
        first = stop - within
    count = stop - first + 1                        # panels per integral
    owner = np.repeat(live, count)
    # each panel's place in its integral and the flat index of its right cut
    place = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    right = np.repeat(first, count) + place
    cuts = np.append(cuts, np.nan)                  # so a take from no cuts is valid
    lo = np.where(place == 0, np.repeat(a, count), cuts.take(right - 1, mode="clip"))
    hi = np.where(right == np.repeat(stop, count), np.repeat(b, count), cuts.take(right))
    ptol = np.repeat(tol / count, count)
    for i in range(0, len(lo), _CHUNK):
        chunk = slice(i, i + _CHUNK)
        values = _simpson_levels(f, lo[chunk], hi[chunk], ptol[chunk], owner[chunk])
        # unbuffered, in panel order: each integral sums its panels left to right
        np.add.at(out, owner[chunk], values)
    return out


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    tol: float = 1e-9,
    breakpoints: tuple[float, ...] = (),
) -> float:
    """Integrate f over [a, b] by adaptive Simpson, subdividing at breakpoints.

    ``f`` takes a 1-d array of abscissae and returns their values; it is
    called once for the panel ends and midpoints, then once per refinement
    level on every new midpoint of every open panel.  Declared non-smooth
    points inside (a, b) become panel boundaries so the adaptive rule only
    ever sees smooth integrands; each of the n panels gets tolerance tol / n.

    A panel is accepted when its Richardson error estimate is within 15 times
    its tolerance, and split in two halves of half the tolerance otherwise.
    The result is bit-identical to the classic depth-first recursion: each
    node does the same IEEE operations, the tree is summed bottom-up as
    left + right, and the panels are added left to right.  A panel still
    open at ``_MAX_DEPTH`` levels, or a level that would hold more than
    ``_MAX_FRONTIER`` panels, raises ``DivergingKernelError``.
    """
    return float(_integrate_batch(lambda x, _: f(x), [a], [b], breakpoints, tol)[0])


# --------------------------------------------------------------------------
# Kernel type and families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """An excitation kernel h on [0, T].

    ``evaluate`` must accept numpy arrays of lags in [0, T] (in (0, T] for
    a kernel singular at zero) of any shape and return arrays of that shape.
    Immutable after construction, so instances are safe to share across
    concurrent trials.

    A kernel declares h and, optionally:

    - ``abs_antiderivative``-- H(x) = integral of |h| over [0, x] (the test
                               suite checks each family's against quadrature),
    - ``monotone_breaks``   -- boundaries of monotone pieces, 0 and T included;
                               they give the sup norm, the p-variation and
                               the envelope ``tail_sup`` of continuous
                               thinning, which needs them,
    - ``support``           -- S with h(t) = 0 for t >= S (compact families),
    - ``nonsmooth_points``  -- kinks / sign changes used to split quadrature panels,
    - ``singular_at_zero``,
    - ``exponential``       -- (a, beta) when h(t) = a * exp(-beta * t), declared
                               by ``exponential_kernel``: the excitation of a
                               path then follows a one-number recursion.

    What follows from these is derived once, on first use: ``sup_norm``,
    ``l1`` (the integral of |h| over the horizon), ``monotone_decreasing``
    and H*.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    horizon: float
    family: str
    abs_antiderivative: Callable[[float], float] | None = None
    monotone_breaks: tuple[float, ...] | None = None
    support: float | None = None
    nonsmooth_points: tuple[float, ...] = ()
    singular_at_zero: bool = False
    exponential: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ParameterError("kernel horizon must be positive")

    def __call__(self, t):
        return self.evaluate(t)

    @cached_property
    def sup_norm(self) -> float | None:
        """sup of |h| on [0, T]: the largest |h| at lag 0 and at the declared
        breaks, which bound its monotone pieces.  None without breaks, for a
        kernel singular at zero, and when h(0) is not finite."""
        if self.monotone_breaks is None or self.singular_at_zero:
            return None
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            head = abs(float(np.asarray(self.evaluate(np.zeros(1)), dtype=float)[0]))
        return max(head, float(self._tail_peaks[1][0])) if math.isfinite(head) else None

    @cached_property
    def monotone_decreasing(self) -> bool:
        """Whether h is nonincreasing and nonnegative on [0, T]: h at lag 0 and
        at the declared breaks never rises, and h(T) >= 0.  False without
        breaks."""
        if self.monotone_breaks is None:
            return False
        lags = np.concatenate(([0.0], self._tail_peaks[0], [self.horizon]))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = np.asarray(self.evaluate(lags), dtype=float)
            return bool(np.all(np.diff(values) <= 0.0) and values[-1] >= 0.0)

    @property
    def bounded(self) -> bool:
        """Whether |h| has a known finite sup on (0, T], which continuous thinning needs."""
        return self.sup_norm is not None

    @cached_property
    def l1(self) -> float:
        """Integral of |h| over the horizon: the declared antiderivative, else
        one quadrature."""
        return _abs_integrals(self, [(0.0, self.horizon)])[0]

    @cached_property
    def _tail_peaks(self) -> tuple[np.ndarray, np.ndarray]:
        """The declared breaks in (0, T], and for each the largest |h| at it or
        at a later break, then 0 past the last."""
        breaks = np.array(sorted({min(b, self.horizon) for b in self.monotone_breaks if b > 0}))
        peaks = np.abs(np.asarray(self.evaluate(breaks), dtype=float))
        return breaks, np.append(np.maximum.accumulate(peaks[::-1])[::-1], 0.0)

    def tail_sup(self, lags: np.ndarray, values: np.ndarray) -> np.ndarray:
        """H*(u) = sup over v >= u of |h(v)| at the lags u in (0, T], given
        ``values`` = h(lags).

        h is monotone between the declared breaks, so |h| peaks at an end of
        each piece: H*(u) is the larger of |h(u)| and the largest |h| at a
        break above u, and ``values`` itself for a nonincreasing nonnegative
        kernel.
        """
        if self.monotone_decreasing:
            return values
        breaks, peaks = self._tail_peaks
        return np.maximum(np.abs(values), peaks[breaks.searchsorted(lags, side="right")])


@dataclass(frozen=True)
class GridCoefficients:
    """The bin edges t_k of the delta-grid of [0, horizon], k = 0..count, and
    the kernel samples h(t_k), k = 1..count (t = 0 is never evaluated)."""

    delta: float
    count: int
    horizon: float
    points: np.ndarray
    values: np.ndarray

    @cached_property
    def span(self) -> int:
        """Number of lags that can carry feedback: the index of the last nonzero h_k."""
        nz = np.flatnonzero(self.values)
        return int(nz[-1]) + 1 if len(nz) else 0

    @cached_property
    def abs_l1(self) -> float:
        """Riemann-sum analogue of the L1 norm: sum |h_k| * delta."""
        return float(np.abs(self.values).sum() * self.delta)

    @cached_property
    def abs_l2_sq(self) -> float:
        """Squared discrete L2 norm: sum h_k^2 * delta."""
        return float(np.square(self.values).sum() * self.delta)


def exponential_kernel(amplitude: float, decay: float, horizon: float) -> Kernel:
    """h(t) = amplitude * exp(-decay * t); monotone for amplitude > 0."""
    if decay <= 0:
        raise ParameterError("decay must be positive")
    a, b = float(amplitude), float(decay)

    def h(t):
        return a * np.exp(-b * np.asarray(t, dtype=float))

    def habs(x: float) -> float:
        return abs(a) / b * (1.0 - math.exp(-b * x))

    return Kernel(
        evaluate=h,
        horizon=float(horizon),
        family="exponential",
        abs_antiderivative=habs,
        monotone_breaks=(0.0, float(horizon)),
        exponential=(a, b),
    )


def _gamma_lower(k: int, b: float, x: float) -> float:
    # integral of t^k exp(-b t) over [0, x], by repeated integration by parts
    tail = sum((b * x) ** j / math.factorial(j) for j in range(k + 1))
    return math.factorial(k) / b ** (k + 1) * (1.0 - math.exp(-b * x) * tail)


def erlang_kernel(amplitude: float, shape: int, decay: float, horizon: float) -> Kernel:
    """h(t) = amplitude * t^shape * exp(-decay * t) with integer shape >= 1."""
    if shape < 1 or shape != int(shape):
        raise ParameterError("shape must be an integer >= 1")
    if decay <= 0:
        raise ParameterError("decay must be positive")
    a, k, b, T = float(amplitude), int(shape), float(decay), float(horizon)
    peak = min(k / b, T)

    def h(t):
        t = np.asarray(t, dtype=float)
        return a * t ** k * np.exp(-b * t)

    def habs(x: float) -> float:
        return abs(a) * _gamma_lower(k, b, x)

    return Kernel(
        evaluate=h,
        horizon=T,
        family="erlang",
        abs_antiderivative=habs,
        monotone_breaks=(0.0, peak, T) if peak < T else (0.0, T),
    )


# Samples of one chunk of the extrema scan, and brackets refined together
_SCAN_CHUNK = 1 << 16
_BRACKET_CHUNK = 1 << 10


def _local_extrema(fn, T: float) -> tuple[float, ...]:
    """Interior extrema of fn on [0, T]: a sign-change scan of the steps
    between max(4096, 16 T) samples brackets each (so extrema of fn at least
    1/8 apart are all found), then every bracket shrinks to the neighbours of
    its most extreme of 65 samples, eight times over.  The value found is the
    extreme one to rounding, though values tell points near an extremum
    apart only to about sqrt(machine eps) of its position.

    The scan reads ``_SCAN_CHUNK`` samples at a time, each chunk overlapping
    the next by the 2 samples a turn reads past its own, and each round
    refines ``_BRACKET_CHUNK`` brackets at a time, so memory stays flat in T.
    The samples are those of one ``np.linspace`` over [0, T], and a bracket's
    samples and argmax are its own, so the extrema are those of one pass
    while no bracket shrinks to zero width (``np.linspace`` would then take
    another formula for every row of its call); none does for cosine decay
    at any horizon it accepts, up to 2^20."""
    n = max(4096, math.ceil(16 * T))
    step = T / (n - 1)      # np.linspace(0.0, T, n) is i * step, then T at its end
    lo, hi, signs = [], [], []
    for s in range(0, n - 2, _SCAN_CHUNK - 2):
        ts = np.arange(s, min(s + _SCAN_CHUNK, n), dtype=float) * step
        if s + _SCAN_CHUNK >= n:
            ts[-1] = T
        sign = np.sign(np.diff(fn(ts)))
        turns = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        lo.append(ts[turns])
        hi.append(ts[turns + 2])
        signs.append(sign[turns])
    a, b, sign = np.concatenate(lo), np.concatenate(hi), np.concatenate(signs)
    for _ in range(8):
        found = []
        for r in range(0, len(a), _BRACKET_CHUNK):
            chunk = slice(r, r + _BRACKET_CHUNK)
            samples = np.linspace(a[chunk], b[chunk], 65, axis=1)
            k = np.argmax(sign[chunk, None] * fn(samples), axis=1)
            rows = np.arange(len(k))
            found.append((samples[rows, np.maximum(k - 1, 0)], samples[rows, k],
                          samples[rows, np.minimum(k + 1, 64)]))
        a, best, b = (np.concatenate(v) for v in zip(*found)) if found else (a, a, b)
    return tuple(best.tolist())


def cosine_decay_kernel(amplitude: float = 0.6, horizon: float = 5.0) -> Kernel:
    """h(t) = amplitude * cos(t) / (1 + t^2); oscillating, bounded variation.

    The extrema scan samples max(4096, 16 T) points: a horizon that needs
    more than ``ATOM_BUDGET`` of them is refused before any is taken.
    """
    a, T = float(amplitude), float(horizon)
    if not 16.0 * T <= ATOM_BUDGET:  # an infinite or nan horizon too
        raise ParameterError(
            f"horizon {T:.4g} needs {16.0 * T:.4g} kernel samples, "
            f"past the atom budget {ATOM_BUDGET}"
        )

    def h(t):
        t = np.asarray(t, dtype=float)
        return a * np.cos(t) / (1.0 + t * t)

    # |h| has kinks at the zeros of cos; extremal points found numerically.
    zeros = tuple(
        z for z in (math.pi / 2 + k * math.pi for k in range(int(T / math.pi) + 1)) if z < T
    )
    extrema = _local_extrema(h, T)
    return Kernel(
        evaluate=h,
        horizon=T,
        family="cosine-decay",
        monotone_breaks=(0.0, *extrema, T),
        nonsmooth_points=zeros,
    )


def inverse_sqrt_kernel(
    horizon: float,
    coefficient: float | None = None,
    *,
    lipschitz: float = 1.0,
    mean_modulation: float = 1.0,
    target_rho: float = 0.5,
) -> Kernel:
    """h(t) = C / sqrt(t) on (0, T]; unbounded at 0, never evaluated there.

    When ``coefficient`` is omitted it is sized so that the stability ratio
    L * ||h||_1 * E b(Y) equals ``target_rho`` (< 1) for the given Lipschitz
    constant and mean modulation; no coefficient does when their product is 0.
    """
    T = float(horizon)
    if coefficient is None:
        if not 0 < target_rho < 1:
            raise ParameterError("target_rho must lie in (0, 1)")
        if not lipschitz * mean_modulation > 0:
            raise ParameterError("target_rho needs L * E b(Y) > 0; no coefficient reaches it")
        coefficient = target_rho / (lipschitz * 2.0 * math.sqrt(T) * mean_modulation)
    c = float(coefficient)
    if c <= 0:
        raise ParameterError("coefficient must be positive")

    def h(t):
        return c / np.sqrt(np.asarray(t, dtype=float))

    def habs(x: float) -> float:
        return 2.0 * c * math.sqrt(x)

    return Kernel(
        evaluate=h,
        horizon=T,
        family="inverse-sqrt",
        abs_antiderivative=habs,
        monotone_breaks=(0.0, T),
        singular_at_zero=True,
    )


def compact_kernel(amplitude: float, support: float, horizon: float) -> Kernel:
    """Triangular h(t) = amplitude * max(1 - t/S, 0); vanishes beyond t = S."""
    a, S, T = float(amplitude), float(support), float(horizon)
    if S <= 0:
        raise ParameterError("support must be positive")

    def h(t):
        t = np.asarray(t, dtype=float)
        return a * np.clip(1.0 - t / S, 0.0, None)

    def habs(x: float) -> float:
        x = min(x, S)
        return abs(a) * (x - x * x / (2.0 * S))

    breaks = (0.0, S, T) if S < T else (0.0, T)
    return Kernel(
        evaluate=h,
        horizon=T,
        family="compact-support",
        abs_antiderivative=habs,
        monotone_breaks=breaks,
        support=S,
        nonsmooth_points=(S,) if S < T else (),
    )


def constant_kernel(value: float, horizon: float) -> Kernel:
    """h identically equal to ``value``."""
    v, T = float(value), float(horizon)

    def h(t):
        return np.full_like(np.asarray(t, dtype=float), v)

    return Kernel(
        evaluate=h,
        horizon=T,
        family="custom",
        abs_antiderivative=lambda x: abs(v) * x,
        monotone_breaks=(0.0, T),
    )


def zero_kernel(horizon: float) -> Kernel:
    """h identically zero: the no-excitation (pure Poisson) case."""
    return replace(constant_kernel(0.0, horizon), support=0.0)


def custom_kernel(
    evaluate: Callable[[np.ndarray], np.ndarray],
    horizon: float,
    **metadata,
) -> Kernel:
    """Wrap an arbitrary array-aware callable; metadata fields are optional,
    but continuous thinning needs ``monotone_breaks``."""
    return Kernel(evaluate=evaluate, horizon=float(horizon), family="custom", **metadata)


def tabulated_kernel(points: list[tuple[float, float]] | np.ndarray, horizon: float) -> Kernel:
    """Kernel from tabulated (t, h(t)) pairs with linear interpolation."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ParameterError("tabulated kernel needs at least two (t, h) pairs")
    ts, vs = arr[:, 0], arr[:, 1]
    if np.any(np.diff(ts) <= 0):
        raise ParameterError("tabulated abscissae must be strictly increasing")

    def h(t):
        return np.interp(np.asarray(t, dtype=float), ts, vs)

    # the polyline's local extrema: where two consecutive nonzero slopes differ
    # in sign, at the start of the flat run between them (if any)
    slopes = np.diff(vs) / np.diff(ts)
    moving = np.flatnonzero(slopes)
    sign = np.sign(slopes[moving])
    turns = ts[moving[:-1][sign[1:] != sign[:-1]] + 1]
    interior = [float(t) for t in turns if t < horizon]
    return Kernel(
        evaluate=h,
        horizon=float(horizon),
        family="custom",
        monotone_breaks=(0.0, *interior, float(horizon)),
        nonsmooth_points=tuple(float(t) for t in ts if 0.0 < t < horizon),
    )


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def _abs_integrals(
    kernel: Kernel, ends: Sequence[tuple[float, float]], tol: float = 1e-9
) -> list[float]:
    """Integral of |h| over each [a, b] of ``ends`` (b <= horizon), as one batch.

    Closed form when the kernel declares its antiderivative.
    """
    H = kernel.abs_antiderivative
    if H is not None:
        return [H(b) - H(a) if b > a else 0.0 for a, b in ends]
    if kernel.singular_at_zero and any(a <= 0.0 and b > a for a, b in ends):
        raise DivergingKernelError("singular kernel without a declared antiderivative")
    a, b = np.array(ends, dtype=float).reshape(-1, 2).T
    return _integrate_batch(
        lambda t, _: np.abs(kernel.evaluate(t)), a, b, kernel.nonsmooth_points, tol
    ).tolist()


def l1_norm(kernel: Kernel, T: float | None = None, *, tol: float = 1e-9) -> float:
    """Integral of |h| over [0, T] (T defaults to the kernel horizon)."""
    if T is None:
        T = kernel.horizon
    if T > kernel.horizon * (1 + REL_TOL):
        raise ParameterError("T exceeds the kernel horizon")
    if T == kernel.horizon:
        return kernel.l1
    return _abs_integrals(kernel, [(0.0, T)], tol)[0]


def grid_coefficients(kernel: Kernel, delta: float, T: float) -> GridCoefficients:
    """The delta-grid of [0, T], the one source of its bin count and edges.

    T is a multiple of delta when T / delta lies within REL_TOL *
    max(T / delta, 1) of an integer M >= 1.  The edges are k*delta for
    k < M and exactly T at k = M, so the last bin ends at T even where
    M*delta rounds away from it.  M past ``ATOM_BUDGET`` is refused before
    any array is built.
    """
    if not delta > 0:
        raise ParameterError("delta must be positive")
    if T > kernel.horizon * (1 + REL_TOL):
        raise ParameterError("T exceeds the kernel horizon")
    ratio = T / delta
    if not ratio < ATOM_BUDGET + 0.5:   # an infinite ratio too
        raise ParameterError(f"T / delta = {ratio:.4g} bins pass the atom budget {ATOM_BUDGET}")
    M = round(ratio)
    if M < 1 or abs(ratio - M) > REL_TOL * max(ratio, 1.0):
        raise ParameterError(f"horizon {T!r} is not an integer multiple of delta={delta!r}")
    points = delta * np.arange(M + 1)
    points[M] = T
    values = np.asarray(kernel.evaluate(points[1:]), dtype=float)
    return GridCoefficients(
        delta=float(delta), count=M, horizon=float(T), points=points, values=values
    )


def _check_steps(deltas: Sequence[float], T: float) -> None:
    if not all(0 < delta < T for delta in deltas):
        raise ParameterError("need 0 < delta < T")


def _shift_integrals(kernel: Kernel, eps: np.ndarray, upper: np.ndarray, tol: float) -> np.ndarray:
    """Integral over [0, upper_i] of |h(y + eps_i) - h(y)| dy for every eps_i;
    the integrals of the nonzero eps are one quadrature batch."""
    out = np.zeros(len(eps))
    live = np.flatnonzero(eps != 0.0)
    shifts, uppers = eps[live], upper[live]
    H = kernel.abs_antiderivative
    if kernel.monotone_decreasing and H is not None:
        # decreasing h >= 0: |h(y+eps) - h(y)| telescopes to a difference of
        # two integrals of h itself, which survives the singular families
        out[live] = [
            H(u) - (H(u + e) - H(e)) for e, u in zip(shifts.tolist(), uppers.tolist())
        ]
        return out
    # each eps's cuts are the set of pts and pts - eps: its row sorted by
    # Python (see _integrate_batch), a repeat blanked
    pts = np.array(list(filter(math.isfinite, kernel.nonsmooth_points)), dtype=float)
    rows = np.hstack((np.tile(pts, (len(shifts), 1)), pts - shifts[:, None]))
    cuts = np.array(list(map(sorted, rows.tolist())), dtype=float).reshape(rows.shape)
    cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.nan

    def g(y: np.ndarray, j: np.ndarray) -> np.ndarray:
        pair = kernel.evaluate(np.concatenate((y + shifts[j], np.maximum(y, 1e-300))))
        return np.abs(pair[:len(y)] - pair[len(y):])

    out[live] = _integrate_batch(g, np.zeros(len(live)), uppers, cuts, tol)
    return out


# Points of the eps mesh on [0, delta] that the shift modulus first integrates
_SHIFT_MESH = 33


def _shift_moduli(
    kernel: Kernel, deltas: Sequence[float], T: float, tol: float = 1e-9
) -> list[float]:
    """sup over eps in [0, delta] of the L1 shift difference of h on [0, T - delta],
    at every delta of ``deltas``.

    The supremum is approximated on a ``_SHIFT_MESH``-point eps mesh including
    both endpoints, then refined locally around the maximizer, twice.  A
    nonincreasing nonnegative kernel (``monotone_decreasing``) with a declared
    antiderivative uses the exact telescoping identity per eps, for which the
    maximizer is the right endpoint.  The eps meshes of all deltas are one
    quadrature batch, and so are the three interior eps of each delta's
    refinement; a refinement's endpoints are mesh points already integrated.
    """
    uppers = np.array([T - delta for delta in deltas])
    eps = np.array([np.linspace(0.0, delta, _SHIFT_MESH) for delta in deltas])
    vals = _shift_integrals(
        kernel, eps.ravel(), np.repeat(uppers, _SHIFT_MESH), tol
    ).reshape(eps.shape)
    best = vals.max(axis=1).tolist()
    rows = np.arange(len(deltas))
    for _ in range(2):
        k = np.argmax(vals, axis=1)
        lo, hi = np.maximum(k - 1, 0), np.minimum(k + 1, eps.shape[1] - 1)
        # linspace keeps both endpoints exact, so their integrals are known
        eps = np.array([np.linspace(a, b, 5) for a, b in zip(eps[rows, lo], eps[rows, hi])])
        inner = _shift_integrals(kernel, eps[:, 1:4].ravel(), np.repeat(uppers, 3), tol)
        vals = np.column_stack((vals[rows, lo], inner.reshape(-1, 3), vals[rows, hi]))
        best = [max(b, v) for b, v in zip(best, vals.max(axis=1).tolist())]
    return best


def _projection_moduli(
    kernel: Kernel, deltas: Sequence[float], T: float, tol: float = 1e-9
) -> list[float]:
    """Integral over [0, T - delta] of |h(y) - h((y)_grid + delta)| dy at every
    delta of ``deltas``.

    (y)_grid is the projection of y onto the delta-grid from below, so each
    grid cell compares h against its value at the cell's right endpoint.  The
    cells of all deltas are one quadrature batch, their grid targets one
    kernel call; each delta's cells are added in order.
    """
    lo, lags = [], []
    for delta in deltas:
        # cell k = 1, 2, ... while (k - 1) * delta < T - delta - 1e-15: a
        # prefix of the grid, as k * delta never falls as k grows
        edge = T - delta - 1e-15
        grid = delta * np.arange(math.ceil(edge / delta) + 2)
        k = np.count_nonzero(grid < edge)
        lo.append(grid[:k])
        lags.append(grid[1:k + 1])
    owner = np.repeat(np.arange(len(deltas)), [len(x) for x in lo])
    lo, lags = np.concatenate(lo), np.concatenate(lags)
    hi = np.minimum(lags, T - np.asarray(deltas, dtype=float)[owner])
    targets = np.asarray(kernel.evaluate(lags), dtype=float)
    H = kernel.abs_antiderivative
    if kernel.monotone_decreasing and H is not None:
        # h >= target on the whole cell: the absolute value drops
        ends = np.array([H(x) for x in np.concatenate((hi, lo)).tolist()]).reshape(2, -1)
        parts = (ends[0] - ends[1]) - (hi - lo) * targets
    else:
        def g(y: np.ndarray, j: np.ndarray) -> np.ndarray:
            return np.abs(kernel.evaluate(np.maximum(y, 1e-300)) - targets[j])

        parts = _integrate_batch(g, lo, hi, kernel.nonsmooth_points, tol)
    totals = np.zeros(len(deltas))
    np.add.at(totals, owner, parts)   # each delta's cells in order
    return totals.tolist()


def c_r(
    kernel: Kernel, deltas: Sequence[float], T: float | None = None, *, tol: float = 1e-9
) -> list[float]:
    """Kernel-regularity constant at every delta of ``deltas``: head integral +
    shift modulus + grid projection (T defaults to the kernel horizon).

    The three terms are the integral of |h| over [0, delta], the sup-shift
    L1 modulus, and the grid-projection L1 modulus, all on the same horizon.
    Each quadrature stage (head integrals, shift mesh, each local refinement,
    projection cells) is one batch over the whole ladder.
    """
    if T is None:
        T = kernel.horizon
    _check_steps(deltas, T)
    if not deltas:
        return []
    heads = _abs_integrals(kernel, [(0.0, delta) for delta in deltas], tol)
    shifts = _shift_moduli(kernel, deltas, T, tol)
    projections = _projection_moduli(kernel, deltas, T, tol)
    return [h + s + p for h, s, p in zip(heads, shifts, projections)]


def p_variation(kernel: Kernel, T: float | None = None) -> float:
    """Total variation (1-variation) of h on [0, T]: the sum of |h(b') - h(b)|
    over consecutive declared monotone-piece boundaries b < b', exact since h
    is monotone between them.

    Every bounded built-in family declares its boundaries; a kernel without
    them, or one unbounded on (0, T], is refused.
    """
    if T is None:
        T = kernel.horizon
    if kernel.monotone_breaks is None and not kernel.singular_at_zero:
        raise ParameterError(
            f"kernel family {kernel.family!r} declares no monotone_breaks"
        )
    if not kernel.bounded:
        raise InfiniteVariationError(
            f"kernel family {kernel.family!r} is unbounded on (0, T]"
        )
    pts = np.array(sorted({min(b, T) for b in kernel.monotone_breaks} | {0.0, T}))
    vals = np.asarray(kernel.evaluate(np.maximum(pts, 1e-300)), dtype=float)
    return float(np.abs(np.diff(vals)).sum())
