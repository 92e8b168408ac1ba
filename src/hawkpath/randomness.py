"""Shared Poisson randomness and mark distributions.

The dominating measure on [0, T] x (0, ceiling] x R is materialized as a
ladder of horizontal strips so that a trial can raise its theta-ceiling
lazily without ever touching the atoms already drawn: both the continuous
and the discrete process then read the *same* concrete atoms, which is what
makes their pathwise distance meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError, RunawayIntensityError

__all__ = [
    "ATOM_BUDGET",
    "MODULUS_BUDGET",
    "MarkModel",
    "MarkMoments",
    "PoissonAtoms",
    "Strip",
    "sample_atoms",
    "extend_ceiling",
    "mark_moments",
]

_DISTRIBUTIONS = ("point-mass", "exponential", "lognormal", "gaussian")
_MODULATIONS = ("constant-one", "indicator", "absolute-value")


def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class MarkModel:
    """Mark distribution nu plus the positive modulation b feeding the intensity.

    ``dist_params``: point-mass -> (value,); exponential -> (rate,);
    lognormal / gaussian -> (m, s).  ``mod_params``: indicator -> (threshold,).
    Every distribution and modulation has closed-form moments.
    """

    distribution: str = "point-mass"
    dist_params: tuple[float, ...] = (1.0,)
    modulation: str = "constant-one"
    mod_params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.distribution not in _DISTRIBUTIONS:
            raise ParameterError(f"unknown distribution {self.distribution!r}")
        if self.modulation not in _MODULATIONS:
            raise ParameterError(f"unknown modulation {self.modulation!r}")
        if self.distribution == "exponential" and not self.dist_params[0] > 0:
            raise ParameterError("exponential mark rate must be positive")
        if self.distribution in ("lognormal", "gaussian") and not self.dist_params[1] >= 0:
            raise ParameterError("mark sd must be nonnegative")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.distribution == "point-mass":
            return np.full(size, self.dist_params[0], dtype=float)
        if self.distribution == "exponential":
            return rng.exponential(1.0 / self.dist_params[0], size)
        if self.distribution == "lognormal":
            m, s = self.dist_params
            return rng.lognormal(m, s, size)
        m, s = self.dist_params  # gaussian
        return rng.normal(m, s, size)

    def modulate(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.modulation == "constant-one":
            return np.ones_like(y)
        if self.modulation == "indicator":
            return (y >= self.mod_params[0]).astype(float)
        return np.abs(y)  # absolute-value

    @cached_property
    def _moments(self) -> "MarkMoments":
        mean, abs_mean, second = _closed_form_dist_moments(self)
        if self.modulation == "constant-one":
            mm, ms = 1.0, 1.0
        elif self.modulation == "indicator":
            mm = _tail_probability(self, self.mod_params[0])
            ms = mm
        else:  # absolute-value
            mm, ms = abs_mean, second
        return MarkMoments(mean, abs_mean, second, mm, ms)


@dataclass(frozen=True)
class MarkMoments:
    """First and second moments of Y and b(Y)."""

    mean: float        # E Y
    abs_mean: float    # E |Y|
    second: float      # E Y^2
    mod_mean: float    # E b(Y)
    mod_second: float  # E b(Y)^2


def _closed_form_dist_moments(model: MarkModel) -> tuple[float, float, float]:
    """(E Y, E|Y|, E Y^2) for the built-in distributions."""
    if model.distribution == "point-mass":
        c = model.dist_params[0]
        return c, abs(c), c * c
    if model.distribution == "exponential":
        rate = model.dist_params[0]
        return 1.0 / rate, 1.0 / rate, 2.0 / rate**2
    if model.distribution == "lognormal":
        m, s = model.dist_params
        mean = math.exp(m + s * s / 2.0)
        return mean, mean, math.exp(2.0 * m + 2.0 * s * s)
    m, s = model.dist_params  # gaussian
    folded = s * math.sqrt(2.0 / math.pi) * math.exp(-m * m / (2 * s * s)) + m * (
        1.0 - 2.0 * _phi(-m / s)
    ) if s > 0 else abs(m)
    return m, folded, m * m + s * s


def _tail_probability(model: MarkModel, a: float) -> float:
    """P(Y >= a) for the built-in distributions (sd = 0 is a point mass)."""
    if model.distribution == "point-mass":
        return 1.0 if model.dist_params[0] >= a else 0.0
    if model.distribution == "exponential":
        return 1.0 if a <= 0 else math.exp(-model.dist_params[0] * a)
    if model.distribution == "lognormal":
        if a <= 0:
            return 1.0
        m, s = model.dist_params
        if s == 0:
            return 1.0 if math.exp(m) >= a else 0.0
        return 1.0 - _phi((math.log(a) - m) / s)
    m, s = model.dist_params  # gaussian
    if s == 0:
        return 1.0 if m >= a else 0.0
    return 1.0 - _phi((a - m) / s)


def mark_moments(model: MarkModel) -> MarkMoments:
    """Closed-form moments of the mark Y and of its modulation b(Y), computed
    once per model."""
    return model._moments


# --------------------------------------------------------------------------
# Poisson atoms
# --------------------------------------------------------------------------

# The most atoms a ladder may be expected to hold, ceiling * horizon.  It
# bounds the memory of a runaway trial, not its time.
ATOM_BUDGET = 2**24
# The most steps the sparse-modulus walk of a compound Poisson path may be
# expected to take: rate * T right ends, each walking over about rate * delta
# left ends.  Uniform jumps with unit and Exp(1) marks, on a 2-core Xeon:
#     jumps   per delta   steps    seconds
#     4e4     25          1e6      0.29-0.37
#     1e5     62.5        6.3e6    1.2-1.6
#     2e4     1000        2e7      2.1-2.4
#     2e5     160         3.2e7    5.4-6.7
# so a walk within the budget takes seconds.  Its part linear in the jumps,
# a few us each, is bounded by ATOM_BUDGET.
MODULUS_BUDGET = 2**25

_NO_ATOMS = (np.empty(0), np.empty(0), np.empty(0), np.empty(0, dtype=int))


@dataclass(frozen=True)
class Strip:
    """Atoms of the dominating measure with theta in (theta_low, theta_high]."""

    theta_low: float
    theta_high: float
    tau: np.ndarray
    theta: np.ndarray
    y: np.ndarray


@dataclass
class PoissonAtoms:
    """Materialized dominating Poisson measure, extensible upward in theta.

    Strips partition (0, ceiling].  Extending the ceiling appends a strip
    drawn from a stream keyed by (seed entropy, strip index) and never
    mutates existing strips, so every decision taken below the old ceiling
    is preserved.  One instance belongs to one trial (single writer).
    """

    horizon: float
    mark_model: MarkModel
    seed_entropy: tuple[int, ...]
    strips: list[Strip] = field(default_factory=list)
    # how many strips are merged, and their (tau, theta, y, strip index)
    _merged: tuple[int, tuple[np.ndarray, ...]] = field(default=(0, _NO_ATOMS), repr=False)

    @property
    def ceiling(self) -> float:
        return self.strips[-1].theta_high if self.strips else 0.0

    def cover(self, level: float, what: str) -> bool:
        """Double the ceiling until it reaches ``level``, one strip per doubling
        drawn by ``extend_ceiling``; return whether the ceiling grew.

        This is the only place a ceiling rises.  A ceiling whose expected atom
        count, ceiling * horizon, would pass ``ATOM_BUDGET`` is refused with
        ``RunawayIntensityError`` before any strip is drawn; ``what`` names
        the level in its message.
        """
        ceilings = []
        top = self.ceiling
        while top < level:
            top *= 2.0
            if top * self.horizon > ATOM_BUDGET:
                raise RunawayIntensityError(
                    f"{what} {level:.4g} needs a ceiling beyond "
                    f"{ATOM_BUDGET / self.horizon:.4g}, the atom budget "
                    f"{ATOM_BUDGET} over the horizon {self.horizon:.4g}"
                )
            ceilings.append(top)
        for ceiling in ceilings:
            extend_ceiling(self, ceiling)
        return bool(ceilings)

    def merged(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(tau, theta, y, strip index) over all strips, sorted by (tau, theta).

        A strip is sorted and its thetas top every earlier strip's, so each new
        strip's atoms go in after the merged atoms of equal or smaller tau: a
        linear merge, in the order a stable sort of the whole ladder gives."""
        done, cols = self._merged
        for i in range(done, len(self.strips)):
            s = self.strips[i]
            at = np.searchsorted(cols[0], s.tau, side="right") + np.arange(len(s.tau))
            kept = np.ones(len(cols[0]) + len(at), dtype=bool)
            kept[at] = False
            grown = []
            for old, new in zip(cols, (s.tau, s.theta, s.y, np.full(len(at), i))):
                out = np.empty(len(kept), dtype=old.dtype)
                out[kept], out[at] = old, new
                grown.append(out)
            cols = tuple(grown)
        self._merged = (len(self.strips), cols)
        return cols


def _draw_strip(
    horizon: float,
    theta_low: float,
    theta_high: float,
    mark_model: MarkModel,
    entropy: tuple[int, ...],
    strip_index: int,
) -> Strip:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=entropy, spawn_key=(strip_index,))
    )
    count = int(rng.poisson(horizon * (theta_high - theta_low)))
    # (1 - U) maps [0, 1) onto half-open-from-below intervals
    tau = horizon * (1.0 - rng.random(count))
    theta = theta_low + (theta_high - theta_low) * (1.0 - rng.random(count))
    y = mark_model.sample(rng, count)
    order = np.lexsort((theta, tau))
    return Strip(theta_low, theta_high, tau[order], theta[order], y[order])


def sample_atoms(
    T: float,
    ceiling: float,
    mark_model: MarkModel,
    seed: int | tuple[int, ...],
) -> PoissonAtoms:
    """Draw the base strip (0, ceiling] of the dominating measure.

    The output is a pure function of (T, ceiling, seed, mark model): the draw
    order (count, times, thetas, marks) is fixed.  A strip expected to hold
    more than ``ATOM_BUDGET`` atoms is refused.
    """
    if T <= 0:
        raise ParameterError("T must be positive")
    if ceiling <= 0:
        raise ParameterError("ceiling must be positive")
    if ceiling * T > ATOM_BUDGET:
        raise ParameterError(
            f"ceiling {ceiling:.4g} over the horizon {T:.4g} passes the atom budget {ATOM_BUDGET}"
        )
    entropy = (seed,) if isinstance(seed, int) else tuple(seed)
    atoms = PoissonAtoms(horizon=float(T), mark_model=mark_model, seed_entropy=entropy)
    atoms.strips.append(_draw_strip(T, 0.0, float(ceiling), mark_model, entropy, 0))
    return atoms


def extend_ceiling(atoms: PoissonAtoms, new_ceiling: float) -> PoissonAtoms:
    """Append the strip (old ceiling, new_ceiling]; existing strips untouched.

    The simulators raise a ceiling only through ``PoissonAtoms.cover``."""
    if new_ceiling <= atoms.ceiling:
        raise ParameterError("new ceiling must exceed the current ceiling")
    strip = _draw_strip(
        atoms.horizon,
        atoms.ceiling,
        float(new_ceiling),
        atoms.mark_model,
        atoms.seed_entropy,
        len(atoms.strips),
    )
    atoms.strips.append(strip)
    return atoms
