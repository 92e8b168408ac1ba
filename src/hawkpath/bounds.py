"""Stability ratios and theorem-shaped error bounds.

Every multiplicative constant that the convergence theorems leave
existential is normalized to 1, so the shapes below are only meaningful
through scaling checks (log-log slopes, monotonicity), never through level
comparisons.  The lemma-level quantities (mean and second-moment intensity
bounds, the compound-Poisson modulus bound) are constant-free and directly
testable.

``bound_sets`` evaluates a whole delta ladder from the grid coefficients a
run has already sampled: what no step changes is computed once, and the
regularity constants of all steps are one quadrature batch.  One step is a
one-grid ladder.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InstabilityError, ParameterError
from .kernels import (
    GridCoefficients,
    Kernel,
    _check_steps,
    c_r,
    integrate,
    l1_norm,
    p_variation,
)
from .randomness import MarkModel, mark_moments

__all__ = [
    "BoundSet",
    "rho_continuous",
    "rho_discrete",
    "bound_sets",
    "modulus_poisson_bound",
]


def rho_continuous(kernel: Kernel, lipschitz: float, mark_model: MarkModel) -> float:
    """Stability ratio L * ||h||_1 * E b(Y); the process is stable below 1."""
    return lipschitz * l1_norm(kernel) * mark_moments(mark_model).mod_mean


def rho_discrete(grid: GridCoefficients, lipschitz: float, mark_model: MarkModel) -> float:
    """Riemann-sum analogue: L * sum |h_k| * delta * E b(Y)."""
    return lipschitz * grid.abs_l1 * mark_moments(mark_model).mod_mean


@dataclass(frozen=True)
class BoundSet:
    """Evaluated stability constants and theorem shapes at one (delta, T).

    ``None`` marks a bound whose hypothesis fails (stability, bounded jump
    rate, square-integrable kernel, finite p-variation).  Shapes carry an
    implicit multiplicative constant of 1.
    """

    delta: float
    horizon: float
    eta: float
    p: float                               # 1.0: p_variation_shape is the 1-variation shape
    rho_continuous: float
    rho_discrete: float
    stable_continuous: bool
    stable_discrete: bool
    stability_constant: float | None       # 1/(1-rho) + 1/(1-rho_disc)
    kernel_regularity: float               # three-term regularity constant
    mean_intensity_continuous: float | None
    mean_intensity_discrete: float | None
    second_moment_continuous: float | None
    second_moment_discrete: float | None
    intensity_shift_constant: float | None  # E b(Y) L psi(0) / (1 - rho)
    sobolev_shape: float
    skorokhod_shape_bounded: float | None
    skorokhod_shape_unbounded: float
    martingale_shape: float
    p_variation_shape: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def bound_sets(
    kernel: Kernel,
    grids: Sequence[GridCoefficients],
    jump_rate,
    mark_model: MarkModel,
    eta: float = 0.25,
    *,
    allow_unstable: bool = False,
) -> list[BoundSet]:
    """Evaluate every constant and theorem shape at the step of each grid.

    ``grids[i]`` holds the kernel samples at step delta_i up to the horizon T
    that all grids share.  What no step changes (rho, the mark moments, the
    integral of h^2 and the p-variation) is computed once; the regularity
    constants of all steps are one quadrature batch.  Every step's stability
    is checked before any quadrature.
    """
    if len({grid.horizon for grid in grids}) != 1:
        raise ParameterError("the grids must share one horizon")
    T = grids[0].horizon
    deltas = [grid.delta for grid in grids]
    if not 0 < eta < 1:
        raise ParameterError("eta must lie in (0, 1)")
    _check_steps(deltas, T)
    moments = mark_moments(mark_model)
    L = jump_rate.lipschitz
    psi0 = jump_rate.at_zero

    rho = rho_continuous(kernel, L, mark_model)
    rhos_d = [rho_discrete(grid, L, mark_model) for grid in grids]
    stable = rho < 1.0
    for rho_d in rhos_d:
        if not (stable and rho_d < 1.0) and not allow_unstable:
            raise InstabilityError(
                f"stability ratios ({rho:.4g}, {rho_d:.4g}) not both < 1"
            )

    crs = c_r(kernel, deltas, T)
    mean_cont = psi0 / (1.0 - rho) if stable else None
    shift_const = (moments.mod_mean * L * psi0 / (1.0 - rho)) if stable else None

    # second moments need square-integrable kernels
    second_cont = None
    if stable and not kernel.singular_at_zero:
        # float_power squares through libm pow, like a Python float ** 2;
        # np.square (x * x) differs from it in the last bit of some values
        h2 = integrate(
            lambda t: np.float_power(kernel.evaluate(np.maximum(t, 1e-300)), 2.0),
            0.0,
            T,
            breakpoints=kernel.nonsmooth_points,
        )
        second_cont = (
            psi0**2 + L**2 * moments.mod_second * (psi0 / (1.0 - rho)) * h2
        ) / (1.0 - rho) ** 2
    pv = p_variation(kernel, T) if kernel.bounded else None

    out = []
    for grid, rho_d, cr in zip(grids, rhos_d, crs):
        delta = grid.delta
        stable_d = rho_d < 1.0
        cs = (1.0 / (1.0 - rho) + 1.0 / (1.0 - rho_d)) if stable and stable_d else None
        mean_disc = psi0 / (1.0 - rho_d) if stable_d else None
        second_disc = None
        if stable_d:
            second_disc = (
                psi0**2 + L**2 * moments.mod_second * (psi0 / (1.0 - rho_d)) * grid.abs_l2_sq
            ) / (1.0 - rho_d) ** 2

        sobolev = T**2 * cr + T * delta ** (1.0 - eta)
        mart = math.sqrt(T * cr)
        sk_unbounded = math.sqrt(delta) * (1.0 + T**1.5) + mart + T * cr
        sk_bounded = None
        if jump_rate.sup_norm is not None:
            sk_bounded = delta * (1.0 + T) * (1.0 + jump_rate.sup_norm) + mart + T * cr
        pvar_shape = None if pv is None else pv * delta + delta * kernel.sup_norm

        out.append(BoundSet(
            delta=float(delta),
            horizon=float(T),
            eta=float(eta),
            p=1.0,
            rho_continuous=rho,
            rho_discrete=rho_d,
            stable_continuous=stable,
            stable_discrete=stable_d,
            stability_constant=cs,
            kernel_regularity=cr,
            mean_intensity_continuous=mean_cont,
            mean_intensity_discrete=mean_disc,
            second_moment_continuous=second_cont,
            second_moment_discrete=second_disc,
            intensity_shift_constant=shift_const,
            sobolev_shape=sobolev,
            skorokhod_shape_bounded=sk_bounded,
            skorokhod_shape_unbounded=sk_unbounded,
            martingale_shape=mart,
            p_variation_shape=pvar_shape,
        ))
    return out


def modulus_poisson_bound(
    intensity: float, T: float, delta: float, mark_model: MarkModel
) -> float:
    """Bound on the mean sparse modulus of a rate-``intensity`` compound Poisson path.

    Constant-free: 2 * E|Y| * I * delta * (1 + 2 * I * T).
    """
    if intensity <= 0 or T <= 0 or delta < 0:
        raise ParameterError("need intensity > 0, T > 0, delta >= 0")
    abs_mean = mark_moments(mark_model).abs_mean
    return 2.0 * abs_mean * intensity * delta * (1.0 + 2.0 * intensity * T)
