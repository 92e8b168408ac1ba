"""One coupled pair on one grid, from a seed: the call the tests share."""

from __future__ import annotations

import hawkpath as hp


def couple_step(kernel, jump_rate, marks, T, delta, seed, *, allow_unstable=False):
    """``hp.couple`` on the grid of step ``delta`` over [0, T], on the base
    strip of ``seed`` at the default ceiling; the trace's runaway is raised."""
    atoms = hp.sample_atoms(T, hp.default_ceiling(jump_rate, kernel, marks), marks, seed)
    grid = hp.grid_coefficients(kernel, delta, T)
    cont, [disc] = hp.couple(kernel, jump_rate, marks, [grid], atoms,
                             allow_unstable=allow_unstable)
    if isinstance(disc, hp.RunawayIntensityError):
        raise disc
    return cont, disc
