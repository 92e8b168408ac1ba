"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are fixed
here, not calibrated at runtime; Monte Carlo gates use 3-standard-error
margins at the stated trial counts.
"""

import contextlib
import json
import math
import os

import numpy as np
import pytest

import hawkpath as hp
from hawkpath import harness
from hawkpath.cli import cli_main
from hawkpath.harness import ExperimentConfig, run_convergence
from hawkpath.kernels import c_r
from hawkpath.metrics import (
    fit_powerlaw,
    modulus_sparse,
    skorokhod_distance,
    sobolev_norm,
    uniform_distance,
)
from hawkpath.simulate import (
    eval_intensity,
    integrate_intensity,
    make_step_path,
    path_to_step,
)

from _coupling import couple_step
from _oracles import random_step_path, skorokhod_lattice, sobolev_riemann
from test_metrics import indicator_norm_closed_form, indicator_path

UNIT_MARKS = hp.MarkModel("point-mass", (1.0,))


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_poisson_null_exactness():
    """Zero kernel, flat rate 2 on [0, 10]: the coupling is perfect in every trial."""
    with criterion(1, "Poisson null exactness"):
        zero = hp.zero_kernel(10.0)
        rate = hp.constant_rate(2.0)
        delta, M = 0.5, 20
        grid = delta * np.arange(M + 1)
        for s in range(10_000):
            cont, disc = couple_step(zero, rate, UNIT_MARKS, 10.0, delta, seed=(81, s))
            assert np.array_equal(disc.times, cont.times)  # identical atom sets
            assert abs(cont.terminal_count - disc.terminal_count) == 0
            assert cont.terminal_risk == disc.terminal_risk
            rc = path_to_step(cont, "risk")
            grid_restriction = make_step_path(grid, rc.value_at(grid), 10.0)
            rd = path_to_step(disc, "risk")
            assert skorokhod_distance(grid_restriction, rd) == 0.0


def test_criterion_2_count_error_shape_reproduction():
    """Cosine-decay kernel, T = 5, baseline 1: count-error exponent in [0.8, 1.3]."""
    with criterion(2, "count-error power-law shape"):
        cfg = ExperimentConfig.from_dict(
            {
                "kernel": {"family": "cosine-decay", "params": {"amplitude": 0.6}},
                "jump_rate": {"family": "relu-affine", "params": {"baseline": 1.0}},
                "marks": {"distribution": {"family": "point-mass", "value": 1.0}},
                "horizon": 5.0,
                "delta_ladder": [0.5, 0.25, 0.1, 0.05, 0.025, 0.0125],
                "trials": 2000,
                "metrics": ["terminal_count"],
                "seed": 20240818,
            }
        )
        report = run_convergence(cfg)
        fit = report.fits["terminal_count"]
        assert fit is not None
        assert 0.8 <= fit.exponent <= 1.3
        # the reported coefficient is not reproducible (unspecified baseline);
        # only the exponent is gated


def test_criterion_3_sobolev_exactness():
    """Closed-form indicator values at 1e-10; dense-grid oracle at 1e-3 relative."""
    with criterion(3, "Sobolev norm exactness"):
        path = indicator_path(0.25, 0.5, 1.0)
        for eta in (0.25, 0.5, 0.75):
            expected = indicator_norm_closed_form(0.25, 0.5, 1.0, eta)
            assert sobolev_norm(path, eta) == pytest.approx(expected, abs=1e-10)
        rng = np.random.default_rng(3033)
        for _ in range(50):
            idx = np.sort(rng.choice(np.arange(1, 10_000), size=9, replace=False))
            steps = rng.normal(0.0, 1.0, 9)
            steps[np.abs(steps) < 0.05] = 0.3
            ten_segments = make_step_path(
                np.concatenate(([0.0], idx / 10_000.0)),
                np.concatenate(([0.0], np.cumsum(steps))),
                1.0,
            )
            got = sobolev_norm(ten_segments, 0.25)
            oracle = sobolev_riemann(ten_segments, 0.25, grid=10_000)
            assert got == pytest.approx(oracle, rel=1e-3)


def _crafted_pairs():
    jump = lambda t, h=1.0, T=1.0: make_step_path([0.0, t], [0.0, h], T)
    stair = lambda ts, hs, T=1.0: make_step_path(
        np.concatenate(([0.0], ts)), np.concatenate(([0.0], np.cumsum(hs))), T
    )
    down = lambda t, T=1.0: make_step_path([0.0, t], [1.0, 0.0], T)
    return [
        (jump(0.5), jump(0.5)),
        (jump(0.5), jump(0.55)),
        (jump(0.5), jump(0.6)),
        (jump(0.3), jump(0.45)),
        (jump(0.2, 0.4), jump(0.8, 0.4)),
        (jump(0.5, 1.0), jump(0.5, 2.0)),
        (jump(0.5, 1.0), jump(0.5, 1.25)),
        (jump(0.5, 1.0), jump(0.55, 1.2)),
        (indicator_path(0.4, 0.6, 1.0), indicator_path(0.45, 0.55, 1.0)),
        (indicator_path(0.3, 0.7, 1.0), indicator_path(0.4, 0.6, 1.0)),
        (indicator_path(0.4, 0.6, 1.0), indicator_path(0.45, 0.65, 1.0)),
        (indicator_path(0.45, 0.5, 1.0), make_step_path([0.0], [0.0], 1.0)),
        (stair([0.3, 0.6], [1, 1]), stair([0.35, 0.65], [1, 1])),
        (stair([0.3, 0.6], [1, 1]), stair([0.35, 0.55], [1, 1])),
        (stair([0.2, 0.4, 0.6], [1, 1, 1]), stair([0.25, 0.45, 0.65], [1, 1, 1])),
        (jump(0.5, 2.0), stair([0.45, 0.55], [1, 1])),
        (stair([0.3, 0.6], [1, 1]), stair([0.3, 0.6, 0.8], [1, 1, 0.1])),
        (down(0.5), down(0.55)),
        (stair([0.4, 0.6], [1, -2]), stair([0.45, 0.65], [1, -2])),
        (jump(0.1), jump(0.9)),
    ]


def test_criterion_4_skorokhod_exactness():
    """Crafted pairs match the lattice oracle at 1e-3; d <= uniform on 1e4 pairs."""
    with criterion(4, "Skorokhod distance exactness"):
        for f, g in _crafted_pairs():
            exact = skorokhod_distance(f, g)
            oracle = skorokhod_lattice(f, g, n=2000)
            assert exact == pytest.approx(oracle, abs=1e-3)
        rng = np.random.default_rng(4044)
        for _ in range(10_000):
            f = random_step_path(rng, max_jumps=4)
            g = random_step_path(rng, max_jumps=4)
            d = skorokhod_distance(f, g)
            assert d <= uniform_distance(f, g) + 1e-12


def _mean_and_3se(arr):
    return float(arr.mean()), 3.0 * float(arr.std(ddof=1)) / math.sqrt(len(arr))


# one coupled 5000-trial pass feeds the mean-intensity and martingale criteria
_EXP_KERNEL = hp.exponential_kernel(0.604, 1.0, 5.0)
_EXP_RATE = hp.relu_affine(1.0)
_SHARED: dict = {}


def _shared_exponential_pass():
    if _SHARED:
        return _SHARED
    n, delta, T = 5000, 0.05, 5.0
    M = round(T / delta)
    ts = T * np.arange(1, 21) / 20.0
    grid_idx = np.unique(np.linspace(1, M, 20, dtype=int))
    lam = np.empty((n, 20))
    lvals = np.empty((n, len(grid_idx)))
    xi_cont = np.empty(n)
    xi_disc = np.empty(n)
    mean_mark = hp.mark_moments(UNIT_MARKS).mean
    for s in range(n):
        cont, disc = couple_step(_EXP_KERNEL, _EXP_RATE, UNIT_MARKS, T, delta, seed=(55, s))
        lam[s] = eval_intensity(cont, _EXP_KERNEL, _EXP_RATE, ts)
        lvals[s] = disc.intensity[grid_idx]
        xi_cont[s] = cont.terminal_risk - mean_mark * integrate_intensity(
            cont, _EXP_KERNEL, _EXP_RATE
        )
        xi_disc[s] = disc.terminal_risk - mean_mark * float(
            disc.intensity[1:].sum() * delta
        )
    _SHARED.update(lam=lam, lvals=lvals, xi_cont=xi_cont, xi_disc=xi_disc, delta=delta, M=M)
    return _SHARED


def test_criterion_5_intensity_mean_bounds():
    """MC intensity means at 20 time points sit below the stationary bounds."""
    with criterion(5, "intensity mean bounds"):
        data = _shared_exponential_pass()
        rho = hp.rho_continuous(_EXP_KERNEL, 1.0, UNIT_MARKS)
        assert rho == pytest.approx(0.6, abs=0.01)
        bound_cont = 1.0 / (1.0 - rho)
        grid = hp.grid_coefficients(_EXP_KERNEL, data["delta"], data["M"] * data["delta"])
        bound_disc = 1.0 / (1.0 - hp.rho_discrete(grid, 1.0, UNIT_MARKS))
        for samples, bound in ((data["lam"], bound_cont), (data["lvals"], bound_disc)):
            means = samples.mean(axis=0)
            ses = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
            assert np.all(means <= bound + 3.0 * ses)


def test_criterion_6_martingale_zero_mean():
    """Compensated terminal risks have MC mean within 3 standard errors of 0."""
    with criterion(6, "martingale zero mean"):
        data = _shared_exponential_pass()
        for arr in (data["xi_cont"], data["xi_disc"]):
            mean, three_se = _mean_and_3se(arr)
            assert abs(mean) <= three_se


def test_criterion_7_compound_poisson_modulus():
    """Rate-2 compound Poisson on [0, 5]: mean sparse modulus below 4.2 + 3 SE."""
    with criterion(7, "compound Poisson modulus bound"):
        intensity, T, delta, n = 2.0, 5.0, 0.05, 5000
        bound = hp.modulus_poisson_bound(intensity, T, delta, UNIT_MARKS)
        assert bound == pytest.approx(4.2)
        zero = hp.zero_kernel(T)
        rate = hp.constant_rate(intensity)
        mods = np.empty(n)
        for s in range(n):
            atoms = hp.sample_atoms(T, intensity, UNIT_MARKS, (71, s))
            path = hp.simulate_continuous(zero, rate, UNIT_MARKS, T, atoms)
            mods[s] = modulus_sparse(path_to_step(path, "risk"), delta)
        mean, three_se = _mean_and_3se(mods)
        assert mean <= bound + three_se


def test_criterion_8_sobolev_convergence_scaling():
    """Sobolev error decreasing along the ladder with log-log slope >= 0.7.

    The ladder sits where the leading delta^(1-eta) term dominates: relative
    pre-asymptotic corrections decay like delta^(1/4) at eta = 0.25, so
    coarse ladders under-read the slope.
    """
    with criterion(8, "Sobolev convergence scaling"):
        cfg = ExperimentConfig.from_dict(
            {
                "kernel": {"family": "exponential", "params": {"amplitude": 0.604, "decay": 1.0}},
                "jump_rate": {"family": "relu-affine", "params": {"baseline": 1.0}},
                "marks": {"distribution": {"family": "point-mass", "value": 1.0}},
                "horizon": 5.0,
                "delta_ladder": [0.025, 0.0125, 0.00625, 0.003125],
                "trials": 500,
                "metrics": ["sobolev"],
                "sobolev_eta": 0.25,
                "seed": 88,
            }
        )
        report = run_convergence(cfg)
        table = report.mean_table("sobolev")
        for (_, m_coarse, se_coarse), (_, m_fine, se_fine) in zip(table[:-1], table[1:]):
            assert m_fine < m_coarse + math.hypot(se_coarse, se_fine)
        fit = report.fits["sobolev"]
        assert fit is not None and fit.exponent >= 0.7


def test_criterion_9_inverse_sqrt_regularity_exponent():
    """Regularity constant of the square-root-singular kernel scales like sqrt(delta)."""
    with criterion(9, "inverse-sqrt regularity exponent"):
        kernel = hp.inverse_sqrt_kernel(2.0, 0.1)
        ladder = [0.1, 0.05, 0.025, 0.0125, 0.00625]
        points = list(zip(ladder, c_r(kernel, ladder, 2.0)))
        fit = fit_powerlaw(points)
        assert 0.45 <= fit.exponent <= 0.55


def test_criterion_10_cli_reproducibility(tmp_path, monkeypatch):
    """Same seed, different worker counts: byte-identical CSV and JSON outputs.

    Both commands that run trials, ``convergence`` and ``verify``, are checked.
    The pool is capped at the CPU count, so three CPUs are declared: the
    three-worker run uses a pool of three on any host.
    """
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    with criterion(10, "CLI reproducibility across workers"):
        doc = {
            "kernel": {"family": "exponential", "params": {"amplitude": 0.604, "decay": 1.0}},
            "jump_rate": {"family": "relu-affine", "params": {"baseline": 1.0}},
            "marks": {"distribution": {"family": "point-mass", "value": 1.0}},
            "horizon": 5.0,
            "delta_ladder": [0.25, 0.125],
            "trials": 60,
            "metrics": ["terminal_count", "terminal_risk", "sobolev"],
            "sobolev_eta": 0.25,
            "seed": 4242,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        outputs = {}
        old = os.environ.get("HAWKPATH_WORKERS")
        try:
            for workers in ("1", "3"):
                os.environ["HAWKPATH_WORKERS"] = workers
                out = tmp_path / f"w{workers}"
                for command in ("convergence", "verify"):
                    assert cli_main(
                        [command, str(cfg_path), "--output-dir", str(out)]
                    ) == 0
                outputs[workers] = tuple(
                    (out / name).read_bytes()
                    for name in (
                        "convergence.csv", "convergence_summary.json",
                        "verify.csv", "verify.json",
                    )
                )
        finally:
            if old is None:
                os.environ.pop("HAWKPATH_WORKERS", None)
            else:
                os.environ["HAWKPATH_WORKERS"] = old
        assert outputs["1"] == outputs["3"]
