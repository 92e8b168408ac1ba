import math

import numpy as np
import pytest

import hawkpath as hp
from hawkpath import bounds
from hawkpath.bounds import (
    bound_sets,
    modulus_poisson_bound,
    rho_continuous,
    rho_discrete,
)
from hawkpath.errors import InstabilityError, ParameterError
from hawkpath.kernels import _projection_moduli, c_r, grid_coefficients, p_variation

from _oracles import adaptive_simpson_reference


def bound_set(kernel, delta, T, jump_rate, mark_model, eta=0.25, *, allow_unstable=False):
    """The bound set at one step: ``bound_sets`` on a one-grid ladder."""
    grid = grid_coefficients(kernel, delta, T)
    return bound_sets(
        kernel, (grid,), jump_rate, mark_model, eta, allow_unstable=allow_unstable
    )[0]


class TestStabilityRatios:
    def test_zero_kernel(self, unit_marks):
        assert rho_continuous(hp.zero_kernel(5.0), 1.0, unit_marks) == 0.0

    def test_exponential_closed_form(self, unit_marks):
        k = hp.exponential_kernel(1.0, 1.0, 5.0)
        assert rho_continuous(k, 1.0, unit_marks) == pytest.approx(
            1.0 - math.exp(-5.0), abs=1e-12
        )

    def test_cosine_decay_stable(self, cos_kernel, unit_marks):
        rho = rho_continuous(cos_kernel, 1.0, unit_marks)
        assert 0.0 < rho < 1.0

    def test_modulation_scales_ratio(self):
        k = hp.exponential_kernel(1.0, 1.0, 5.0)
        half = hp.MarkModel(
            "gaussian", (0.0, 1.0), modulation="indicator", mod_params=(0.0,)
        )
        assert rho_continuous(k, 1.0, half) == pytest.approx(
            0.5 * (1.0 - math.exp(-5.0)), abs=1e-12
        )

    def test_discrete_zero_coefficients(self, unit_marks):
        grid = grid_coefficients(hp.zero_kernel(5.0), 0.5, 5.0)
        assert rho_discrete(grid, 1.0, unit_marks) == 0.0

    def test_discrete_constant_kernel_exact(self, unit_marks):
        grid = grid_coefficients(hp.constant_kernel(0.1, 5.0), 0.25, 5.0)
        assert rho_discrete(grid, 1.0, unit_marks) == pytest.approx(0.5, abs=1e-12)

    def test_discrete_dominated_by_continuous_plus_projection(
        self, library_kernels, unit_marks
    ):
        # Riemann-sum ratio vs exact ratio, controlled by the grid projection
        for k in library_kernels.values():
            rho = rho_continuous(k, 1.0, unit_marks)
            for delta in (0.5, 0.1, 0.05):
                grid = grid_coefficients(k, delta, 5.0)
                rho_d = rho_discrete(grid, 1.0, unit_marks)
                [proj] = _projection_moduli(k, (delta,), 5.0)
                assert rho_d <= rho + proj + 1e-9

    def test_small_step_restores_discrete_stability(self, library_kernels, unit_marks):
        # somewhere along the halving ladder the discrete ratio drops below 1
        for k in library_kernels.values():
            assert rho_continuous(k, 1.0, unit_marks) < 1.0
            delta = 0.003125
            grid = grid_coefficients(k, delta, 5.0)
            assert rho_discrete(grid, 1.0, unit_marks) < 1.0


class TestBoundSet:
    def test_zero_kernel_shapes(self, unit_marks):
        bs = bound_set(
            hp.zero_kernel(5.0), 0.1, 5.0, hp.constant_rate(2.0), unit_marks, eta=0.25
        )
        assert bs.kernel_regularity == 0.0
        assert bs.sobolev_shape == pytest.approx(5.0 * 0.1**0.75, abs=1e-12)
        assert bs.mean_intensity_continuous == 2.0
        assert bs.martingale_shape == 0.0

    def test_sobolev_shape_decreases_with_step(self, exp_kernel, unit_marks):
        jr = hp.relu_affine(1.0)
        coarse = bound_set(exp_kernel, 0.2, 5.0, jr, unit_marks)
        fine = bound_set(exp_kernel, 0.1, 5.0, jr, unit_marks)
        assert fine.sobolev_shape < coarse.sobolev_shape

    def test_discrete_second_moment_hand_formula(self, unit_marks):
        # constant kernel: every grid coefficient equals c
        c, delta, T = 0.1, 0.25, 5.0
        M = round(T / delta)
        jr = hp.relu_affine(1.0)
        bs = bound_set(hp.constant_kernel(c, T), delta, T, jr, unit_marks)
        rho_d = c * T  # L = 1, E b = 1
        h22 = c * c * delta * M
        expected = (1.0 + 1.0 * (1.0 / (1.0 - rho_d)) * h22) / (1.0 - rho_d) ** 2
        assert bs.second_moment_discrete == pytest.approx(expected, rel=1e-12)

    def test_continuous_second_moment_constant_kernel(self, unit_marks):
        c, T = 0.1, 5.0
        jr = hp.relu_affine(1.0)
        bs = bound_set(hp.constant_kernel(c, T), 0.25, T, jr, unit_marks)
        rho = c * T
        h22 = c * c * T
        expected = (1.0 + (1.0 / (1.0 - rho)) * h22) / (1.0 - rho) ** 2
        assert bs.second_moment_continuous == pytest.approx(expected, rel=1e-6)

    def test_square_integral_matches_the_scalar_recursion(
        self, cos_kernel, unit_marks, monkeypatch
    ):
        # the integrand of h^2 squares each value as a Python float ** 2 does
        # (libm pow), which differs from x * x in the last bit of some values
        calls = []
        real = bounds.integrate

        def recording(f, *args, **kwargs):
            calls.append((f, real(f, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(bounds, "integrate", recording)
        bound_set(cos_kernel, 0.25, 5.0, hp.relu_affine(1.0), unit_marks)

        def scalar(t):
            return float(cos_kernel.evaluate(np.array([max(t, 1e-300)]))[0]) ** 2

        [(f, got)] = calls
        ts = np.linspace(0.0, 5.0, 20001)
        assert f(ts).tolist() == [scalar(t) for t in ts.tolist()]
        assert got == adaptive_simpson_reference(
            scalar, 0.0, 5.0, breakpoints=cos_kernel.nonsmooth_points
        )

    def test_bounded_rate_fills_bounded_shape(self, exp_kernel, unit_marks):
        bounded = bound_set(exp_kernel, 0.1, 5.0, hp.clipped_affine(1.0, 3.0), unit_marks)
        assert bounded.skorokhod_shape_bounded is not None
        unbounded = bound_set(exp_kernel, 0.1, 5.0, hp.relu_affine(1.0), unit_marks)
        assert unbounded.skorokhod_shape_bounded is None
        assert unbounded.skorokhod_shape_unbounded > 0.0

    def test_inverse_sqrt_skips_square_integrable_fields(self, unit_marks):
        k = hp.inverse_sqrt_kernel(2.0, 0.1)
        bs = bound_set(k, 0.05, 2.0, hp.relu_affine(1.0), unit_marks)
        assert bs.second_moment_continuous is None
        assert bs.p_variation_shape is None
        assert bs.kernel_regularity > 0.0

    def test_instability_raises_unless_overridden(self, unit_marks):
        hot = hp.exponential_kernel(1.5, 1.0, 5.0)
        jr = hp.relu_affine(1.0)
        with pytest.raises(InstabilityError):
            bound_set(hot, 0.1, 5.0, jr, unit_marks)
        bs = bound_set(hot, 0.1, 5.0, jr, unit_marks, allow_unstable=True)
        assert not bs.stable_continuous
        assert bs.mean_intensity_continuous is None

    def test_shift_constant_exposed(self, exp_kernel, unit_marks):
        jr = hp.relu_affine(1.0)
        bs = bound_set(exp_kernel, 0.1, 5.0, jr, unit_marks)
        rho = rho_continuous(exp_kernel, 1.0, unit_marks)
        assert bs.intensity_shift_constant == pytest.approx(1.0 / (1.0 - rho), rel=1e-12)

    def test_eta_domain(self, exp_kernel, unit_marks):
        with pytest.raises(ParameterError):
            bound_set(exp_kernel, 0.1, 5.0, hp.relu_affine(1.0), unit_marks, eta=1.5)


LADDER = (0.5, 0.25, 0.1, 0.05, 0.0125)


def ladder_grids(kernel, T=5.0, ladder=LADDER):
    return tuple(grid_coefficients(kernel, d, T) for d in ladder)


class TestBoundSets:
    @pytest.mark.parametrize("family", [
        "cosine-decay", "exponential", "compact", "tabulated", "inverse-sqrt", "unstable",
    ])
    def test_equals_one_bound_set_per_step(self, family, unit_marks):
        kernel = {
            "cosine-decay": hp.cosine_decay_kernel(0.6, 5.0),
            "exponential": hp.exponential_kernel(0.604, 1.0, 5.0),
            "compact": hp.compact_kernel(0.5, 1.3, 5.0),
            "tabulated": hp.tabulated_kernel([(0, 0.3), (1.1, 0.5), (2.3, -0.1), (5, 0.05)], 5.0),
            "inverse-sqrt": hp.inverse_sqrt_kernel(5.0, 0.1),
            "unstable": hp.exponential_kernel(1.5, 1.0, 5.0),
        }[family]
        allow = family == "unstable"
        jr = hp.clipped_affine(1.0, 3.0)
        batched = bound_sets(
            kernel, ladder_grids(kernel), jr, unit_marks, 0.3, allow_unstable=allow
        )
        single = [
            bound_set(kernel, d, 5.0, jr, unit_marks, 0.3, allow_unstable=allow)
            for d in LADDER
        ]
        assert [b.to_dict() for b in batched] == [b.to_dict() for b in single]
        assert [b.delta for b in batched] == list(LADDER)

    def test_run_invariants_computed_once(self, cos_kernel, unit_marks, monkeypatch):
        calls = []
        for name in ("rho_continuous", "integrate", "p_variation", "c_r"):
            real = getattr(bounds, name)
            monkeypatch.setattr(
                bounds, name,
                lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k),
            )
        bound_sets(cos_kernel, ladder_grids(cos_kernel), hp.relu_affine(1.0), unit_marks)
        assert sorted(calls) == ["c_r", "integrate", "p_variation", "rho_continuous"]

    def test_every_step_checked_before_quadrature(self, unit_marks, monkeypatch):
        # the finest step is stable, the coarsest is not: no constant is
        # integrated before the instability is reported
        k = hp.tabulated_kernel([(0, 0), (0.9, 0), (1, 1.5), (1.1, 0), (5, 0)], 5.0)
        grids = ladder_grids(k, ladder=(1.0, 0.0125))
        assert rho_continuous(k, 1.0, unit_marks) < 1.0
        assert rho_discrete(grids[0], 1.0, unit_marks) >= 1.0
        assert rho_discrete(grids[1], 1.0, unit_marks) < 1.0

        def never(*args, **kwargs):
            raise AssertionError("quadrature before the stability check")

        monkeypatch.setattr(bounds, "c_r", never)
        with pytest.raises(InstabilityError):
            bound_sets(k, grids[::-1], hp.relu_affine(1.0), unit_marks)
        # grids of two horizons
        mixed = (grids[1], hp.grid_coefficients(k, 0.0125, 2.0))
        with pytest.raises(ParameterError, match="one horizon"):
            bound_sets(k, mixed, hp.relu_affine(1.0), unit_marks)


    def test_horizon_comes_from_the_grids(self, exp_kernel, unit_marks):
        # the T = 2 grids of a kernel built for T = 5 give the T = 2 bounds
        grids = ladder_grids(exp_kernel, T=2.0, ladder=(0.5, 0.1))
        batched = bound_sets(exp_kernel, grids, hp.relu_affine(1.0), unit_marks)
        assert [b.horizon for b in batched] == [2.0, 2.0]
        assert [b.rho_discrete for b in batched] == [
            rho_discrete(grid, 1.0, unit_marks) for grid in grids
        ]
        single = bound_set(exp_kernel, 0.1, 2.0, hp.relu_affine(1.0), unit_marks)
        assert batched[1].to_dict() == single.to_dict()


class TestPVariationDomination:
    def test_regularity_constant_dominated_across_ladder(self, unit_marks):
        kernels = [
            hp.exponential_kernel(0.604, 1.0, 5.0),
            hp.cosine_decay_kernel(0.6, 5.0),
            hp.compact_kernel(0.5, 1.0, 5.0),
        ]
        ladder = (0.5, 0.25, 0.125, 0.0625, 0.03125)
        for k in kernels:
            pv = p_variation(k, 5.0)
            ratios = []
            for delta, cr in zip(ladder, c_r(k, ladder, 5.0)):
                shape = pv * delta + delta * k.sup_norm
                ratios.append(cr / shape)
            assert max(ratios) / min(ratios) <= 2.0


class TestModulusPoissonBound:
    def test_zero_step(self, unit_marks):
        assert modulus_poisson_bound(2.0, 5.0, 0.0, unit_marks) == 0.0

    def test_reference_value(self, unit_marks):
        assert modulus_poisson_bound(2.0, 5.0, 0.05, unit_marks) == pytest.approx(4.2)

    def test_affine_in_horizon(self, unit_marks):
        # doubling T adds exactly the linear term 2 E|Y| I delta * 2 I T
        i, t, d = 2.0, 5.0, 0.05
        gap = modulus_poisson_bound(i, 2 * t, d, unit_marks) - modulus_poisson_bound(
            i, t, d, unit_marks
        )
        assert gap == pytest.approx(2.0 * 1.0 * i * d * 2.0 * i * t, abs=1e-12)

    def test_scales_with_mark_size(self):
        big = hp.MarkModel("point-mass", (3.0,))
        small = hp.MarkModel("point-mass", (1.0,))
        assert modulus_poisson_bound(2.0, 5.0, 0.05, big) == pytest.approx(
            3 * modulus_poisson_bound(2.0, 5.0, 0.05, small)
        )
