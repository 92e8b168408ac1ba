import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from hypothesis import given, settings
from hypothesis import strategies as st

import hawkpath as hp
from hawkpath import kernels
from hawkpath.errors import DivergingKernelError, InfiniteVariationError, ParameterError
from hawkpath.kernels import (
    _CHUNK,
    _MAX_FRONTIER,
    _abs_integrals,
    _projection_moduli,
    _shift_integrals,
    _shift_moduli,
    c_r,
    grid_coefficients,
    integrate,
    l1_norm,
    p_variation,
)

from _oracles import (
    adaptive_simpson_reference,
    dense_shift_modulus,
    local_extrema_one_pass,
    quad_abs_l1,
    regularity_terms_reference,
    riemann_projection_modulus,
)


class TestL1Norm:
    def test_zero_kernel(self):
        assert l1_norm(hp.zero_kernel(5.0)) == 0.0

    def test_exponential_closed_form(self):
        k = hp.exponential_kernel(1.0, 1.0, 5.0)
        assert l1_norm(k) == pytest.approx(1.0 - math.exp(-5.0), abs=1e-12)

    def test_cosine_decay_vs_quadrature_oracle(self, cos_kernel):
        oracle = quad_abs_l1(
            lambda t: 0.6 * math.cos(t) / (1 + t * t), 5.0,
            points=cos_kernel.nonsmooth_points,
        )
        # bypass metadata to exercise the quadrature path
        assert _abs_integrals(cos_kernel, [(0.0, 5.0)])[0] == pytest.approx(oracle, abs=1e-8)
        assert l1_norm(cos_kernel) == pytest.approx(oracle, abs=1e-8)

    def test_partial_horizon_uses_antiderivative(self):
        k = hp.exponential_kernel(2.0, 3.0, 5.0)
        assert l1_norm(k, 1.0) == pytest.approx(2.0 / 3.0 * (1 - math.exp(-3.0)), abs=1e-12)

    def test_nonintegrable_singularity_raises(self):
        bad = hp.custom_kernel(lambda t: 1.0 / np.asarray(t, dtype=float), 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(DivergingKernelError) as reference:
                adaptive_simpson_reference(
                    lambda t: abs(float(bad.evaluate(np.array([t]))[0])), 0.0, 1.0
                )
            with pytest.raises(DivergingKernelError) as got:
                l1_norm(bad)
        # the leftmost panel at the depth limit, as the recursion reports it
        assert str(got.value) == str(reference.value)
        assert "[0, 8.88178e-16] (residual nan)" in str(got.value)

    def test_horizon_precondition(self):
        with pytest.raises(ParameterError):
            l1_norm(hp.zero_kernel(5.0), 6.0)


@st.composite
def quadrature_kernels(draw):
    """Kernels of every family whose regularity terms go through quadrature."""
    family = draw(st.sampled_from(
        ["cosine-decay", "tabulated", "erlang", "exponential-negative", "custom"]
    ))
    horizon = draw(st.floats(min_value=1.0, max_value=6.0))
    amplitude = draw(st.floats(min_value=0.1, max_value=1.0))
    decay = draw(st.floats(min_value=0.5, max_value=3.0))
    if family == "cosine-decay":
        return hp.cosine_decay_kernel(amplitude, horizon)
    if family == "tabulated":
        fracs = draw(st.lists(
            st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=5, unique=True
        ))
        ts = [0.0, *sorted({f * horizon for f in fracs}), horizon]
        vs = draw(st.lists(
            st.floats(min_value=-1.0, max_value=1.0), min_size=len(ts), max_size=len(ts)
        ))
        return hp.tabulated_kernel(list(zip(ts, vs)), horizon)
    if family == "erlang":
        shape = draw(st.integers(min_value=1, max_value=3))
        return hp.erlang_kernel(amplitude, shape, decay, horizon)
    if family == "exponential-negative":
        return hp.exponential_kernel(-amplitude, decay, horizon)

    # no metadata at all: every term, the L1 norm included, is a quadrature
    def h(t):
        t = np.asarray(t, dtype=float)
        return amplitude * np.exp(-decay * t) * np.cos(3.0 * t)

    return hp.custom_kernel(h, horizon)


tolerances = st.floats(min_value=1e-10, max_value=1e-5)


class TestQuadratureMatchesRecursion:
    """The level-batched quadrature against the depth-first recursion, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        kernel=quadrature_kernels(),
        ends=st.tuples(
            st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0)
        ),
        tol=tolerances,
    )
    def test_integrate(self, kernel, ends, tol):
        a, b = (kernel.horizon * e for e in sorted(ends))
        got = integrate(
            lambda t: np.abs(kernel.evaluate(t)), a, b,
            tol=tol, breakpoints=kernel.nonsmooth_points,
        )
        reference = adaptive_simpson_reference(
            lambda t: abs(float(kernel.evaluate(np.array([t]))[0])), a, b,
            tol, kernel.nonsmooth_points,
        )
        assert got == reference

    def test_integrate_across_chunks(self, cos_kernel):
        # more panels than one chunk refines: the chunks' panels are still
        # added in order
        cuts = tuple(np.linspace(0.0, 5.0, _CHUNK + 1000)[1:-1].tolist())
        got = integrate(lambda t: np.abs(cos_kernel.evaluate(t)), 0.0, 5.0, breakpoints=cuts)
        reference = adaptive_simpson_reference(
            lambda t: abs(float(cos_kernel.evaluate(np.array([t]))[0])), 0.0, 5.0,
            breakpoints=cuts,
        )
        assert got == reference

    @settings(max_examples=25, deadline=None)
    @given(
        kernel=quadrature_kernels(),
        frac=st.floats(min_value=0.005, max_value=0.4),
        tol=tolerances,
    )
    def test_regularity_terms(self, kernel, frac, tol):
        T = kernel.horizon
        delta = frac * T
        head, shift, proj = regularity_terms_reference(kernel, delta, T, tol)
        assert _shift_moduli(kernel, (delta,), T, tol) == [shift]
        assert _projection_moduli(kernel, (delta,), T, tol) == [proj]
        assert c_r(kernel, (delta,), T, tol=tol) == [head + shift + proj]

    def test_frontier_cap_stops_an_integrand_that_never_converges(self):
        # nan everywhere fails every error test, so the open panels double per
        # level until the cap: a bounded amount of work and memory
        tracemalloc.start()
        try:
            with pytest.raises(
                DivergingKernelError, match=f"more than {_MAX_FRONTIER} panels open"
            ):
                integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * _MAX_FRONTIER

    @settings(max_examples=25, deadline=None)
    @given(
        kernel=quadrature_kernels(),
        fracs=st.lists(
            st.floats(min_value=0.01, max_value=0.4), min_size=1, max_size=4, unique=True
        ),
        tol=tolerances,
    )
    def test_ladder_batch(self, kernel, fracs, tol):
        # each stage is one batch over the whole ladder, yet every delta's
        # constant is the sum of its own three scalar-recursion terms
        T = kernel.horizon
        ladder = tuple(f * T for f in sorted(fracs))
        got = c_r(kernel, ladder, T, tol=tol)
        assert len(got) == len(ladder)
        for delta, value in zip(ladder, got):
            head, shift, proj = regularity_terms_reference(kernel, delta, T, tol)
            assert value == head + shift + proj

    def test_ladder_batch_calls_the_kernel_once_per_stage_level(self):
        # the six deltas share every refinement level: one delta at a time
        # took 449 calls for the same points
        kernel = hp.cosine_decay_kernel(0.6, 5.0)
        calls = []

        def counting(t):
            calls.append(np.size(t))
            return kernel.evaluate(t)

        ladder = (0.5, 0.25, 0.1, 0.05, 0.025, 0.0125)
        c_r(replace(kernel, evaluate=counting), ladder, 5.0)
        assert len(calls) <= 100

    def test_ladder_batch_checks_every_step_first(self, cos_kernel):
        with pytest.raises(ParameterError):
            c_r(cos_kernel, (0.5, 5.0), 5.0)

    def test_c_r_calls_the_kernel_once_per_refinement_level(self):
        kernel = hp.cosine_decay_kernel(0.6, 5.0)
        calls = []

        def counting(t):
            calls.append(np.size(t))
            return kernel.evaluate(t)

        c_r(replace(kernel, evaluate=counting), (0.0125,), 5.0)
        assert len(calls) <= 200


LADDER_COUNT_STEPS = (0.5, 0.25, 0.1, 0.05, 0.025, 0.0125)

# c_r on the ladder of the ladder-count bench workload, as hex: any change to
# the quadrature's panels, tolerances, depth or summation order moves these
C_R_PINS = {
    # every term by quadrature, split at the zeros of cos
    "cosine-decay": (
        lambda: hp.cosine_decay_kernel(0.6, 5.0),
        ["0x1.90f6250ede20cp-1", "0x1.aae388018923ap-2", "0x1.5c5fd3c459a86p-3",
         "0x1.5d7f6bae66fa4p-4", "0x1.5dd370c85d970p-5", "0x1.5dee6de80549dp-6"],
    ),
    # a closed-form head, the moduli by quadrature
    "erlang": (
        lambda: hp.erlang_kernel(0.3, 2, 1.0, 5.0),
        ["0x1.93c296631edd8p-3", "0x1.9d622af71c5bcp-4", "0x1.4ea656bc7c074p-5",
         "0x1.4fdc5e5321522p-6", "0x1.5072abb927be6p-7", "0x1.50bcab49265d5p-8"],
    ),
    # every term in closed form
    "exponential": (
        lambda: hp.exponential_kernel(0.604, 1.0, 5.0),
        ["0x1.381dac4908aacp-1", "0x1.59e4183787fb4p-2", "0x1.26eb90e731bfap-3",
         "0x1.2d5c3ebffbd87p-4", "0x1.30a768297ce0cp-5", "0x1.3251cbead3023p-6"],
    ),
}


def _kinked(T):
    """|sin 2t| e^-t with its kink at pi/2 declared three times and 0.3 T twice."""
    def h(t):
        t = np.asarray(t, dtype=float)
        return np.abs(np.sin(2.0 * t)) * np.exp(-t)

    pts = (math.pi / 2, math.pi / 2, math.pi, 0.3 * T, 0.3 * T, math.pi / 2)
    return hp.custom_kernel(h, T, nonsmooth_points=pts)


class TestQuadratureBookkeeping:
    """What the array-built panels, cells and sums keep of the scalar recursion."""

    @pytest.mark.parametrize("family", sorted(C_R_PINS))
    def test_c_r_pinned(self, family):
        make, pins = C_R_PINS[family]
        assert [v.hex() for v in c_r(make(), LADDER_COUNT_STEPS, 5.0)] == pins

    def test_duplicate_breakpoints_are_zero_width_panels(self):
        # each repeat is a zero-width panel that still counts in tol / n
        f = _kinked(3.0).evaluate
        bp = (math.pi / 2, math.pi / 2, 1.0, 7.0, -1.0, math.pi / 2)
        got = integrate(f, 0.0, 3.0, breakpoints=bp)
        assert got == adaptive_simpson_reference(lambda t: float(f(t)), 0.0, 3.0, breakpoints=bp)
        assert got != integrate(f, 0.0, 3.0, breakpoints=(1.0, math.pi / 2))

    @pytest.mark.parametrize("T", [2.0, 5.0])
    def test_duplicate_nonsmooth_points_in_c_r(self, T):
        # the shift integrals cut at the set of pts and pts - eps, the head and
        # projection integrals at the declared tuple, repeats included
        kernel = _kinked(T)
        ladder = (0.1 * T, 0.03 * T)
        for delta, value in zip(ladder, c_r(kernel, ladder, T)):
            assert value == sum(regularity_terms_reference(kernel, delta, T))

    def test_empty_and_reversed_spans_are_zero(self):
        kernel = _kinked(5.0)
        ends = [(0.0, 1.0), (2.0, 1.0), (1.0, 1.0), (1.0, 3.0)]
        got = _abs_integrals(kernel, ends)
        assert got[1:3] == [0.0, 0.0]
        for (a, b), value in zip(ends, got):
            assert value == adaptive_simpson_reference(
                lambda t: abs(float(kernel.evaluate(t))), a, b,
                breakpoints=kernel.nonsmooth_points,
            )
        assert integrate(kernel.evaluate, 2.0, 1.0, breakpoints=(1.5,)) == 0.0

    def test_batch_of_more_panels_than_a_chunk(self):
        # the panels of many integrals refined in several chunks: each still
        # sums its own panels in order
        kernel = _kinked(5.0)
        edges = np.linspace(0.0, 5.0, _CHUNK + 500)
        got = _abs_integrals(kernel, list(zip(edges[:-1].tolist(), edges[1:].tolist())))
        assert len(got) > _CHUNK
        for a, b, value in zip(edges[:-1].tolist(), edges[1:].tolist(), got):
            assert value == adaptive_simpson_reference(
                lambda t: abs(float(kernel.evaluate(t))), a, b,
                breakpoints=kernel.nonsmooth_points,
            )

    @pytest.mark.parametrize("run, message", [
        # the frontier cap, on one integral and on the first of a c_r batch
        (lambda: integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0),
         "[0, 7.62939e-06] (residual nan) with more than 131072 panels open"),
        (lambda: integrate(lambda x: np.where(x > 0.3, np.nan, x), 0.0, 1.0),
         "[0.299995, 0.300003] (residual nan) with more than 131072 panels open"),
        (lambda: c_r(hp.custom_kernel(lambda t: np.full_like(t, np.nan), 5.0),
                     LADDER_COUNT_STEPS, 5.0),
         "[0, 3.05176e-05] (residual nan) with more than 131072 panels open"),
        # the depth cap
        (lambda: integrate(lambda x: 1.0 / np.abs(x - 0.3) ** 1.5, 0.0, 1.0),
         "[0.299997, 0.299997] (residual 2.647e-23);"),
    ], ids=["nan", "nan-right", "c_r-nan", "depth"])
    def test_divergence_names_the_panel(self, run, message):
        with pytest.raises(DivergingKernelError) as info:
            run()
        assert f"quadrature did not converge on {message}" in str(info.value)

    def test_fine_ladder_memory(self):
        # 2**17 projection cells: their panels, targets and sums are arrays of
        # about 1 MB each, and the traced peak stays near 22 MB
        kernel = hp.cosine_decay_kernel(0.6, 5.0)
        tracemalloc.start()
        try:
            c_r(kernel, (5.0 / 2**17,), 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestGridCoefficients:
    def test_zero_kernel(self):
        g = grid_coefficients(hp.zero_kernel(5.0), 0.5, 5.0)
        assert np.all(g.values == 0.0)

    def test_exponential_direct(self):
        g = grid_coefficients(hp.exponential_kernel(1.0, 1.0, 5.0), 1.0, 3.0)
        assert g.values == pytest.approx([math.exp(-1), math.exp(-2), math.exp(-3)])

    def test_inverse_sqrt_never_hits_zero(self):
        c = 0.3
        g = grid_coefficients(hp.inverse_sqrt_kernel(1.0, c), 0.25, 1.0)
        expected = [2 * c, c * math.sqrt(2), 2 * c / math.sqrt(3), c]
        assert g.values == pytest.approx(expected, rel=1e-12)
        assert np.all(np.isfinite(g.values))

    def test_values_match_evaluate_exactly(self, cos_kernel):
        g = grid_coefficients(cos_kernel, 0.25, 5.0)
        lags = 0.25 * np.arange(1, 21)
        assert np.array_equal(g.values, cos_kernel.evaluate(lags))

    def test_horizon_precondition(self):
        with pytest.raises(ParameterError):
            grid_coefficients(hp.zero_kernel(5.0), 0.5, 5.5)

    @pytest.mark.parametrize("delta", [5e-9, 1e-320])
    def test_bins_past_the_atom_budget_refused(self, delta):
        # 1e9 bins, and a ratio that overflows to inf, refused before any array
        with pytest.raises(ParameterError, match="pass the atom budget"):
            grid_coefficients(hp.zero_kernel(5.0), delta, 5.0)


class TestShiftModulus:
    def test_zero_kernel(self):
        assert _shift_moduli(hp.zero_kernel(5.0), (0.1,), 5.0) == [0.0]

    def test_inverse_sqrt_telescoping(self):
        c, T, d = 0.1, 2.0, 0.1
        k = hp.inverse_sqrt_kernel(T, c)
        # decreasing kernel: sup at eps = delta, difference of two integrals
        expected = 2 * c * (math.sqrt(T - d) - math.sqrt(T) + math.sqrt(d))
        [got] = _shift_moduli(k, (d,), T)
        assert got == pytest.approx(expected, abs=1e-12)
        oracle = dense_shift_modulus(lambda t: c / math.sqrt(t), d, T)
        assert got == pytest.approx(oracle, abs=1e-6)
        assert got <= 2 * c * math.sqrt(d)  # square-root scaling

    def test_cosine_decay_vs_dense_grid_oracle(self, cos_kernel):
        d = 0.1
        [got] = _shift_moduli(cos_kernel, (d,), 5.0)
        oracle = dense_shift_modulus(
            lambda t: 0.6 * math.cos(t) / (1 + t * t), d, 5.0,
            points=cos_kernel.nonsmooth_points,
        )
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_monotone_kernel_maximizer_is_right_endpoint(self, exp_kernel):
        vals = _shift_integrals(exp_kernel, np.linspace(0.0, 0.2, 33), np.full(33, 4.8), 1e-9)
        assert int(np.argmax(vals)) == 32

    def test_refinements_integrate_only_new_eps(self, cos_kernel, monkeypatch):
        # 32 nonzero mesh eps, then the three interior eps of each of the two
        # refinements: their endpoints are eps integrated before
        counted = []
        real = kernels._shift_integrals

        def counting(kernel, eps, upper, tol):
            counted.append(np.count_nonzero(eps))
            return real(kernel, eps, upper, tol)

        monkeypatch.setattr(kernels, "_shift_integrals", counting)
        for delta in (0.5, 0.25, 0.1, 0.05, 0.025, 0.0125):
            counted.clear()
            _shift_moduli(cos_kernel, (delta,), 5.0)
            assert counted == [32, 3, 3]

    def test_log_slope_near_one_for_cosine_decay(self, cos_kernel):
        # bounded-variation kernels have a shift modulus linear in the step
        deltas = [0.2, 0.1, 0.05, 0.025]
        vals = _shift_moduli(cos_kernel, deltas, 5.0)
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert 0.9 <= slope <= 1.1


class TestGridProjectionModulus:
    def test_constant_kernel(self):
        [got] = _projection_moduli(hp.constant_kernel(3.0, 5.0), (0.5,), 5.0)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_identity_kernel_triangle_areas(self):
        # h(t) = t on [0, 1], delta = 0.25: cells of [0, T - delta] each
        # contribute delta^2 / 2, three cells in total
        k = hp.custom_kernel(lambda t: np.asarray(t, dtype=float), 1.0)
        assert _projection_moduli(k, (0.25,), 1.0)[0] == pytest.approx(
            3 * 0.25**2 / 2, abs=1e-10
        )

    def test_cosine_decay_vs_riemann_oracle(self, cos_kernel):
        [got] = _projection_moduli(cos_kernel, (0.05,), 5.0)
        oracle = riemann_projection_modulus(
            lambda t: 0.6 * np.cos(t) / (1 + t * t), 0.05, 5.0
        )
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_vanishes_with_step(self, library_kernels):
        for k in library_kernels.values():
            fine, coarse = _projection_moduli(k, (0.0125, 0.1), 5.0)
            assert fine < coarse


class TestRegularityConstant:
    def test_zero_kernel(self):
        assert c_r(hp.zero_kernel(5.0), (0.1,)) == [0.0]

    def test_additivity_of_terms(self, exp_kernel):
        d = 0.1
        [total] = c_r(exp_kernel, (d,), 5.0)
        parts = (
            _abs_integrals(exp_kernel, [(0.0, d)])[0]
            + _shift_moduli(exp_kernel, (d,), 5.0)[0]
            + _projection_moduli(exp_kernel, (d,), 5.0)[0]
        )
        assert total == pytest.approx(parts, abs=1e-12)

    def test_monotone_shrinkage_on_halving(self, cos_kernel):
        for d in (0.4, 0.2, 0.1):
            half, whole = c_r(cos_kernel, (d / 2, d), 5.0)
            assert half <= whole + 1e-9

    def test_head_integral_monotone_in_delta(self, library_kernels):
        for k in library_kernels.values():
            short, long = _abs_integrals(k, [(0.0, 0.05), (0.0, 0.1)])
            assert short <= long + 1e-15


class TestPVariation:
    def test_constant_kernel(self):
        assert p_variation(hp.constant_kernel(2.0, 5.0)) == 0.0

    def test_monotone_exponential(self):
        k = hp.exponential_kernel(1.0, 1.0, 5.0)
        assert p_variation(k) == pytest.approx(1.0 - math.exp(-5.0), abs=1e-12)

    def test_plain_cosine_total_variation(self):
        k = hp.custom_kernel(
            lambda t: np.cos(np.asarray(t, dtype=float)),
            2 * math.pi,
            monotone_breaks=(0.0, math.pi, 2 * math.pi),
        )
        assert p_variation(k) == pytest.approx(4.0, abs=1e-12)

    def test_kernel_without_breaks_refused(self):
        k = hp.custom_kernel(lambda t: np.cos(np.asarray(t, dtype=float)), 2 * math.pi)
        with pytest.raises(ParameterError, match="monotone_breaks"):
            p_variation(k)

    def test_extremum_on_a_plateau(self):
        # the slope goes 1, 0, -1: the maximum is the flat run [1, 2], whose
        # start is the break
        k = hp.tabulated_kernel([(0, 0), (1, 1), (2, 1), (3, 0)], 3.0)
        assert k.monotone_breaks == (0.0, 1.0, 3.0)
        assert p_variation(k) == 2.0

    def test_tabulated_breaks_clamped_to_the_horizon(self):
        # the minimum at t = 3 lies past the horizon 2.5
        k = hp.tabulated_kernel([(0, 0), (1, 1), (2, 1), (3, 0), (6, 2)], 2.5)
        assert k.monotone_breaks == (0.0, 1.0, 2.5)

    def test_unbounded_family_rejected(self):
        with pytest.raises(InfiniteVariationError):
            p_variation(hp.inverse_sqrt_kernel(2.0, 0.1))


_TAIL_KERNELS = {
    "exponential": hp.exponential_kernel(0.604, 1.0, 5.0),
    "exponential-negative": hp.exponential_kernel(-0.5, 2.0, 5.0),
    "erlang": hp.erlang_kernel(0.5, 2, 2.0, 5.0),
    "cosine-decay": hp.cosine_decay_kernel(0.6, 5.0),
    "compact-support": hp.compact_kernel(0.5, 1.0, 5.0),
    "constant": hp.constant_kernel(0.1, 5.0),
    "zero": hp.zero_kernel(5.0),
    "tabulated": hp.tabulated_kernel([(0, 0.3), (1.1, 0.5), (2.3, -0.1), (5, 0.05)], 5.0),
    "plateau": hp.tabulated_kernel([(0, 0), (1, 1), (2, 1), (3, 0)], 5.0),
}


class TestTailSup:
    @pytest.mark.parametrize("family", sorted(_TAIL_KERNELS))
    def test_dominates_the_sup_of_the_tail(self, family):
        # on a grid of 50,001 lags, H* at each lag is at least every |h| at
        # a later lag, and never increases (to rounding: at a lag just past
        # an extremum's break |h| may top the break's value by an ulp)
        k = _TAIL_KERNELS[family]
        u = np.linspace(1e-9, k.horizon, 50_001)
        values = np.asarray(k.evaluate(u), dtype=float)
        tail = k.tail_sup(u, values)
        later = np.maximum.accumulate(np.abs(values)[::-1])[::-1]
        assert np.all(tail >= later * (1 - 1e-15))
        assert np.all(np.diff(tail) <= 1e-15 * tail[:-1])
        assert tail[0] <= k.sup_norm

    def test_cosine_decay_extremum_values(self):
        # each interior break holds |h| of the derivative's root to rounding
        k = _TAIL_KERNELS["cosine-decay"]

        def slope(t):
            return -math.sin(t) * (1 + t * t) - 2 * t * math.cos(t)

        for e in k.monotone_breaks[1:-1]:
            root = brentq(slope, e - 0.01, e + 0.01, xtol=1e-15)
            peak = abs(float(k.evaluate(np.array([root]))[0]))
            assert abs(float(k.evaluate(np.array([e]))[0])) == pytest.approx(peak, rel=1e-15)

    @pytest.mark.parametrize("T", [10_000.0, 20_000.0])
    def test_cosine_decay_breaks_at_long_horizons(self, T):
        # one extremum near each k * pi < T; a 4,096-sample scan found 3,182
        # of 3,183 at T = 10,000 and 1,823 of 6,366 at T = 20,000
        k = hp.cosine_decay_kernel(0.6, T)
        assert len(k.monotone_breaks) - 2 == int(T / math.pi)

    @pytest.mark.parametrize("T", [5.0, 80.0, 10_000.0])
    def test_chunked_extrema_scan_is_the_one_pass_scan(self, T):
        # the scan and the refinement read chunks of samples and brackets:
        # every extremum is the float a single pass over all of them finds
        def h(t):
            t = np.asarray(t, dtype=float)
            return 0.6 * np.cos(t) / (1.0 + t * t)

        extrema = kernels._local_extrema(h, T)
        assert extrema == local_extrema_one_pass(h, T)
        assert hp.cosine_decay_kernel(0.6, T).monotone_breaks == (0.0, *extrema, T)

    def test_long_horizon_extrema_scan_memory_is_bounded(self):
        # T = 1e5: 1.6e6 scan samples and 31,830 brackets, which one pass
        # held at once (a 73 MB traced peak); in chunks, a few MB
        tracemalloc.start()
        try:
            k = hp.cosine_decay_kernel(0.6, 1e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(k.monotone_breaks) - 2 == int(1e5 / math.pi)
        assert peak < 16 * 2**20

    def test_cosine_decay_horizon_past_the_budget_refused_before_sampling(self):
        # T = 2e6 needs 3.2e7 scan samples, past the atom budget of 2**24:
        # refused before the scan (0.5 GB) or the zeros below T are formed
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ParameterError, match="past the atom budget"):
                hp.cosine_decay_kernel(0.6, 2e6)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 100_000

    def test_plateau_table(self):
        # |h| rises to the plateau [1, 2], so H* is 1 up to its end
        k = _TAIL_KERNELS["plateau"]
        u = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
        tail = k.tail_sup(u, k.evaluate(u))
        assert np.array_equal(tail, [1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0])
        assert not np.array_equal(tail, np.abs(k.evaluate(u)))

    def test_nonincreasing_kernel_is_its_own_tail(self):
        k = _TAIL_KERNELS["exponential"]
        u = np.array([0.5, 1.0, 2.0])
        values = k.evaluate(u)
        assert k.tail_sup(u, values) is values

    def test_kernel_without_breaks_refused_by_continuous_thinning(self, unit_marks):
        # H* is read off the breaks: without them there is no sup norm, and
        # continuous thinning refuses the kernel before it draws a strip
        k = hp.custom_kernel(lambda t: np.exp(-np.asarray(t, dtype=float)), 5.0)
        assert k.sup_norm is None and not k.bounded
        atoms = hp.sample_atoms(5.0, 0.5, unit_marks, 0)
        with pytest.raises(ParameterError, match="monotone_breaks"):
            hp.simulate_continuous(k, hp.relu_affine(4.0), unit_marks, 5.0, atoms)
        assert len(atoms.strips) == 1

    def test_kernel_infinite_at_zero_refused_without_warning(self, unit_marks):
        # breaks declared, singular_at_zero not: h(0) = inf leaves it unbounded
        k = hp.custom_kernel(
            lambda t: 0.1 / np.sqrt(np.asarray(t, dtype=float)), 5.0, monotone_breaks=(0.0, 5.0)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert k.sup_norm is None and not k.bounded
            with pytest.raises(InfiniteVariationError):
                p_variation(k)
            with pytest.raises(ParameterError, match="bounded"):
                hp.simulate_continuous(
                    k, hp.relu_affine(1.0), unit_marks, 5.0, hp.sample_atoms(5.0, 1.0, unit_marks, 0)
                )


_MONOTONE_FAMILIES = {
    "exponential": lambda T: hp.exponential_kernel(0.604, 1.0, T),
    "exponential-negative": lambda T: hp.exponential_kernel(-0.5, 2.0, T),
    "erlang": lambda T: hp.erlang_kernel(0.5, 2, 2.0, T),
    "erlang-zero": lambda T: hp.erlang_kernel(0.0, 2, 2.0, T),
    "cosine-decay": lambda T: hp.cosine_decay_kernel(0.6, T),
    "cosine-decay-zero": lambda T: hp.cosine_decay_kernel(0.0, T),
    "inverse-sqrt": lambda T: hp.inverse_sqrt_kernel(T, 0.1),
    "compact-support": lambda T: hp.compact_kernel(0.5, 1.0, T),
    "compact-negative": lambda T: hp.compact_kernel(-0.5, 1.0, T),
    "constant": lambda T: hp.constant_kernel(0.1, T),
    "constant-negative": lambda T: hp.constant_kernel(-0.1, T),
    "zero": hp.zero_kernel,
    "table-decreasing": lambda T: hp.tabulated_kernel([(0, 0.5), (T / 2, 0.2), (T, 0.1)], T),
    "table-plateau": lambda T: hp.tabulated_kernel(
        [(0, 0), (T / 4, 0.5), (T / 2, 0.5), (3 * T / 4, 0)], T
    ),
    # fixed vertices: turns at 1 and 2, and a rise past T when T < 9
    "table-past-horizon": lambda T: hp.tabulated_kernel(
        [(0, 0.15), (1, 0.25), (2, -0.1), (4, 0), (9, 1.5)], T
    ),
    # h = 0.8 on (0.05, 0.21]: zero at lag 0, so it rises at the break 0.05
    "late-step": lambda T: hp.custom_kernel(
        lambda t: np.where((np.asarray(t) > 0.05) & (np.asarray(t) <= 0.21), 0.8, 0.0),
        T, monotone_breaks=(0.0, 0.05, 0.21, T),
    ),
}


class TestMonotoneDecreasing:
    @pytest.mark.parametrize("T", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("family", sorted(_MONOTONE_FAMILIES))
    def test_flag_matches_dense_samples(self, family, T):
        # nonincreasing and nonnegative on 100,001 lags, to rounding
        k = _MONOTONE_FAMILIES[family](T)
        lags = np.linspace(1e-9 if k.singular_at_zero else 0.0, T, 100_001)
        h = np.asarray(k.evaluate(lags), dtype=float)
        slack = 1e-12 * max(float(np.abs(h).max()), 1e-300)
        expected = bool(np.all(np.diff(h) <= slack) and h.min() >= -slack)
        assert k.monotone_decreasing is expected

    @pytest.mark.parametrize("T", [1.0, 5.0, 20.0, 200.0])
    @pytest.mark.parametrize("family", sorted(_MONOTONE_FAMILIES))
    def test_monotone_between_declared_breaks(self, family, T):
        # continuous thinning trusts the declared breaks (H*, and |h| for a
        # nonincreasing kernel): on 4,001 lags from each break to the next, h
        # never rises or never falls, to rounding, and the derived flag
        # agrees with the same samples
        k = _MONOTONE_FAMILIES[family](T)
        breaks = sorted({min(b, T) for b in k.monotone_breaks})
        assert breaks[0] == 0.0 and breaks[-1] == T
        pieces = [
            np.asarray(k.evaluate(np.linspace(lo, hi, 4001)), dtype=float)
            for lo, hi in zip([1e-9 if k.singular_at_zero else 0.0, *breaks[1:-1]], breaks[1:])
        ]
        h = np.concatenate(pieces)
        slack = 1e-12 * max(float(np.abs(h).max()), 1e-300)
        for lo, piece in zip(breaks, pieces):
            steps = np.diff(piece)
            assert np.all(steps <= slack) or np.all(steps >= -slack), lo
        expected = bool(np.all(np.diff(h) <= slack) and h.min() >= -slack)
        assert k.monotone_decreasing is expected

    @pytest.mark.parametrize("T", [1.0, 5.0, 20.0])
    @pytest.mark.parametrize("family", sorted(_MONOTONE_FAMILIES))
    def test_every_extremum_is_a_declared_break(self, family, T):
        # a missing break makes sup_norm and tail_sup, and with them exact
        # continuous thinning, unsound: every local extremum of h on 100,001
        # lags (where the sign of the nonzero steps turns, at the start of a
        # flat run between them) lies within one lag step of a declared break
        k = _MONOTONE_FAMILIES[family](T)
        if not k.bounded:
            return
        lags = np.linspace(0.0, T, 100_001)
        h = np.asarray(k.evaluate(lags), dtype=float)
        steps = np.diff(h)
        moving = np.flatnonzero(np.abs(steps) > 1e-12 * max(float(np.abs(h).max()), 1e-300))
        sign = np.sign(steps[moving])
        extrema = lags[moving[:-1][sign[1:] != sign[:-1]] + 1]
        breaks = np.array(sorted(k.monotone_breaks))
        for t in extrema:  # one step, to the rounding of the lags
            assert np.abs(breaks - t).min() <= lags[1] * (1 + 1e-9), (t, breaks)

    def test_singular_family_declares_its_breaks(self):
        k = hp.inverse_sqrt_kernel(2.0, 0.1)
        assert k.monotone_breaks == (0.0, 2.0) and k.monotone_decreasing
        assert k.sup_norm is None and not k.bounded

    def test_false_without_breaks(self):
        k = hp.custom_kernel(lambda t: np.exp(-np.asarray(t, dtype=float)), 5.0)
        assert not k.monotone_decreasing


class TestMetadataAgainstQuadrature:
    def test_l1_closed_forms(self):
        cases = [
            (hp.exponential_kernel(0.604, 1.0, 5.0), lambda t: 0.604 * math.exp(-t), ()),
            (
                hp.erlang_kernel(0.5, 2, 2.0, 5.0),
                lambda t: 0.5 * t * t * math.exp(-2 * t),
                (),
            ),
            (
                hp.compact_kernel(0.5, 1.0, 5.0),
                lambda t: 0.5 * max(1 - t, 0.0),
                (1.0,),
            ),
            (
                hp.inverse_sqrt_kernel(2.0, 0.1),
                lambda t: 0.1 / math.sqrt(t),
                (),
            ),
            # no antiderivative: one quadrature, on first use
            (
                hp.cosine_decay_kernel(0.6, 5.0),
                lambda t: 0.6 * math.cos(t) / (1 + t * t),
                (math.pi / 2, 3 * math.pi / 2),
            ),
            (
                hp.tabulated_kernel([(0.0, 1.0), (1.0, -0.5), (5.0, 0.0)], 5.0),
                lambda t: float(np.interp(t, [0.0, 1.0, 5.0], [1.0, -0.5, 0.0])),
                (2.0 / 3.0, 1.0),
            ),
        ]
        for kernel, fn, pts in cases:
            oracle = quad_abs_l1(fn, kernel.horizon, points=pts)
            assert l1_norm(kernel) == pytest.approx(oracle, rel=1e-6)

    def test_sup_norms(self, library_kernels):
        # the table's largest |h| is at t = 9, past the horizon 5: on (0, 5]
        # the sup is |h(5)| = 0.3
        table = hp.tabulated_kernel([(0, 0.15), (1, 0.25), (2, -0.1), (4, 0), (9, 1.5)], 5.0)
        for k in (*library_kernels.values(), table):
            ts = np.linspace(1e-9, k.horizon, 200001)
            assert k.sup_norm == pytest.approx(
                float(np.abs(k.evaluate(ts)).max()), rel=1e-6
            )
        assert table.sup_norm == abs(float(table.evaluate(np.array([5.0]))[0]))

    def test_tabulated_kernel_interpolates(self):
        pts = [(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)]
        k = hp.tabulated_kernel(pts, 2.0)
        assert float(k.evaluate(np.array([0.5]))[0]) == pytest.approx(0.75)
        assert k.sup_norm == 1.0
