import inspect
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hawkpath as hp
from hawkpath import metrics
from hawkpath.errors import ParameterError
from hawkpath.metrics import (
    feasible_eps,
    fit_powerlaw,
    modulus_sparse,
    modulus_zero,
    skorokhod_distance,
    skorokhod_upper_bound,
    sobolev_distance,
    sobolev_norm,
    step_sub,
    uniform_distance,
)
from hawkpath.simulate import make_step_path, path_to_step, step_from_jumps

from _coupling import couple_step
from _oracles import (
    brute_uniform,
    dense_gaps_within,
    feasible_eps_grid,
    modulus_sparse_brute,
    modulus_sparse_quadratic,
    random_step_path,
    skorokhod_bisection,
    skorokhod_critical_bisection,
    skorokhod_lattice,
    sobolev_dense,
    sobolev_riemann,
)


def indicator_path(a, b, T, height=1.0):
    return make_step_path([0.0, a, b], [0.0, height, 0.0], T)


def indicator_norm_closed_form(a, b, T, eta):
    """Closed-form W^{eta,1} norm of the indicator of [a, b] in [0, T]."""
    x = 1.0 - eta
    bracket = 2 * (b - a) ** x - b**x + a**x + abs(T - b) ** x - abs(T - a) ** x
    return (b - a) + 2.0 / (eta * x) * bracket


def snap_to_grid(path, grid):
    """Round breakpoints onto multiples of T/grid, keeping the last value on ties."""
    dx = path.horizon / grid
    snapped = np.round(path.breakpoints / dx) * dx
    keep_b, keep_v = [0.0], [path.values[0]]
    for t, v in zip(snapped[1:], path.values[1:]):
        if t <= keep_b[-1]:
            keep_v[-1] = v
        else:
            keep_b.append(t)
            keep_v.append(v)
    return make_step_path(keep_b, keep_v, path.horizon)


@st.composite
def step_paths(draw, horizon=1.0, max_jumps=5):
    n = draw(st.integers(min_value=0, max_value=max_jumps))
    fracs = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=0.95),
            min_size=n, max_size=n, unique=True,
        )
    )
    # distinct fractions can round to one time once scaled (0.7141446125342862
    # and the next float do at horizon 3): keep each time once
    times = np.unique(np.array(fracs, dtype=float) * horizon)
    n = len(times)
    steps = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=3.0),
            min_size=n, max_size=n,
        )
    )
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    values = np.concatenate(([0.0], np.cumsum(np.array(steps) * np.array(signs))))
    return make_step_path(np.concatenate(([0.0], times)), values, horizon)


@st.composite
def grid_step_paths(draw, max_jumps=4):
    """Paths on [0, 1] jumping at multiples of 0.1, with integer values.

    Jump times k * 0.1 and their differences are decimal-looking floats that
    round (3 * 0.1 is 0.30000000000000004), which random floats never hit.
    """
    n = draw(st.integers(min_value=0, max_value=max_jumps))
    ks = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n, unique=True))
    steps = draw(st.lists(
        st.integers(min_value=-3, max_value=3).filter(bool), min_size=n, max_size=n
    ))
    times = [k * 0.1 for k in sorted(ks)]
    values = np.concatenate(([0.0], np.cumsum(np.array(steps, dtype=float))))
    return make_step_path(np.array([0.0, *times]), values, 1.0)


# pairs of random paths, or of grid-aligned ones
path_pairs = st.one_of(
    st.tuples(step_paths(max_jumps=4), step_paths(max_jumps=4)),
    st.tuples(grid_step_paths(), grid_step_paths()),
)


def monotone(path):
    """The path with every jump replaced by its absolute size."""
    return make_step_path(
        path.breakpoints,
        np.cumsum(np.abs(np.diff(path.values, prepend=0.0))),
        path.horizon,
    )


def critical_values(f, g):
    """0, value gaps, jump-time gaps and the jumps' distances to 0 and T."""
    T = f.horizon
    fa, ga = f.breakpoints[1:].tolist(), g.breakpoints[1:].tolist()
    crit = {0.0}
    crit.update(abs(x - y) for x in f.values.tolist() for y in g.values.tolist())
    crit.update(abs(a - c) for a in fa for c in ga)
    crit.update(fa + ga)
    crit.update(T - t for t in fa + ga)
    return sorted(crit)


def value_set_distance(f, g):
    """The Hausdorff distance between the value sets: the largest distance
    from a value of either path to the nearest value of the other."""
    fv, gv = f.values.tolist(), g.values.tolist()
    return max(
        max(min(abs(x - y) for y in gv) for x in fv),
        max(min(abs(x - y) for x in fv) for y in gv),
    )


def poisson_pair(seed, T=20.0, delta=0.5):
    """Risk paths of a rate-2.5 Poisson process and its discrete scheme (~50 jumps)."""
    cont, disc = couple_step(
        hp.zero_kernel(T), hp.constant_rate(2.5), hp.MarkModel("point-mass", (1.0,)),
        T, delta, seed=seed,
    )
    return path_to_step(cont, "risk"), path_to_step(disc, "risk")


def criterion8_pair(seed, delta, marks):
    """Risk paths of the criterion-8 process (exponential kernel (0.604, 1),
    relu baseline 1) and its discrete scheme at T = 20."""
    T = 20.0
    cont, disc = couple_step(
        hp.exponential_kernel(0.604, 1.0, T), hp.relu_affine(1.0), marks, T, delta, seed=seed
    )
    return path_to_step(cont, "risk"), path_to_step(disc, "risk")


def sweep_pair(seed, size=500, T=200.0, delta=0.25):
    """Unit-jump path and its rounding up onto the delta-grid, as in the bench sweep."""
    rng = np.random.default_rng((seed, size))
    times = np.sort(rng.uniform(0.0, T, size))
    rounded = np.minimum(np.ceil(times / delta) * delta, T)
    return step_from_jumps(times, np.ones(size), T), step_from_jumps(rounded, np.ones(size), T)


@pytest.fixture
def feasibility_calls(monkeypatch):
    """The eps of every ``feasible_eps`` call ``skorokhod_distance`` makes."""
    calls = []
    real = metrics.feasible_eps

    def counting(f, g, eps):
        calls.append(eps)
        return real(f, g, eps)

    monkeypatch.setattr(metrics, "feasible_eps", counting)
    return calls


class TestSobolevNorm:
    def test_zero_path(self):
        zero = make_step_path([0.0], [0.0], 1.0)
        assert sobolev_norm(zero, 0.5) == 0.0

    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.75])
    def test_indicator_closed_form(self, eta):
        path = indicator_path(0.25, 0.5, 1.0)
        expected = indicator_norm_closed_form(0.25, 0.5, 1.0, eta)
        assert sobolev_norm(path, eta) == pytest.approx(expected, abs=1e-10)

    def test_random_paths_vs_riemann_oracle(self, rng):
        for _ in range(5):
            path = random_step_path(rng, horizon=1.0, max_jumps=9, align=10_000)
            got = sobolev_norm(path, 0.25)
            oracle = sobolev_riemann(path, 0.25, grid=10_000)
            assert got == pytest.approx(oracle, rel=1e-3)

    def test_eta_domain(self):
        path = indicator_path(0.2, 0.4, 1.0)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ParameterError):
                sobolev_norm(path, bad)

    @settings(max_examples=30, deadline=None)
    @given(
        fg=st.sampled_from([1.0, 3.0]).flatmap(
            lambda horizon: st.tuples(step_paths(horizon), step_paths(horizon))
        ),
        eta=st.sampled_from([0.25, 0.5, 0.75]),
    )
    def test_triangle_inequality(self, fg, eta):
        f, g = fg
        zero = make_step_path([0.0], [0.0], f.horizon)
        nf = sobolev_distance(f, zero, eta)
        ng = sobolev_distance(g, zero, eta)
        nsum = sobolev_norm(
            make_step_path(
                np.union1d(f.breakpoints, g.breakpoints),
                f.value_at(np.union1d(f.breakpoints, g.breakpoints))
                + g.value_at(np.union1d(f.breakpoints, g.breakpoints)),
                f.horizon,
            ),
            eta,
        )
        assert nsum <= nf + ng + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(f=step_paths(), scale=st.floats(min_value=-4.0, max_value=4.0))
    def test_absolute_homogeneity(self, f, scale):
        scaled = make_step_path(f.breakpoints, scale * f.values, f.horizon)
        assert sobolev_norm(scaled, 0.5) == pytest.approx(
            abs(scale) * sobolev_norm(f, 0.5), rel=1e-12, abs=1e-12
        )


def long_random_path(seed, segments, T):
    """Signed step path of ``segments`` segments at uniform times on [0, T]."""
    rng = np.random.default_rng((seed, segments))
    times = np.sort(rng.uniform(0.0, T, segments - 1))
    return make_step_path(np.concatenate(([0.0], times)), rng.normal(size=segments), T)


class TestSobolevRowBlocks:
    # the largest path that sums in one block
    ONE_BLOCK = math.isqrt(metrics._SOBOLEV_BLOCK) - 1

    @pytest.mark.parametrize("eta", [0.1, 0.25, 0.5, 0.9])
    def test_one_block_up_to_the_budget(self, eta):
        # the same floats as the dense arrays on every path that fits, the
        # ~50-jump paths of the coupled pairs and the largest one included
        for segments in (2, 60, 150, self.ONE_BLOCK):
            f = long_random_path(0, segments, 20.0)
            assert sobolev_norm(f, eta) == sobolev_dense(f, eta)
        diff = step_sub(*poisson_pair(3))
        assert sobolev_norm(diff, eta) == sobolev_dense(diff, eta)

    @pytest.mark.parametrize("eta", [0.1, 0.25, 0.5, 0.75])
    def test_row_blocks_match_the_dense_oracle(self, eta):
        # ~1,500 segments: many blocks, the sums within 1e-12 of the dense one
        for seed in range(3):
            f = long_random_path(seed, 1500, 300.0)
            assert (len(f.values) + 1) ** 2 > metrics._SOBOLEV_BLOCK
            assert sobolev_norm(f, eta) == pytest.approx(sobolev_dense(f, eta), rel=1e-12, abs=0)

    # the norms on paths of several blocks, pinned bit for bit: a signed
    # path of 256 segments (two blocks), one of 700 and the 2,043-segment
    # difference of a 1,200-jump unit path and its rounding onto the 0.25-grid
    MULTI_BLOCK = {
        "signed-256": {
            0.1: "0x1.1ba61a915e3e9p+8", 0.25: "0x1.55a7d11bfb9a6p+8",
            0.5: "0x1.245f9bef4be43p+9", 0.9: "0x1.37be08f1b8f1ep+12",
        },
        "signed-700": {
            0.1: "0x1.60da1ed480afbp+10", 0.25: "0x1.71211c6d9ab51p+10",
            0.5: "0x1.023d3c9beab97p+11", 0.9: "0x1.a899d63d5b190p+13",
        },
        "rounded-2043": {
            0.1: "0x1.c29a080905837p+11", 0.25: "0x1.d3ff98377244cp+11",
            0.5: "0x1.598c1736080b1p+12", 0.9: "0x1.3fdfcd647a2a3p+15",
        },
    }

    @pytest.mark.parametrize("name", sorted(MULTI_BLOCK))
    def test_multi_block_sums_are_pinned(self, name):
        f = {
            "signed-256": lambda: long_random_path(4, 256, 20.0),
            "signed-700": lambda: long_random_path(5, 700, 100.0),
            "rounded-2043": lambda: step_sub(*sweep_pair(1, size=1200, T=400.0, delta=0.25)),
        }[name]()
        assert (len(f.values) + 1) ** 2 > metrics._SOBOLEV_BLOCK
        assert {eta: sobolev_norm(f, eta).hex() for eta in self.MULTI_BLOCK[name]} == (
            self.MULTI_BLOCK[name]
        )

    def test_long_pair_in_bounded_memory(self):
        # a 2,000-jump path and its rounding onto the 0.0125-grid differ on
        # about 4,000 segments: the dense arrays would take about 0.7 GB
        f, g = sweep_pair(0, size=2000, T=800.0, delta=0.0125)
        assert len(step_sub(f, g).values) > 3900
        tracemalloc.start()
        try:
            sobolev_distance(f, g, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestSobolevDistance:
    def test_identical_paths(self, rng):
        f = random_step_path(rng)
        assert sobolev_distance(f, f, 0.5) == 0.0

    def test_difference_with_zero_is_norm(self):
        f = make_step_path([0.0, 0.4], [0.0, 1.0], 1.0)
        zero = make_step_path([0.0], [0.0], 1.0)
        assert sobolev_distance(f, zero, 0.5) == sobolev_norm(f, 0.5)

    def test_coupled_pair_vs_riemann_oracle(self, exp_kernel, unit_marks):
        cont, disc = couple_step(
            exp_kernel, hp.relu_affine(1.0), unit_marks, 5.0, 0.25, seed=5
        )
        rc = snap_to_grid(path_to_step(cont, "risk"), 10_000)
        rd = path_to_step(disc, "risk")
        diff = step_sub(rc, rd)
        got = sobolev_norm(diff, 0.25)
        oracle = sobolev_riemann(diff, 0.25, grid=10_000)
        assert got == pytest.approx(oracle, rel=1e-3)

    def test_mismatched_horizons(self):
        f = make_step_path([0.0], [0.0], 1.0)
        g = make_step_path([0.0], [0.0], 2.0)
        with pytest.raises(ParameterError):
            sobolev_distance(f, g, 0.5)


class TestUniformDistance:
    def test_trivials(self, rng):
        f = random_step_path(rng)
        assert uniform_distance(f, f) == 0.0
        jump = make_step_path([0.0, 0.5], [0.0, 1.0], 1.0)
        zero = make_step_path([0.0], [0.0], 1.0)
        assert uniform_distance(jump, zero) == 1.0

    def test_matches_brute_grid(self, rng):
        for _ in range(20):
            f = random_step_path(rng, align=2000)
            g = random_step_path(rng, align=2000)
            assert uniform_distance(f, g) == pytest.approx(
                brute_uniform(f, g, 200001), abs=1e-12
            )


class TestSkorokhodDistance:
    def test_self_distance(self, rng):
        f = random_step_path(rng)
        assert skorokhod_distance(f, f) == 0.0

    def test_shifted_jump_beats_uniform(self):
        f = make_step_path([0.0, 0.5], [0.0, 1.0], 1.0)
        g = make_step_path([0.0, 0.6], [0.0, 1.0], 1.0)
        assert skorokhod_distance(f, g) == pytest.approx(0.1, abs=1e-6)
        # the infimum is the jump-time gap itself, as the float it computes to
        assert skorokhod_distance(f, g) == abs(0.6 - 0.5)

    @pytest.mark.parametrize(
        "a, c",
        [
            # at eps = c - a = 0.5 the rounded window edge c - eps lies above a
            (0.2, 0.7000000000000001),
            # at eps = 0.4 < a - c the rounded window edge c + eps reaches a
            (6 * 0.1, 2 * 0.1),
        ],
    )
    def test_infimum_compares_jump_time_differences(self, a, c):
        f = make_step_path([0.0, a], [0.0, 1.0], 1.0)
        g = make_step_path([0.0, c], [0.0, 1.0], 1.0)
        d = skorokhod_distance(f, g)
        assert d == abs(a - c)
        assert feasible_eps(f, g, d)
        assert not feasible_eps(f, g, np.nextafter(d, 0.0))

    def test_gap_between_adjacent_float_critical_values(self):
        # 0.5 - 0.2 = 0.3 and 0.8 - 0.5 are adjacent floats: the gap between
        # them has no midpoint, and 0.3 itself is infeasible
        f = make_step_path([0.0, 0.1, 0.5], [0.0, 1.0, 2.0], 1.0)
        g = make_step_path([0.0, 0.2, 0.8], [0.0, 1.0, 2.0], 1.0)
        d = skorokhod_distance(f, g)
        assert d == 0.8 - 0.5 == np.nextafter(0.5 - 0.2, 1.0)
        assert 0.5 - 0.2 in critical_values(f, g)
        assert feasible_eps(f, g, d)
        assert not feasible_eps(f, g, 0.5 - 0.2)

    @settings(max_examples=120, deadline=None)
    @given(pair=path_pairs)
    @example(pair=(
        make_step_path([0.0, 0.1, 0.5], [0.0, 1.0, 2.0], 1.0),
        make_step_path([0.0, 0.2, 0.8], [0.0, 1.0, 2.0], 1.0),
    ))
    def test_distance_is_feasible_or_the_infimum_of_a_feasible_gap(self, pair):
        # an infeasible distance must be a critical value with a float, and
        # so a feasible eps, strictly between it and the next critical value;
        # random pairs hit adjacent-float gaps about once in 20,000, hence
        # the explicit example
        f, g = pair
        d = skorokhod_distance(f, g)
        if not feasible_eps(f, g, d):
            crit = critical_values(f, g)
            assert d in crit
            assert np.nextafter(d, np.inf) < crit[crit.index(d) + 1]

    def test_mismatched_heights(self):
        f = make_step_path([0.0, 0.5], [0.0, 1.0], 1.0)
        g = make_step_path([0.0, 0.5], [0.0, 2.0], 1.0)
        assert skorokhod_distance(f, g) == pytest.approx(1.0, abs=1e-6)

    def test_crafted_pairs_against_lattice_oracle(self):
        pairs = [
            (indicator_path(0.5, 0.9, 1.0), indicator_path(0.55, 0.9, 1.0)),
            (indicator_path(0.4, 0.6, 1.0), indicator_path(0.45, 0.55, 1.0)),
            (
                make_step_path([0.0, 0.3, 0.7], [0.0, 2.0, 1.0], 1.0),
                make_step_path([0.0, 0.35, 0.75], [0.0, 2.0, 1.0], 1.0),
            ),
            (
                make_step_path([0.0, 0.2], [0.0, 1.0], 1.0),
                make_step_path([0.0, 0.8], [0.0, 1.0], 1.0),
            ),
        ]
        for f, g in pairs:
            exact = skorokhod_distance(f, g)
            oracle = skorokhod_lattice(f, g, n=2000)
            assert exact == pytest.approx(oracle, abs=1e-3)

    @settings(max_examples=25, deadline=None)
    @given(f=step_paths(max_jumps=4), g=step_paths(max_jumps=4))
    def test_symmetry_and_uniform_bound(self, f, g):
        d_fg = skorokhod_distance(f, g)
        d_gf = skorokhod_distance(g, f)
        assert abs(d_fg - d_gf) <= 1e-5
        assert d_fg <= uniform_distance(f, g) + 1e-12
        if not f.equals(g):
            assert d_fg > 0.0

    @settings(max_examples=60, deadline=None)
    @given(f=step_paths(max_jumps=4), g=step_paths(max_jumps=4))
    def test_critical_value_within_bisection_oracle(self, f, g):
        d = skorokhod_distance(f, g)
        bisection = skorokhod_bisection(f, g)
        assert bisection - 1e-9 * f.horizon <= d <= bisection
        assert d in critical_values(f, g)

    @settings(max_examples=120, deadline=None)
    @given(pair=path_pairs)
    def test_every_eps_above_the_distance_is_feasible(self, pair):
        f, g = pair
        d = skorokhod_distance(f, g)
        assert feasible_eps(f, g, np.nextafter(d, np.inf))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_coupled_poisson_pairs_within_bisection_oracle(self, seed):
        rc, rd = poisson_pair(seed)
        d = skorokhod_distance(rc, rd)
        bisection = skorokhod_bisection(rc, rd)
        assert bisection - 1e-9 * rc.horizon <= d <= bisection
        assert d in critical_values(rc, rd)
        assert d == skorokhod_critical_bisection(rc, rd)

    @settings(max_examples=150, deadline=None)
    @given(pair=path_pairs)
    @example(pair=(
        make_step_path([0.0, 0.1, 0.5], [0.0, 1.0, 2.0], 1.0),
        make_step_path([0.0, 0.2, 0.8], [0.0, 1.0, 2.0], 1.0),
    ))
    def test_equals_critical_bisection_oracle(self, pair):
        f, g = pair
        assert skorokhod_distance(f, g) == skorokhod_critical_bisection(f, g)

    @settings(max_examples=80, deadline=None)
    @given(
        f=step_paths(max_jumps=8),
        shifts=st.lists(st.floats(min_value=-0.1, max_value=0.1), min_size=8, max_size=8),
        scale=st.floats(min_value=0.9, max_value=1.1),
    )
    def test_equals_critical_bisection_oracle_on_perturbed_pairs(self, f, shifts, scale):
        # g moves f's signed float jumps in time and scales them slightly, so
        # the answer is often a time gap (about one pair in four), which the
        # value-gap bracket hands to its inner search
        times = np.sort(f.breakpoints[1:] + shifts[: f.jump_count]).clip(0.01, 0.99)
        assume(np.all(np.diff(times) > 0))
        g = make_step_path(np.concatenate(([0.0], times)), scale * f.values, f.horizon)
        assert skorokhod_distance(f, g) == skorokhod_critical_bisection(f, g)

    def test_coupled_pairs_proved_by_one_call_at_the_value_set_bound(self, feasibility_calls):
        # coupled paths: the answer is the value-set distance, proved by one
        # call at it; the bench sweep's 500-jump pairs too, where a plain
        # search over the critical values needs 12 to 14 calls
        pairs = [poisson_pair(seed) for seed in range(20)]
        pairs += [sweep_pair(seed) for seed in (0, 1, 7, 200)]
        for k, (f, g) in enumerate(pairs):
            feasibility_calls.clear()
            d = skorokhod_distance(f, g)
            assert feasibility_calls == [d] == [value_set_distance(f, g)], k

    @pytest.mark.parametrize("marks, delta, seed", [
        *(("unit", 0.1, seed) for seed in (27, 69, 73, 86)),
        *(("exp", 0.5, seed) for seed in (17, 73)),
        *(("exp", 0.1, seed) for seed in (27, 42, 73)),
    ])
    def test_fallback_is_one_bisection_over_the_critical_values(
        self, feasibility_calls, marks, delta, seed
    ):
        # the criterion-8 pairs (seeds 0-99, unit and Exp(1) marks, delta 0.5
        # and 0.1) on which the value-set distance L is infeasible: past the
        # call at L, one bisection over the critical values in [L, u], with
        # u known to pass
        model = {"unit": hp.MarkModel(), "exp": hp.MarkModel("exponential", (1.0,))}[marks]
        f, g = criterion8_pair(seed, delta, model)
        low, u = value_set_distance(f, g), uniform_distance(f, g)
        crit = [c for c in critical_values(f, g) if low <= c <= u]
        d = skorokhod_distance(f, g)
        assert feasibility_calls[0] == low and d > low
        assert len(feasibility_calls) <= 1 + math.ceil(math.log2(len(crit)))


def ulp_neighbours(value, k):
    """value and the k floats on either side of it."""
    out = [value]
    lo = hi = value
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


@st.composite
def gap_cases(draw):
    """Ascending x and y (ties allowed, as in sorted path values) and a bound
    u: decimal grid points, signed floats, and columns a few ulps from some
    x_i - u or x_i + u, where the rounding of the differences decides which
    gaps are <= u."""
    number = st.one_of(
        st.integers(-200, 200).map(lambda k: k / 10),
        st.floats(-20.0, 20.0, allow_subnormal=False),
    )
    x = draw(st.lists(number, min_size=1, max_size=12))
    y = draw(st.lists(number, max_size=12))
    u = abs(draw(number))
    for xi in draw(st.lists(st.sampled_from(x), max_size=3)):
        y += ulp_neighbours(xi + draw(st.sampled_from((-u, u))), draw(st.integers(0, 6)))
    return np.sort(x), np.sort(y), u


# the floats around x - u lie closer together than an ulp of u: all 13 gaps
# are <= u, the first six columns below searchsorted(y, x - u)
_X, _U = 0.8132702392002724, 0.777793592932154
ULP_CLUSTER = (np.array([_X]), np.sort(ulp_neighbours(_X - _U, 6)), _U)


class TestGapsWithin:
    @settings(max_examples=300, deadline=None)
    @given(case=gap_cases(), rows=st.integers(1, 5))
    @example(case=ULP_CLUSTER, rows=1)
    def test_equals_dense_oracle(self, case, rows):
        x, y, u = case
        with mock.patch.object(metrics, "_GAP_ROWS", rows):
            gaps = metrics._gaps_within(x, y, u)
        assert np.array_equal(np.sort(gaps), np.sort(dense_gaps_within(x, y, u)))

    def test_1000_jump_pair_pinned_to_dense_oracle(self):
        # signed marks, so the value gaps are many and unordered; the rows
        # span several blocks of the default width
        rng = np.random.default_rng(1000)
        T = 400.0
        times = np.sort(rng.uniform(0.0, T, 1000))
        marks = rng.normal(0.0, 1.0, 1000)
        f = step_from_jumps(times, marks, T)
        g = step_from_jumps(np.minimum(np.ceil(times / 0.25) * 0.25, T), marks, T)
        assert f.jump_count == 1000 and g.jump_count > metrics._GAP_ROWS
        u = uniform_distance(f, g)
        for x, y in (
            (f.breakpoints[1:], g.breakpoints[1:]),
            (np.sort(f.values), np.sort(g.values)),
        ):
            gaps = metrics._gaps_within(x, y, u)
            assert np.array_equal(np.sort(gaps), np.sort(dense_gaps_within(x, y, u)))
        assert skorokhod_distance(f, g) == skorokhod_critical_bisection(f, g)

    def test_5000_jump_pair_in_bounded_memory(self):
        # the dense candidate tables of this pair peak near 600 MB
        f, g = sweep_pair(0, size=5000, T=2000.0)
        tracemalloc.start()
        try:
            skorokhod_distance(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestFeasibleEps:
    def test_uniform_eps_always_feasible(self, rng):
        for _ in range(10):
            f = random_step_path(rng)
            g = random_step_path(rng)
            assert feasible_eps(f, g, uniform_distance(f, g))

    def test_shifted_jump_thresholds(self):
        f = make_step_path([0.0, 0.5], [0.0, 1.0], 1.0)
        g = make_step_path([0.0, 0.6], [0.0, 1.0], 1.0)
        assert not feasible_eps(f, g, 0.05)
        assert feasible_eps(f, g, 0.1)

    @settings(max_examples=25, deadline=None)
    @given(
        f=step_paths(max_jumps=4),
        g=step_paths(max_jumps=4),
        fracs=st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    )
    def test_monotone_in_eps(self, f, g, fracs):
        u = uniform_distance(f, g)
        lo, hi = sorted(fracs)
        if feasible_eps(f, g, lo * u):
            assert feasible_eps(f, g, hi * u)

    @settings(max_examples=80, deadline=None)
    @given(
        pair=path_pairs,
        fracs=st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1, max_size=4),
    )
    def test_agrees_with_grid_oracle(self, pair, fracs):
        f, g = pair
        crit = critical_values(f, g)
        mids = [0.5 * (a + b) for a, b in zip(crit[:-1], crit[1:])]
        u = uniform_distance(f, g)
        for eps in crit + mids + [x * u for x in fracs]:
            assert feasible_eps(f, g, eps) == feasible_eps_grid(f, g, eps), eps

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), frac=st.floats(min_value=0.0, max_value=1.0))
    def test_agrees_with_grid_oracle_on_coupled_pairs(self, seed, frac):
        rc, rd = poisson_pair(seed)
        d = skorokhod_distance(rc, rd)
        for eps in (d, np.nextafter(d, np.inf), frac * uniform_distance(rc, rd)):
            assert feasible_eps(rc, rd, eps) == feasible_eps_grid(rc, rd, eps), eps


def refuted_proofs(f, g, probes):
    """The eps among ``probes`` that ``feasible_eps``'s chronological path
    proves and its sweep refutes, each search run with the other stubbed out."""
    with mock.patch.object(metrics, "_sweep", lambda *args: False):
        proved = [eps for eps in probes if feasible_eps(f, g, eps)]
    with mock.patch.object(metrics, "_chronological_path", lambda *args: False):
        return [eps for eps in proved if not feasible_eps(f, g, eps)]


def probes_around(crit):
    """Each of the ascending critical values, the floats next to it and the
    midpoints between consecutive ones."""
    probes = [0.5 * (a + b) for a, b in zip(crit[:-1], crit[1:])]
    for c in crit:
        probes += [np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)]
    return [eps for eps in probes if eps >= 0]


@pytest.fixture
def refuting_sweep(monkeypatch):
    """``feasible_eps`` whose sweep fails the test on any eps it finds feasible."""
    real = metrics._sweep

    def refuting(moves, m, n):
        assert not real(moves, m, n), "a feasible eps reached the sweep"
        return False

    monkeypatch.setattr(metrics, "_sweep", refuting)


@st.composite
def shared_time_pairs(draw):
    """f and a g that jumps at some of f's times (and maybe a few of its own),
    its values off f's by whole units: the tied moves of the DP."""
    f = draw(st.one_of(step_paths(max_jumps=5), grid_step_paths(max_jumps=5)))
    times = f.breakpoints[1:].tolist()
    kept = [t for t in times if draw(st.booleans())]
    extra = draw(st.lists(st.integers(1, 9).map(lambda k: k * 0.1), max_size=2))
    bp = np.unique(np.array([0.0, *kept, *extra]))
    shifts = draw(st.lists(st.integers(-1, 1), min_size=len(bp), max_size=len(bp)))
    return f, make_step_path(bp, f.value_at(bp) + np.array(shifts, dtype=float), f.horizon)


@st.composite
def coupled_pairs(draw):
    """Count or risk paths of a rate-2.5 Poisson process with Exp(1) marks
    (~50 jumps) and of its discrete scheme."""
    seed = draw(st.integers(0, 2**32 - 1))
    field = draw(st.sampled_from(["count", "risk"]))
    delta = draw(st.sampled_from([0.5, 0.1]))
    cont, disc = couple_step(
        hp.zero_kernel(20.0), hp.constant_rate(2.5), hp.MarkModel("exponential", (1.0,)),
        20.0, delta, seed=seed,
    )
    return path_to_step(cont, field), path_to_step(disc, field)


@st.composite
def end_jump_pairs(draw):
    """Pairs whose last jump sits at T, on one path or on both: a last
    segment of zero length, seen only by the check at T."""
    f, g = draw(path_pairs)
    step = st.integers(-3, 3).filter(bool).map(float)

    def jump_at_end(p):
        return make_step_path(
            np.append(p.breakpoints, p.horizon),
            np.append(p.values, p.values[-1] + draw(step)),
            p.horizon,
        )

    return jump_at_end(f), jump_at_end(g) if draw(st.booleans()) else g


class TestValueSetBound:
    @settings(max_examples=300, deadline=None)
    @given(pair=st.one_of(path_pairs, shared_time_pairs(), end_jump_pairs()))
    @example(pair=(
        make_step_path([0.0, 0.5, 1.0], [0.0, 1.0, 3.0], 1.0),
        make_step_path([0.0, 0.5], [0.0, 1.0], 1.0),
    ))
    def test_no_eps_below_the_value_set_distance_is_feasible(self, pair):
        # every value of either path must meet one of the other within eps
        # (the zero-length last segment of a jump at T through the check at
        # T), so the distance is never below the bound; the search starts
        # there and stops there when the bound is feasible
        f, g = pair
        bound = value_set_distance(f, g)
        assert bound <= skorokhod_critical_bisection(f, g)
        assert bound == 0.0 or not feasible_eps(f, g, np.nextafter(bound, -np.inf))
        calls = []
        with mock.patch.object(
            metrics, "feasible_eps", lambda f, g, eps: calls.append(eps) or feasible_eps(f, g, eps)
        ):
            d = skorokhod_distance(f, g)
        assert calls[0] == bound
        if feasible_eps(f, g, bound):
            assert d == bound and calls == [bound]


class TestChronologicalPath:
    @settings(max_examples=400, deadline=None)
    @given(pair=st.one_of(path_pairs, shared_time_pairs()))
    @example(pair=(
        make_step_path([0.0, 0.1, 0.5], [0.0, 1.0, 2.0], 1.0),
        make_step_path([0.0, 0.2, 0.8], [0.0, 1.0, 2.0], 1.0),
    ))
    def test_path_never_proves_what_the_sweep_refutes(self, pair):
        # every critical value, the floats next to it and the midpoints
        f, g = pair
        assert not refuted_proofs(f, g, probes_around(critical_values(f, g)))

    @settings(max_examples=10, deadline=None)
    @given(pair=coupled_pairs())
    def test_path_never_proves_what_the_sweep_refutes_on_coupled_pairs(self, pair):
        # the four critical values on either side of the distance
        f, g = pair
        crit = critical_values(f, g)
        k = crit.index(skorokhod_distance(f, g))
        assert not refuted_proofs(f, g, probes_around(crit[max(k - 4, 0) : k + 5]))

    def test_no_feasible_probe_sweeps_on_coupled_pairs(self, refuting_sweep):
        for seed in range(20):
            skorokhod_distance(*poisson_pair(seed))

    @pytest.mark.parametrize("delta, distance", [(0.5, 124.0), (0.0125, 6.0)])
    def test_long_horizon_distance_without_feasible_sweeps(
        self, refuting_sweep, delta, distance
    ):
        # the sweep of the feasible probe visits 60,950 states at delta = 0.5
        # and 7,871 at 0.0125, the path m + n = 802 and 1,067
        assert skorokhod_distance(*long_horizon_pair(delta)) == distance

    def test_long_horizon_distance_in_bounded_memory(self):
        # one feasible call at the value-set distance and no critical-value
        # table: the table of the search over [0, u] peaked at 6.1 MB here
        rc, rd = long_horizon_pair(0.5)
        tracemalloc.start()
        try:
            skorokhod_distance(rc, rd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def long_horizon_pair(delta):
    """Risk paths of seed 2 at T = 200 on the criterion-8 kernel, unit marks:
    542 continuous jumps, and 260 (delta = 0.5) or 525 (delta = 0.0125)
    discrete ones."""
    T = 200.0
    kernel = hp.exponential_kernel(0.604, 1.0, T)
    rate, model = hp.relu_affine(1.0), hp.MarkModel()
    atoms = hp.sample_atoms(T, hp.default_ceiling(rate, kernel, model), model, 2)
    cont = hp.simulate_continuous(kernel, rate, model, T, atoms)
    [disc] = hp.simulate_ladder(
        [hp.grid_coefficients(kernel, delta, T)], rate, model, atoms, guess=cont.times
    )
    return path_to_step(cont, "risk"), path_to_step(disc, "risk")


def walk_steps(path, delta):
    """modulus_sparse(path, delta) and the number of left ends its walk visits."""
    code = modulus_sparse.__code__
    lines, first = inspect.getsourcelines(modulus_sparse)
    target = first + next(i for i, line in enumerate(lines) if line.strip() == "osc = hi - lo")
    steps = 0

    def local(frame, event, arg):
        nonlocal steps
        if event == "line" and frame.f_lineno == target:
            steps += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        value = modulus_sparse(path, delta)
    finally:
        sys.settrace(previous)
    return value, steps


def best_partition_on(path, delta, points):
    """Least worst cell oscillation over the partitions of [0, T] whose
    points are taken from the sorted ``points`` (0 and T among them), with
    every gap > delta: a direct DP over right ends."""
    pos = np.asarray(points, dtype=float)
    first = np.searchsorted(path.breakpoints, pos, side="right") - 1
    before = np.searchsorted(path.breakpoints, pos, side="left") - 1
    best = [0.0] + [math.inf] * (len(pos) - 1)
    for k in range(1, len(pos)):
        for c in range(k):
            if pos[k] - pos[c] > delta:
                covered = path.values[first[c] : before[k] + 1]
                osc = float(covered.max() - covered.min())
                best[k] = min(best[k], max(best[c], osc))
    return best[-1]


class TestModulusSparse:
    def test_constant_path(self):
        c = make_step_path([0.0], [3.0], 1.0)
        assert modulus_sparse(c, 0.2) == 0.0

    def test_single_jump_separable(self):
        f = make_step_path([0.0, 0.5], [0.0, 1.0], 1.0)
        assert modulus_sparse(f, 0.2) == 0.0

    def test_two_close_jumps_not_separable(self):
        f = make_step_path([0.0, 0.5, 0.55], [0.0, 1.0, 2.0], 1.0)
        assert modulus_sparse(f, 0.2) == 1.0

    def test_delta_domain(self):
        f = make_step_path([0.0, 0.5], [0.0, 1.0], 1.0)
        with pytest.raises(ParameterError):
            modulus_sparse(f, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(f=step_paths(max_jumps=5), idx=st.integers(0, 10))
    def test_removing_a_jump_never_increases_monotone(self, f, idx):
        # holds for the monotone count/risk paths this metric serves; a
        # removed down-jump in a signed path can merge two up-jumps into one
        # larger, unisolatable one
        if f.jump_count < 2:
            return
        mono = monotone(f)
        drop = 1 + idx % mono.jump_count
        inc = mono.values[drop] - mono.values[drop - 1]
        values = mono.values.copy()
        values[drop:] -= inc
        keep = [i for i in range(len(mono.breakpoints)) if i != drop]
        thinner = make_step_path(mono.breakpoints[keep], values[keep], mono.horizon)
        assert modulus_sparse(thinner, 0.15) <= modulus_sparse(mono, 0.15) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(f=step_paths(max_jumps=5))
    def test_monotone_in_delta(self, f):
        assert modulus_sparse(f, 0.1) <= modulus_sparse(f, 0.2) + 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        f=step_paths(max_jumps=40),
        ends=st.tuples(st.integers(0, 41), st.integers(0, 41)),
        make_monotone=st.booleans(),
    )
    def test_equals_quadratic_oracle(self, f, ends, make_monotone):
        if make_monotone:
            f = monotone(f)
        # deltas equal to a gap between two jumps (or endpoints) probe the
        # strict inequality of the cell widths
        points = np.append(f.breakpoints, f.horizon)
        a, b = sorted(points[i % len(points)] for i in ends)
        for delta in (b - a, 0.5 * (b - a), 0.1):
            if 0.0 < delta < f.horizon:
                assert modulus_sparse(f, delta) == modulus_sparse_quadratic(f, delta)

    def test_equals_quadratic_oracle_on_integer_signed_paths(self, rng):
        # integer values make ties between a cell's oscillation and the best
        # cell so far common, the boundary of the walk's early stop; the
        # larger deltas leave many candidates in (0, delta] out of the walk
        for _ in range(40):
            f = random_step_path(rng, horizon=2.0, max_jumps=40, integer_values=True)
            gap = float(np.diff(np.append(f.breakpoints, f.horizon)).min())
            for delta in (gap, f.horizon / 10, 0.1, 0.5, 1.0):
                assert modulus_sparse(f, delta) == modulus_sparse_quadratic(f, delta)

    def test_equals_quadratic_oracle_on_coupled_paths(self):
        for seed in range(5):
            for path in poisson_pair(seed):
                for delta in (0.25, 0.5, float(np.diff(path.breakpoints).min())):
                    assert modulus_sparse(path, delta) == modulus_sparse_quadratic(path, delta)

    # unit jumps where the candidate set (jumps and midpoints) misses the
    # partition {0, 0.5, 1}: 0.5 sits in the flat stretch (0.373, 0.919),
    # whose midpoint 0.646 leaves too short a last cell
    MISSED = make_step_path([0.0, 0.025, 0.134, 0.156, 0.373, 0.919], np.arange(6.0), 1.0)

    def test_brute_force_reaches_a_partition_the_candidates_miss(self):
        # modulus_sparse returns 5.0 here, an upper bound, not the infimum
        assert modulus_sparse_brute(self.MISSED, 0.383) == 4.0
        assert best_partition_on(self.MISSED, 0.383, np.linspace(0.0, 1.0, 801)) == 4.0
        assert modulus_sparse(self.MISSED, 0.383) >= 4.0

    @settings(max_examples=120, deadline=None)
    @given(
        f=step_paths(max_jumps=5),
        make_monotone=st.booleans(),
        ends=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        delta=st.floats(min_value=0.01, max_value=0.7),
    )
    @example(f=MISSED, make_monotone=False, ends=(0, 0), delta=0.383)
    def test_never_below_the_exact_brute_force(self, f, make_monotone, ends, delta):
        # the candidate set gives an upper bound: never below the infimum
        # over every partition, and the brute force is no more than the best
        # partition of a grid holding the jumps
        if make_monotone:
            f = monotone(f)
        points = np.append(f.breakpoints, f.horizon)
        a, b = sorted(points[i % len(points)] for i in ends)
        for d in (delta, b - a):
            if 0.0 < d < f.horizon:
                exact = modulus_sparse_brute(f, d)
                assert modulus_sparse(f, d) >= exact
                grid = np.union1d(np.linspace(0.0, f.horizon, 51), f.breakpoints)
                assert exact <= best_partition_on(f, d, grid)

    def test_walk_steps_on_a_long_path(self):
        # 1,000 unit jumps on [0, 200] at delta = T / 10: no partition has a
        # point in (0, delta], and leaving those candidates out of the walk
        # saves a third of its steps (54,422 with them); 118 is the value of
        # modulus_sparse_quadratic on this path, which takes seconds
        rng = np.random.default_rng((200, 1000))
        f = step_from_jumps(np.sort(rng.uniform(0.0, 200.0, 1000)), np.ones(1000), 200.0)
        assert walk_steps(f, 20.0) == (118.0, 35748)


def clearing_delta(path, fraction):
    """A delta below the least gap between 0, the path's jumps and T, where
    ``modulus_zero`` holds: ``fraction`` of that gap, strictly inside it."""
    gap = float(np.diff(np.append(path.breakpoints, path.horizon)).min())
    return min(fraction * gap, float(np.nextafter(gap, 0.0)))


class TestModulusZero:
    @settings(max_examples=120, deadline=None)
    @given(
        f=step_paths(max_jumps=5),
        make_monotone=st.booleans(),
        fraction=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_equals_the_brute_force_where_the_jumps_clear_delta(self, f, make_monotone, fraction):
        if make_monotone:
            f = monotone(f)
        delta = clearing_delta(f, fraction)
        assert modulus_zero(f.breakpoints[1:], f.horizon, delta)
        # the closed form's +0.0 is the walk's bits and the exact infimum
        value = modulus_sparse(f, delta)
        assert value == modulus_sparse_brute(f, delta) == 0.0
        assert math.copysign(1.0, value) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(f=step_paths(max_jumps=40), fraction=st.floats(min_value=0.05, max_value=1.0))
    def test_equals_the_quadratic_oracle_on_longer_paths(self, f, fraction):
        delta = clearing_delta(f, fraction)
        assert modulus_zero(f.breakpoints[1:], f.horizon, delta)
        value = modulus_sparse(f, delta)
        assert value == modulus_sparse_quadratic(f, delta) == 0.0
        assert math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("jumps, delta, clear, value", [
        ([0.25, 0.5, 0.75], 0.25, False, 1.0),                  # gaps of exactly delta
        ([0.25, 0.5, 0.75], float(np.nextafter(0.25, 0.0)), True, 0.0),
        ([0.25, 0.75], 0.25, False, 1.0),                       # first jump at delta
        ([0.375, 0.75], 0.25, False, 1.0),                      # T - last jump is delta
        ([0.375, 0.75], 0.125, True, 0.0),
        ([0.5, 1.0], 0.25, False, 0.0),     # a jump at T, which no cell holds
        ([], 0.5, True, 0.0),                                   # a constant path
    ])
    def test_a_gap_of_exactly_delta_does_not_clear(self, jumps, delta, clear, value):
        # on [0, 1], the gaps are exact binary fractions: equal to delta as floats
        f = step_from_jumps(jumps, np.ones(len(jumps)), 1.0)
        assert modulus_zero(np.array(jumps), 1.0, delta) is clear
        assert modulus_sparse(f, delta) == value
        assert modulus_sparse_brute(f, delta) == modulus_sparse_quadratic(f, delta) == value

    @pytest.mark.parametrize("times, marks", [
        ([0.25, 0.5, 0.5, 0.75], [1.0, 1.0, 2.0, 1.0]),         # a tie
        ([0.25, 0.3, 0.75], [1.0, 0.0, 1.0]),                   # a zero mark
    ])
    def test_raw_times_with_a_tie_or_a_zero_mark_fail_yet_the_path_reads_zero(self, times, marks):
        # the raw times hold a gap the canonical path does not: the raw test
        # fails, and the walk (or the path's own test) still reads 0.0
        f = step_from_jumps(times, marks, 1.0)
        assert not modulus_zero(np.array(times), 1.0, 0.2)
        assert modulus_zero(f.breakpoints[1:], 1.0, 0.2)
        assert modulus_sparse(f, 0.2) == modulus_sparse_brute(f, 0.2) == 0.0

    @settings(max_examples=120, deadline=None)
    @given(
        jumps=st.lists(st.integers(1, 40), max_size=8),
        zeros=st.lists(st.booleans(), min_size=8, max_size=8),
        delta=st.sampled_from([0.01, 0.025, 0.05, 0.1]),
    )
    def test_raw_times_that_clear_delta_clear_the_canonical_path(self, jumps, zeros, delta):
        # ties and zero marks only drop breakpoints, so a raw pass is a pass
        times = np.sort(np.array(jumps, dtype=float)) / 40.0
        marks = np.where(zeros[: len(times)], 0.0, 1.0)
        f = step_from_jumps(times, marks, 1.0)
        if modulus_zero(times, 1.0, delta):
            assert modulus_zero(f.breakpoints[1:], 1.0, delta)
            assert modulus_sparse(f, delta) == modulus_sparse_quadratic(f, delta) == 0.0


class TestSkorokhodUpperBound:
    def test_identical_constant_paths(self):
        vals = np.ones(11)
        assert skorokhod_upper_bound(vals, vals, 0.0, 0.5) == 0.5

    def test_off_grid_jump_gives_delta_plus_modulus(self):
        f = make_step_path([0.0, 0.33], [0.0, 1.0], 1.0)
        delta = 0.25
        grid = delta * np.arange(5)
        with_self = skorokhod_upper_bound(
            f.value_at(grid), f.value_at(grid), modulus_sparse(f, delta), delta
        )
        assert with_self == pytest.approx(delta + modulus_sparse(f, delta))

    def test_dominates_exact_distance_on_coupled_pairs(self, exp_kernel, unit_marks):
        jr = hp.relu_affine(1.0)
        delta, M = 0.25, 20
        for s in range(100):
            cont, disc = couple_step(exp_kernel, jr, unit_marks, 5.0, delta, seed=(3, s))
            rc = path_to_step(cont, "risk")
            rd = path_to_step(disc, "risk")
            exact = skorokhod_distance(rc, rd)
            grid = delta * np.arange(M + 1)
            bound = skorokhod_upper_bound(
                rc.value_at(grid), disc.risk, modulus_sparse(rc, delta), delta
            )
            assert exact <= bound + 1e-9


class TestFitPowerlaw:
    def test_exact_recovery(self):
        pts = [(d, 2.0 * d**3) for d in (0.5, 0.25, 0.1, 0.05)]
        fit = fit_powerlaw(pts)
        assert fit.coefficient == pytest.approx(2.0, abs=1e-12)
        assert fit.exponent == pytest.approx(3.0, abs=1e-12)
        assert fit.residual_se < 1e-12

    def test_reported_empirical_fit_shape(self):
        # the reference count-error fit: coefficient 8.4, exponent 1.1
        pts = [(d, 8.4 * d**1.1) for d in (0.5, 0.25, 0.1, 0.05, 0.025, 0.0125)]
        fit = fit_powerlaw(pts)
        assert fit.coefficient == pytest.approx(8.4, rel=1e-9)
        assert fit.exponent == pytest.approx(1.1, abs=1e-9)

    def test_noisy_slope_window(self, rng):
        deltas = np.array([0.5, 0.25, 0.1, 0.05, 0.025, 0.0125])
        pts = [(d, d * (1 + 0.01 * rng.standard_normal())) for d in deltas]
        fit = fit_powerlaw(pts)
        assert 0.98 <= fit.exponent <= 1.02

    def test_log_domain_errors(self):
        with pytest.raises(ParameterError):
            fit_powerlaw([(0.5, 1.0), (0.25, -1.0), (0.1, 0.5)])
        with pytest.raises(ParameterError):
            fit_powerlaw([(0.5, 1.0), (0.25, 0.5)])
