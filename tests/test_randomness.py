import math

import numpy as np
import pytest
from scipy import stats

import hawkpath as hp
from hawkpath.errors import ParameterError, RunawayIntensityError
from hawkpath import randomness
from hawkpath.randomness import mark_moments


def _poisson_chisquare_pvalue(counts, lam):
    """One-sample chi-square of integer counts against Poisson(lam)."""
    counts = np.asarray(counts)
    n = len(counts)
    lo = max(0, int(lam - 4 * math.sqrt(lam)))
    hi = int(lam + 4 * math.sqrt(lam))
    edges = list(range(lo, hi + 1))
    observed = []
    expected = []
    # left tail, interior integers, right tail
    observed.append(int((counts < lo).sum()))
    expected.append(n * stats.poisson.cdf(lo - 1, lam))
    for k in edges:
        observed.append(int((counts == k).sum()))
        expected.append(n * stats.poisson.pmf(k, lam))
    observed.append(int((counts > hi).sum()))
    expected.append(n * stats.poisson.sf(hi, lam))
    observed = np.array(observed, dtype=float)
    expected = np.array(expected, dtype=float)
    keep = expected >= 5.0
    observed = np.append(observed[keep], observed[~keep].sum())
    expected = np.append(expected[keep], expected[~keep].sum())
    stat = ((observed - expected) ** 2 / expected).sum()
    return stats.chi2.sf(stat, len(observed) - 1)


def _two_sample_chisquare_pvalue(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    lo = int(min(a.min(), b.min()))
    hi = int(max(a.max(), b.max()))
    bins = np.arange(lo, hi + 2)
    oa, _ = np.histogram(a, bins)
    ob, _ = np.histogram(b, bins)
    keep = (oa + ob) >= 10
    oa = np.append(oa[keep], oa[~keep].sum()).astype(float)
    ob = np.append(ob[keep], ob[~keep].sum()).astype(float)
    n1, n2 = oa.sum(), ob.sum()
    tot = oa + ob
    ea = tot * n1 / (n1 + n2)
    eb = tot * n2 / (n1 + n2)
    stat = ((oa - ea) ** 2 / ea + (ob - eb) ** 2 / eb).sum()
    return stats.chi2.sf(stat, len(oa) - 1)


class TestSampleAtoms:
    def test_empty_draw_is_valid(self, unit_marks):
        # tiny window: the count is almost surely zero
        atoms = hp.sample_atoms(1e-6, 1e-6, unit_marks, 3)
        tau, theta, y, strip = atoms.merged()
        assert len(tau) == 0
        assert atoms.ceiling == 1e-6

    def test_mean_count_confidence_interval(self, unit_marks):
        lam = 30.0
        counts = [
            len(hp.sample_atoms(10.0, 3.0, unit_marks, s).merged()[0])
            for s in range(10_000)
        ]
        assert np.mean(counts) == pytest.approx(lam, abs=3 * math.sqrt(lam) / 100)

    def test_determinism(self, unit_marks):
        a = hp.sample_atoms(10.0, 3.0, unit_marks, 77)
        b = hp.sample_atoms(10.0, 3.0, unit_marks, 77)
        for x, y in zip(a.merged(), b.merged()):
            assert np.array_equal(x, y)

    def test_atoms_in_window(self, unit_marks):
        atoms = hp.sample_atoms(10.0, 3.0, unit_marks, 5)
        tau, theta, _, _ = atoms.merged()
        assert np.all(tau > 0) and np.all(tau <= 10.0)
        assert np.all(theta > 0) and np.all(theta <= 3.0)
        assert np.all(np.diff(tau) >= 0)

    def test_preconditions(self, unit_marks):
        with pytest.raises(ParameterError):
            hp.sample_atoms(0.0, 1.0, unit_marks, 1)
        with pytest.raises(ParameterError):
            hp.sample_atoms(1.0, 0.0, unit_marks, 1)
        with pytest.raises(ParameterError, match="atom budget"):
            hp.sample_atoms(2.0, 1e12, unit_marks, 1)


class TestExtendCeiling:
    def test_no_op_extension_rejected(self, unit_marks):
        atoms = hp.sample_atoms(10.0, 3.0, unit_marks, 1)
        with pytest.raises(ParameterError):
            hp.extend_ceiling(atoms, 3.0)

    def test_existing_strips_untouched(self, unit_marks):
        atoms = hp.sample_atoms(10.0, 3.0, unit_marks, 9)
        before = [s.tau.copy() for s in atoms.strips]
        hp.extend_ceiling(atoms, 5.0)
        assert atoms.ceiling == 5.0
        for old, strip in zip(before, atoms.strips):
            assert np.array_equal(old, strip.tau)

    def test_new_strip_mean_count(self, unit_marks):
        counts = []
        for s in range(10_000):
            atoms = hp.sample_atoms(10.0, 3.0, unit_marks, s)
            hp.extend_ceiling(atoms, 5.0)
            counts.append(len(atoms.strips[1].tau))
        assert np.mean(counts) == pytest.approx(20.0, abs=3 * math.sqrt(20.0) / 100)

    def test_union_matches_one_shot_distribution(self, unit_marks):
        union_counts = []
        oneshot_counts = []
        for s in range(10_000):
            atoms = hp.sample_atoms(10.0, 3.0, unit_marks, s)
            hp.extend_ceiling(atoms, 5.0)
            union_counts.append(len(atoms.merged()[0]))
            oneshot_counts.append(
                len(hp.sample_atoms(10.0, 5.0, unit_marks, (s, 123)).merged()[0])
            )
        assert _two_sample_chisquare_pvalue(union_counts, oneshot_counts) > 0.01

    def test_ladder_is_pure_function_of_seed_and_extensions(self, unit_marks):
        def build():
            atoms = hp.sample_atoms(10.0, 3.0, unit_marks, 55)
            hp.extend_ceiling(atoms, 6.0)
            hp.extend_ceiling(atoms, 12.0)
            return atoms

        a, b = build(), build()
        assert len(a.strips) == len(b.strips)
        for sa, sb in zip(a.strips, b.strips):
            assert np.array_equal(sa.tau, sb.tau)
            assert np.array_equal(sa.theta, sb.theta)
            assert np.array_equal(sa.y, sb.y)

    def test_restriction_property(self, unit_marks):
        # filtering a ceiling-3 sample to theta <= 1 must look Poisson(T * 1)
        counts = []
        for s in range(10_000):
            _, theta, _, _ = hp.sample_atoms(10.0, 3.0, unit_marks, s).merged()
            counts.append(int((theta <= 1.0).sum()))
        assert _poisson_chisquare_pvalue(counts, 10.0) > 0.01


def _lexsorted(atoms):
    """The whole ladder re-sorted by (tau, theta), strips concatenated in order."""
    cols = [np.concatenate([getattr(s, c) for s in atoms.strips]) for c in ("tau", "theta", "y")]
    sid = np.concatenate([np.full(len(s.tau), i) for i, s in enumerate(atoms.strips)])
    order = np.lexsort((cols[1], cols[0]))
    return tuple(c[order] for c in (*cols, sid))


class TestMerged:
    def test_each_new_strip_merges_as_a_full_lexsort(self, unit_marks):
        # tied taus within and across strips, a theta tied across strips
        # (1.0 tops strip 0 and opens strip 1), and four extensions
        tau = [0.25, 0.5, 0.5, 0.75, 1.5]
        theta = [0.2, 0.3, 1.0, 0.9, 0.1]
        atoms = hp.PoissonAtoms(2.0, unit_marks, (0,), [randomness.Strip(
            0.0, 1.0, np.array(tau), np.array(theta), np.arange(5.0)
        )])
        assert all(np.array_equal(a, b) for a, b in zip(atoms.merged(), _lexsorted(atoms)))
        for low, taus, thetas in (
            (1.0, [0.0, 0.5, 0.5, 0.75, 2.0], [1.0, 1.0, 1.5, 1.2, 1.9]),
            (2.0, [0.25, 0.5, 1.5, 1.5], [3.0, 2.5, 2.1, 2.2]),
            (4.0, [], []),
            (8.0, [0.5, 0.5, 1.0], [9.0, 12.0, 8.5]),
        ):
            high = 2.0 * low
            atoms.strips.append(randomness.Strip(
                low, high, np.array(taus, dtype=float), np.array(thetas, dtype=float),
                np.full(len(taus), high),
            ))
            merged = atoms.merged()
            assert all(np.array_equal(a, b) for a, b in zip(merged, _lexsorted(atoms)))

    def test_drawn_extensions_merge_as_a_full_lexsort(self, unit_marks):
        for seed in range(20):
            atoms = hp.sample_atoms(4.0, 2.0, unit_marks, seed)
            for ceiling in (4.0, 8.0, 16.0):
                atoms.merged()
                hp.extend_ceiling(atoms, ceiling)
            assert all(np.array_equal(a, b) for a, b in zip(atoms.merged(), _lexsorted(atoms)))


class TestCover:
    def test_level_under_the_ceiling_draws_nothing(self, unit_marks):
        atoms = hp.sample_atoms(10.0, 3.0, unit_marks, 4)
        assert atoms.cover(2.0, "level") is False
        assert atoms.cover(3.0, "level") is False
        assert len(atoms.strips) == 1 and atoms.ceiling == 3.0

    def test_growth_draws_the_strips_of_chained_extensions(self, unit_marks):
        atoms = hp.sample_atoms(10.0, 3.0, unit_marks, 55)
        assert atoms.cover(20.0, "level") is True
        chained = hp.sample_atoms(10.0, 3.0, unit_marks, 55)
        for ceiling in (6.0, 12.0, 24.0):
            hp.extend_ceiling(chained, ceiling)
        assert [s.theta_high for s in atoms.strips] == [3.0, 6.0, 12.0, 24.0]
        assert len(atoms.strips) == len(chained.strips)
        for sa, sb in zip(atoms.strips, chained.strips):
            assert (sa.theta_low, sa.theta_high) == (sb.theta_low, sb.theta_high)
            assert np.array_equal(sa.tau, sb.tau)
            assert np.array_equal(sa.theta, sb.theta)
            assert np.array_equal(sa.y, sb.y)

    def test_level_over_the_budget_raises_before_drawing(self, unit_marks):
        # doubling 3 reaches 3 * 2**20 = 3.1e6, and 3.1e6 * 10 atoms pass 2**24
        atoms = hp.sample_atoms(10.0, 3.0, unit_marks, 4)
        with pytest.raises(RunawayIntensityError, match="^probe 3e[+]06 needs a ceiling beyond"):
            atoms.cover(3.0e6, "probe")
        assert len(atoms.strips) == 1 and atoms.ceiling == 3.0


class TestMarkMoments:
    def test_point_mass(self):
        m = mark_moments(hp.MarkModel("point-mass", (1.0,)))
        assert (m.abs_mean, m.second, m.mod_mean, m.mod_second) == (1.0, 1.0, 1.0, 1.0)

    def test_exponential_moments(self):
        m = mark_moments(hp.MarkModel("exponential", (1.0,)))
        assert (m.abs_mean, m.second, m.mod_mean, m.mod_second) == (1.0, 2.0, 1.0, 1.0)

    def test_gaussian_indicator_symmetry(self):
        m = mark_moments(
            hp.MarkModel("gaussian", (0.0, 1.0), modulation="indicator", mod_params=(0.0,))
        )
        assert m.mod_mean == pytest.approx(0.5, abs=1e-12)
        assert m.mod_second == pytest.approx(0.5, abs=1e-12)

    def test_lognormal_closed_forms(self):
        m = mark_moments(hp.MarkModel("lognormal", (0.1, 0.4)))
        assert m.abs_mean == pytest.approx(math.exp(0.1 + 0.08), rel=1e-12)
        assert m.second == pytest.approx(math.exp(0.2 + 0.32), rel=1e-12)

    def test_closed_forms_computed_once_per_model(self, monkeypatch):
        calls = []
        real = randomness._closed_form_dist_moments

        def counting(model):
            calls.append(model)
            return real(model)

        monkeypatch.setattr(randomness, "_closed_form_dist_moments", counting)
        model = hp.MarkModel("exponential", (2.0,), modulation="indicator", mod_params=(1.0,))
        first = mark_moments(model)
        assert all(mark_moments(model) is first for _ in range(3))
        assert calls == [model]
        other = hp.MarkModel("lognormal", (0.1, 0.4))
        mark_moments(other)
        mark_moments(other)
        assert calls == [model, other]

    def test_indicator_tail_probabilities(self):
        m = mark_moments(
            hp.MarkModel("exponential", (2.0,), modulation="indicator", mod_params=(1.0,))
        )
        assert m.mod_mean == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert m.mod_second == m.mod_mean

    @pytest.mark.parametrize(
        "dist, params", [("gaussian", (1.0, 0.0)), ("lognormal", (0.0, 0.0))]
    )
    @pytest.mark.parametrize("threshold, tail", [(0.5, 1.0), (1.0, 1.0), (1.5, 0.0)])
    def test_zero_sd_tail_is_the_point_mass_at_one(self, dist, params, threshold, tail):
        m = mark_moments(
            hp.MarkModel(dist, params, modulation="indicator", mod_params=(threshold,))
        )
        assert (m.mod_mean, m.mod_second) == (tail, tail)
