import collections
import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hawkpath as hp
from hawkpath import simulate
from _coupling import couple_step
from _oracles import (
    compound_poisson_scheme,
    continuous_scan_reference,
    dense_compensator,
    dense_excitation,
    discrete_scheme_reference,
)
from hawkpath.errors import (
    InstabilityError,
    InstabilityWarning,
    ParameterError,
    RunawayIntensityError,
)
from hawkpath.kernels import REL_TOL, grid_coefficients
from hawkpath.randomness import ATOM_BUDGET, PoissonAtoms, Strip
from hawkpath.simulate import (
    ContinuousPath,
    eval_intensity,
    integrate_intensity,
    make_step_path,
    path_to_step,
    simulate_continuous,
    simulate_ladder,
    step_from_jumps,
)


def atoms_from_triples(T, ceiling, triples, mark_model):
    """Hand-built atom ladder for deterministic scenarios."""
    if triples:
        tau, theta, y = (np.array(col, dtype=float) for col in zip(*triples))
        order = np.lexsort((theta, tau))
        tau, theta, y = tau[order], theta[order], y[order]
    else:
        tau = theta = y = np.empty(0)
    strip = Strip(0.0, ceiling, tau, theta, y)
    return PoissonAtoms(
        horizon=T, mark_model=mark_model, seed_entropy=(0,), strips=[strip]
    )


class TestJumpRates:
    def test_family_values(self):
        relu = hp.relu_affine(1.0)
        assert float(relu.fn(-3.0)) == 0.0
        assert relu.at_zero == 1.0 and relu.sup_norm is None
        clip = hp.clipped_affine(1.0, 2.5)
        assert float(clip.fn(10.0)) == 2.5
        sig = hp.sigmoid_rate(4.0)
        assert sig.at_zero == 2.0 and sig.sup_norm == 4.0 and sig.lipschitz == 1.0
        # psi(0) is each family's closed form for the rate of an empty past
        cap = 4.0
        for mu in (-0.5, 0.0, 0.7, 5.0):
            assert hp.relu_affine(mu).at_zero == max(mu, 0.0)
            assert hp.clipped_affine(mu, cap).at_zero == min(max(mu, 0.0), cap)
            if mu > 0:
                assert hp.sigmoid_rate(mu).at_zero == mu / 2.0
            if mu >= 0:
                assert hp.constant_rate(mu).at_zero == mu

    @pytest.mark.parametrize("param", [-0.5, -0.0, 0.0, 0.7, 5.0])
    def test_float_answer_has_the_array_answers_bits(self, param):
        # continuous thinning reads psi at one float excitation at a time
        rates = [hp.relu_affine(param), hp.clipped_affine(param, 4.0)]
        if param > 0:
            rates.append(hp.sigmoid_rate(param))
        if param >= 0:
            rates.append(hp.constant_rate(param))
        for jr in rates:
            for x in (-param, -0.0, 0.0, 5e-324, 1e-9, 2.5, 1e300, -1e300, math.nan):
                with np.errstate(over="ignore"):    # sigmoid's exp(1e300)
                    alone, in_array = jr.fn(x), jr.fn(np.array([x]))
                assert np.float64(alone).tobytes() == in_array[:1].tobytes(), (jr.family, x)

    def test_nonnegative_and_lipschitz_spot_check(self, rng):
        for jr in (hp.relu_affine(0.5), hp.clipped_affine(1.0, 3.0), hp.sigmoid_rate(2.0)):
            x = rng.normal(0, 5, 1000)
            y = rng.normal(0, 5, 1000)
            fx, fy = np.asarray(jr.fn(x)), np.asarray(jr.fn(y))
            assert np.all(fx >= 0)
            assert np.all(np.abs(fx - fy) <= jr.lipschitz * np.abs(x - y) + 1e-12)


class TestSimulateContinuous:
    def test_flat_rate_is_pure_filter(self, unit_marks):
        atoms = hp.sample_atoms(10.0, 5.0, unit_marks, 4)
        path = hp.simulate_continuous(
            hp.zero_kernel(10.0), hp.constant_rate(2.0), unit_marks, 10.0, atoms
        )
        tau, theta, _, _ = atoms.merged()
        assert np.array_equal(path.times, tau[theta <= 2.0])
        assert path.terminal_count == int((theta <= 2.0).sum())

    def test_flat_rate_poisson_mean(self, unit_marks):
        zero = hp.zero_kernel(10.0)
        rate = hp.constant_rate(2.0)
        counts = np.empty(10_000)
        for s in range(len(counts)):
            atoms = hp.sample_atoms(10.0, 2.0, unit_marks, s)
            counts[s] = hp.simulate_continuous(zero, rate, unit_marks, 10.0, atoms).terminal_count
        assert counts.mean() == pytest.approx(20.0, abs=3 * math.sqrt(20.0) / 100)

    def test_single_injected_atom_intensity(self, unit_marks):
        kernel = hp.exponential_kernel(1.0, 1.0, 5.0)
        jr = hp.relu_affine(1.0)
        atoms = atoms_from_triples(5.0, 4.0, [(1.0, 0.1, 1.0)], unit_marks)
        path = hp.simulate_continuous(kernel, jr, unit_marks, 5.0, atoms)
        assert path.terminal_count == 1
        assert eval_intensity(path, kernel, jr, 1.5) == pytest.approx(
            1.0 + math.exp(-0.5), abs=1e-12
        )

    def test_accepting_intensity_dominates_theta(self, exp_kernel, unit_marks):
        atoms = hp.sample_atoms(5.0, 8.0, unit_marks, 12)
        path = hp.simulate_continuous(exp_kernel, hp.relu_affine(1.0), unit_marks, 5.0, atoms)
        tau, theta, _, _ = atoms.merged()
        accepted_thetas = theta[np.isin(tau, path.times)]
        assert np.all(accepted_thetas <= path.intensities)

    def test_ceiling_extension_preserves_law(self, unit_marks):
        # start far below the true rate: the ladder must double its way up
        zero = hp.zero_kernel(10.0)
        rate = hp.constant_rate(2.0)
        counts = np.empty(4000)
        for s in range(len(counts)):
            atoms = hp.sample_atoms(10.0, 0.125, unit_marks, s)
            path = hp.simulate_continuous(zero, rate, unit_marks, 10.0, atoms)
            assert atoms.ceiling >= 2.0
            counts[s] = path.terminal_count
        assert counts.mean() == pytest.approx(20.0, abs=3 * math.sqrt(20.0 / len(counts)))

    def test_hard_cap_raises(self, unit_marks):
        # a rate of 2**25 over T = 1 needs a ceiling past the atom budget of
        # 2**24 expected atoms: refused before any strip is drawn
        atoms = hp.sample_atoms(1.0, 0.125, unit_marks, 0)
        with pytest.raises(RunawayIntensityError, match="^intensity envelope 3.355e[+]07 "):
            hp.simulate_continuous(
                hp.zero_kernel(1.0), hp.constant_rate(2.0**25), unit_marks, 1.0, atoms
            )
        assert len(atoms.strips) == 1

    def test_backstop_resumes_at_the_atom_that_fired_it(self, unit_marks):
        # h = 0.8 on (0.05, 0.21] but declares the breaks (0, 1), where h is
        # 0, so H* reads 0 and the envelope stays at 0.5; the atom at 0.3
        # lies under it, sees the intensity 1.3 and fires the backstop, which
        # draws the strip (1, 2] and accepts that atom under 1.3
        def h(t):
            t = np.asarray(t, dtype=float)
            return np.where((t > 0.05) & (t <= 0.21), 0.8, 0.0)

        # declared antiderivative: a quadrature would sample only zeros of h
        # and read ||h||_1 = 0
        kernel = hp.custom_kernel(
            h, 1.0, monotone_breaks=(0.0, 1.0),
            abs_antiderivative=lambda x: 0.8 * min(max(x - 0.05, 0.0), 0.16),
        )
        triples = [(0.1, 0.2, 1.0), (0.3, 0.4, 1.0), (0.6, 0.7, 1.0), (0.9, 0.3, 1.0)]
        atoms = atoms_from_triples(1.0, 1.0, triples, unit_marks)
        path = simulate_continuous(kernel, hp.relu_affine(0.5), unit_marks, 1.0, atoms)
        assert atoms.ceiling == 2.0 and len(atoms.strips) == 2
        # the new strip's atoms lie above the intensity, which is at most 1.3
        # after the spike at 0.3 and 0.5 elsewhere
        assert np.all(atoms.strips[1].theta > 1.3)
        assert np.array_equal(path.times, [0.1, 0.3, 0.9])
        assert np.array_equal(path.intensities, [0.5, 0.5 + 0.8, 0.5])

    def test_unstable_kernel_rejected_without_override(self, unit_marks):
        hot = hp.exponential_kernel(1.5, 1.0, 5.0)  # rho about 1.49
        atoms = hp.sample_atoms(5.0, 4.0, unit_marks, 1)
        with pytest.raises(InstabilityError):
            hp.simulate_continuous(hot, hp.relu_affine(1.0), unit_marks, 5.0, atoms)
        path = hp.simulate_continuous(
            hot, hp.relu_affine(1.0), unit_marks, 5.0, atoms, allow_unstable=True
        )
        assert path.terminal_count >= 0


# Continuous thinning under the local envelope against the atom-by-atom scan
# under the global one: same bits in every array.  The plateau table and the
# cosine-decay and Erlang kernels have H* != |h|; the ceilings of 0.25 and 1
# sit below the empty-past rate or near it, so the ladder extends.
_SCAN_T = 4.0
_SCAN_KERNELS = {
    "exponential": hp.exponential_kernel(0.5, 1.5, _SCAN_T),
    "erlang": hp.erlang_kernel(0.8, 2, 2.0, _SCAN_T),
    "cosine-decay": hp.cosine_decay_kernel(0.6, _SCAN_T),
    "compact-support": hp.compact_kernel(0.6, 0.7, _SCAN_T),
    "constant": hp.constant_kernel(0.05, _SCAN_T),
    "zero": hp.zero_kernel(_SCAN_T),
    "tabulated": hp.tabulated_kernel([(0, 0.3), (1.1, 0.5), (2.3, -0.1), (5, 0.05)], _SCAN_T),
    "plateau": hp.tabulated_kernel([(0, 0), (1, 0.5), (2, 0.5), (3, 0)], _SCAN_T),
    # h = 0.8 on [0, 0.21], 0 after: nonincreasing, so ``tail_sup`` is h itself
    "step": hp.custom_kernel(
        lambda t: np.where(np.asarray(t, dtype=float) <= 0.21, 0.8, 0.0),
        _SCAN_T,
        monotone_breaks=(0.0, _SCAN_T),
        abs_antiderivative=lambda x: 0.8 * min(x, 0.21),
    ),
}
_SCAN_RATES = {
    "relu": hp.relu_affine(2.0),
    "sigmoid": hp.sigmoid_rate(5.0),
    "clipped": hp.clipped_affine(1.5, 6.0),
    "constant": hp.constant_rate(2.0),
}
_SCAN_MARKS = {
    "point-mass": hp.MarkModel(),
    "exponential-indicator": hp.MarkModel(
        "exponential", (0.8,), modulation="indicator", mod_params=(0.5,)
    ),
    "gaussian-absolute": hp.MarkModel("gaussian", (0.3, 0.5), modulation="absolute-value"),
}
# lambda of the exponential kernel's recursion against a direct sum, which
# rounds the same terms of one sign in another order: at most 7.8e-16 apart
# up to T = 12,800 on the criterion-8 kernel
_RECURSION_RTOL = 1e-12


def _local_envelopes(path, kernel, rate):
    """E after each acceptance: psi(0) + L * sum_j b_j H*(t_k - t_j) over the
    events t_j < t_k inside the support, plus b_k * ||h||_inf, capped at sup psi."""
    out = []
    for k, t in enumerate(path.times):
        near = path.times[:k] > t - (np.inf if kernel.support is None else kernel.support)
        lags, b = t - path.times[:k][near], path.weights[:k][near]
        tail = float(np.dot(kernel.tail_sup(lags, kernel.evaluate(lags)), b))
        env = rate.at_zero + rate.lipschitz * (tail + path.weights[k] * kernel.sup_norm)
        out.append(env if rate.sup_norm is None else min(env, rate.sup_norm))
    return np.array(out)


class TestLocalEnvelope:
    @pytest.mark.parametrize("kernel", sorted(_SCAN_KERNELS))
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.sampled_from(sorted(_SCAN_RATES)),
        marks=st.sampled_from(sorted(_SCAN_MARKS)),
        ceiling=st.sampled_from((0.25, 1.0, 4.0)),
    )
    def test_bits_match_global_envelope_scan(self, kernel, seed, rate, marks, ceiling):
        model = _SCAN_MARKS[marks]
        args = (_SCAN_KERNELS[kernel], _SCAN_RATES[rate], model, _SCAN_T)
        ref = continuous_scan_reference(*args, hp.sample_atoms(_SCAN_T, ceiling, model, seed))
        atoms = hp.sample_atoms(_SCAN_T, ceiling, model, seed)
        path = simulate_continuous(*args, atoms, allow_unstable=True)
        for field in ("times", "marks", "weights"):
            assert np.array_equal(getattr(path, field), getattr(ref, field)), field
        if kernel == "exponential":
            # the recursion adds in another order than the reference's sum
            np.testing.assert_allclose(
                path.intensities, ref.intensities, rtol=_RECURSION_RTOL, atol=0
            )
        else:
            assert np.array_equal(path.intensities, ref.intensities)

    @pytest.mark.parametrize("kernel", sorted(_SCAN_KERNELS))
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.sampled_from(sorted(_SCAN_RATES)),
        marks=st.sampled_from(sorted(_SCAN_MARKS)),
    )
    def test_envelope_dominates_intensity(self, kernel, seed, rate, marks):
        # on a grid of step 0.005 from each acceptance to the next (to T after
        # the last), and from 0 to the first at psi(0); the ceiling covers it
        k, jr, model = _SCAN_KERNELS[kernel], _SCAN_RATES[rate], _SCAN_MARKS[marks]
        atoms = hp.sample_atoms(_SCAN_T, 1.0, model, seed)
        path = simulate_continuous(k, jr, model, _SCAN_T, atoms, allow_unstable=True)
        envelopes = np.concatenate(([jr.at_zero], _local_envelopes(path, k, jr)))
        edges = np.concatenate(([0.0], path.times, [_SCAN_T]))
        for env, a, b in zip(envelopes, edges[:-1], edges[1:]):
            assert env <= atoms.ceiling
            for t in np.linspace(a, b, max(2, int((b - a) / 0.005)))[1:]:
                assert eval_intensity(path, k, jr, t) <= env * (1 + REL_TOL)

    def test_step_kernel_sup_norm(self):
        # read off h(0) and the breaks, not declared beside h
        assert _SCAN_KERNELS["step"].sup_norm == 0.8

    def test_late_step_reads_every_atom_under_the_intensity(self, unit_marks):
        # h = 0.8 on (0.05, 0.21] with its true breaks: declared nonincreasing,
        # tail_sup took h(lag) for H* and skipped atoms under the intensity on
        # these seeds (53, 158 and 164 lost their events at 0.644, 0.890 and
        # 0.453); derived, the flag is False and the path is the full scan's
        def h(t):
            t = np.asarray(t, dtype=float)
            return np.where((t > 0.05) & (t <= 0.21), 0.8, 0.0)

        kernel = hp.custom_kernel(
            h, 1.0, monotone_breaks=(0.0, 0.05, 0.21, 1.0),
            abs_antiderivative=lambda x: 0.8 * (min(max(x, 0.05), 0.21) - 0.05),
        )
        assert not kernel.monotone_decreasing
        rate = hp.relu_affine(2.0)
        for seed, count in ((53, 5), (158, 4), (164, 3)):
            args = (kernel, rate, unit_marks, 1.0)
            ref = continuous_scan_reference(*args, hp.sample_atoms(1.0, 2.5, unit_marks, seed))
            path = simulate_continuous(*args, hp.sample_atoms(1.0, 2.5, unit_marks, seed))
            assert path.terminal_count == count
            for field in ("times", "marks", "weights", "intensities"):
                assert np.array_equal(getattr(path, field), getattr(ref, field)), field

    def test_long_horizon_reads_and_ceiling(self, unit_marks):
        # T = 200 (seed 2): the global envelope read lambda at 129,072 atoms
        # under a ceiling of 646.5; the local one stays at the base strip's
        # 10.1 and reads far fewer atoms than it draws
        reads = []

        def counting(x):
            reads.append(x)
            return _LONG_RATE.fn(x)

        atoms = hp.sample_atoms(
            _LONG_T, hp.default_ceiling(_LONG_RATE, _LONG_KERNEL, unit_marks), unit_marks, 2
        )
        path = simulate_continuous(
            _LONG_KERNEL, dataclasses.replace(_LONG_RATE, fn=counting), unit_marks, _LONG_T,
            atoms,
        )
        envelopes = _local_envelopes(path, _LONG_KERNEL, _LONG_RATE)
        assert len(atoms.strips) == 1 and envelopes.max() <= atoms.ceiling < 10.2
        assert path.terminal_count == 542 and len(reads) < len(atoms.strips[0].tau) / 2

    def test_atoms_per_unit_time_flat_in_the_horizon(self, unit_marks):
        # the global envelope grew with the accepted mass: 7,949 atoms at
        # T = 50 and 129,072 at T = 200
        rates = []
        for T in (50.0, 200.0):
            kernel = hp.exponential_kernel(0.604, 1.0, T)
            atoms = hp.sample_atoms(
                T, hp.default_ceiling(_LONG_RATE, kernel, unit_marks), unit_marks, 2
            )
            simulate_continuous(kernel, _LONG_RATE, unit_marks, T, atoms)
            rates.append(sum(len(s.tau) for s in atoms.strips) / T)
        assert rates[1] <= 2 * rates[0] and rates[0] <= 2 * rates[1]

    def test_long_compact_run_completes(self, unit_marks):
        # the global envelope 0.5 * (accepted count) passed the atom budget
        # here (ceiling 838.9 at T = 20,000); the local one sees about the
        # events of the last unit of time
        T = 20_000.0
        kernel = hp.compact_kernel(0.5, 1.0, T)
        rate = hp.relu_affine(1.0)
        atoms = hp.sample_atoms(T, hp.default_ceiling(rate, kernel, unit_marks), unit_marks, 0)
        path = simulate_continuous(kernel, rate, unit_marks, T, atoms)
        assert path.terminal_count == 26_964 and atoms.ceiling < 6.0


# The exponential kernel's recursion against the direct sum on the same kernel
# (``exponential`` dropped), which the other families pin to the reference
# scan bit for bit: the same accepted atoms, and lambda, summed in another
# order, within _RECURSION_RTOL.  The excitation of an exponential kernel adds
# terms of one sign, so the finished path's read is held to the same
# tolerance against the dense oracle.
_RECURSION_AMPLITUDES = {"positive": 0.5, "negative": -0.5}


class TestExponentialRecursion:
    @pytest.mark.parametrize("T", [_SCAN_T, 200.0])
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        amplitude=st.sampled_from(sorted(_RECURSION_AMPLITUDES)),
        rate=st.sampled_from(sorted(_SCAN_RATES)),
        marks=st.sampled_from(sorted(_SCAN_MARKS)),
        ceiling=st.sampled_from((0.25, 1.0, 4.0)),
    )
    def test_matches_the_direct_sum(self, T, seed, amplitude, rate, marks, ceiling):
        k = hp.exponential_kernel(_RECURSION_AMPLITUDES[amplitude], 1.5, T)
        jr, model = _SCAN_RATES[rate], _SCAN_MARKS[marks]
        direct = dataclasses.replace(k, exponential=None)
        ref = simulate_continuous(
            direct, jr, model, T, hp.sample_atoms(T, ceiling, model, seed), allow_unstable=True
        )
        path = simulate_continuous(
            k, jr, model, T, hp.sample_atoms(T, ceiling, model, seed), allow_unstable=True
        )
        for field in ("times", "marks", "weights"):
            assert np.array_equal(getattr(path, field), getattr(ref, field)), field
        np.testing.assert_allclose(path.intensities, ref.intensities, rtol=_RECURSION_RTOL, atol=0)
        ts = np.concatenate((np.linspace(0.0, T, 513), path.times))
        np.testing.assert_allclose(
            simulate._excitation_state(k, path.times, path.weights).read(ts),
            dense_excitation(path, k, ts), rtol=_RECURSION_RTOL, atol=0,
        )

    def test_scan_and_reads_never_evaluate_the_kernel(self, unit_marks):
        # sup |h| evaluates h at lag 0 and at the breaks on first use; after
        # that a scan of 542 events and every read of its path evaluate none
        calls = []
        k = _LONG_KERNEL

        def counting(t):
            calls.append(np.size(t))
            return k.evaluate(t)

        kernel = dataclasses.replace(k, evaluate=counting)
        assert kernel.sup_norm == k.sup_norm
        calls.clear()
        atoms = hp.sample_atoms(_LONG_T, hp.default_ceiling(_LONG_RATE, k, unit_marks), unit_marks, 2)
        path = simulate_continuous(kernel, _LONG_RATE, unit_marks, _LONG_T, atoms)
        eval_intensity(path, kernel, _LONG_RATE, np.linspace(0.0, _LONG_T, 101))
        integrate_intensity(path, kernel, _LONG_RATE)
        assert path.terminal_count == 542 and calls == []

    def test_zero_kernel_reads_nothing(self):
        # support 0: the state answers 0 and holds no event
        kernel = hp.zero_kernel(_SCAN_T)
        state = simulate._excitation_state(kernel, np.array([1.0, 2.0]), np.ones(2))
        assert state.at(3.0) == (0.0, 0.0)
        assert np.array_equal(state.read(np.array([0.5, 1.5, 3.0])), np.zeros(3))


class TestEvalIntensity:
    def test_empty_past(self, exp_kernel, unit_marks):
        atoms = atoms_from_triples(5.0, 4.0, [], unit_marks)
        path = hp.simulate_continuous(exp_kernel, hp.relu_affine(1.0), unit_marks, 5.0, atoms)
        assert eval_intensity(path, exp_kernel, hp.relu_affine(1.0), 2.0) == 1.0

    def test_left_limit_excludes_event_at_t(self, unit_marks):
        kernel = hp.exponential_kernel(1.0, 1.0, 5.0)
        jr = hp.relu_affine(1.0)
        atoms = atoms_from_triples(5.0, 4.0, [(1.0, 0.1, 1.0)], unit_marks)
        path = hp.simulate_continuous(kernel, jr, unit_marks, 5.0, atoms)
        assert eval_intensity(path, kernel, jr, 1.0) == 1.0

    def test_two_event_hand_sum(self, unit_marks):
        kernel = hp.exponential_kernel(0.8, 2.0, 5.0)
        jr = hp.relu_affine(0.5)
        atoms = atoms_from_triples(
            5.0, 4.0, [(1.0, 0.01, 1.0), (2.0, 0.01, 1.0)], unit_marks
        )
        path = hp.simulate_continuous(kernel, jr, unit_marks, 5.0, atoms)
        t = 3.25
        expected = 0.5 + 0.8 * (math.exp(-2 * (t - 1.0)) + math.exp(-2 * (t - 2.0)))
        assert eval_intensity(path, kernel, jr, t) == pytest.approx(expected, abs=1e-12)

    def test_gauss_legendre_rule_is_leggauss_16(self, unit_marks):
        # the fixed rule is numpy's 16-point rule to the last bit, read-only
        # as every call shares it, and the integral it gives is stable
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert simulate._GL_NODES.tobytes() == nodes.tobytes()
        assert simulate._GL_WEIGHTS.tobytes() == weights.tobytes()
        assert not simulate._GL_NODES.flags.writeable and not simulate._GL_WEIGHTS.flags.writeable
        kernel = hp.exponential_kernel(0.6, 1.0, 5.0)
        jr = hp.relu_affine(1.0)
        path = hp.simulate_continuous(
            kernel, jr, unit_marks, 5.0, hp.sample_atoms(5.0, 4.0, unit_marks, 2)
        )
        first = integrate_intensity(path, kernel, jr)
        assert [integrate_intensity(path, kernel, jr) for _ in range(3)] == [first] * 3

    def test_integrated_intensity_flat_case(self, unit_marks):
        atoms = hp.sample_atoms(10.0, 2.0, unit_marks, 3)
        zero = hp.zero_kernel(10.0)
        rate = hp.constant_rate(2.0)
        path = hp.simulate_continuous(zero, rate, unit_marks, 10.0, atoms)
        assert integrate_intensity(path, zero, rate) == pytest.approx(20.0, abs=1e-9)


# The excitation read of a finished path against the dense masked lag matrix
# (``_oracles.dense_excitation``), which reads every event at every time and
# has no support cut; the compact kernel's support 0.7 < T exercises the cut.
_READ_KERNELS = {
    "exponential": lambda T: hp.exponential_kernel(0.604, 1.0, T),
    "cosine-decay": lambda T: hp.cosine_decay_kernel(0.6, T),
    "erlang": lambda T: hp.erlang_kernel(0.8, 2, 2.0, T),
    "compact-support": lambda T: hp.compact_kernel(0.6, 0.7, T),
    "tabulated": lambda T: hp.tabulated_kernel(
        [(0, 0.3), (1.1, 0.5), (2.3, -0.1), (4, 0.05), (6, 0.0)], T
    ),
    "zero": hp.zero_kernel,
}
_READ_RATES = {"relu": hp.relu_affine(1.0), "sigmoid": hp.sigmoid_rate(4.0)}
_READ_MARKS = hp.MarkModel("exponential", (1.5,), modulation="absolute-value")


class TestExcitationRead:
    @pytest.mark.parametrize("T", [5.0, 20.0])
    @pytest.mark.parametrize("rate", sorted(_READ_RATES))
    @pytest.mark.parametrize("kernel", sorted(_READ_KERNELS))
    def test_matches_the_dense_oracle(self, kernel, rate, T):
        k, jr = _READ_KERNELS[kernel](T), _READ_RATES[rate]
        for seed in range(3):
            atoms = hp.sample_atoms(T, hp.default_ceiling(jr, k, _READ_MARKS), _READ_MARKS, seed)
            path = simulate_continuous(k, jr, _READ_MARKS, T, atoms, allow_unstable=True)
            # a mesh, the event times themselves (left limits) and T / 3
            ts = np.concatenate((np.linspace(0.0, T, 257), path.times, [T / 3]))
            lam = eval_intensity(path, k, jr, ts)
            oracle = np.asarray(jr.fn(dense_excitation(path, k, ts)), dtype=float)
            np.testing.assert_allclose(lam, oracle, rtol=1e-13, atol=0)
            # each time's value is its own: read alone, or in any order
            assert np.array_equal(lam, [eval_intensity(path, k, jr, t) for t in ts])
            order = np.random.default_rng(seed).permutation(len(ts))
            assert np.array_equal(eval_intensity(path, k, jr, ts[order]), lam[order])
            for upto in (None, T / 3):
                assert integrate_intensity(path, k, jr, upto) == pytest.approx(
                    dense_compensator(path, k, jr, upto), rel=1e-13, abs=0
                )

    @pytest.mark.parametrize("rate", sorted(_READ_RATES))
    def test_one_read_of_nodes_and_times_gives_the_separate_reads_bits(self, rate):
        # every event before T / 20 under a full-span kernel: the last nodes
        # and the first times share one window, so one block of lags holds
        # both, and each row still sums to its own float
        k, jr, T = hp.cosine_decay_kernel(0.6, 5.0), _READ_RATES[rate], 5.0
        ts = T * np.arange(1, 21) / 20.0
        for n in (1, 9, 30):
            rng = np.random.default_rng(n)
            w = rng.exponential(1.0, n)
            path = ContinuousPath(T, np.sort(rng.uniform(0.0, 0.24, n)), w, w, np.ones(n))
            lam, integral = simulate._read_intensity(path, k, jr, ts, T)
            assert lam.tobytes() == eval_intensity(path, k, jr, ts).tobytes()
            assert np.float64(integral).tobytes() == np.float64(
                integrate_intensity(path, k, jr)
            ).tobytes()

    def test_time_at_an_event_excludes_it(self):
        k, jr = hp.exponential_kernel(0.5, 2.0, 5.0), hp.relu_affine(1.0)
        path = ContinuousPath(
            5.0, np.array([1.0, 2.0]), np.ones(2), np.array([1.0, 0.5]), np.ones(2)
        )
        lam = eval_intensity(path, k, jr, np.array([1.0, 2.0, 1.5, 2.0]))
        h = k.evaluate(np.array([1.0, 0.5]))
        assert lam.tolist() == [1.0, 1.0 + h[0], 1.0 + h[1], 1.0 + h[0]]
        assert eval_intensity(path, k, jr, 2.0) == 1.0 + h[0]

    def test_scalar_in_float_out(self):
        k, jr = hp.exponential_kernel(0.5, 2.0, 5.0), hp.relu_affine(1.0)
        path = ContinuousPath(5.0, np.array([1.0]), np.ones(1), np.ones(1), np.ones(1))
        for t in (2.0, np.float64(2.0), np.array(2.0)):
            assert type(eval_intensity(path, k, jr, t)) is float
        assert eval_intensity(path, k, jr, [2.0]).shape == (1,)
        assert eval_intensity(path, k, jr, np.empty(0)).shape == (0,)
        with pytest.raises(ParameterError, match="1-D"):
            eval_intensity(path, k, jr, np.ones((2, 2)))
        with pytest.raises(ParameterError, match=r"\[0, T\]"):
            eval_intensity(path, k, jr, np.array([1.0, 5.5]))

    def test_integration_refuses_a_horizon_outside_the_path(self, unit_marks):
        # integrating to 10 read no event after 5 (16.63); to -2 it gave 2.0
        k, jr = hp.exponential_kernel(0.604, 1.0, 5.0), hp.relu_affine(1.0)
        path = simulate_continuous(k, jr, unit_marks, 5.0, hp.sample_atoms(5.0, 4.0, unit_marks, 3))
        assert path.terminal_count == 11
        for T in (10.0, -2.0, 0.0):
            with pytest.raises(ParameterError, match="horizon"):
                integrate_intensity(path, k, jr, T)
        assert integrate_intensity(path, k, jr, 5.0) == integrate_intensity(path, k, jr)

    def test_integration_memory_is_bounded(self):
        # 1,041 events on [0, 400]: the dense 16E x E lag matrix peaked at 679 MB
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0.0, 400.0, 1041))
        ones = np.ones(len(times))
        path = ContinuousPath(400.0, times, ones, ones, ones)
        kernel = hp.exponential_kernel(0.604, 1.0, 400.0)
        tracemalloc.start()
        try:
            integrate_intensity(path, kernel, hp.relu_affine(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestSimulateDiscrete:
    def test_flat_rate_matches_continuous(self, unit_marks):
        zero = hp.zero_kernel(10.0)
        rate = hp.constant_rate(2.0)
        atoms = hp.sample_atoms(10.0, 4.0, unit_marks, 21)
        cont = hp.simulate_continuous(zero, rate, unit_marks, 10.0, atoms)
        [disc] = hp.simulate_ladder(
            [hp.grid_coefficients(zero, 0.5, 10.0)], rate, unit_marks, atoms
        )
        assert disc.terminal_count == cont.terminal_count
        assert disc.terminal_risk == cont.terminal_risk
        assert np.array_equal(disc.times, cont.times)

    def test_no_atoms(self, unit_marks):
        atoms = atoms_from_triples(3.0, 4.0, [], unit_marks)
        [disc] = hp.simulate_ladder(
            [hp.grid_coefficients(hp.exponential_kernel(0.5, 1.0, 3.0), 0.5, 3.0)],
            hp.relu_affine(1.0), unit_marks, atoms,
        )
        assert np.all(disc.intensity == 1.0)
        assert np.all(disc.mass == 0.0)
        assert np.all(disc.risk == 0.0)

    def test_hand_recursion_two_bins(self, unit_marks):
        kernel = hp.exponential_kernel(1.0, 1.0, 3.0)
        jr = hp.relu_affine(1.0)
        atoms = atoms_from_triples(
            3.0, 4.0, [(0.5, 0.01, 1.0), (1.5, 0.01, 1.0)], unit_marks
        )
        [disc] = hp.simulate_ladder([hp.grid_coefficients(kernel, 1.0, 3.0)], jr, unit_marks, atoms)
        assert disc.intensity[0] == disc.intensity[1] == 1.0
        assert disc.mass[0] == 0.0 and disc.events[0] == 0
        assert disc.intensity[2] == pytest.approx(1.0 + math.exp(-1.0), abs=1e-12)
        assert disc.intensity[3] == pytest.approx(
            1.0 + math.exp(-2.0) * 1.0 + math.exp(-1.0) * 1.0, abs=1e-12
        )

    def test_bins_right_closed(self, unit_marks):
        # an atom exactly at a grid point belongs to the earlier bin
        atoms = atoms_from_triples(2.0, 4.0, [(1.0, 0.01, 1.0)], unit_marks)
        [disc] = hp.simulate_ladder(
            [hp.grid_coefficients(hp.zero_kernel(2.0), 1.0, 2.0)], hp.constant_rate(1.0),
            unit_marks, atoms,
        )
        assert disc.events[1] == 1 and disc.events[2] == 0

    def test_predictability_recomputation(self, exp_kernel, unit_marks):
        jr = hp.relu_affine(1.0)
        atoms = hp.sample_atoms(5.0, 8.0, unit_marks, 31)
        grid = hp.grid_coefficients(exp_kernel, 0.25, 5.0)
        [disc] = hp.simulate_ladder([grid], jr, unit_marks, atoms)
        coeffs = grid.values
        for n in range(1, 20):
            s = sum(coeffs[n - k] * disc.mass[k] for k in range(1, n + 1))
            assert disc.intensity[n + 1] == pytest.approx(float(jr.fn(s)), abs=1e-12)

    def test_compact_support_truncation_matches_full(self, unit_marks):
        compact = hp.compact_kernel(0.5, 1.0, 5.0)
        dense = hp.custom_kernel(compact.evaluate, 5.0)  # no support declared
        jr = hp.relu_affine(1.0)
        a1 = hp.sample_atoms(5.0, 8.0, unit_marks, 17)
        a2 = hp.sample_atoms(5.0, 8.0, unit_marks, 17)
        [d1] = hp.simulate_ladder([hp.grid_coefficients(compact, 0.125, 5.0)], jr, unit_marks, a1)
        [d2] = hp.simulate_ladder([hp.grid_coefficients(dense, 0.125, 5.0)], jr, unit_marks, a2)
        assert np.allclose(d1.intensity, d2.intensity, atol=1e-12)
        assert np.array_equal(d1.events, d2.events)

    def test_unstable_step_warns(self, unit_marks):
        grid = hp.grid_coefficients(hp.constant_kernel(0.25, 5.0), 0.5, 5.0)  # ratio 1.25
        atoms = hp.sample_atoms(5.0, 4.0, unit_marks, 2)
        with pytest.warns(InstabilityWarning):
            hp.simulate_ladder([grid], hp.relu_affine(1.0), unit_marks, atoms)
        # an explicit override acknowledges the instability and silences it
        import warnings

        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            hp.simulate_ladder([grid], hp.relu_affine(1.0), unit_marks,
                                 hp.sample_atoms(5.0, 4.0, unit_marks, 3),
                                 allow_unstable=True)
        assert not [w for w in record if issubclass(w.category, InstabilityWarning)]


# The discrete scheme against the bin-by-bin reference: same bits in every
# array.  The ceilings start below the empty-past rate or near it, so the
# ladder extends in the first bin or partway through; the coarse steps put
# eight or more non-integer marks into some bins.
_REF_T = 4.0
_REF_KERNELS = {
    "exponential": hp.exponential_kernel(0.5, 1.5, _REF_T),      # span = M
    "compact-support": hp.compact_kernel(0.6, 0.7, _REF_T),   # span < M
    "zero": hp.zero_kernel(_REF_T),
}
_REF_RATES = {
    "relu": hp.relu_affine(2.0),
    "clipped": hp.clipped_affine(1.5, 6.0),
    "sigmoid": hp.sigmoid_rate(5.0),
}
_REF_MARKS = {
    "point-mass": hp.MarkModel("point-mass", (1.0,)),
    "exponential-indicator": hp.MarkModel(
        "exponential", (0.8,), modulation="indicator", mod_params=(0.5,)
    ),
}


def _assert_matches_reference(kernel, rate, marks, delta, count, make_atoms):
    ref = discrete_scheme_reference(kernel, rate, marks, delta, count, make_atoms())
    atoms = make_atoms()
    [disc] = simulate_ladder(
        [grid_coefficients(kernel, delta, delta * count)], rate, marks, atoms, allow_unstable=True
    )
    for field in ("intensity", "mass", "events", "risk"):
        assert np.array_equal(getattr(disc, field), getattr(ref, field)), field
    assert np.array_equal(disc.times, np.concatenate(ref.bin_times))
    assert np.array_equal(disc.marks, np.concatenate(ref.bin_marks))
    return disc, atoms


def _psi_calls(kernel, rate, marks, delta, count, atoms, guess=None):
    """The input length of every jump-rate call of one discrete run, and its
    trace."""
    calls = []

    def counting(x):
        calls.append(len(x))
        return rate.fn(x)

    [disc] = simulate_ladder(
        [grid_coefficients(kernel, delta, delta * count)], dataclasses.replace(rate, fn=counting),
        marks, atoms, guess=guess, allow_unstable=True,
    )
    return calls, disc


def _windows_bound(stretches, atoms):
    """Most look-ahead windows of a pass whose pushes split its walk into
    ``stretches``: a stretch of n atoms takes at most 1 + log2(1 + n / W)
    doubling windows, and the stretches share the pass's atoms."""
    return stretches * (1 + math.log2(1 + atoms / simulate._WINDOW))


class TestDiscreteReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kernel=st.sampled_from(sorted(_REF_KERNELS)),
        rate=st.sampled_from(sorted(_REF_RATES)),
        marks=st.sampled_from(sorted(_REF_MARKS)),
        delta=st.sampled_from((2.0, 1.0, 0.5, 0.1, 0.02)),
        ceiling=st.sampled_from((0.25, 1.0, 2.5, 4.0)),
    )
    def test_bits_match_bin_by_bin_reference(self, seed, kernel, rate, marks, delta, ceiling):
        model = _REF_MARKS[marks]
        _assert_matches_reference(
            _REF_KERNELS[kernel], _REF_RATES[rate], model, delta, round(_REF_T / delta),
            lambda: hp.sample_atoms(_REF_T, ceiling, model, seed),
        )

    def test_coarse_bins_hold_many_marks(self):
        # pins the summation order: a bin's marks add up left to right, and
        # here numpy's pairwise sum of the same 8 or more marks is another float
        model = _REF_MARKS["exponential-indicator"]
        disc, atoms = _assert_matches_reference(
            _REF_KERNELS["exponential"], _REF_RATES["relu"], model, 2.0, 2,
            lambda: hp.sample_atoms(_REF_T, 0.25, model, 26),
        )
        first_bin = disc.marks[: disc.events[1]]
        assert len(first_bin) >= 8 and len(atoms.strips) > 1
        assert disc.risk[1] == np.cumsum(first_bin)[-1] != np.sum(first_bin)

    def test_feedback_summed_oldest_bin_first(self):
        # pins the feedback order: bins 1-3 all feed bin 4, and their
        # chronological sum is not the value np.dot gives for the same terms
        kernel, rate = _REF_KERNELS["exponential"], _REF_RATES["relu"]
        model = _REF_MARKS["point-mass"]
        disc, _ = _assert_matches_reference(
            kernel, rate, model, 1.0, 4, lambda: hp.sample_atoms(_REF_T, 1.0, model, 9),
        )
        coeffs = hp.grid_coefficients(kernel, 1.0, 4.0).values
        assert np.count_nonzero(disc.mass[1:4]) == 3
        dot = float(np.dot(coeffs[:3], disc.mass[1:4][::-1]))
        assert disc.intensity[4] != float(rate.fn(dot))

    def test_extension_inside_atom_free_run(self, unit_marks):
        # bins 2-4 hold no atom under the ceiling 0.5; bin 4's level crosses
        # it, and the strip that doubles the ceiling puts an atom into bin 4,
        # which its level then accepts
        triples = [(0.05, 0.01, 1.0), (0.1, 0.01, 1.0), (0.15, 0.01, 1.0)]
        disc, atoms = _assert_matches_reference(
            hp.erlang_kernel(1.0, 3, 1.0, 2.0), hp.relu_affine(0.25), unit_marks, 0.25, 8,
            lambda: atoms_from_triples(2.0, 0.5, triples, unit_marks),
        )
        assert disc.intensity[3] <= 0.5 < disc.intensity[4]
        assert list(disc.events) == [0, 3, 0, 0, 1, 0, 0, 0, 0]
        assert 0.75 < disc.times[3] <= 1.0 and disc.times[3] in atoms.strips[1].tau
        assert disc.mass[4] == 1.0

    def test_runaway_inside_atom_free_run(self, unit_marks):
        # the same scenario on atoms declared over a horizon of 1.5 * 2**24:
        # the base strip (0, 0.5] is within the atom budget, the doubling to
        # 1 that bin 4 needs is not, so it is refused, at the level the
        # reference records for bin 4, before any strip is drawn
        kernel, rate = hp.erlang_kernel(1.0, 3, 1.0, 2.0), hp.relu_affine(0.25)
        triples = [(0.05, 0.01, 1.0), (0.1, 0.01, 1.0), (0.15, 0.01, 1.0)]
        ref = discrete_scheme_reference(
            kernel, rate, unit_marks, 0.25, 8, atoms_from_triples(2.0, 0.5, triples, unit_marks)
        )
        atoms = atoms_from_triples(1.5 * ATOM_BUDGET, 0.5, triples, unit_marks)
        [error] = simulate_ladder([grid_coefficients(kernel, 0.25, 2.0)], rate, unit_marks, atoms)
        assert isinstance(error, RunawayIntensityError)
        assert str(error).startswith(f"bin intensity {ref.intensity[4]:.4g} ")
        assert len(atoms.strips) == 1
        assert np.all(ref.intensity[:4] <= 0.5)

    def test_atoms_on_grid_points(self, unit_marks):
        triples = [(0.5, 0.1, 1.0), (1.0, 0.2, 1.0), (1.0, 0.9, 1.0), (1.25, 0.3, 1.0),
                   (1.5, 0.1, 1.0), (2.0, 0.4, 1.0)]
        disc, _ = _assert_matches_reference(
            hp.exponential_kernel(0.5, 1.0, 2.0), hp.relu_affine(0.5), unit_marks, 0.5, 4,
            lambda: atoms_from_triples(2.0, 4.0, triples, unit_marks),
        )
        assert list(disc.events) == [0, 1, 1, 2, 1]
        assert np.array_equal(disc.times, [0.5, 1.0, 1.25, 1.5, 2.0])

    def test_zero_mass_bins_reuse_the_levels(self):
        # bins 1 and 2 accept marks below the indicator threshold, so their
        # modulated mass is 0 and the feedback stays; bin 3 moves it, bin 4
        # accepts under the levels computed after bin 3
        model = _REF_MARKS["exponential-indicator"]
        kernel, rate = _REF_KERNELS["exponential"], _REF_RATES["relu"]
        triples = [(0.2, 0.1, 0.3), (0.7, 0.1, 0.2), (1.2, 0.1, 1.0), (1.7, 0.1, 0.1)]
        disc, _ = _assert_matches_reference(
            kernel, rate, model, 0.5, 8, lambda: atoms_from_triples(_REF_T, 4.0, triples, model),
        )
        assert list(disc.events[1:5]) == [1, 1, 1, 1]
        assert list(disc.mass[1:5]) == [0.0, 0.0, 1.0, 0.0]
        assert disc.intensity[3] == disc.intensity[1] < disc.intensity[4]
        calls, _ = _psi_calls(
            kernel, rate, model, 0.5, 8, atoms_from_triples(_REF_T, 4.0, triples, model)
        )
        # one window over the 4 atoms, whose only pushing atom is bin 3's; one
        # after bin 3's push (bin 4's atom, which cannot push); the whole grid
        assert calls == [4, 1, 9]

    def test_zero_kernel_accepts_every_atom(self):
        # the ceiling equals the rate, so every atom passes; the feedback
        # never moves, so no window is read and the whole walk costs one
        # jump-rate call, on the whole grid
        kernel, rate, model = _REF_KERNELS["zero"], _REF_RATES["relu"], _REF_MARKS["point-mass"]
        disc, atoms = _assert_matches_reference(
            kernel, rate, model, 0.02, 200, lambda: hp.sample_atoms(_REF_T, 2.0, model, 4),
        )
        assert disc.terminal_count == len(atoms.merged()[0]) > 0
        assert len(atoms.strips) == 1
        calls, _ = _psi_calls(
            kernel, rate, model, 0.02, 200, hp.sample_atoms(_REF_T, 2.0, model, 4)
        )
        assert calls == [201]

    def test_extension_after_rejecting_atom_bins(self, unit_marks):
        # bins 2 and 3 hold atoms between their level and the ceiling 0.5, so
        # they reject everything; bin 4's level crosses the ceiling under the
        # levels computed after bin 1
        kernel, rate = hp.erlang_kernel(1.0, 3, 1.0, 2.0), hp.relu_affine(0.25)
        triples = [(0.05, 0.01, 1.0), (0.1, 0.01, 1.0), (0.15, 0.01, 1.0),
                   (0.3, 0.4, 1.0), (0.45, 0.45, 1.0), (0.6, 0.49, 1.0)]
        disc, atoms = _assert_matches_reference(
            kernel, rate, unit_marks, 0.25, 8,
            lambda: atoms_from_triples(2.0, 0.5, triples, unit_marks),
        )
        assert disc.intensity[3] < 0.49 and disc.intensity[4] > 0.5
        assert list(disc.events[:5]) == [0, 3, 0, 0, 1]
        calls, _ = _psi_calls(
            kernel, rate, unit_marks, 0.25, 8, atoms_from_triples(2.0, 0.5, triples, unit_marks)
        )
        # four passes, as bins 4, 5 and 6 each double the ceiling once, and
        # each ends on the whole grid (9 levels).  The first pass reads a
        # window over all 6 atoms and, after bin 1's push, one over the 3
        # left; the second reads bin 4's new atom, which pushes; the last two
        # start past every atom that could push
        assert len(atoms.strips) == 4
        assert calls == [6, 3, 9, 1, 9, 9, 9]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kernel=st.sampled_from(sorted(_REF_KERNELS)),
        rate=st.sampled_from(sorted(_REF_RATES)),
        marks=st.sampled_from(sorted(_REF_MARKS)),
        delta=st.sampled_from((1.0, 0.1, 0.02)),
        ceiling=st.sampled_from((0.25, 1.0, 4.0)),
    )
    def test_one_psi_call_per_feedback_change(self, seed, kernel, rate, marks, delta, ceiling):
        model, count = _REF_MARKS[marks], round(_REF_T / delta)
        atoms = hp.sample_atoms(_REF_T, ceiling, model, seed)
        calls, disc = _psi_calls(
            _REF_KERNELS[kernel], _REF_RATES[rate], model, delta, count, atoms
        )
        tau, _, y, _ = atoms.merged()
        n = len(tau)
        passes = len(atoms.strips)      # at most one, and one per extension
        if passes == 1:
            # every bin before the last that accepted a nonzero mass pushed
            pushes = np.count_nonzero(disc.mass[1:count])
            assert len(calls) <= 1 + _windows_bound(pushes + 1, n)
        else:
            # a pass pushes at most once per bin holding an atom that can push
            bins = np.searchsorted(disc.grid.points, tau[model.modulate(y) > 0], "left")
            pushing_bins = len(np.unique(bins[bins < count]))
            assert len(calls) <= passes * (1 + _windows_bound(pushing_bins + 1, n))


# The ladder with a guess against the bin-by-bin reference.  A guess only
# decides which rounds are read, never a level, so every guess gives the
# reference's bits: none, the continuous path's events on the same atoms,
# every atom, a random half of them and times that are no atom's.
_LADDER_MARKS = {
    "point-mass": hp.MarkModel("point-mass", (1.0,)),
    "exponential-indicator": _REF_MARKS["exponential-indicator"],
    "gaussian-absolute": hp.MarkModel("gaussian", (0.2, 1.0), modulation="absolute-value"),
}
_GUESSES = ("none", "continuous", "padded", "every-atom", "random-half", "no-atom")


def _guess(name, cont, atoms, seed, model):
    tau, _, y, _ = atoms.merged()
    return {
        "none": None,
        "continuous": cont.times,
        "padded": np.union1d(cont.times, tau[model.modulate(y) == 0.0]),
        "every-atom": tau,
        "random-half": tau[np.random.default_rng(seed).random(len(tau)) < 0.5],
        "no-atom": 0.5 * (tau[1:] + tau[:-1]),
    }[name]


def _assert_trace_is(disc, ref):
    for field in ("intensity", "mass", "events", "risk"):
        assert np.array_equal(getattr(disc, field), getattr(ref, field)), field
    assert np.array_equal(disc.times, np.concatenate(ref.bin_times))
    assert np.array_equal(disc.marks, np.concatenate(ref.bin_marks))


class TestLadder:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kernel=st.sampled_from(sorted(_REF_KERNELS)),
        rate=st.sampled_from(sorted(_REF_RATES)),
        marks=st.sampled_from(sorted(_LADDER_MARKS)),
        deltas=st.lists(st.sampled_from((2.0, 1.0, 0.5, 0.1, 0.02)), min_size=1, max_size=4,
                        unique=True),
        ceiling=st.sampled_from((0.25, 1.0, 4.0)),
        guess=st.sampled_from(_GUESSES),
        continuous_first=st.booleans(),
    )
    def test_bits_match_the_reference_whatever_the_guess(
        self, seed, kernel, rate, marks, deltas, ceiling, guess, continuous_first
    ):
        # ceilings 0.25 and 1 sit below the empty-past rate of every rate
        # here, so some grid extends; the strips then equal those of running
        # the grids one by one
        kernel, rate, model = _REF_KERNELS[kernel], _REF_RATES[rate], _LADDER_MARKS[marks]
        atoms = hp.sample_atoms(_REF_T, ceiling, model, seed)
        thinned = copy.deepcopy(atoms)
        cont = simulate_continuous(kernel, rate, model, _REF_T, thinned, allow_unstable=True)
        if continuous_first:
            atoms = thinned
        grids = [grid_coefficients(kernel, d, _REF_T) for d in deltas]
        ladder = copy.deepcopy(atoms)
        traces = simulate_ladder(
            grids, rate, model, ladder, guess=_guess(guess, cont, atoms, seed, model),
            allow_unstable=True,
        )
        one_by_one = copy.deepcopy(atoms)
        for grid, disc in zip(grids, traces):
            simulate_ladder([grid], rate, model, one_by_one, allow_unstable=True)
            _assert_trace_is(disc, discrete_scheme_reference(
                kernel, rate, model, grid.delta, grid.count, copy.deepcopy(atoms)
            ))
        assert [s.theta_high for s in ladder.strips] == [s.theta_high for s in one_by_one.strips]

    @pytest.mark.parametrize("seed", range(10))
    def test_each_grid_reads_its_own_windows(self, seed, cos_kernel, unit_marks):
        # a ladder walks each grid's pass alone: its psi calls are every
        # grid's one-grid window calls, in grid order, then the one call on
        # all grids' feedback that checks the ceiling, which none extends
        rate = hp.relu_affine(1.0)
        ceiling = hp.default_ceiling(rate, cos_kernel, unit_marks)
        atoms = hp.sample_atoms(5.0, ceiling, unit_marks, seed)
        cont = simulate_continuous(cos_kernel, rate, unit_marks, 5.0, atoms)
        strips = len(atoms.strips)
        grids = [grid_coefficients(cos_kernel, d, 5.0) for d in (0.5, 0.1, 0.0125)]
        windows = []
        for grid in grids:
            calls, _ = _psi_calls(
                cos_kernel, rate, unit_marks, grid.delta, grid.count, copy.deepcopy(atoms),
                guess=cont.times,
            )
            assert calls[-1] == grid.count + 1
            windows += calls[:-1]
        calls = []

        def counting(x):
            calls.append(len(x))
            return rate.fn(x)

        ladder = copy.deepcopy(atoms)
        simulate_ladder(grids, dataclasses.replace(rate, fn=counting), unit_marks, ladder,
                        guess=cont.times)
        assert len(ladder.strips) == strips
        assert calls == windows + [sum(grid.count + 1 for grid in grids)]

    def test_runaway_aborts_only_its_grid(self, unit_marks):
        # atoms declared over a horizon of 1.5 * 2**24: at delta 0.25 bin 4
        # needs the doubling to 1, past the atom budget; the one bin of delta
        # 2 stays under the ceiling 0.5.  Only the fine grid's entry is the
        # error, at the level the reference records for bin 4
        kernel, rate = hp.erlang_kernel(1.0, 3, 1.0, 2.0), hp.relu_affine(0.25)
        triples = [(0.05, 0.01, 1.0), (0.1, 0.01, 1.0), (0.15, 0.01, 1.0)]
        fine = discrete_scheme_reference(
            kernel, rate, unit_marks, 0.25, 8, atoms_from_triples(2.0, 0.5, triples, unit_marks)
        )
        atoms = atoms_from_triples(1.5 * ATOM_BUDGET, 0.5, triples, unit_marks)
        coarse, error = simulate_ladder(
            [grid_coefficients(kernel, d, 2.0) for d in (2.0, 0.25)], rate, unit_marks, atoms,
            guess=np.array([0.05, 0.1, 0.15]), allow_unstable=True,
        )
        assert isinstance(error, RunawayIntensityError)
        assert str(error).startswith(f"bin intensity {fine.intensity[4]:.4g} needs")
        _assert_trace_is(coarse, discrete_scheme_reference(
            kernel, rate, unit_marks, 2.0, 1, atoms_from_triples(2.0, 0.5, triples, unit_marks)
        ))
        assert list(coarse.events) == [0, 3] and len(atoms.strips) == 1

    def test_guessed_bin_of_many_marks_pushes_left_to_right_sum(self):
        # h = 1 and psi(x) = 1e-20 + x, so bin 6's level is the mass of bin 4
        # to the last bit.  Bin 4 accepts 8 terms 1 / (k + 3), as guessed, so
        # its push is the kept guess: their left-to-right sum, where numpy's
        # pairwise sum is another float
        model = hp.MarkModel("exponential", (1.0,), modulation="absolute-value")
        kernel, rate = hp.constant_kernel(1.0, _REF_T), hp.relu_affine(1e-20)
        terms = [1.0 / (k + 3) for k in range(8)]
        triples = [(0.5, 1e-21, 1e-20)] + [(1.6 + k * 1e-3, 1e-21, y) for k, y in enumerate(terms)]
        triples += [(2.75, 0.5, 1.0)]
        [disc] = simulate_ladder(
            [grid_coefficients(kernel, 0.5, _REF_T)], rate, model,
            atoms_from_triples(_REF_T, 4.0, triples, model), guess=[t for t, _, _ in triples],
            allow_unstable=True,
        )
        _assert_trace_is(disc, discrete_scheme_reference(
            kernel, rate, model, 0.5, 8, atoms_from_triples(_REF_T, 4.0, triples, model)
        ))
        assert list(disc.events) == [0, 1, 0, 0, 8, 0, 1, 0, 0]
        assert disc.intensity[6] == np.cumsum(terms)[-1] != np.sum(terms)

    def test_grids_share_their_horizon(self, unit_marks):
        kernel = hp.exponential_kernel(0.5, 1.0, 4.0)
        atoms = hp.sample_atoms(4.0, 2.0, unit_marks, 0)
        grids = [grid_coefficients(kernel, 0.5, 4.0), grid_coefficients(kernel, 0.5, 2.0)]
        with pytest.raises(ParameterError, match="share one horizon"):
            simulate_ladder(grids, hp.relu_affine(1.0), unit_marks, atoms)
        assert simulate_ladder([], hp.relu_affine(1.0), unit_marks, atoms) == []


# The criterion-8 process at a long horizon.  After continuous thinning the
# ceiling (the base strip's 10.1) is above every discrete level at delta =
# 0.25 (at most 5.5); on the base strip at a ceiling
# of 4 (seed 1) the discrete walk extends it itself, at bin 343, after
# hundreds of pushes, some of them past that bin.
_LONG_T = 200.0
_LONG_KERNEL = hp.exponential_kernel(0.604, 1.0, _LONG_T)
_LONG_RATE = hp.relu_affine(1.0)


@pytest.fixture(scope="module")
def long_horizon_atoms():
    """Seed 2's ladder after continuous thinning at T = 200, unit marks."""
    model = hp.MarkModel()
    atoms = hp.sample_atoms(
        _LONG_T, hp.default_ceiling(_LONG_RATE, _LONG_KERNEL, model), model, 2
    )
    simulate_continuous(_LONG_KERNEL, _LONG_RATE, model, _LONG_T, atoms)
    return atoms


class TestDiscreteWalk:
    def test_long_horizon_after_continuous_thinning(self, long_horizon_atoms):
        strips = len(long_horizon_atoms.strips)
        disc, _ = _assert_matches_reference(
            _LONG_KERNEL, _LONG_RATE, hp.MarkModel(), 0.25, 800,
            lambda: copy.deepcopy(long_horizon_atoms),
        )
        assert disc.terminal_count > 400 and strips == len(long_horizon_atoms.strips)

    def test_long_horizon_extension_after_pushes(self, unit_marks):
        disc, atoms = _assert_matches_reference(
            _LONG_KERNEL, _LONG_RATE, unit_marks, 0.25, 800,
            lambda: hp.sample_atoms(_LONG_T, 4.0, unit_marks, 1),
        )
        first_over = int(np.argmax(disc.intensity > 4.0))
        assert first_over == 343 and len(atoms.strips) == 2
        assert np.count_nonzero(disc.mass[1:first_over]) > 100
        assert disc.events[first_over:].sum() > 0

    def test_psi_input_at_long_horizon(self, long_horizon_atoms):
        # one pass: the whole grid once, and windows of at most twice the
        # atoms they scan plus W per push; far below psi of every later bin
        # after each push
        count = round(_LONG_T / 0.0125)
        calls, disc = _psi_calls(
            _LONG_KERNEL, _LONG_RATE, hp.MarkModel(), 0.0125, count,
            copy.deepcopy(long_horizon_atoms),
        )
        pushes = np.count_nonzero(disc.mass[1:count])
        n = len(long_horizon_atoms.merged()[0])
        assert pushes > 500 and calls.count(count + 1) == 1
        assert sum(calls) <= count + 1 + 2 * n + simulate._WINDOW * (pushes + 1)
        assert sum(calls) < count * pushes / 20

    def test_guessed_windows_at_long_horizon(self, long_horizon_atoms):
        # with the continuous path as the guess, a window of whole bins reads
        # the levels of up to 16 guessed pushes at once: a few dozen windows
        # where the walk without a guess reads one per push
        count = round(_LONG_T / 0.0125)
        model = hp.MarkModel()
        cont = simulate_continuous(
            _LONG_KERNEL, _LONG_RATE, model, _LONG_T, copy.deepcopy(long_horizon_atoms)
        )
        guessed, disc = _psi_calls(
            _LONG_KERNEL, _LONG_RATE, model, 0.0125, count,
            copy.deepcopy(long_horizon_atoms), guess=cont.times,
        )
        walked, _ = _psi_calls(
            _LONG_KERNEL, _LONG_RATE, model, 0.0125, count, copy.deepcopy(long_horizon_atoms)
        )
        pushes = np.count_nonzero(disc.mass[1:count])
        assert guessed.count(count + 1) == walked.count(count + 1) == 1
        assert len(walked) - 1 >= pushes > 500
        assert len(guessed) - 1 <= 50

    def test_guessed_pushes_made_again_after_a_difference(self, long_horizon_atoms, monkeypatch):
        # a window pushes its guesses in place and, where they differ from
        # the trace, undoes them and makes the kept ones again.  On short
        # paths the guess is the trace's own events and one rejected atom
        # after most of them, where the last window differs, so some bins
        # push twice and none more.  At T = 200 the guess is the continuous
        # path, and at every step the pushes made stay within 2.5 times
        # the trace's
        model = hp.MarkModel()
        reached = collections.Counter()
        real = simulate._Walk.push

        def counting(walk, pushes):
            pushes = list(pushes)
            reached.update(j for j, _ in pushes)
            real(walk, pushes)

        monkeypatch.setattr(simulate._Walk, "push", counting)
        kernel = hp.exponential_kernel(0.604, 1.0, 5.0)
        most = []
        for seed in range(20):
            atoms = hp.sample_atoms(5.0, 10.0, model, seed)
            grid = grid_coefficients(kernel, 0.05, 5.0)
            [disc] = simulate_ladder([grid], _LONG_RATE, model, atoms)
            events = disc.times
            tau = atoms.merged()[0]
            late = tau[(tau > events[-2]) & ~np.isin(tau, events)][:1]
            reached.clear()
            simulate_ladder([grid], _LONG_RATE, model, atoms, guess=np.sort([*events, *late]))
            assert len(atoms.strips) == 1       # one pass
            most.append(max(reached.values(), default=0))
        assert max(most) == 2
        cont = simulate_continuous(
            _LONG_KERNEL, _LONG_RATE, model, _LONG_T, copy.deepcopy(long_horizon_atoms)
        )
        for delta in (0.5, 0.1, 0.0125):
            reached.clear()
            atoms = copy.deepcopy(long_horizon_atoms)
            [disc] = simulate_ladder(
                [grid_coefficients(_LONG_KERNEL, delta, _LONG_T)], _LONG_RATE, model, atoms,
                guess=cont.times,
            )
            assert len(atoms.strips) == len(long_horizon_atoms.strips)
            pushes = disc.mass[1:-1].nonzero()[0] + 1
            assert set(reached) >= set(pushes.tolist())
            assert sum(reached.values()) <= 2.5 * len(pushes)

    def test_guessed_atoms_that_cannot_push_cost_no_window(self):
        # b = 1{y >= 1}: a guess holding the trace's events and every atom of
        # b = 0 that it rejects reads its levels in one window, as the trace's
        # own events do: acceptance is compared at atoms that can push alone
        model = hp.MarkModel("exponential", (1.0,), modulation="indicator", mod_params=(1.0,))
        kernel = hp.exponential_kernel(0.604, 1.0, _REF_T)
        for seed in range(30):
            atoms = hp.sample_atoms(_REF_T, 10.0, model, seed)
            [disc] = simulate_ladder(
                [grid_coefficients(kernel, 0.5, _REF_T)], _LONG_RATE, model, copy.deepcopy(atoms)
            )
            events = disc.times
            tau, _, y, _ = atoms.merged()
            rejected = tau[(model.modulate(y) == 0.0) & ~np.isin(tau, events)]
            assert len(rejected) > 0
            for guess in (events, np.sort([*events, *rejected])):
                calls, _ = _psi_calls(
                    kernel, _LONG_RATE, model, 0.5, 8, copy.deepcopy(atoms), guess=guess
                )
                assert len(calls) == 2, seed

    def test_many_marks_in_one_bin(self):
        # exponential marks with b = |y|: both per-bin sums hold 8 or more
        # non-integer terms, added left to right, where numpy's pairwise sum
        # of the same terms is another float
        model = hp.MarkModel("exponential", (1.0,), modulation="absolute-value")
        disc, _ = _assert_matches_reference(
            _REF_KERNELS["exponential"], _REF_RATES["relu"], model, 2.0, 2,
            lambda: hp.sample_atoms(_REF_T, 4.0, model, 157),
        )
        first_bin = disc.marks[: disc.events[1]]
        left_to_right = np.cumsum(first_bin)[-1]
        assert len(first_bin) >= 8
        assert disc.mass[1] == disc.risk[1] == left_to_right != np.sum(first_bin)

    def test_bins_straddling_window_edges(self):
        # b = |y|.  The first window holds atoms 0-63: bin 2's atoms 60-69 all
        # pass, so its push counts the ones past the window's edge.  The next
        # window starts at atom 70 and holds 64 atoms: bin 3 rejects its atoms
        # 70-131 and passes 132-133, which push, and 134-143 past the
        # window's edge, so its push sums all 12 terms left to right (numpy's
        # pairwise sum is another float).  The terms on either side of the
        # edge alone would give bin 4 another level
        kernel, rate = hp.exponential_kernel(4.0, 1.5, _REF_T), hp.relu_affine(1e-3)
        model = hp.MarkModel("exponential", (1.0,), modulation="absolute-value")
        assert simulate._WINDOW == 64
        early, late = [0.2, 0.9], [1.0 / (k + 3) for k in range(10)]
        triples = [(0.5 + k * 1e-3, 3.0, 1.0) for k in range(60)]
        triples += [(1.5 + k * 1e-3, 1e-4, 1e-4) for k in range(10)]
        triples += [(2.1 + k * 1e-3, 3.9, 1.0) for k in range(62)]
        triples += [(2.8 + k * 1e-3, 1e-4, y) for k, y in enumerate(early)]
        triples += [(2.9 + k * 1e-3, 1e-4, y) for k, y in enumerate(late)]
        triples += [(3.5, 0.1, 1.0)]
        disc, _ = _assert_matches_reference(
            kernel, rate, model, 1.0, 4, lambda: atoms_from_triples(_REF_T, 4.0, triples, model),
        )
        assert list(disc.events) == [0, 0, 10, 12, 1]
        assert disc.mass[3] == np.cumsum([*early, *late])[-1] != np.sum([*early, *late])
        coeffs = grid_coefficients(kernel, 1.0, _REF_T).values
        for part in (early, late):
            alone = float(rate.fn(coeffs[1] * disc.mass[2] + coeffs[0] * np.cumsum(part)[-1]))
            assert disc.intensity[4] != alone

    def test_extension_drops_later_pushes(self, unit_marks):
        # bin 1 pushes; bin 2, which holds no atom, is over the ceiling 1;
        # bin 3's level is under it again and bin 3 pushes; bin 4's atom is
        # over it.  The extension at bin 2 drops bin 3's push, and on atoms
        # of a horizon where no doubling fits the atom budget it is refused
        # at bin 2's level, as in the reference
        kernel, rate = hp.exponential_kernel(2.0, 2.0, _REF_T), hp.relu_affine(0.25)
        triples = [(0.1, 0.1, 1.0), (0.6, 0.5, 1.0), (0.85, 0.2, 1.0)]
        disc, atoms = _assert_matches_reference(
            kernel, rate, unit_marks, 0.25, 16,
            lambda: atoms_from_triples(_REF_T, 1.0, triples, unit_marks),
        )
        assert disc.intensity[2] > 1.0 >= disc.intensity[3] and len(atoms.strips) > 1
        assert disc.events[1] == disc.events[3] == 1
        huge = 0.75 * ATOM_BUDGET
        with pytest.raises(RunawayIntensityError) as ref:
            discrete_scheme_reference(
                kernel, rate, unit_marks, 0.25, 16,
                atoms_from_triples(huge, 1.0, triples, unit_marks),
            )
        level = str(ref.value).split(" needs")[0]
        assert level == f"bin intensity {disc.intensity[2]:.4g}"
        atoms = atoms_from_triples(huge, 1.0, triples, unit_marks)
        [error] = simulate_ladder(
            [grid_coefficients(kernel, 0.25, _REF_T)], rate, unit_marks, atoms
        )
        assert isinstance(error, RunawayIntensityError)
        assert str(error).startswith(f"{level} needs")
        assert len(atoms.strips) == 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_short_horizon_is_a_prefix(self, seed, unit_marks):
        # one ladder drawn at T = 80: the trace on the grid of [0, 30] is the
        # first 600 bins of the trace on [0, 80]
        kernel = hp.exponential_kernel(0.604, 1.0, 80.0)
        atoms = hp.sample_atoms(80.0, 4.0, unit_marks, seed)
        [long] = simulate_ladder(
            [grid_coefficients(kernel, 0.05, 80.0)], _LONG_RATE, unit_marks, atoms
        )
        short, _ = _assert_matches_reference(
            kernel, _LONG_RATE, unit_marks, 0.05, 600, lambda: atoms
        )
        for field in ("intensity", "mass", "events", "risk"):
            assert np.array_equal(getattr(short, field), getattr(long, field)[:601]), field
        n = short.terminal_count
        assert np.array_equal(short.times, long.times[:n]) and long.times[n] > 30.0
        assert np.array_equal(short.marks, long.marks[:n])


class TestDiscreteLaw:
    def test_distribution_matches_atom_scheme(self, unit_marks):
        from test_randomness import _two_sample_chisquare_pvalue

        kernel = hp.exponential_kernel(0.604, 1.0, 5.0)
        jr = hp.relu_affine(1.0)
        grid = hp.grid_coefficients(kernel, 0.25, 5.0)
        n = 8000
        sampled = np.empty(n, dtype=int)
        thinned = np.empty(n, dtype=int)
        for s in range(n):
            sampled[s] = compound_poisson_scheme(
                kernel, jr, unit_marks, 0.25, 20, seed=(s, 0)
            ).sum()
            atoms = hp.sample_atoms(5.0, 10.0, unit_marks, (s, 1))
            [disc] = hp.simulate_ladder([grid], jr, unit_marks, atoms)
            thinned[s] = disc.terminal_count
        assert _two_sample_chisquare_pvalue(sampled, thinned) > 0.01


class TestCouple:
    def test_flat_rate_perfect_coupling(self, unit_marks):
        cont, disc = couple_step(
            hp.zero_kernel(10.0), hp.constant_rate(2.0), unit_marks, 10.0, 0.5, seed=40
        )
        assert cont.terminal_count == disc.terminal_count
        assert cont.terminal_risk == disc.terminal_risk
        assert np.array_equal(disc.times, cont.times)
        # the grid restrictions coincide, so the grid discrepancy term vanishes
        rc = path_to_step(cont, "risk")
        grid = 0.5 * np.arange(21)
        assert np.array_equal(rc.value_at(grid), disc.risk)

    def test_terminal_risk_is_the_risk_paths_last_value(self, exp_kernel):
        # Exp(1) marks add up differently in numpy's pairwise sum: on 37 of
        # these 200 seeds it misses the left-to-right risk path's last bits
        rate, marks = hp.relu_affine(1.0), hp.MarkModel("exponential", (1.0,))
        for seed in range(200):
            cont, _ = couple_step(exp_kernel, rate, marks, 5.0, 0.5, seed=seed)
            assert cont.terminal_risk == path_to_step(cont, "risk").values[-1], seed

    def test_same_seed_bit_identical(self, cos_kernel, unit_marks):
        jr = hp.relu_affine(1.0)
        a = couple_step(cos_kernel, jr, unit_marks, 5.0, 0.25, seed=9)
        b = couple_step(cos_kernel, jr, unit_marks, 5.0, 0.25, seed=9)
        assert np.array_equal(a[0].times, b[0].times)
        assert np.array_equal(a[0].marks, b[0].marks)
        assert np.array_equal(a[1].mass, b[1].mass)
        assert np.array_equal(a[1].intensity, b[1].intensity)

    def test_finer_step_couples_tighter(self, cos_kernel, unit_marks):
        jr = hp.relu_affine(1.0)
        gaps = {0.5: [], 0.01: []}
        for delta in gaps:
            for s in range(200):
                cont, disc = couple_step(cos_kernel, jr, unit_marks, 5.0, delta, seed=(1000, s))
                gaps[delta].append(abs(cont.terminal_count - disc.terminal_count))
        assert np.mean(gaps[0.01]) < np.mean(gaps[0.5])

    def test_monotone_coupling_degradation(self, cos_kernel, unit_marks):
        jr = hp.relu_affine(1.0)
        ladder = [0.5, 0.25, 0.1, 0.05]
        means, ses = [], []
        for delta in ladder:
            vals = np.array([
                abs(np.subtract(*[
                    p.terminal_count for p in couple_step(
                        cos_kernel, jr, unit_marks, 5.0, delta, seed=(77, s))
                ]))
                for s in range(200)
            ], dtype=float)
            means.append(vals.mean())
            ses.append(vals.std(ddof=1) / math.sqrt(len(vals)))
        for i in range(len(ladder) - 1):
            assert means[i + 1] <= means[i] + ses[i]

    def test_horizon_multiple_precondition(self, unit_marks):
        with pytest.raises(ParameterError):
            couple_step(hp.zero_kernel(5.0), hp.constant_rate(1.0), unit_marks, 5.0, 0.3, seed=1)

    def test_empty_ladder_is_refused(self, exp_kernel, unit_marks):
        atoms = hp.sample_atoms(5.0, 4.0, unit_marks, 0)
        with pytest.raises(ParameterError, match="at least one grid"):
            hp.couple(exp_kernel, hp.relu_affine(1.0), unit_marks, [], atoms)

    @settings(max_examples=60, deadline=None)
    @given(
        T=st.sampled_from([0.5, 1.0, 7.0, 10.0, 33.3]),
        k=st.integers(2, 400),
        seed=st.integers(0, 2**16),
    )
    def test_last_bin_ends_at_the_horizon(self, T, k, seed):
        # k * (T / k) need not round to T; the grid ends at T all the same
        kernel = hp.exponential_kernel(0.5, 1.0, T)
        grid = hp.grid_coefficients(kernel, T / k, T)
        assert grid.count == k and grid.points[-1] == T
        cont, disc = couple_step(
            kernel, hp.relu_affine(0.5), _REF_MARKS["point-mass"], T, T / k, seed=seed
        )
        assert disc.horizon == cont.horizon == T
        # without feedback both processes accept the same atoms, the last
        # bin's up to T included
        cont, disc = couple_step(
            hp.zero_kernel(T), hp.constant_rate(2.0), _REF_MARKS["point-mass"], T, T / k,
            seed=seed,
        )
        assert np.array_equal(disc.times, cont.times)


class TestDistinct:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from([0.0, 0.1, 0.2, 0.30000000000000004, 1.0, 5.0]),
        st.floats(0.0, 5.0),
    ), max_size=40))
    def test_matches_np_unique(self, values):
        a = np.array(values, dtype=float)
        assert np.array_equal(simulate.distinct(a), np.unique(a))


class TestPathToStep:
    def test_empty_paths(self, unit_marks):
        atoms = atoms_from_triples(2.0, 1.0, [], unit_marks)
        cont = hp.simulate_continuous(
            hp.zero_kernel(2.0), hp.constant_rate(0.5), unit_marks, 2.0, atoms
        )
        sp = path_to_step(cont, "count")
        assert sp.jump_count == 0 and sp.values[0] == 0.0
        [disc] = hp.simulate_ladder(
            [hp.grid_coefficients(hp.zero_kernel(2.0), 0.5, 2.0)], hp.constant_rate(0.5),
            unit_marks, atoms,
        )
        lam = path_to_step(disc, "intensity")
        assert lam.jump_count == 0 and lam.values[0] == 0.5

    def test_discrete_mass_embedding_example(self, unit_marks):
        delta = 0.25
        trace = hp.DiscreteTrace(
            grid=hp.grid_coefficients(hp.zero_kernel(1.0), delta, 1.0),
            intensity=np.ones(5),
            mass=np.array([0.0, 0.0, 2.0, 0.0, 1.0]),
            events=np.array([0, 0, 2, 0, 1]),
            risk=np.array([0.0, 0.0, 2.0, 2.0, 3.0]),
            times=np.array([0.3, 0.4, 0.9]),
            marks=np.array([1.0, 1.0, 1.0]),
        )
        sp = path_to_step(trace, "mass")
        assert np.array_equal(sp.breakpoints, [0.0, 2 * delta, 4 * delta])
        assert np.array_equal(sp.values, [0.0, 2.0, 3.0])

    def test_continuous_count_embedding(self, unit_marks):
        path = hp.ContinuousPath(
            horizon=1.0,
            times=np.array([0.3, 0.7]),
            marks=np.array([1.0, 1.0]),
            weights=np.array([1.0, 1.0]),
            intensities=np.array([1.0, 1.0]),
        )
        sp = path_to_step(path, "count")
        assert np.array_equal(sp.breakpoints, [0.0, 0.3, 0.7])
        assert np.array_equal(sp.values, [0.0, 1.0, 2.0])

    def test_tied_jumps_sum_left_to_right(self):
        # at a time that several jumps share, the value is the running sum
        # through its last jump, as a left-to-right loop adds them
        times = [0.2, 0.5, 0.5, 0.5, 0.8, 0.8]
        increments = [0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 0.15]
        running, expected = 0.0, {}
        for t, x in zip(times, increments):
            running += x
            expected[t] = running
        sp = step_from_jumps(times, increments, 1.0)
        assert sp.breakpoints.tolist() == [0.0, *expected]
        assert sp.values.tolist() == [0.0, *expected.values()]

    def test_zero_weight_jumps_merge_away(self):
        sp = step_from_jumps([0.2, 0.5], [0.0, 1.0], 1.0)
        assert np.array_equal(sp.breakpoints, [0.0, 0.5])

    def test_canonical_form_enforced(self):
        sp = make_step_path([0.0, 0.4, 0.6], [1.0, 1.0, 2.0], 1.0)
        assert np.array_equal(sp.breakpoints, [0.0, 0.6])
        with pytest.raises(ParameterError):
            hp.StepPath(np.array([0.0, 0.5, 0.5]), np.array([0.0, 1.0, 2.0]), 1.0)

    def test_owns_its_arrays(self):
        # already canonical input: the path still holds copies, not the input
        b, v = np.array([0.0, 0.4, 0.6]), np.array([1.0, 2.0, 3.0])
        sp = make_step_path(b, v, 1.0)
        assert not np.shares_memory(sp.breakpoints, b)
        assert not np.shares_memory(sp.values, v)


class TestRiskPath:
    def test_coupled_pair_embeds_its_risk_once(self, exp_kernel):
        marks = hp.MarkModel("exponential", (1.0,))
        cont, disc = couple_step(exp_kernel, hp.relu_affine(1.0), marks, 5.0, 0.125, seed=7)
        assert cont.terminal_count > 0 and disc.terminal_count > 0
        for path in (cont, disc):
            risk = path.risk_path
            assert risk.equals(path_to_step(path, "risk"))
            assert path.risk_path is risk

    def test_no_events_give_the_zero_path(self, unit_marks):
        atoms = atoms_from_triples(2.0, 1.0, [], unit_marks)
        grid = hp.grid_coefficients(hp.zero_kernel(2.0), 0.5, 2.0)
        cont, [disc] = hp.couple(
            hp.zero_kernel(2.0), hp.constant_rate(0.5), unit_marks, [grid], atoms
        )
        for path in (cont, disc):
            assert np.array_equal(path.risk_path.breakpoints, [0.0])
            assert np.array_equal(path.risk_path.values, [0.0])
            assert path.risk_path.horizon == 2.0


# The trial-major ladder rests on this invariance: for one seed, the
# continuous path and every delta's discrete trace are the same whichever
# process extended the shared atom ceiling first.  A ceiling of 0.5 sits
# below the empty-past rate, so both processes extend it in every example.
_INV_T = 4.0
_INV_DELTAS = (1.0, 0.5, 0.25, 0.1, 0.05)
_INV_KERNEL = hp.exponential_kernel(0.604, 1.0, _INV_T)
_INV_RATE = hp.relu_affine(1.0)
_INV_MARKS = hp.MarkModel("exponential", (1.0,))


def _inv_atoms(seed):
    return hp.sample_atoms(_INV_T, 0.5, _INV_MARKS, seed)


def _inv_continuous(atoms):
    return simulate_continuous(_INV_KERNEL, _INV_RATE, _INV_MARKS, _INV_T, atoms)


def _inv_discrete(delta, atoms):
    [trace] = simulate_ladder(
        [grid_coefficients(_INV_KERNEL, delta, _INV_T)], _INV_RATE, _INV_MARKS, atoms
    )
    return trace


def _same_arrays(a, b, fields):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


class TestSharedAtomInvariance:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        deltas=st.lists(st.sampled_from(_INV_DELTAS), min_size=1, max_size=3),
    )
    def test_continuous_path_ignores_discrete_extensions(self, seed, deltas):
        fresh = _inv_continuous(_inv_atoms(seed))
        atoms = _inv_atoms(seed)
        for delta in deltas:
            _inv_discrete(delta, atoms)
        shared = _inv_continuous(atoms)
        assert _same_arrays(fresh, shared, ("times", "marks", "weights", "intensities"))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.permutations(_INV_DELTAS),
        continuous_first=st.booleans(),
    )
    def test_discrete_trace_ignores_earlier_deltas(self, seed, order, continuous_first):
        atoms = _inv_atoms(seed)
        if continuous_first:
            _inv_continuous(atoms)
        for delta in order:
            shared = _inv_discrete(delta, atoms)
            fresh = _inv_discrete(delta, _inv_atoms(seed))
            assert _same_arrays(
                fresh, shared, ("intensity", "mass", "events", "risk", "times", "marks")
            )


class _CountingPoints(np.ndarray):
    """Grid points that count the ``searchsorted`` calls made on them."""

    calls = 0

    def searchsorted(self, *args, **kwargs):
        _CountingPoints.calls += 1
        return np.asarray(self).searchsorted(*args, **kwargs)


class TestBatchedLadder:
    def test_an_agreeing_batch_costs_calls_per_grid_not_per_trial(self, unit_marks):
        # a constant rate of 1 accepts the atoms under it in every bin of
        # every grid, as each trial's guess says, so no walk differs.  One
        # trial makes one psi call per grid, for its one window, and one for
        # every ceiling; a batch of 6 makes one for every first window and
        # one for every ceiling.  Both bin their atoms once per grid, and
        # each trial's traces are its own alone
        kernel, rate = hp.exponential_kernel(0.5, 1.0, 5.0), hp.constant_rate(1.0)
        calls = []
        counting = dataclasses.replace(rate, fn=lambda x: calls.append(len(x)) or rate.fn(x))
        grids = [
            dataclasses.replace(grid, points=grid.points.view(_CountingPoints))
            for grid in (grid_coefficients(kernel, d, 5.0) for d in (0.5, 0.1, 0.02))
        ]
        batch = [hp.sample_atoms(5.0, 2.0, unit_marks, seed) for seed in range(6)]
        guesses = [a.merged()[0][a.merged()[1] <= 1.0] for a in batch]
        assert 0 < min(map(len, guesses)) and max(map(len, guesses)) <= simulate._GUESS_ROWS
        for trials in (1, 6):
            calls.clear()
            _CountingPoints.calls = 0
            ladders = simulate_ladder(
                grids, counting, unit_marks, batch[:trials], guess=guesses[:trials]
            )
            assert len(calls) == (len(grids) if trials == 1 else 1) + 1
            assert _CountingPoints.calls == len(grids)
        for atoms, guess, traces in zip(batch, guesses, ladders):
            alone = simulate_ladder(grids, rate, unit_marks, copy.deepcopy(atoms), guess=guess)
            for disc, ref in zip(traces, alone):
                assert np.array_equal(disc.times, guess)
                for field in ("intensity", "mass", "events", "risk", "times", "marks"):
                    assert getattr(disc, field).tobytes() == getattr(ref, field).tobytes()

    def test_a_grid_that_ran_away_is_none_for_later_trials(self, unit_marks):
        # test_runaway_aborts_only_its_grid's atoms, then the same atoms
        # within the atom budget: in one batch the second trial's delta-0.25
        # walk is dropped, so its one strip stays, while alone it would cover
        kernel, rate = hp.erlang_kernel(1.0, 3, 1.0, 2.0), hp.relu_affine(0.25)
        triples = [(0.05, 0.01, 1.0), (0.1, 0.01, 1.0), (0.15, 0.01, 1.0)]
        grids = [grid_coefficients(kernel, d, 2.0) for d in (2.0, 0.25)]
        runaway = atoms_from_triples(1.5 * ATOM_BUDGET, 0.5, triples, unit_marks)
        later = atoms_from_triples(2.0, 0.5, triples, unit_marks)
        (coarse, error), (again, dropped) = simulate_ladder(
            grids, rate, unit_marks, [runaway, later], allow_unstable=True
        )
        assert isinstance(error, RunawayIntensityError) and dropped is None
        assert len(runaway.strips) == len(later.strips) == 1
        _assert_trace_is(again, discrete_scheme_reference(
            kernel, rate, unit_marks, 2.0, 1, atoms_from_triples(2.0, 0.5, triples, unit_marks)
        ))
        alone = atoms_from_triples(2.0, 0.5, triples, unit_marks)
        simulate_ladder(grids, rate, unit_marks, alone, allow_unstable=True)
        assert len(alone.strips) > 1


_BATCH_FIELDS = ("intensity", "mass", "events", "risk", "times", "marks")
_INDICATOR = hp.MarkModel("exponential", (1.0,), modulation="indicator", mod_params=(0.5,))


def _assert_batch_is_one_by_one(grids, rate, model, batch, guesses=None):
    """One ``simulate_ladder`` call on the batch gives every trial the
    traces, errors and strips of running it alone, byte for byte; the
    batch's traces and its trials' atoms after it.  A runaway trial, whose
    grid is None for later trials of the batch, goes last."""
    ladders = copy.deepcopy(batch)
    together = simulate_ladder(grids, rate, model, ladders, guess=guesses, allow_unstable=True)
    for k, (atoms, ladder, traces) in enumerate(zip(batch, ladders, together)):
        alone = copy.deepcopy(atoms)
        ref = simulate_ladder(grids, rate, model, alone, allow_unstable=True,
                              guess=None if guesses is None else guesses[k])
        assert [s.theta_high for s in ladder.strips] == [s.theta_high for s in alone.strips]
        for disc, want in zip(traces, ref):
            if isinstance(want, RunawayIntensityError):
                assert type(disc) is RunawayIntensityError and str(disc) == str(want)
                continue
            for field in _BATCH_FIELDS:
                assert getattr(disc, field).tobytes() == getattr(want, field).tobytes(), field
    return together, ladders


def _thinned_batch(kernel, rate, model, T, ceiling, seeds, thin_copies=False):
    """Each seed's atoms after continuous thinning (before it, if
    ``thin_copies``), and its path's events."""
    batch = [hp.sample_atoms(T, ceiling, model, seed) for seed in seeds]
    paths = [simulate_continuous(kernel, rate, model, T, copy.deepcopy(atoms) if thin_copies
                                 else atoms, allow_unstable=True) for atoms in batch]
    return batch, [path.times for path in paths]


def _batch_case(name):
    """A batch-invariance case by name: grids, jump rate, marks, the trials'
    atoms and their guesses."""
    unit = hp.MarkModel("point-mass", (1.0,))
    cos, relu = hp.cosine_decay_kernel(0.6, 5.0), hp.relu_affine(1.0)
    cos_grids = [grid_coefficients(cos, d, 5.0) for d in (0.5, 0.1, 0.0125)]
    ceiling = hp.default_ceiling(relu, cos, unit)
    if name in ("differ", "no-guess", "atom-free-trial"):
        batch, guesses = _thinned_batch(cos, relu, unit, 5.0, ceiling, range(8))
        if name == "no-guess":
            guesses = None
        if name == "atom-free-trial":
            batch.insert(2, atoms_from_triples(5.0, ceiling, [], unit))
            guesses.insert(2, np.empty(0))
        return cos_grids, relu, unit, batch, guesses
    if name == "many-guesses":
        kernel, rate = hp.exponential_kernel(0.5, 1.0, 5.0), hp.relu_affine(4.0)
        batch, guesses = _thinned_batch(kernel, rate, unit, 5.0, 16.0, range(6))
        assert min(map(len, guesses)) > simulate._GUESS_ROWS
        return ([grid_coefficients(kernel, d, 5.0) for d in (0.5, 0.1, 0.02)],
                rate, unit, batch, guesses)
    if name == "span-0":
        kernel = hp.compact_kernel(0.6, 0.3, 5.0)
        grids = [grid_coefficients(kernel, d, 5.0) for d in (0.5, 0.1, 0.02)]
        assert grids[0].span == 0 < grids[1].span
        batch, guesses = _thinned_batch(kernel, relu, unit, 5.0, 4.0, range(6))
        return grids, relu, unit, batch, guesses
    if name == "extensions":
        kernel = hp.exponential_kernel(0.9, 1.0, 5.0)
        batch, guesses = _thinned_batch(kernel, relu, _INDICATOR, 5.0, 0.25, range(6), True)
        return ([grid_coefficients(kernel, d, 5.0) for d in (0.5, 0.1, 0.02)],
                relu, _INDICATOR, batch, guesses)
    if name == "done-walk-extends":
        # delta 0.5: the atoms in bins 1 and 3 pass as guessed under the
        # ceiling 1.2, so each first window confirms its guess to the last
        # atom, yet bin 2's level 1 + h(0.5) is above 1.2: the walk restarts
        # there after the pass, dropping its push at bin 3
        kernel = hp.exponential_kernel(0.5, 1.0, 5.0)
        triples = [(0.05, 0.5, 1.0), (1.2, 0.5, 1.0)]
        batch = [atoms_from_triples(5.0, 1.2, triples, unit) for _ in range(2)]
        return ([grid_coefficients(kernel, d, 5.0) for d in (0.5, 0.1)], relu, unit, batch,
                [np.array([0.05, 1.2])] * 2)
    if name == "runaway":
        # test_runaway_aborts_only_its_grid's atoms last, after three trials
        # within the atom budget
        kernel, rate = hp.erlang_kernel(1.0, 3, 1.0, 2.0), hp.relu_affine(0.25)
        triples = [(0.05, 0.01, 1.0), (0.1, 0.01, 1.0), (0.15, 0.01, 1.0)]
        batch = [hp.sample_atoms(2.0, 0.5, unit, seed) for seed in range(3)]
        batch.append(atoms_from_triples(1.5 * ATOM_BUDGET, 0.5, triples, unit))
        return [grid_coefficients(kernel, d, 2.0) for d in (2.0, 0.25)], rate, unit, batch, None
    raise KeyError(name)


class TestBatchedWalks:
    @pytest.mark.parametrize("name", [
        "differ", "many-guesses", "no-guess", "span-0", "extensions", "done-walk-extends",
        "runaway", "atom-free-trial",
    ])
    def test_a_batch_is_its_trials_one_by_one(self, name):
        grids, rate, model, batch, guesses = _batch_case(name)
        traces, ladders = _assert_batch_is_one_by_one(grids, rate, model, batch, guesses)
        if name in ("extensions", "done-walk-extends"):     # the ladder draws strips
            assert all(len(a.strips) > len(b.strips) for a, b in zip(ladders, batch))
        if name == "runaway":
            assert isinstance(traces[-1][1], RunawayIntensityError)

    def test_a_batch_without_atoms_is_its_trials_one_by_one(self, unit_marks):
        # no trial holds an atom in (0, T]: every walk reads nothing and
        # every trace is the empty-past rate and zeros
        kernel, rate = hp.exponential_kernel(0.604, 1.0, 5.0), hp.relu_affine(1e-6)
        grids = [grid_coefficients(kernel, d, 5.0) for d in (0.5, 0.25, 0.1)]
        batch = [atoms_from_triples(5.0, 1.0, [], unit_marks) for _ in range(3)]
        for guesses in (None, [np.empty(0)] * 3):
            for traces in _assert_batch_is_one_by_one(grids, rate, unit_marks, batch, guesses)[0]:
                for disc in traces:
                    assert not disc.events.any() and not disc.risk.any()
                    assert np.all(disc.intensity == 1e-6)

    def test_a_walk_begins_only_where_it_differs_or_outlives_its_first_window(
        self, unit_marks, monkeypatch
    ):
        # TestBatchedLadder's agreeing batch begins no walk: every first
        # window ends at its last atom and confirms its guess.  Dropping one
        # trial's first guessed atom makes its three walks differ, and a
        # rate of 4 gives some walks more than _GUESS_ROWS guessed bins
        begun = []
        real = simulate._Walk.begin

        def counting(walk, *args):
            begun.append(walk.grid.delta)
            real(walk, *args)

        monkeypatch.setattr(simulate._Walk, "begin", counting)
        kernel = hp.exponential_kernel(0.5, 1.0, 5.0)
        grids = [grid_coefficients(kernel, d, 5.0) for d in (0.5, 0.1, 0.02)]
        for value, ceiling, seeds in ((1.0, 2.0, range(6)), (4.0, 4.0, range(4))):
            rate = hp.constant_rate(value)
            batch = [hp.sample_atoms(5.0, ceiling, unit_marks, seed) for seed in seeds]
            guesses = [a.merged()[0][a.merged()[1] <= value] for a in batch]
            outliving = sum(
                len(np.unique(bins[bins < grid.count])) > simulate._GUESS_ROWS
                for grid in grids for bins in (grid.points.searchsorted(g) for g in guesses)
            )
            begun.clear()
            simulate_ladder(grids, rate, unit_marks, batch, guess=guesses)
            assert len(begun) == outliving
            if value == 1.0:
                assert outliving == 0
                assert guesses[2][0] < 5.0 - grids[0].delta
                guesses[2] = guesses[2][1:]
                begun.clear()
                simulate_ladder(grids, rate, unit_marks, batch, guess=guesses)
                assert sorted(begun) == sorted(grid.delta for grid in grids)
            else:
                assert 0 < outliving < len(grids) * len(batch)

    def test_risk_is_each_traces_running_sum_of_its_gains(self):
        # the read-off sums each grid's (trials x bins) block of mark gains
        # along its rows at once: the bytes of one running sum per trace
        model = hp.MarkModel("gaussian", (0.2, 1.0), modulation="absolute-value")
        kernel, rate = hp.exponential_kernel(0.5, 1.0, 5.0), hp.relu_affine(1.0)
        batch, guesses = _thinned_batch(kernel, rate, model, 5.0, 8.0, range(5))
        grids = [grid_coefficients(kernel, d, 5.0) for d in (0.5, 0.1, 0.02)]
        for traces in simulate_ladder(grids, rate, model, batch, guess=guesses):
            for grid, disc in zip(grids, traces):
                bins = grid.points.searchsorted(disc.times)
                gains = np.bincount(bins, weights=disc.marks, minlength=grid.count + 1)
                assert disc.risk.tobytes() == np.cumsum(gains).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kernel=st.sampled_from(sorted(_REF_KERNELS)),
        rate=st.sampled_from(sorted(_REF_RATES)),
        marks=st.sampled_from(sorted(_LADDER_MARKS)),
        deltas=st.lists(st.sampled_from((2.0, 1.0, 0.5, 0.1, 0.02)), min_size=1, max_size=4,
                        unique=True),
        ceiling=st.sampled_from((0.25, 1.0, 4.0)),
        guess=st.sampled_from(_GUESSES),
        trials=st.integers(2, 4),
        empty=st.booleans(),
    )
    def test_any_batch_is_its_trials_one_by_one(
        self, seed, kernel, rate, marks, deltas, ceiling, guess, trials, empty
    ):
        kernel, rate, model = _REF_KERNELS[kernel], _REF_RATES[rate], _LADDER_MARKS[marks]
        batch, guesses = [], []
        for k in range(trials):
            atoms = hp.sample_atoms(_REF_T, ceiling, model, (seed, k))
            cont = simulate_continuous(kernel, rate, model, _REF_T, atoms, allow_unstable=True)
            batch.append(atoms)
            guesses.append(_guess(guess, cont, atoms, seed, model))
        if empty:
            batch.insert(1, atoms_from_triples(_REF_T, ceiling, [], model))
            guesses.insert(1, None)
        grids = [grid_coefficients(kernel, d, _REF_T) for d in deltas]
        _assert_batch_is_one_by_one(grids, rate, model, batch, guesses)
