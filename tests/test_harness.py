import concurrent.futures
import json
import math
import pickle
import sys
from dataclasses import asdict

import numpy as np
import pytest

from hawkpath import harness, kernels, simulate
from hawkpath.cli import cli_main
from hawkpath.errors import ConfigError, RunawayIntensityError
from hawkpath.harness import (
    ExperimentConfig,
    build_jump_rate,
    build_kernel,
    build_mark_model,
    run_convergence,
    verify_bounds,
)
from hawkpath.metrics import (
    modulus_sparse,
    skorokhod_distance,
    skorokhod_upper_bound,
    sobolev_distance,
)
from hawkpath.simulate import ContinuousPath, path_to_step, simulate_ladder
from _coupling import couple_step


def null_config(**overrides):
    doc = {
        "kernel": {"family": "zero"},
        "jump_rate": {"family": "constant", "params": {"value": 2.0}},
        "marks": {"distribution": {"family": "point-mass", "value": 1.0}},
        "horizon": 10.0,
        "delta_ladder": [0.5, 0.25],
        "trials": 60,
        "metrics": ["terminal_count", "terminal_risk", "skorokhod_upper"],
        "seed": 7,
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


def busy_config(**overrides):
    """Rate-60 Poisson paths on [0, 10]: about 600 jumps each, past the 500
    jumps at which the exact Skorokhod metric used to give way to the surrogate."""
    doc = {
        "jump_rate": {"family": "constant", "params": {"value": 60.0}},
        "delta_ladder": [0.5],
        "trials": 2,
        **overrides,
    }
    return null_config(**doc)


def exponential_config(**overrides):
    doc = {
        "kernel": {"family": "exponential", "params": {"amplitude": 0.604, "decay": 1.0}},
        "jump_rate": {"family": "relu-affine", "params": {"baseline": 1.0}},
        "marks": {"distribution": {"family": "point-mass", "value": 1.0}},
        "horizon": 5.0,
        "delta_ladder": [0.5, 0.25, 0.125],
        "trials": 120,
        "metrics": ["terminal_count"],
        "seed": 3,
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


class TestConfigValidation:
    def test_missing_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kernel": {"family": "zero"}})

    def test_ladder_must_decrease(self):
        with pytest.raises(ConfigError):
            null_config(delta_ladder=[0.25, 0.5])

    def test_horizon_multiple(self):
        with pytest.raises(ConfigError):
            null_config(delta_ladder=[0.3])

    def test_step_within_the_multiple_tolerance_builds_its_grid(self):
        # 3 * 0.33333333334 passes T = 1 by 2e-11, inside the 1e-9 rule
        cfg = null_config(horizon=1.0, delta_ladder=[0.33333333334])
        (grid,) = cfg.run.grids
        assert grid.count == 3 and grid.horizon == 1.0 and grid.points[-1] == 1.0

    def test_trials_floor(self):
        with pytest.raises(ConfigError):
            null_config(trials=1)

    def test_unknown_metric(self):
        # entries that are not strings are refused before the table lookup,
        # where a list or a dict would be unhashable
        for entry in ("banana", ["sobolev"], {"a": 1}, 1):
            with pytest.raises(ConfigError, match="unknown metric"):
                null_config(metrics=[entry])

    def test_eta_window(self):
        with pytest.raises(ConfigError):
            null_config(sobolev_eta=1.0)

    def test_component_specs_checked_eagerly(self):
        with pytest.raises(ConfigError):
            null_config(kernel={"family": "warp-drive"})
        with pytest.raises(ConfigError):
            null_config(jump_rate={"family": "relu-affine", "params": {}})
        with pytest.raises(ConfigError):
            null_config(marks={"distribution": {"family": "cauchy"}})


class TestBuilders:
    def test_kernel_families(self):
        horizon = 5.0
        specs = [
            {"family": "exponential", "params": {"amplitude": 1.0, "decay": 2.0}},
            {"family": "erlang", "params": {"amplitude": 1.0, "shape": 2, "decay": 2.0}},
            {"family": "cosine-decay", "params": {"amplitude": 0.6}},
            {"family": "inverse-sqrt", "params": {"coefficient": 0.1}},
            {"family": "compact-support", "params": {"amplitude": 1.0, "support": 2.0}},
            {"family": "constant", "params": {"value": 0.1}},
            {"family": "zero"},
            {"family": "custom", "params": {"points": [[0.0, 1.0], [5.0, 0.0]]}},
        ]
        for spec in specs:
            k = build_kernel(spec, horizon)
            assert k.horizon == horizon

    def test_jump_rate_families(self):
        assert build_jump_rate({"family": "relu-affine", "params": {"baseline": 1.0}}).at_zero == 1.0
        assert build_jump_rate({"family": "sigmoid", "params": {"scale": 2.0}}).sup_norm == 2.0

    def test_mark_model_families(self):
        m = build_mark_model(
            {
                "distribution": {"family": "gaussian", "mean": 0.0, "sd": 1.0},
                "modulation": {"family": "indicator", "threshold": 0.5},
            }
        )
        assert m.distribution == "gaussian" and m.mod_params == (0.5,)


class TestRunConvergence:
    def test_null_config_terminal_metrics_vanish(self):
        report = run_convergence(null_config())
        for row in report.rows:
            if row.metric in ("terminal_count", "terminal_risk"):
                assert row.mean == 0.0 and row.stderr == 0.0
            if row.metric == "skorokhod_upper":
                # surrogate floor: delta plus a nonnegative modulus
                assert row.mean >= row.delta
        assert report.fits["terminal_count"] is None  # all-zero means cannot be fitted

    def test_exponential_config_shapes_and_fit(self):
        cfg = exponential_config()
        report = run_convergence(cfg)
        means = report.mean_table("terminal_count")
        assert [d for d, _, _ in means] == list(cfg.delta_ladder)
        assert all(m > 0 for _, m, _ in means)
        assert means[-1][1] < means[0][1]  # finer grid couples tighter
        fit = report.fits["terminal_count"]
        assert fit is not None and 0.5 <= fit.exponent <= 1.6

    def test_csv_layout(self):
        report = run_convergence(null_config())
        lines = report.to_csv_text().strip().split("\n")
        assert lines[0] == "delta,metric,mean,stderr,theory_shape,flag"
        assert len(lines) == 1 + 2 * 3  # ladder cells x metrics

    def test_skorokhod_exact_past_500_jumps_is_unflagged(self):
        (row,) = run_convergence(busy_config(metrics=["skorokhod_exact"])).rows
        assert row.flag == ""
        assert math.isfinite(row.mean) and row.mean > 0

    def test_skorokhod_exact_mean_equals_direct_distances(self):
        cfg = busy_config(metrics=["skorokhod_exact"])
        _, pairs = harness._run_trials(
            cfg, range(cfg.trials),
            lambda cfg, trial, cont, traces: (
                path_to_step(cont, "risk"), path_to_step(traces[0], "risk")
            ),
        )
        assert min(rc.jump_count for rc, _ in pairs) > 500
        direct = np.array([skorokhod_distance(rc, rd) for rc, rd in pairs])
        (row,) = run_convergence(cfg).rows
        assert row.mean == float(direct.mean())

    def test_skorokhod_upper_one_modulus_per_cell(self, monkeypatch):
        calls = []
        real = harness.modulus_sparse

        def counting(path, delta):
            calls.append(delta)
            return real(path, delta)

        monkeypatch.setattr(harness, "modulus_sparse", counting)
        cfg = busy_config(metrics=["skorokhod_exact", "skorokhod_upper"])
        report = run_convergence(cfg)
        assert len(calls) == cfg.trials * len(cfg.delta_ladder)
        assert [r.flag for r in report.rows] == ["", ""]

    def test_runaway_aborts_only_its_cell(self, monkeypatch):
        cfg = exponential_config(trials=12, metrics=["terminal_count", "terminal_risk"])
        clean = run_convergence(cfg).to_csv_text().splitlines()
        real = simulate.simulate_ladder

        def runaway_at_quarter(grids, jump_rate, marks, atoms, **kwargs):
            traces = real(grids, jump_rate, marks, atoms, **kwargs)
            return [
                RunawayIntensityError("injected")
                if grid.delta == 0.25 and atoms.seed_entropy == (cfg.seed, 5) else disc
                for grid, disc in zip(grids, traces)
            ]

        monkeypatch.setattr(simulate, "simulate_ladder", runaway_at_quarter)
        patched = run_convergence(cfg).to_csv_text().splitlines()
        assert len(patched) == len(clean) == 1 + 3 * 2
        for before, after in zip(clean, patched):
            if after.startswith("0.25,"):
                delta, metric, mean, stderr, _, flag = after.split(",")
                assert math.isnan(float(mean)) and math.isnan(float(stderr))
                assert flag == "aborted:RunawayIntensityError"
            else:
                assert after == before

    def test_pool_worker_builds_components_once(self, monkeypatch):
        # the pool sends the config pickled, which leaves the parent's run record behind
        cfg = pickle.loads(pickle.dumps(exponential_config(trials=4)))
        calls = []
        real = harness.build_kernel

        def counting(spec, *args):
            calls.append(spec)
            return real(spec, *args)

        monkeypatch.setattr(harness, "build_kernel", counting)
        aborted, samples = harness._run_trials(cfg, range(1, 3), harness._cell_metrics)
        assert len(calls) == 1
        assert aborted == [None] * len(cfg.delta_ladder)
        assert [len(cells) for cells in samples] == [len(cfg.delta_ladder)] * 2

    def test_regularity_constants_are_one_call_for_the_ladder(self, monkeypatch):
        # patched where a tracer patches it, in every hawkpath namespace that
        # binds kernels.c_r: the run asks for the whole ladder at once
        calls = []
        real = kernels.c_r

        def counting(kernel, deltas, *args, **kwargs):
            calls.append(list(deltas))
            return real(kernel, deltas, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "hawkpath" or name.startswith("hawkpath.")):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counting)
        cfg = exponential_config(trials=4)
        run_convergence(cfg)
        assert calls == [list(cfg.delta_ladder)]

    def test_deterministic_rerun(self):
        a = run_convergence(null_config()).to_csv_text()
        b = run_convergence(null_config()).to_csv_text()
        assert a == b

    def test_worker_count_does_not_change_bytes(self):
        serial = run_convergence(null_config(trials=24)).to_csv_text()
        parallel = run_convergence(null_config(trials=24, workers=3)).to_csv_text()
        assert serial == parallel

    def test_standard_error_scales_with_trials(self):
        small = run_convergence(null_config(trials=250, metrics=["skorokhod_upper"]))
        big = run_convergence(null_config(trials=1000, metrics=["skorokhod_upper"]))
        se_small = small.rows[0].stderr
        se_big = big.rows[0].stderr
        assert se_big == pytest.approx(se_small / 2.0, rel=0.2)


class TestMetricTable:
    @pytest.mark.parametrize(
        "jump_rate",
        [
            {"family": "relu-affine", "params": {"baseline": 1.0}},
            {"family": "clipped-affine", "params": {"baseline": 1.0, "cap": 4.0}},
        ],
        ids=["unbounded-rate", "bounded-rate"],
    )
    def test_theory_shape_column(self, jump_rate):
        cfg = exponential_config(
            jump_rate=jump_rate, trials=4,
            marks={"distribution": {"family": "exponential", "rate": 1.0}},
            metrics=["terminal_count", "terminal_risk", "sobolev", "skorokhod_exact",
                     "skorokhod_upper"],
        )
        bsets = dict(zip(cfg.delta_ladder, cfg.run.bound_sets))
        bounded = jump_rate["family"] == "clipped-affine"
        assert all((b.skorokhod_shape_bounded is not None) == bounded for b in bsets.values())
        report = run_convergence(cfg)
        assert [r.metric for r in report.rows] == list(cfg.metrics) * len(cfg.delta_ladder)
        for row in report.rows:
            b = bsets[row.delta]
            skorokhod = b.skorokhod_shape_bounded if bounded else b.skorokhod_shape_unbounded
            expected = {
                "terminal_count": b.kernel_regularity * b.horizon + b.delta,
                "terminal_risk": b.kernel_regularity * b.horizon + b.delta,
                "sobolev": b.sobolev_shape,
                "skorokhod_exact": skorokhod,
                "skorokhod_upper": skorokhod,
            }[row.metric]
            assert row.theory_shape == expected, row

    @pytest.mark.parametrize(
        "metrics, per_trial",
        [(["terminal_count", "terminal_risk"], 0), (["terminal_count", "sobolev"], 1 + 3)],
    )
    def test_risk_paths_embedded_once_and_only_when_read(self, monkeypatch, metrics, per_trial):
        # one reference path per trial and one per ladder cell, none when no
        # requested metric reads them
        calls = []
        real = simulate.path_to_step

        def counting(path, field):
            calls.append(field)
            return real(path, field)

        monkeypatch.setattr(simulate, "path_to_step", counting)
        cfg = exponential_config(trials=5, metrics=metrics)
        run_convergence(cfg)
        assert calls == ["risk"] * cfg.trials * per_trial

    @staticmethod
    def coupled_pair():
        cfg = exponential_config(marks={"distribution": {"family": "exponential", "rate": 1.0}})
        run = cfg.run
        cont, disc = couple_step(run.kernel, run.jump_rate, run.marks, T=5.0, delta=0.125, seed=7)
        assert cont.terminal_count > 0 and disc.terminal_count > 0
        return cont, disc

    def test_trace_against_itself(self):
        # a discrete trace is a reference too: against itself every metric
        # vanishes but the surrogate, which keeps delta and the sparse modulus
        _, disc = self.coupled_pair()
        risk = path_to_step(disc, "risk")
        for name, metric in harness.METRICS.items():
            value = metric.measure(disc, disc, 0.25)
            if name == "skorokhod_upper":
                assert value == disc.delta + modulus_sparse(risk, disc.delta) > disc.delta
            else:
                assert value == 0.0, name

    def test_coupled_pair_rows_equal_direct_calls(self):
        cont, disc = self.coupled_pair()
        rc, rd = path_to_step(cont, "risk"), path_to_step(disc, "risk")
        direct = {
            "terminal_count": float(abs(cont.terminal_count - disc.terminal_count)),
            "terminal_risk": abs(cont.terminal_risk - disc.terminal_risk),
            "sobolev": sobolev_distance(rc, rd, 0.25),
            "skorokhod_exact": skorokhod_distance(rc, rd),
            "skorokhod_upper": skorokhod_upper_bound(
                rc.value_at(disc.grid.points), disc.risk,
                modulus_sparse(rc, disc.delta), disc.delta,
            ),
        }
        assert list(harness.METRICS) == list(direct)
        assert all(value > 0 for value in direct.values())
        for name, metric in harness.METRICS.items():
            assert metric.measure(cont, disc, 0.25) == direct[name], name


class TestVerifyBounds:
    def test_null_config_all_pass(self):
        verdicts = verify_bounds(null_config())
        assert all(v.passed for v in verdicts)
        by_name = {v.name: v for v in verdicts}
        assert by_name["increment_scaling"].detail == "all increments match exactly"
        assert by_name["stability_continuous"].statistic == 0.0

    def test_exponential_config_mean_bounds_pass(self):
        verdicts = {v.name: v for v in verify_bounds(exponential_config(trials=400))}
        assert verdicts["mean_intensity_continuous"].passed
        assert verdicts["mean_intensity_discrete"].passed
        assert verdicts["martingale_continuous"].passed
        assert verdicts["martingale_discrete"].passed
        assert verdicts["modulus_poisson"].passed
        assert verdicts["increment_scaling"].passed

    def test_runaway_in_one_cell_fails_the_run(self, monkeypatch, tmp_path):
        cfg = exponential_config(trials=12, workers=1)
        real = simulate.simulate_ladder
        simulated = []

        def runaway_at_quarter(grids, jump_rate, marks, atoms, **kwargs):
            simulated.extend(atoms.seed_entropy[1] for _ in grids)
            traces = real(grids, jump_rate, marks, atoms, **kwargs)
            return [
                RunawayIntensityError("injected")
                if grid.delta == 0.25 and atoms.seed_entropy == (cfg.seed, 5) else disc
                for grid, disc in zip(grids, traces)
            ]

        monkeypatch.setattr(simulate, "simulate_ladder", runaway_at_quarter)
        with pytest.raises(RunawayIntensityError, match="injected"):
            verify_bounds(cfg)
        # the run stops at the failed trial: trials 6-11 are never simulated
        assert simulated == [t for t in range(6) for _ in cfg.delta_ladder]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(asdict(cfg)), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["verify", str(path), "--output-dir", str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_runaway_error_is_the_earliest_trials(self, monkeypatch, workers):
        # trial 5 fails at a fine step, trial 8 (in the second worker's
        # range) at the coarsest: whatever the worker count, trial 5's error
        cfg = exponential_config(trials=12, workers=workers)
        real = simulate.simulate_ladder

        def runaway(grids, jump_rate, marks, atoms, **kwargs):
            trial = atoms.seed_entropy[1]
            traces = real(grids, jump_rate, marks, atoms, **kwargs)
            return [
                RunawayIntensityError(f"trial {trial}")
                if (trial, grid.delta) in ((5, 0.25), (8, cfg.delta_ladder[0])) else disc
                for grid, disc in zip(grids, traces)
            ]

        monkeypatch.setattr(simulate, "simulate_ladder", runaway)
        with pytest.raises(RunawayIntensityError, match="trial 5"):
            verify_bounds(cfg)

    def test_pool_ranges_share_nothing_yet_report_the_serial_csv(self, monkeypatch):
        # trial 1, in the first of two ranges, aborts delta 0.25; the second
        # range never learns of it, and the report still equals the
        # one-worker run's
        real = simulate.simulate_ladder

        def ladder(grids, jump_rate, marks, atoms, **kwargs):
            traces = real(grids, jump_rate, marks, atoms, **kwargs)
            if atoms.seed_entropy[1] == 1:
                traces[1] = RunawayIntensityError("injected")
            return traces

        monkeypatch.setattr(simulate, "simulate_ladder", ladder)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # a pool on any host
        metrics = ["terminal_count", "terminal_risk"]
        serial = run_convergence(exponential_config(trials=40, metrics=metrics, workers=1))
        pooled = run_convergence(exponential_config(trials=40, metrics=metrics, workers=2))
        assert pooled.to_csv_text() == serial.to_csv_text()
        assert "0.25,terminal_count,nan,nan" in serial.to_csv_text()

    def test_risk_increment_reads_tied_jumps_as_the_step_path(self):
        # two events at 2.0 and one at t = 3.75 itself: the continuous risk
        # increment on (T/4, 3T/4] is the step path's, to the last bit
        cfg = exponential_config(delta_ladder=[0.5, 0.125])
        run = cfg.run
        times = np.array([0.5, 1.25, 2.0, 2.0, 3.0, 3.75, 4.5])
        marks = np.array([0.3, 0.7, 0.1, 0.2, 0.45, 1.3, 0.9])
        cont = ContinuousPath(5.0, times, marks, marks, np.full(len(times), 2.0))
        traces = simulate_ladder(run.grids, run.jump_rate, run.marks, run.atoms(0))
        sample = harness._verify_sample(cfg, 0, cont, traces)
        rc = path_to_step(cont, "risk")
        inc_c = float(rc.value_at(3.75) - rc.value_at(1.25))
        assert inc_c == pytest.approx(0.1 + 0.2 + 0.45 + 1.3)
        for disc, mismatch in zip(traces, sample.mismatch):
            rd = path_to_step(disc, "risk")
            assert mismatch == abs(inc_c - float(rd.value_at(3.75) - rd.value_at(1.25)))

    @pytest.mark.parametrize("cpus", [3, None])
    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch, cpus):
        # 10,000 workers ask for a pool of at most the CPU count: 3 ranges on
        # 3 CPUs, and no pool at all where the count is unknown.  The fake
        # pool records its size and starts nothing; harness imports the pool
        # class only when it starts one, so the patch is on its module
        sizes = []

        class Refused(Exception):
            pass

        class FakePool:
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                raise Refused

        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        if cpus:
            with pytest.raises(Refused):
                run_convergence(exponential_config(trials=10_000, workers=10_000))
            assert sizes == [cpus]
        else:
            pooled = run_convergence(exponential_config(trials=6, workers=10_000))
            assert sizes == [] and pooled.to_csv_text() == run_convergence(
                exponential_config(trials=6, workers=1)
            ).to_csv_text()

    def test_unstable_override_fails_stability_but_completes(self):
        cfg = exponential_config(
            kernel={"family": "exponential", "params": {"amplitude": 1.21, "decay": 1.0}},
            allow_unstable=True,
            trials=40,
        )
        verdicts = {v.name: v for v in verify_bounds(cfg)}
        assert not verdicts["stability_continuous"].passed
        assert len(verdicts) >= 6  # the suite still ran to completion
