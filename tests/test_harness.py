import json
import math
import pickle
from dataclasses import asdict

import numpy as np
import pytest

from hawkpath import harness
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
from hawkpath.metrics import skorokhod_distance
from hawkpath.simulate import path_to_step


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
        with pytest.raises(ConfigError):
            null_config(metrics=["banana"])

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
        real = harness.simulate_discrete

        def runaway_at_quarter(grid, jump_rate, marks, atoms, **kwargs):
            if grid.delta == 0.25 and atoms.seed_entropy == (cfg.seed, 5):
                raise RunawayIntensityError("injected")
            return real(grid, jump_rate, marks, atoms, **kwargs)

        monkeypatch.setattr(harness, "simulate_discrete", runaway_at_quarter)
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

        def counting(spec, horizon):
            calls.append(spec)
            return real(spec, horizon)

        monkeypatch.setattr(harness, "build_kernel", counting)
        aborted, samples = harness._run_trials(cfg, range(1, 3), harness._cell_metrics)
        assert len(calls) == 1
        assert aborted == [None] * len(cfg.delta_ladder)
        assert [len(cells) for cells in samples] == [len(cfg.delta_ladder)] * 2

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
        real = harness.simulate_discrete
        simulated = []

        def runaway_at_quarter(grid, jump_rate, marks, atoms, **kwargs):
            simulated.append(atoms.seed_entropy[1])
            if grid.delta == 0.25 and atoms.seed_entropy == (cfg.seed, 5):
                raise RunawayIntensityError("injected")
            return real(grid, jump_rate, marks, atoms, **kwargs)

        monkeypatch.setattr(harness, "simulate_discrete", runaway_at_quarter)
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
        real = harness.simulate_discrete

        def runaway(grid, jump_rate, marks, atoms, **kwargs):
            trial = atoms.seed_entropy[1]
            if (trial, grid.delta) in ((5, 0.25), (8, cfg.delta_ladder[0])):
                raise RunawayIntensityError(f"trial {trial}")
            return real(grid, jump_rate, marks, atoms, **kwargs)

        monkeypatch.setattr(harness, "simulate_discrete", runaway)
        with pytest.raises(RunawayIntensityError, match="trial 5"):
            verify_bounds(cfg)

    def test_unstable_override_fails_stability_but_completes(self):
        cfg = exponential_config(
            kernel={"family": "exponential", "params": {"amplitude": 1.21, "decay": 1.0}},
            allow_unstable=True,
            trials=40,
        )
        verdicts = {v.name: v for v in verify_bounds(cfg)}
        assert not verdicts["stability_continuous"].passed
        assert len(verdicts) >= 6  # the suite still ran to completion
