import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hawkpath import harness
from hawkpath.cli import cli_main
from hawkpath.errors import ConfigError
from hawkpath.randomness import MODULUS_BUDGET

COMMANDS = ("simulate", "couple", "convergence", "bounds", "verify")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def base_doc(out_dir):
    return {
        "kernel": {"family": "exponential", "params": {"amplitude": 0.604, "decay": 1.0}},
        "jump_rate": {"family": "relu-affine", "params": {"baseline": 1.0}},
        "marks": {"distribution": {"family": "point-mass", "value": 1.0}},
        "horizon": 5.0,
        "delta_ladder": [0.5, 0.25],
        "trials": 40,
        "metrics": ["terminal_count", "skorokhod_upper"],
        "sobolev_eta": 0.25,
        "seed": 11,
        "output_dir": str(out_dir),
    }


class TestExitCodes:
    def test_bounds_success(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        assert cli_main(["bounds", str(cfg)]) == 0
        payload = json.loads((out / "bounds.json").read_text())
        assert set(payload) == {"0.5", "0.25"}
        assert payload["0.25"]["stable_continuous"] is True

    def test_malformed_json_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "bad.json"
        cfg.write_text("{ not json", encoding="utf-8")
        assert cli_main(["bounds", str(cfg), "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_invalid_config_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["delta_ladder"] = [0.25, 0.5]  # not decreasing
        cfg = write_config(tmp_path, doc)
        assert cli_main(["convergence", str(cfg)]) == 2
        assert not out.exists()

    def test_decimal_ladder_whose_products_miss_the_horizon(self, tmp_path):
        # 100 * 0.07 and 50 * 0.14 round to 7.000000000000001: the last bin of
        # each grid still ends at T = 7, so the path metrics compare paths on
        # one horizon
        out = tmp_path / "out"
        doc = {
            **base_doc(out), "horizon": 7.0, "delta_ladder": [0.7, 0.35, 0.14, 0.07],
            "trials": 3, "metrics": ["terminal_count", "sobolev", "skorokhod_exact"],
        }
        assert cli_main(["convergence", str(write_config(tmp_path, doc))]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 * 3
        assert all(row.endswith(",") for row in rows)  # no aborted cell

    def test_missing_file_exits_2(self, tmp_path):
        assert cli_main(["bounds", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "override",
        [
            {"horizon": float("nan")},
            {"horizon": float("inf")},
            {"delta_ladder": [0.5, float("nan")]},
            {"sobolev_eta": "quarter"},
            {"trials": "forty"},
            {"kernel": {"family": "exponential", "params": {"amplitude": 0.5, "decay": -1.0}}},
            {"marks": {"distribution": {"family": "exponential", "rate": -1.0}}},
            {"seed": -1},
            {"metrics": []},
            {"metrics": ["terminal_count", "terminal_count"]},
        ],
        ids=[
            "horizon-nan", "horizon-inf", "ladder-nan", "eta-text", "trials-text",
            "negative-decay", "negative-mark-rate", "negative-seed",
            "metrics-empty", "metrics-repeated",
        ],
    )
    def test_bad_field_exits_2_without_outputs(self, tmp_path, override):
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_config(tmp_path, {**base_doc(out), **override})
        assert cli_main(["convergence", str(cfg)]) == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_output_dir_below_a_file_exits_2_without_outputs(
        self, tmp_path, capsys, command, via
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file", encoding="utf-8")
        out = blocker / "out"
        cfg = write_config(tmp_path, base_doc(out if via == "config" else None))
        flag = ["--output-dir", str(out)] if via == "flag" else []
        assert cli_main([command, str(cfg), *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]
        assert blocker.read_text(encoding="utf-8") == "a regular file"

    def test_verify_refuses_a_comparison_path_past_the_atom_budget(self, tmp_path):
        # rho = 1 - 1e-7: the atom ceiling is the cap 4, but the compound
        # Poisson path of verify runs at psi(0) / (1 - rho) = 1e7, and
        # 1e7 * 5 passes the atom budget 2**24; convergence never draws it
        out = tmp_path / "out"
        doc = base_doc(out)
        amplitude = (1.0 - 1e-7) / (1.0 - math.exp(-5.0))
        doc["kernel"] = {"family": "exponential", "params": {"amplitude": amplitude, "decay": 1.0}}
        doc["jump_rate"] = {"family": "clipped-affine", "params": {"baseline": 1.0, "cap": 4.0}}
        cfg = write_config(tmp_path, doc)
        assert cli_main(["verify", str(cfg)]) == 2
        assert not out.exists()
        assert cli_main(["convergence", str(cfg)]) == 0

    def test_verify_refuses_a_sparse_modulus_walk_past_its_budget(self, tmp_path, capsys):
        # rho = 0.99998: the comparison path runs at psi(0) / (1 - rho) = 42,561,
        # 2.1e5 jumps inside the atom budget, but its walk at delta = 0.25 would
        # take about 2.1e5 * 1.1e4 = 2.3e9 steps, minutes; refused before any trial
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["kernel"] = {"family": "exponential", "params": {"amplitude": 1.00676, "decay": 1.0}}
        doc["jump_rate"] = {"family": "clipped-affine", "params": {"baseline": 1.0, "cap": 4.0}}
        cfg = write_config(tmp_path, doc)
        start = time.perf_counter()
        assert cli_main(["verify", str(cfg)]) == 2
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: the comparison path's rate 4.256e+04")
        assert f"modulus budget {MODULUS_BUDGET} steps" in err and "Traceback" not in err

    @pytest.mark.parametrize("rate, refused", [(5000.0, False), (5300.0, True)])
    def test_modulus_budget_edge(self, tmp_path, rate, refused):
        # no excitation: the comparison path runs at the constant rate r, and
        # its walk takes about r * 5 * r * 0.25 steps, 3.1e7 and 3.5e7 here
        doc = {**base_doc(tmp_path / "out"), "kernel": {"family": "zero"},
               "jump_rate": {"family": "constant", "params": {"value": rate}}}
        run = harness.ExperimentConfig.from_dict(doc).run
        if refused:
            with pytest.raises(ConfigError, match="modulus budget"):
                run.verify_plan
        else:
            assert run.verify_plan.rate == rate

    def test_reference_verify_configs_pass_the_modulus_budget(self, perfbench):
        # the verify-fine workload, criterion 8's config under `verify`: 12.5
        # expected jumps, 0.008 per finest delta
        doc = perfbench.WORKLOADS["verify-fine"].document(88)
        plan = harness.ExperimentConfig.from_dict(doc).run.verify_plan
        steps = plan.rate * doc["horizon"] * plan.rate * doc["delta_ladder"][-1]
        assert steps < 1e-6 * MODULUS_BUDGET

    @pytest.mark.parametrize(
        "command, code",
        [("convergence", 2), ("verify", 2), ("couple", 2), ("simulate", 2), ("bounds", 0)],
    )
    def test_singular_kernel_only_for_bounds(self, tmp_path, command, code):
        # no finite ceiling thins h(t) = c / sqrt(t) in continuous time
        out = tmp_path / "out"
        out.mkdir()
        doc = base_doc(out)
        doc["kernel"] = {"family": "inverse-sqrt", "params": {"target_rho": 0.5}}
        cfg = write_config(tmp_path, doc)
        assert cli_main([command, str(cfg)]) == code
        assert (list(out.iterdir()) == []) == (code == 2)

    @pytest.mark.parametrize("jump_rate, marks", [
        # L = 8 / 4 = 2
        ({"family": "sigmoid", "params": {"scale": 8.0}},
         {"distribution": {"family": "point-mass", "value": 1.0}}),
        # E b(Y) = P(Y > 1) = 1 / e
        ({"family": "relu-affine", "params": {"baseline": 1.0}},
         {"distribution": {"family": "exponential", "rate": 1.0},
          "modulation": {"family": "indicator", "threshold": 1.0}}),
    ], ids=["sigmoid", "indicator"])
    def test_target_rho_is_the_runs_stability_ratio(self, tmp_path, jump_rate, marks):
        out = tmp_path / "out"
        doc = {**base_doc(out), "horizon": 2.0, "jump_rate": jump_rate, "marks": marks,
               "kernel": {"family": "inverse-sqrt", "params": {"target_rho": 0.5}}}
        assert cli_main(["bounds", str(write_config(tmp_path, doc))]) == 0
        for bset in json.loads((out / "bounds.json").read_text()).values():
            assert bset["rho_continuous"] == pytest.approx(0.5, rel=0.0, abs=1e-12)

    def test_target_rho_without_excitation_exits_2(self, tmp_path, capsys):
        # a constant jump rate has L = 0: no coefficient reaches the target
        out = tmp_path / "out"
        doc = {**base_doc(out), "horizon": 2.0,
               "jump_rate": {"family": "constant", "params": {"value": 1.0}},
               "kernel": {"family": "inverse-sqrt", "params": {"target_rho": 0.5}}}
        assert cli_main(["bounds", str(write_config(tmp_path, doc))]) == 2
        assert not out.exists()
        assert "target_rho needs L * E b(Y) > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, code",
        [("convergence", 2), ("verify", 2), ("couple", 2), ("simulate", 2), ("bounds", 0)],
    )
    def test_rate_past_the_atom_budget_only_for_bounds(self, tmp_path, capsys, command, code):
        # a ceiling of 1e9 over T = 5 expects 5e9 atoms, past the budget of 2**24
        out = tmp_path / "out"
        out.mkdir()
        doc = {**base_doc(out), "kernel": {"family": "zero"},
               "jump_rate": {"family": "constant", "params": {"value": 1e9}}}
        cfg = write_config(tmp_path, doc)
        assert cli_main([command, str(cfg)]) == code
        assert (list(out.iterdir()) == []) == (code == 2)
        err = capsys.readouterr().err
        assert err.startswith("config error: atom ceiling 1e+09") == (code == 2)
        assert "Traceback" not in err

    def test_unknown_key_exits_2_without_outputs(self, tmp_path, capsys):
        # a misspelt "metrics" is refused, not run as the default metric
        out = tmp_path / "out"
        out.mkdir()
        doc = base_doc(out)
        doc["metric"] = doc.pop("metrics")
        assert cli_main(["convergence", str(write_config(tmp_path, doc))]) == 2
        assert list(out.iterdir()) == []
        assert capsys.readouterr().err.startswith("config error: unknown config keys ['metric']")

    @pytest.mark.parametrize("block, spec, message", [
        # a misspelt modulation block would run with b = 1
        ("marks", {"distribution": {"family": "exponential", "rate": 1.0},
                   "modulaton": {"family": "indicator", "threshold": 1.0}},
         "marks has unknown key 'modulaton'; it reads ['distribution', 'modulation']"),
        # a misspelt params block would run at the default amplitude
        ("kernel", {"family": "cosine-decay", "parms": {"amplitude": 0.3}},
         "kernel has unknown key 'parms'; it reads ['family', 'params']"),
        # ... and is named before the build misses a required parameter
        ("kernel", {"family": "exponential", "parms": {"amplitude": 0.5, "decay": 1.0}},
         "kernel has unknown key 'parms'; it reads ['family', 'params']"),
        # a misspelt optional parameter would be ignored
        ("kernel", {"family": "cosine-decay", "params": {"amplitud": 0.3}},
         "kernel.params has unknown key 'amplitud'; it reads ['amplitude']"),
        # given both, the coefficient is read and the target ratio is not
        ("kernel", {"family": "inverse-sqrt", "params": {"coefficient": 0.1, "target_rho": 0.5}},
         "kernel.params has unknown key 'target_rho'; it reads ['coefficient']"),
        ("marks", {"distribution": {"family": "exponential", "rate": 1.0, "sd": 1.0}},
         "marks.distribution has unknown key 'sd'; it reads ['family', 'rate']"),
        ("jump_rate", {"family": "relu-affine", "params": {"baseline": 1.0, "cap": 2.0}},
         "jump_rate.params has unknown key 'cap'; it reads ['baseline']"),
        # a block where a number belongs is mistyped, not a crash
        ("kernel", {"family": "exponential", "params": {"amplitude": {"value": 0.5}, "decay": 1.0}},
         "kernel params.amplitude must be a number, got {'value': 0.5}"),
        # a misspelt required parameter is named, not only the one it misses,
        # whichever key the build reads first
        ("kernel", {"family": "exponential", "params": {"decay": 1.0, "amplitde": 0.6}},
         "kernel family 'exponential' is missing parameter 'amplitude'; "
         "kernel.params has unknown key 'amplitde'"),
        ("jump_rate", {"family": "relu-affine", "params": {"basline": 1.0}},
         "jump_rate family 'relu-affine' is missing parameter 'baseline'; "
         "jump_rate.params has unknown key 'basline'"),
        ("marks", {"distribution": {"family": "exponential", "rat": 1.0}},
         "marks spec is missing parameter 'rate'; marks.distribution has unknown key 'rat'"),
        ("marks", {"distribution": {"family": "exponential", "rate": 1.0},
                   "modulation": {"family": "indicator", "treshold": 1.0}},
         "marks spec is missing parameter 'threshold'; "
         "marks.modulation has unknown key 'treshold'"),
    ], ids=["marks-block", "kernel-block", "kernel-block-required", "kernel-param",
            "inverse-sqrt-both",
            "marks-param", "jump-rate-param", "nested-param",
            "kernel-misspelt-required", "jump-rate-misspelt-required",
            "marks-misspelt-required", "modulation-misspelt-required"])
    def test_bad_nested_key_exits_2_without_outputs(
        self, tmp_path, capsys, block, spec, message
    ):
        out = tmp_path / "out"
        out.mkdir()
        doc = {**base_doc(out), block: spec}
        assert cli_main(["convergence", str(write_config(tmp_path, doc))]) == 2
        assert list(out.iterdir()) == []
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bins_past_the_atom_budget_exit_2(self, tmp_path, capsys, command):
        # T / delta = 1e9 bins: refused before the grid is built, by every command
        out = tmp_path / "out"
        out.mkdir()
        doc = {**base_doc(out), "kernel": {"family": "zero"}, "delta_ladder": [0.5, 5e-9]}
        assert cli_main([command, str(write_config(tmp_path, doc))]) == 2
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("config error: T / delta = 1e+09 bins pass the atom budget")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_cosine_decay_horizon_past_the_atom_budget_exit_2(self, tmp_path, capsys, command):
        # T = 2e6 would scan 3.2e7 kernel samples: refused before any is taken
        out = tmp_path / "out"
        out.mkdir()
        doc = {**base_doc(out), "kernel": {"family": "cosine-decay"}, "horizon": 2e6,
               "delta_ladder": [1.0, 0.5]}
        assert cli_main([command, str(write_config(tmp_path, doc))]) == 2
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("config error: kernel family 'cosine-decay': horizon 2e+06 needs")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["convergence", "verify"])
    @pytest.mark.parametrize(
        "env, workers", [("two", None), ("0", None), ("-2", None), (None, 0), (None, -3)]
    )
    def test_non_integer_worker_env_exits_2(self, tmp_path, monkeypatch, command, env, workers):
        # a worker count that is not an integer >= 1, from the environment or
        # the config, is refused before the bound sets or rho are computed
        out = tmp_path / "out"
        out.mkdir()
        doc = base_doc(out) if workers is None else {**base_doc(out), "workers": workers}
        cfg = write_config(tmp_path, doc)
        if env is None:
            monkeypatch.delenv("HAWKPATH_WORKERS", raising=False)
        else:
            monkeypatch.setenv("HAWKPATH_WORKERS", env)
        reached = []
        for name in ("bound_sets", "rho_continuous", "rho_discrete"):
            monkeypatch.setattr(harness, name, lambda *a, name=name, **k: reached.append(name))
        assert cli_main([command, str(cfg)]) == 2
        assert list(out.iterdir()) == []
        assert reached == []

    def test_unstable_exits_3(self, tmp_path):
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["kernel"] = {"family": "exponential", "params": {"amplitude": 1.3, "decay": 1.0}}
        for workers in (1, 2):
            cfg = write_config(tmp_path, {**doc, "workers": workers})
            for command in COMMANDS:
                assert cli_main([command, str(cfg)]) == 3, (command, workers)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_kernel_family_exits_2_without_outputs(self, tmp_path, command):
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_config(tmp_path, {**base_doc(out), "kernel": {"family": "warp"}})
        assert cli_main([command, str(cfg)]) == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_command_builds_the_run_once(self, tmp_path, monkeypatch, command):
        kernels, grids = [], []
        build_kernel, grid_coefficients = harness.build_kernel, harness.grid_coefficients

        def counting_kernel(spec, *args):
            kernels.append(spec)
            return build_kernel(spec, *args)

        def counting_grid(kernel, delta, T):
            grids.append(delta)
            return grid_coefficients(kernel, delta, T)

        monkeypatch.setattr(harness, "build_kernel", counting_kernel)
        monkeypatch.setattr(harness, "grid_coefficients", counting_grid)
        doc = {**base_doc(tmp_path / "out"), "workers": 1, "trials": 4}
        assert cli_main([command, str(write_config(tmp_path, doc))]) == 0
        assert len(kernels) == 1
        # the bound sets read the record's grids
        assert grids == doc["delta_ladder"]

    def test_module_entry_point_exits_2_on_a_missing_config(self, tmp_path):
        # a checkout without `pip install` runs the CLI as a module
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "hawkpath.cli", "bounds", str(tmp_path / "missing.json")],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("config error:")
        assert "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_malformed_metric_entry_exits_2_without_traceback(self, tmp_path):
        # a list entry cannot be looked up in the metric table: a config error
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {**base_doc(out), "metrics": [["sobolev"]]})
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "hawkpath.cli", "convergence", str(cfg)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert "unknown metric ['sobolev']" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_runs_without_numpy_ma(self, tmp_path):
        # np.unique and np.union1d import numpy.ma on their first call (about
        # 15 ms); the pipeline dedupes without them
        src = str(Path(__file__).resolve().parents[1] / "src")
        doc = {**base_doc(tmp_path / "out"), "workers": 1, "trials": 3,
               "metrics": ["sobolev", "skorokhod_exact", "skorokhod_upper"]}
        cfg = write_config(tmp_path, doc)
        script = (
            "import sys; from hawkpath.cli import cli_main; "
            f"codes = [cli_main([c, {str(cfg)!r}]) for c in ('convergence', 'verify')]; "
            "print(codes, 'numpy.ma' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert result.stdout.split("\n")[-2] == "[0, 0] False", result.stderr

    def test_single_worker_runs_load_no_pool_and_no_polynomial(self, tmp_path):
        # a one-worker run starts no process pool, so it imports none of its
        # modules (24, about 1.3 MB of peak memory), and verify's 16-point
        # rule is a constant, not numpy.polynomial's
        src = str(Path(__file__).resolve().parents[1] / "src")
        doc = {**base_doc(tmp_path / "out"), "workers": 1, "trials": 3,
               "metrics": ["terminal_count", "sobolev", "skorokhod_upper"]}
        cfg = write_config(tmp_path, doc)
        unwanted = ("multiprocessing", "concurrent.futures", "numpy.polynomial")
        script = (
            "import sys; from hawkpath.cli import cli_main; "
            f"codes = [cli_main([c, {str(cfg)!r}]) for c in ('convergence', 'verify')]; "
            f"print(codes, [m for m in {unwanted!r} if m in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert result.stdout.split("\n")[-2] == "[0, 0] []", result.stderr


class TestSubcommands:
    def test_simulate_writes_trajectories(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        assert cli_main(["simulate", str(cfg)]) == 0
        for field in ("count", "mass", "risk"):
            text = (out / f"simulate_{field}.csv").read_text()
            assert text.splitlines()[0] == "t,value"
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["events"] >= 0

    def test_couple_writes_pair_and_atoms(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        assert cli_main(["couple", str(cfg)]) == 0
        atoms = (out / "couple_atoms.csv").read_text().splitlines()
        assert atoms[0] == "tau,theta,y,strip"
        assert len(atoms) > 1
        summary = json.loads((out / "couple_summary.json").read_text())
        assert summary["delta"] == 0.25

    def test_convergence_csv_layout(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(out))
        assert cli_main(["convergence", str(cfg)]) == 0
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert lines[0] == "delta,metric,mean,stderr,theory_shape,flag"
        assert len(lines) == 1 + 2 * 2
        summary = json.loads((out / "convergence_summary.json").read_text())
        assert "terminal_count" in summary["fits"]

    def test_verify_writes_verdicts(self, tmp_path):
        out = tmp_path / "out"
        doc = base_doc(out)
        doc["trials"] = 60
        cfg = write_config(tmp_path, doc)
        assert cli_main(["verify", str(cfg)]) == 0
        lines = (out / "verify.csv").read_text().splitlines()
        assert lines[0] == "check,statistic,bound,margin,passed,detail"
        names = {line.split(",")[0] for line in lines[1:]}
        assert "mean_intensity_continuous" in names

    def test_convergence_on_trials_without_atoms(self, tmp_path, capsys):
        # a baseline of 1e-6 gives a ceiling near 1e-5: none of the 8 trials
        # draws an atom in (0, 5], so the ladder's one batch holds none
        out = tmp_path / "out"
        doc = {
            **base_doc(out), "jump_rate": {"family": "relu-affine", "params": {"baseline": 1e-6}},
            "delta_ladder": [0.5, 0.25, 0.1], "trials": 8, "metrics": ["terminal_count"],
            "seed": 3,
        }
        assert cli_main(["convergence", str(write_config(tmp_path, doc))]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = (out / "convergence.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            delta, metric, mean, stderr, _, flag = row.split(",")
            assert (metric, mean, stderr, flag) == ("terminal_count", "0.0", "0.0", "")


class TestDegenerateMarks:
    @pytest.mark.parametrize(
        "dist",
        [
            {"family": "gaussian", "mean": 1.0, "sd": 0.0},
            {"family": "lognormal", "mean": 0.0, "sd": 0.0},
        ],
        ids=["gaussian", "lognormal"],
    )
    def test_zero_sd_is_the_point_mass(self, tmp_path, dist):
        # sd = 0 puts every mark at 1, so the indicator reads P(Y >= 0.5) = 1
        outputs = []
        for name, family in (("point", {"family": "point-mass", "value": 1.0}), ("sd0", dist)):
            out = tmp_path / name
            doc = base_doc(out)
            doc["metrics"] = ["terminal_risk", "skorokhod_exact"]
            doc["marks"] = {
                "distribution": family,
                "modulation": {"family": "indicator", "threshold": 0.5},
            }
            assert cli_main(["convergence", str(write_config(tmp_path, doc, f"{name}.json"))]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]
        assert set(outputs[0]) == {"convergence.csv", "convergence_summary.json"}


class TestSeedAndReproducibility:
    def test_seed_flag_overrides_config(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        cfg = write_config(tmp_path, base_doc(out_a))
        assert cli_main(["convergence", str(cfg)]) == 0
        assert cli_main(["convergence", str(cfg), "--seed", "999", "--output-dir", str(out_b)]) == 0
        assert cli_main(["convergence", str(cfg), "--seed", "11", "--output-dir", str(out_c)]) == 0
        a = (out_a / "convergence.csv").read_bytes()
        b = (out_b / "convergence.csv").read_bytes()
        c = (out_c / "convergence.csv").read_bytes()
        assert a != b
        assert a == c

    def test_worker_env_does_not_change_bytes(self, tmp_path):
        out_a = tmp_path / "w1"
        out_b = tmp_path / "w2"
        cfg = write_config(tmp_path, base_doc(out_a))
        old = os.environ.get("HAWKPATH_WORKERS")
        try:
            os.environ["HAWKPATH_WORKERS"] = "1"
            assert cli_main(["convergence", str(cfg)]) == 0
            os.environ["HAWKPATH_WORKERS"] = "2"
            assert cli_main(["convergence", str(cfg), "--output-dir", str(out_b)]) == 0
        finally:
            if old is None:
                os.environ.pop("HAWKPATH_WORKERS", None)
            else:
                os.environ["HAWKPATH_WORKERS"] = old
        assert (out_a / "convergence.csv").read_bytes() == (out_b / "convergence.csv").read_bytes()
        assert (out_a / "convergence_summary.json").read_bytes() == (
            out_b / "convergence_summary.json"
        ).read_bytes()


# The first 16 hex digits of each perfbench workload's output digest at its
# default seed, and at seed 7, which no workload defaults to.  A change that
# moves these bytes updates the pin and says so.
BENCH_DIGESTS = {
    "ladder-count": "03205ac6870d1511",
    "poisson-metrics": "eb93b63fbe0e55b8",
    "verify-fine": "ebc5cf305b9dd278",
}
HELD_OUT_SEED = 7
HELD_OUT_DIGESTS = {
    "ladder-count": "c7f809a3f1dc9f8f",
    "poisson-metrics": "e921c231b07d6c51",
    "verify-fine": "ffa1fa7b41ceca43",
}


@pytest.fixture(scope="module")
def perfbench():
    """``perfbench/run.py`` as a module, with its sibling ``tracer`` importable."""
    here = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(here))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", here / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module     # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(here))
    return module


def workload_digest(perfbench, tmp_path, name, seed):
    """The workload's config at ``seed`` with one worker, run in-process and
    digested as the benchmark digests an invocation's outputs."""
    work = perfbench.WORKLOADS[name]
    cfg = write_config(tmp_path, work.document(seed))
    out = tmp_path / "out"
    assert cli_main([work.command, str(cfg), "--output-dir", str(out)]) == 0
    return perfbench._digest(out, work.command)[:16]


class TestBenchDigests:
    @pytest.mark.parametrize("name", sorted(BENCH_DIGESTS))
    def test_workload_outputs_are_pinned(self, name, perfbench, tmp_path):
        seed = perfbench.WORKLOADS[name].default_seed
        assert workload_digest(perfbench, tmp_path, name, seed) == BENCH_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(HELD_OUT_DIGESTS))
    def test_held_out_seed_outputs_are_pinned(self, name, perfbench, tmp_path):
        # a byte drift the default seeds happen to miss
        assert perfbench.WORKLOADS[name].default_seed != HELD_OUT_SEED
        assert workload_digest(perfbench, tmp_path, name, HELD_OUT_SEED) == HELD_OUT_DIGESTS[name]


# The first 16 hex digits of the sha256 over the output files of ``simulate``
# and ``couple`` on ``base_doc`` with Exp(1) marks, at its seed and at the
# held-out seed.  A change that moves these bytes updates the pin and says so.
COMMAND_DIGESTS = {
    ("simulate", 11): "7d5aa20d51869b5a",
    ("simulate", HELD_OUT_SEED): "9951dee25db04209",
    ("couple", 11): "928f6976a0bab313",
    ("couple", HELD_OUT_SEED): "588b0e2dc40e2439",
}


def command_digest(tmp_path, command, seed):
    out = tmp_path / "out"
    doc = {**base_doc(out), "marks": {"distribution": {"family": "exponential", "rate": 1.0}}}
    assert doc["seed"] == 11
    assert cli_main([command, str(write_config(tmp_path, doc)), "--seed", str(seed)]) == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class TestCommandDigests:
    @pytest.mark.parametrize("command, seed", sorted(COMMAND_DIGESTS))
    def test_outputs_are_pinned(self, command, seed, tmp_path):
        assert command_digest(tmp_path, command, seed) == COMMAND_DIGESTS[command, seed]
