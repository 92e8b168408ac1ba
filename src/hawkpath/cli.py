"""Command-line interface.

    hawkpath <subcommand> <config.json> [--seed N] [--output-dir DIR]

Subcommands: ``simulate`` (one continuous trajectory), ``couple`` (one
coupled pair plus the shared atom dump), ``convergence`` (the full delta
ladder), ``bounds`` (evaluated bound constants as JSON), ``verify``
(bound-verification verdicts).  Exit codes: 0 success, 2 config error,
3 instability without override, 4 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, HawkpathError, InstabilityError, RunawayIntensityError
from .harness import (
    ExperimentConfig,
    run_convergence,
    verdicts_csv_text,
    verdicts_json,
    verify_bounds,
)
from .simulate import StepPath, couple, path_to_step, simulate_continuous

__all__ = ["cli_main", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_RUNTIME = 4


def _step_csv(path: StepPath) -> str:
    lines = ["t,value"]
    for t, v in zip(path.breakpoints, path.values):
        lines.append(f"{float(t)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def _write(directory: Path, name: str, text: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    target.write_text(text, encoding="utf-8")
    return target


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    run = cfg.run.thinnable()
    path = simulate_continuous(
        run.kernel, run.jump_rate, run.marks, cfg.horizon, run.atoms(0),
        allow_unstable=cfg.allow_unstable,
    )
    written = []
    for field in ("count", "mass", "risk"):
        written.append(
            _write(out, f"simulate_{field}.csv", _step_csv(path_to_step(path, field)))
        )
    summary = {
        "events": path.terminal_count,
        "terminal_risk": path.terminal_risk,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
    }
    written.append(_write(out, "simulate_summary.json", _json_text(summary)))
    print("\n".join(str(p) for p in written))
    return EXIT_OK


def _cmd_couple(cfg: ExperimentConfig, out: Path) -> int:
    run = cfg.run.thinnable()
    delta = cfg.delta_ladder[-1]
    atoms = run.atoms(0)
    # the finest grid alone: the atom dump holds the strips that pair drew
    cont, [disc] = couple(
        run.kernel, run.jump_rate, run.marks, run.grids[-1:], atoms,
        allow_unstable=cfg.allow_unstable,
    )
    if isinstance(disc, RunawayIntensityError):
        raise disc
    tau, theta, y, strip = atoms.merged()
    atom_lines = ["tau,theta,y,strip"]
    for row in zip(tau, theta, y, strip):
        atom_lines.append(f"{row[0]!r},{row[1]!r},{row[2]!r},{int(row[3])}")
    written = [
        _write(out, "couple_risk_continuous.csv", _step_csv(path_to_step(cont, "risk"))),
        _write(out, "couple_risk_discrete.csv", _step_csv(path_to_step(disc, "risk"))),
        _write(out, "couple_atoms.csv", "\n".join(atom_lines) + "\n"),
    ]
    summary = {
        "delta": delta,
        "events_continuous": cont.terminal_count,
        "events_discrete": disc.terminal_count,
        "terminal_count_gap": abs(cont.terminal_count - disc.terminal_count),
        "terminal_risk_gap": abs(cont.terminal_risk - disc.terminal_risk),
        "atoms": int(len(tau)),
        "ceiling": atoms.ceiling,
        "seed": cfg.seed,
    }
    written.append(_write(out, "couple_summary.json", _json_text(summary)))
    print("\n".join(str(p) for p in written))
    return EXIT_OK


def _cmd_convergence(cfg: ExperimentConfig, out: Path) -> int:
    report = run_convergence(cfg)
    written = [
        _write(out, "convergence.csv", report.to_csv_text()),
        _write(out, "convergence_summary.json", _json_text(report.summary_dict())),
    ]
    print("\n".join(str(p) for p in written))
    return EXIT_OK


def _cmd_bounds(cfg: ExperimentConfig, out: Path) -> int:
    per_delta = {
        repr(delta): bset.to_dict()
        for delta, bset in zip(cfg.delta_ladder, cfg.run.bound_sets)
    }
    text = _json_text(per_delta)
    _write(out, "bounds.json", text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    verdicts = verify_bounds(cfg)
    written = [
        _write(out, "verify.csv", verdicts_csv_text(verdicts)),
        _write(out, "verify.json", verdicts_json(verdicts) + "\n"),
    ]
    print("\n".join(str(p) for p in written))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "couple": _cmd_couple,
    "convergence": _cmd_convergence,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hawkpath",
        description="Coupled simulation and convergence measurement of marked "
        "self-exciting risk processes.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to the JSON config document")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--output-dir", default=None, help="override the config output directory"
    )
    args = parser.parse_args(argv)

    try:
        raw = Path(args.config).read_text(encoding="utf-8")
        doc = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        if not isinstance(doc, dict):
            print("config error: config must be a JSON object", file=sys.stderr)
            return EXIT_CONFIG
        doc["seed"] = args.seed
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.output_dir or cfg.output_dir or ".")
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        print(f"config error: output directory {out} is or lies below a file", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        # a config the command cannot run (commands check before any work)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InstabilityError as exc:
        print(f"instability error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except HawkpathError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
