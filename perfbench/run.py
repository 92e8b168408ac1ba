"""Benchmark of the hawkpath pipeline: atoms -> thinning and discrete recursion
-> step embedding -> exact path metrics -> Monte Carlo ladder and verdicts.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

Run it from the repository root.  Every CLI invocation runs
``hawkpath.cli.cli_main`` in a fresh interpreter with ``PYTHONPATH=src`` and
``workers: 1``; the program receives only the generated config, whose seed
is the benchmark's ``--seed``.

``--trace 0`` times whole CLI invocations, one after another, until
``--seconds`` is used (at least one), and reports the end-to-end metrics:
``trials_per_s`` (config trials over the ``cli_main`` wall time, median over
invocations), ``setup_s`` (median of fresh interpreters, one before each
invocation and at least five, timed from before their start until the config
is validated and its kernel, jump rate and mark model are built) and
``peak_rss_mb`` (median ``ru_maxrss`` of the invocation's process).

Both times are reported in reference seconds.  On a shared 2-core virtual
machine (Intel Xeon, Python 3.11, numpy 2.4) one ladder-count invocation took
anywhere from 2.2 to 4.5 s as the machine's speed drifted (process CPU time
tracked wall time, so the process was not waiting; its core was slower).
Each invocation therefore runs a fixed calibration loop before and after
``cli_main``, and a time is scaled by REFERENCE_CALIBRATION_S over the
calibration time measured next to it: the time the run would have taken on a
machine where the loop takes REFERENCE_CALIBRATION_S.  The raw wall figures
are printed and kept in ``result.json`` too.

``--trace 1`` runs one invocation with every layer wrapped from outside
(``tracer.py``) between two untraced ones, then times the exact metrics on
seeded step paths of 100 to 1000 jumps, and reports the per-layer metrics.

Every invocation's outputs are checked and digested (sha256 of
``convergence.csv`` + ``convergence_summary.json``, or ``verify.csv`` +
``verify.json``).  The unit of work is a trial-cell, one trial at one ladder
delta; an aborted ladder cell fails its trial-cells, and an invocation whose
check fails, or whose digest differs from another invocation of the same
source, config and seed (in this run or an earlier one, kept in
``.perfbench_out/digests.json``), fails all of its trial-cells.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run details,
provenance and spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS, nearest_rank

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
# calibration loop time (child.py) that defines one reference second
REFERENCE_CALIBRATION_S = 0.4
# children still running this long after a workload started are killed, so a
# run ends within the 180 s it is allowed
RUN_LIMIT_S = 170.0

_UNIT_MARKS = {"distribution": {"family": "point-mass", "value": 1.0}}
_RELU = {"family": "relu-affine", "params": {"baseline": 1.0}}
_EXPONENTIAL = {"family": "exponential", "params": {"amplitude": 0.604, "decay": 1.0}}


@dataclass(frozen=True)
class Workload:
    command: str
    default_seed: int
    config: dict  # every field but the seed

    def document(self, seed: int) -> dict:
        return {**self.config, "seed": seed, "workers": 1}

    @property
    def trial_cells(self) -> int:
        return self.config["trials"] * len(self.config["delta_ladder"])


WORKLOADS = {
    # criterion 2: short paths, time in kernel quadrature and the discrete recursion
    "ladder-count": Workload("convergence", 20240818, {
        "kernel": {"family": "cosine-decay", "params": {"amplitude": 0.6}},
        "jump_rate": _RELU,
        "marks": _UNIT_MARKS,
        "horizon": 5.0,
        "delta_ladder": [0.5, 0.25, 0.1, 0.05, 0.025, 0.0125],
        "trials": 60,
        "metrics": ["terminal_count"],
    }),
    # ~50-jump Poisson paths: the exact metrics (Sobolev, Skorokhod bisection,
    # sparse modulus) dominate.  Metric cost grows like the square of a path's
    # jumps, so the heavy-tailed counts of the self-exciting configs make the
    # work per seed vary: 17% (quartile spread of the summed squared counts over
    # 40 trials) for the criterion-8 kernel at T = 20, and at T = 200 one trial
    # alone costs 6 to 14 s.  Poisson counts keep that spread near 4%; the
    # traced run's sweep times the T = 200 path sizes.
    "poisson-metrics": Workload("convergence", 200, {
        "kernel": {"family": "zero"},
        "jump_rate": {"family": "constant", "params": {"value": 2.5}},
        "marks": _UNIT_MARKS,
        "horizon": 20.0,
        "delta_ladder": [0.5, 0.25],
        "trials": 40,
        "metrics": ["sobolev", "skorokhod_exact", "skorokhod_upper"],
    }),
    # criterion 8 under `verify`: L + 1 couplings per trial, up to 1600 bins per grid
    "verify-fine": Workload("verify", 88, {
        "kernel": _EXPONENTIAL,
        "jump_rate": _RELU,
        "marks": _UNIT_MARKS,
        "horizon": 5.0,
        "delta_ladder": [0.025, 0.0125, 0.00625, 0.003125],
        "trials": 50,
        "metrics": ["sobolev"],
        "sobolev_eta": 0.25,
    }),
}

OUTPUT_FILES = {
    "convergence": ("convergence.csv", "convergence_summary.json"),
    "verify": ("verify.csv", "verify.json"),
}


# --------------------------------------------------------------------------
# Output checks: (problems, aborted ladder deltas, notes)
# --------------------------------------------------------------------------

def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_convergence(outdir: Path, doc: dict) -> tuple[list[str], int, list[str]]:
    problems = []
    lines = (outdir / "convergence.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "delta,metric,mean,stderr,theory_shape,flag":
        problems.append(f"unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    expected = len(doc["delta_ladder"]) * len(doc["metrics"])
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    aborted = {row[0] for row in rows if row[5].startswith("aborted:")}
    positive = {m: 0 for m in doc["metrics"]}
    for delta, metric, mean, *_ in (row for row in rows if row[0] not in aborted):
        if not _finite(mean):
            problems.append(f"non-finite mean at delta={delta} metric={metric}")
        elif float(mean) > 0:
            positive[metric] = positive.get(metric, 0) + 1
    summary = json.loads((outdir / "convergence_summary.json").read_text(encoding="utf-8"))
    if summary.get("trials") != doc["trials"]:
        problems.append("summary trial count differs from the config")
    for metric, count in positive.items():
        fit = summary.get("fits", {}).get(metric)
        if count >= 3 and not (fit and _finite(str(fit.get("exponent")))):
            problems.append(f"missing fit for {metric} over {count} positive points")
    return problems, len(aborted), []


# Monte Carlo verdicts that a fair sample fails now and then: 3-standard-error
# tests, and the increment-scaling slope, which is fitted over a handful of
# mismatches at the finest steps and fails on a sizeable share of seeds even at
# 400 trials.  Their failures are reported as notes, not as failed cells.
STATISTICAL_VERDICTS = frozenset({
    "mean_intensity_continuous", "mean_intensity_discrete",
    "martingale_continuous", "martingale_discrete",
    "modulus_poisson", "increment_scaling",
})


def _check_verify(outdir: Path, doc: dict) -> tuple[list[str], int, list[str]]:
    """Every verdict consistent with its margin; every other verdict passed."""
    verdicts = json.loads((outdir / "verify.json").read_text(encoding="utf-8"))
    csv_rows = (outdir / "verify.csv").read_text(encoding="utf-8").splitlines()[1:]
    problems = [] if verdicts else ["no verdicts"]
    notes = []
    if len(csv_rows) != len(verdicts):
        problems.append("verify.csv and verify.json disagree")
    for v in verdicts:
        margin = v["margin"]
        if v["passed"] and not (math.isfinite(margin) and margin >= 0):
            problems.append(f"verdict {v['name']} passed with margin {margin!r}")
        elif not v["passed"] and v["name"] in STATISTICAL_VERDICTS:
            notes.append(f"statistical verdict {v['name']} failed on this sample "
                         f"(margin {margin!r}, {v['detail']})")
        elif not v["passed"]:
            problems.append(f"verdict {v['name']} failed ({v['detail']})")
    return problems, 0, notes


CHECKS = {"convergence": _check_convergence, "verify": _check_verify}


def _digest(outdir: Path, command: str) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES[command]:
        h.update(name.encode())
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hawkpath").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestRegistry:
    """First digest seen per (source, config) key, kept across runs in the checkout."""

    def __init__(self, path: Path, source: str, config: dict) -> None:
        self.path = path
        self.key = hashlib.sha256(
            (source + json.dumps(config, sort_keys=True)).encode()
        ).hexdigest()

    def agrees(self, digest: str) -> bool:
        known = json.loads(self.path.read_text()) if self.path.exists() else {}
        if self.key not in known:
            known[self.key] = digest
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            tmp.replace(self.path)
        return known[self.key] == digest


# --------------------------------------------------------------------------
# Children and invocations
# --------------------------------------------------------------------------

@dataclass
class Invocation:
    wall_s: float
    calibration_s: float
    peak_rss_mb: float
    output_bytes: int
    digest: str | None
    problems: list[str]
    notes: list[str]
    failed_cells: int


@dataclass
class Run:
    """One workload at one seed: its directory, digest registry and deadline."""

    work: Workload
    seed: int
    rundir: Path
    registry: DigestRegistry
    deadline: float = field(default_factory=lambda: time.monotonic() + RUN_LIMIT_S)

    @property
    def config(self) -> Path:
        return self.rundir / "config.json"

    def child(self, *args: str) -> tuple[dict | None, str]:
        """Run child.py in a fresh interpreter; (last-line JSON, error text).

        A child that would outlive the deadline is killed and waited for.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env.pop("HAWKPATH_WORKERS", None)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return None, f"{args[0]} timed out"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, proc.stderr[-2000:]
        try:
            return json.loads(lines[-1]), ""
        except json.JSONDecodeError:
            return None, proc.stdout[-2000:]

    def setup_seconds(self) -> float:
        before = time.monotonic()
        result, err = self.child("setup", str(self.config))
        if result is None:
            raise RuntimeError(f"set-up failed:\n{err}")
        return result["ready"] - before

    def invoke(self, mode: str, name: str, *extra: str) -> Invocation:
        """One CLI invocation in ``rundir/name``, checked and digested."""
        work = self.work
        outdir = self.rundir / name
        outdir.mkdir()
        result, err = self.child(mode, work.command, str(self.config), str(outdir), *extra)
        if result is None or result["exit"] != 0:
            why = err.strip().splitlines()[-1:] if result is None else [f"exit {result['exit']}"]
            return Invocation(math.nan, math.nan, math.nan, 0, None, [f"{mode} failed: {why}"],
                              [], work.trial_cells)
        doc = work.document(self.seed)
        try:
            problems, aborted, notes = CHECKS[work.command](outdir, doc)
            digest = _digest(outdir, work.command)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems, aborted, notes, digest = [f"unreadable output: {exc!r}"], 0, [], None
        if digest is not None and not self.registry.agrees(digest):
            problems.append("output digest differs from an earlier run of the same source and seed")
        failed = work.trial_cells if problems else aborted * doc["trials"]
        written = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
        return Invocation(result["wall_s"], result["calibration_s"], result["peak_rss_mb"],
                          written + result["stdout_bytes"], digest, problems, notes, failed)


# --------------------------------------------------------------------------
# Untraced and traced runs
# --------------------------------------------------------------------------

def run_untraced(run: Run, seconds: float) -> tuple[dict, list[Invocation]]:
    """End-to-end metrics in reference seconds, plus their raw wall-clock forms."""
    setups: list[float] = []
    invocations: list[Invocation] = []
    began = time.monotonic()
    while True:
        # set-up probes are spread over the run, so they see the same machine
        setups.append(run.setup_seconds())
        started = time.monotonic()
        invocations.append(run.invoke("run", f"run{len(invocations)}"))
        each = time.monotonic() - started
        if time.monotonic() - began + each > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(run.setup_seconds())
    ok = [inv for inv in invocations if not math.isnan(inv.wall_s)]
    if not ok:
        return {"trials_per_s": 0.0, "setup_s": 0.0, "peak_rss_mb": 0.0}, invocations
    trials = run.work.config["trials"]
    speed = [inv.calibration_s / REFERENCE_CALIBRATION_S for inv in ok]
    values = {
        "trials_per_s": statistics.median(trials * k / inv.wall_s for k, inv in zip(speed, ok)),
        "setup_s": statistics.median(setups) / statistics.median(speed),
        "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in ok),
        "wall_trials_per_s": statistics.median(trials / inv.wall_s for inv in ok),
        "wall_setup_s": statistics.median(setups),
    }
    return values, invocations


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_values(run: Run, trace: dict, traced: Invocation, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced call's function statistics and counters."""
    fns = trace["functions"]
    counters = trace["counters"]

    def fn(qualname: str, stat: str) -> float:
        return float(fns.get(qualname, {}).get(stat, 0))

    values = {
        f"{qualname}.{stat}": fn(qualname, stat)
        for qualname in fns for stat in ("calls", "self_s", "total_s", "p90_ms")
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s["self_s"] for q, s in fns.items() if q.startswith(layer + ".")
        )
    work = run.work
    requesting = (work.trial_cells if work.command == "convergence"
                  and "skorokhod_exact" in work.config["metrics"] else 0)
    aborted_cells = 0 if traced.problems else traced.failed_cells
    exact = fn("metrics.skorokhod_distance", "calls")
    jumps = counters.get("path_jumps", [])
    values.update({
        "randomness.atoms_drawn": counters.get("atoms_drawn", 0),
        "simulate.events_continuous": counters.get("events_continuous", 0),
        "simulate.events_discrete": counters.get("events_discrete", 0),
        "simulate.acceptance_ratio": _share(counters.get("events_continuous", 0),
                                            counters.get("atoms_scanned_continuous", 0)),
        "simulate.continuous_reuse": _share(counters.get("continuous_keys", 0),
                                            fn("simulate.simulate_continuous", "calls")),
        "simulate.bins": counters.get("bins", 0),
        "metrics.skorokhod_exact_share": _share(exact, requesting - aborted_cells),
        "metrics.bisection_steps_per_distance": _share(fn("metrics.feasible_eps", "calls"), exact),
        "metrics.path_jumps_p50": nearest_rank(jumps, 0.5),
        "metrics.path_jumps_p90": nearest_rank(jumps, 0.9),
        "harness.trial_cells": work.trial_cells,
        "harness.aborted_cells": aborted_cells,
        "harness.surrogate_cells": max(0.0, requesting - aborted_cells - exact),
        "harness.trace_overhead_s": traced.wall_s - untraced_wall,
        "cli.output_bytes": traced.output_bytes,
    })
    return values


def run_traced(run: Run) -> tuple[dict, list[Invocation]]:
    trace_json = run.rundir / "trace.json"
    # untraced on both sides of the traced call, so drift does not read as overhead
    before = run.invoke("run", "untraced0")
    traced = run.invoke("trace", "traced", str(trace_json), str(run.rundir / "spans.jsonl"))
    after = run.invoke("run", "untraced1")
    if traced.digest is None or traced.digest != before.digest:
        traced.problems.append("traced output digest differs from the untraced run")
        traced.failed_cells = run.work.trial_cells
    sweep, err = run.child("sweep", str(run.seed))
    if sweep is None:
        raise RuntimeError(f"metric sweep failed:\n{err}")
    trace = (json.loads(trace_json.read_text()) if trace_json.exists()
             else {"functions": {}, "counters": {}, "absent": ["<no trace written>"]})
    untraced_wall = 0.5 * (before.wall_s + after.wall_s)
    values = _layer_values(run, trace, traced, untraced_wall)
    refused = [key for key, seconds in sweep.items() if seconds == "refused"]
    values.update({f"metrics.sweep.{key}_s": seconds
                   for key, seconds in sweep.items() if key not in refused})

    fns = trace["functions"]
    print(f"traced cli_main {traced.wall_s:.3f} s, untraced {untraced_wall:.3f} s; "
          "top self times:")
    for qualname, s in sorted(fns.items(), key=lambda kv: -kv[1]["self_s"])[:6]:
        print(f"  self {s['self_s']:9.4f} s  {_share(s['self_s'], traced.wall_s):6.1%}  "
              f"{s['calls']:7d} calls  {qualname}")
    for key in refused:
        print(f"  sweep {key}: refused by the exact algorithm's jump cap")
    for qualname in trace["absent"]:
        print(f"  absent: {qualname} (its metrics read 0)")
    for qualname in trace["counters"].get("unavailable", []):
        print(f"  counters unavailable for {qualname}")
    (run.rundir / "layers.json").write_text(json.dumps(
        {"values": values, "refused": refused, "absent": trace["absent"]},
        indent=1, sort_keys=True))
    return values, [before, traced, after]


# --------------------------------------------------------------------------
# Provenance and the command line
# --------------------------------------------------------------------------

def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (never a parent directory's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _provenance(name: str, seed: int, spec: dict, source: str) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": name,
        "why": {w["name"]: w["why"] for w in spec["workloads"]}.get(name),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": source,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    work = WORKLOADS[name]
    rundir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    doc = work.document(seed)
    (rundir / "config.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    source = _source_digest()
    run = Run(work, seed, rundir, DigestRegistry(OUT / "digests.json", source, doc))
    if trace:
        values, invocations = run_traced(run)
        wanted = spec["per_layer"]
    else:
        values, invocations = run_untraced(run, seconds)
        wanted = spec["end_to_end"]
    attempted = work.trial_cells * len(invocations)
    failed = sum(inv.failed_cells for inv in invocations)
    problems = sorted({p for inv in invocations for p in inv.problems})
    notes = sorted({n for inv in invocations for n in inv.notes})
    digests = sorted({inv.digest for inv in invocations if inv.digest})
    print(f"{name}: seed {seed}, {len(invocations)} invocation(s) of {doc['trials']} trials "
          f"x {len(doc['delta_ladder'])} deltas, digest {','.join(d[:16] for d in digests)}")
    if not trace:
        for m in wanted:
            print(f"  {m['name']:<14} {values[m['name']]:.6g} {m['unit']}")
        print(f"  wall clock: {values.get('wall_trials_per_s', 0.0):.6g} trials/s, "
              f"set-up {values.get('wall_setup_s', 0.0):.6g} s")
    print(f"  failed {failed} of {attempted} trial-cells")
    for line in [f"check: {p}" for p in problems] + [f"note: {n}" for n in notes]:
        print(f"  {line}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    provenance = _provenance(name, seed, spec, source)
    (rundir / "result.json").write_text(json.dumps(
        {"provenance": provenance, "digests": digests, "problems": problems, "notes": notes,
         "invocation_walls_s": [inv.wall_s for inv in invocations],
         "invocation_calibrations_s": [inv.calibration_s for inv in invocations],
         "wall_clock": {k: v for k, v in values.items() if k.startswith("wall_")},
         **result},
        indent=1, sort_keys=True))
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hawkpath" / "cli.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no hawkpath sources under {SRC}, or no {SPEC.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        seed = args.seed if args.seed is not None else WORKLOADS[name].default_seed
        try:
            results[name] = run_workload(name, seed, seconds, bool(args.trace), spec)
        except RuntimeError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        for name, result in results.items():
            print(f"{name}: " + json.dumps(result))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
