"""Experiment configuration, Monte Carlo orchestration, and bound verification.

A run is described by one JSON document (see README for the schema), turned
into an :class:`ExperimentConfig`.  Trials are independent: trial ``i`` of a
run with master seed ``s`` draws its randomness from the stream keyed by
``(s, i)``, so results are reproducible for any worker count; per-trial
results are always reduced in trial order to keep floating-point sums
byte-identical.

What no trial changes lives in one :class:`Run` record, ``config.run``:
the kernel, jump rate and mark model, the atom ceiling, the grid
coefficients of each ladder delta, the bound sets and the constants every
``verify`` trial reads (both built on first use) and the atoms of trial
``i``.  ``from_dict`` builds it to validate the config
and keeps it.  It holds closures, so it never travels to a pool worker:
each process builds it at most once.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .bounds import BoundSet, bound_sets, modulus_poisson_bound, rho_continuous, rho_discrete
from .errors import ConfigError, ParameterError, RunawayIntensityError
from .kernels import (
    Kernel,
    compact_kernel,
    constant_kernel,
    cosine_decay_kernel,
    erlang_kernel,
    exponential_kernel,
    grid_coefficients,
    inverse_sqrt_kernel,
    tabulated_kernel,
    zero_kernel,
)
from .metrics import (
    PowerLawFit,
    fit_powerlaw,
    modulus_sparse,
    skorokhod_distance,
    skorokhod_upper_bound,
    sobolev_distance,
)
from .randomness import (
    ATOM_BUDGET,
    MODULUS_BUDGET,
    MarkModel,
    PoissonAtoms,
    mark_moments,
    sample_atoms,
)
from .simulate import (
    ContinuousPath,
    DiscreteTrace,
    JumpRate,
    StepPath,
    clipped_affine,
    constant_rate,
    couple,
    default_ceiling,
    distinct,
    eval_intensity,
    integrate_intensity,
    relu_affine,
    sigmoid_rate,
    step_from_jumps,
)

__all__ = [
    "ExperimentConfig",
    "Run",
    "ConvergenceRow",
    "ConvergenceReport",
    "BoundVerdict",
    "build_kernel",
    "build_jump_rate",
    "build_mark_model",
    "run_convergence",
    "verify_bounds",
]

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

def _finite(value, what: str) -> float:
    """A finite real number; booleans, strings and other types are mistyped."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def _integer(value, what: str, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{what} must be >= {least}, got {value!r}")
    return int(value)


def _typed(value, kind: type | tuple[type, ...], what: str):
    if not isinstance(value, kind):
        raise ConfigError(f"{what} has the wrong type: {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, picklable description of one experiment."""

    kernel: dict
    jump_rate: dict
    marks: dict
    horizon: float
    delta_ladder: tuple[float, ...]
    trials: int
    metrics: tuple[str, ...]
    sobolev_eta: float = 0.25
    seed: int = 0
    allow_unstable: bool = False
    output_dir: str | None = None
    workers: int | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Validate every field, and build the run record, before any work."""
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        names = {f.name for f in fields(cls)}
        unknown = [key for key in doc if key not in names]
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; choose from {sorted(names)}")
        required = ("kernel", "jump_rate", "marks", "horizon", "delta_ladder", "trials")
        for key in required:
            if key not in doc:
                raise ConfigError(f"config is missing required key {key!r}")
        horizon = _finite(doc["horizon"], "horizon")
        if horizon <= 0:
            raise ConfigError("horizon must be positive")
        ladder = tuple(
            _finite(d, "delta_ladder entry")
            for d in _typed(doc["delta_ladder"], (list, tuple), "delta_ladder")
        )
        if len(ladder) == 0:
            raise ConfigError("delta_ladder must be nonempty")
        if any(b >= a for a, b in zip(ladder[:-1], ladder[1:])):
            raise ConfigError("delta_ladder must be strictly decreasing")
        for d in ladder:
            if not 0 < d < horizon:
                raise ConfigError(f"delta={d} must lie in (0, horizon)")
        trials = _integer(doc["trials"], "trials", 2)
        metrics = tuple(_typed(doc.get("metrics", ["terminal_count"]), (list, tuple), "metrics"))
        for m in metrics:
            if not isinstance(m, str) or m not in METRICS:
                raise ConfigError(f"unknown metric {m!r}; choose from {tuple(METRICS)}")
        if not metrics or len(set(metrics)) < len(metrics):
            raise ConfigError("metrics must be a nonempty list of distinct names")
        eta = _finite(doc.get("sobolev_eta", 0.25), "sobolev_eta")
        if not 0.0 < eta < 1.0:
            raise ConfigError("sobolev_eta must lie in (0, 1)")
        seed = _integer(doc.get("seed", 0), "seed", 0)
        workers = doc.get("workers")
        cfg = cls(
            kernel=dict(_typed(doc["kernel"], dict, "kernel")),
            jump_rate=dict(_typed(doc["jump_rate"], dict, "jump_rate")),
            marks=dict(_typed(doc["marks"], dict, "marks")),
            horizon=horizon,
            delta_ladder=ladder,
            trials=trials,
            metrics=metrics,
            sobolev_eta=eta,
            seed=seed,
            allow_unstable=_typed(doc.get("allow_unstable", False), bool, "allow_unstable"),
            output_dir=_typed(doc.get("output_dir"), (str, type(None)), "output_dir"),
            workers=None if workers is None else _integer(workers, "workers", 1),
        )
        cfg.run  # fail fast on bad component specs; the record is kept
        return cfg

    @functools.cached_property
    def run(self) -> "Run":
        """The run record, built on first use and kept by this process."""
        return Run(self)

    def __getstate__(self) -> dict:
        # only the fields: the record holds closures, so a pool worker builds its own
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def effective_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        raw = os.environ.get("HAWKPATH_WORKERS", "1")
        if not raw.strip().isdecimal() or int(raw) < 1:
            raise ConfigError(f"HAWKPATH_WORKERS must be an integer >= 1, got {raw!r}")
        return int(raw)


def _check_numbers(block: dict, what: str) -> None:
    """Every value of a parameter block is a finite number or a list of them."""

    def check(value, name: str) -> None:
        if isinstance(value, (list, tuple)):
            for item in value:
                check(item, name)
        else:
            _finite(value, name)

    for key, value in block.items():
        check(value, f"{what}.{key}")


class _Reads(dict):
    """A config block that records the keys its builder reads; its nested
    blocks are ``_Reads`` too, so a key no builder reads is found at any level."""

    def __init__(self, block: dict, what: str) -> None:
        super().__init__((k, _Reads(v, f"{what}.{k}") if isinstance(v, dict) else v)
                         for k, v in block.items())
        self.what, self.read = what, set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def refuse_unread(self, nested: bool = True) -> None:
        for key, value in self.items():
            if key not in self.read:
                raise ConfigError(f"{self.what} has unknown key {key!r}; "
                                  f"it reads {sorted(self.read)}")
            if nested and isinstance(value, _Reads):
                value.refuse_unread()


def _missing(exc: KeyError, *blocks) -> str:
    """The parameter a build missed, named with the unread key of ``blocks``
    closest to it: most likely that parameter misspelt."""
    from difflib import get_close_matches  # only on this failure path

    key = exc.args[0]
    for block in blocks:
        if isinstance(block, _Reads):
            near = get_close_matches(key, [k for k in block if k not in block.read], n=1)
            if near:
                return f"{key!r}; {block.what} has unknown key {near[0]!r}"
    return repr(key)


def _require(spec: dict, key: str, context: str):
    if key not in spec:
        raise ConfigError(f"{context} spec is missing {key!r}")
    return spec[key]


# Each family's builder, from its params block (and, for kernels, the horizon
# and the run's L and E b(Y), which size inverse-sqrt's target_rho)
_KERNELS: dict[str, Callable[..., Kernel]] = {
    "exponential": lambda p, T, *_: exponential_kernel(p["amplitude"], p["decay"], T),
    "erlang": lambda p, T, *_: erlang_kernel(p["amplitude"], p["shape"], p["decay"], T),
    "cosine-decay": lambda p, T, *_: cosine_decay_kernel(p.get("amplitude", 0.6), T),
    "inverse-sqrt": lambda p, T, L, mod_mean: (
        inverse_sqrt_kernel(T, p["coefficient"]) if "coefficient" in p
        else inverse_sqrt_kernel(T, target_rho=p.get("target_rho", 0.5),
                                 lipschitz=L, mean_modulation=mod_mean)
    ),
    "compact-support": lambda p, T, *_: compact_kernel(p["amplitude"], p["support"], T),
    "constant": lambda p, T, *_: constant_kernel(p["value"], T),
    "zero": lambda p, T, *_: zero_kernel(T),
    "custom": lambda p, T, *_: tabulated_kernel(p["points"], T),
}
_JUMP_RATES: dict[str, Callable[..., JumpRate]] = {
    "relu-affine": lambda p: relu_affine(p["baseline"]),
    "clipped-affine": lambda p: clipped_affine(p["baseline"], p["cap"]),
    "sigmoid": lambda p: sigmoid_rate(p["scale"]),
    "constant": lambda p: constant_rate(p["value"]),
}


def _build(table: dict, spec: dict, what: str, *args):
    """The component of config block ``spec`` {family, params}, built by its
    family's entry of ``table``; a key that the build does not read is refused,
    a key of the block itself before the build."""
    spec = _Reads(_typed(spec, dict, what), what)
    family = _require(spec, "family", what)
    params = _typed(spec.get("params", {}), dict, f"{what} params")
    spec.refuse_unread(nested=False)
    _check_numbers(params, f"{what} params")
    build = table.get(family) if isinstance(family, str) else None
    if build is None:
        raise ConfigError(f"unknown {what} family {family!r}")
    try:
        built = build(params, *args)
    except KeyError as exc:
        raise ConfigError(
            f"{what} family {family!r} is missing parameter {_missing(exc, params)}"
        ) from exc
    except ValueError as exc:  # ParameterError, or a ragged point table
        raise ConfigError(f"{what} family {family!r}: {exc}") from exc
    spec.refuse_unread()
    return built


def build_kernel(
    spec: dict, horizon: float, lipschitz: float = 1.0, mean_modulation: float = 1.0
) -> Kernel:
    """Construct a kernel from its config block {family, params...}; an
    inverse-sqrt ``target_rho`` is the ratio L * ||h||_1 * E b(Y) at the given
    L and E b(Y)."""
    return _build(_KERNELS, spec, "kernel", horizon, lipschitz, mean_modulation)


def build_jump_rate(spec: dict) -> JumpRate:
    return _build(_JUMP_RATES, spec, "jump_rate")


def build_mark_model(spec: dict) -> MarkModel:
    spec = _Reads(_typed(spec, dict, "marks"), "marks")
    dist = _typed(_require(spec, "distribution", "marks"), dict, "marks.distribution")
    mod = _typed(spec.get("modulation", {"family": "constant-one"}), dict, "marks.modulation")
    dfam = _require(dist, "family", "marks.distribution")
    mfam = _require(mod, "family", "marks.modulation")
    for block, what in ((dist, "marks.distribution"), (mod, "marks.modulation")):
        _check_numbers({k: v for k, v in block.items() if k != "family"}, what)
    try:
        if dfam == "point-mass":
            dist_params = (float(dist["value"]),)
        elif dfam == "exponential":
            dist_params = (float(dist["rate"]),)
        elif dfam in ("lognormal", "gaussian"):
            dist_params = (float(dist["mean"]), float(dist["sd"]))
        else:
            raise ConfigError(f"unknown mark distribution {dfam!r}")
        if mfam == "constant-one":
            mod_params: tuple[float, ...] = ()
        elif mfam == "indicator":
            mod_params = (float(mod["threshold"]),)
        elif mfam == "absolute-value":
            mod_params = ()
        else:
            raise ConfigError(f"unknown modulation {mfam!r}")
    except KeyError as exc:
        raise ConfigError(f"marks spec is missing parameter {_missing(exc, dist, mod)}") from exc
    spec.refuse_unread()
    try:
        return MarkModel(
            distribution=dfam, dist_params=dist_params,
            modulation=mfam, mod_params=mod_params,
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


class Run:
    """Everything about one run that no trial changes (see the module docstring)."""

    def __init__(self, config: ExperimentConfig) -> None:
        T = config.horizon
        self.config = config
        self.jump_rate = jump_rate = build_jump_rate(config.jump_rate)
        self.marks = marks = build_mark_model(config.marks)
        self.kernel = kernel = build_kernel(
            config.kernel, T, jump_rate.lipschitz, mark_moments(marks).mod_mean
        )
        self.ceiling = default_ceiling(jump_rate, kernel, marks)
        try:
            self.grids = tuple(grid_coefficients(kernel, d, T) for d in config.delta_ladder)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    @functools.cached_property
    def bound_sets(self) -> list[BoundSet]:
        """One bound set per ladder delta."""
        cfg = self.config
        return bound_sets(
            self.kernel, self.grids, self.jump_rate, self.marks,
            eta=cfg.sobolev_eta, allow_unstable=cfg.allow_unstable,
        )

    @functools.cached_property
    def verify_plan(self) -> "_VerifyPlan":
        """What every trial of ``verify`` reads, built once per process; a
        compound Poisson path whose strip passes the atom budget, or whose
        sparse-modulus walk passes the modulus budget, is refused."""
        T, delta_min = self.config.horizon, self.config.delta_ladder[-1]
        rho = rho_continuous(self.kernel, self.jump_rate.lipschitz, self.marks)
        # the dominating rate of the compound Poisson path whose modulus is sampled
        rate = self.jump_rate.at_zero / (1.0 - rho) if rho < 1.0 else self.jump_rate.at_zero
        if rate * T > ATOM_BUDGET:
            raise ConfigError(
                f"the comparison path's rate {rate:.4g} over the horizon {T:.4g} passes "
                f"the atom budget {ATOM_BUDGET}; `verify` cannot sample its modulus"
            )
        if (rate * T) * (rate * delta_min) > MODULUS_BUDGET:
            raise ConfigError(
                f"the comparison path's rate {rate:.4g} gives {rate * T:.4g} jumps, "
                f"{rate * delta_min:.4g} per delta {delta_min:g}: its sparse modulus walk "
                f"passes the modulus budget {MODULUS_BUDGET} steps; `verify` cannot sample it"
            )
        return _VerifyPlan(
            rate=rate,
            times=T * np.arange(1, 21) / 20.0,
            grid_idx=distinct(np.linspace(1, self.grids[-1].count, 20, dtype=int)),
            mark_mean=mark_moments(self.marks).mean,
        )

    def atoms(self, trial: int) -> PoissonAtoms:
        """The base strip of trial ``trial``, drawn from the stream keyed (seed, trial)."""
        cfg = self.config
        return sample_atoms(cfg.horizon, self.ceiling, self.marks, (cfg.seed, trial))

    def thinnable(self) -> "Run":
        """This record, unless no finite atom ceiling dominates the kernel's
        post-event spikes (a kernel unbounded at lag zero) or the base strip
        at the atom ceiling passes the atom budget; only ``bounds`` takes those."""
        if not self.kernel.bounded:
            raise ConfigError(
                f"kernel family {self.kernel.family!r} is unbounded at lag zero and cannot "
                "be thinned in continuous time; only `bounds` accepts it"
            )
        if self.ceiling * self.config.horizon > ATOM_BUDGET:
            raise ConfigError(
                f"atom ceiling {self.ceiling:.4g} over the horizon {self.config.horizon:.4g} "
                f"passes the atom budget {ATOM_BUDGET}; only `bounds` accepts it"
            )
        return self


# --------------------------------------------------------------------------
# Per-trial evaluation
# --------------------------------------------------------------------------

class Metric(NamedTuple):
    """One convergence metric: ``measure(ref, approx, eta)`` on a (reference,
    approximation) pair, ref a continuous path or a discrete trace and approx a
    discrete trace, reading their ``risk_path``; and the ``shape`` that bounds it."""

    measure: Callable[..., float]
    shape: Callable[[BoundSet], float]


def _increment_shape(bset: BoundSet) -> float:
    # increment-bound shape between 0 and T, constant normalized to 1
    return bset.kernel_regularity * bset.horizon + bset.delta


def _skorokhod_shape(bset: BoundSet) -> float:
    bounded = bset.skorokhod_shape_bounded
    return bset.skorokhod_shape_unbounded if bounded is None else bounded


# The one list of convergence metrics, in output order.  The measures look the
# metric functions up when called, so a patched module attribute is seen.
METRICS: dict[str, Metric] = {
    "terminal_count": Metric(
        lambda ref, approx, eta: float(abs(ref.terminal_count - approx.terminal_count)),
        _increment_shape),
    "terminal_risk": Metric(
        lambda ref, approx, eta: abs(ref.terminal_risk - approx.terminal_risk), _increment_shape),
    "sobolev": Metric(
        lambda ref, approx, eta: sobolev_distance(ref.risk_path, approx.risk_path, eta),
        lambda bset: bset.sobolev_shape),
    "skorokhod_exact": Metric(
        lambda ref, approx, eta: skorokhod_distance(ref.risk_path, approx.risk_path),
        _skorokhod_shape),
    "skorokhod_upper": Metric(
        lambda ref, approx, eta: skorokhod_upper_bound(
            ref.risk_path.value_at(approx.grid.points), approx.risk,
            modulus_sparse(ref.risk_path, approx.delta), approx.delta),
        _skorokhod_shape),
}

# A ladder cell stopped by the runaway guard: (trial, error)
Abort = tuple[int, RunawayIntensityError]


def _cell_metrics(
    cfg: ExperimentConfig,
    trial: int,
    cont: ContinuousPath,
    traces: list[DiscreteTrace | None],
) -> list[dict[str, float] | None]:
    """One trial of ``convergence``: every requested metric at each delta still
    running (None at an aborted one), with the continuous path as reference.
    A path embeds its risk step path when a row first reads it: the continuous
    path's once per trial, each trace's once per cell, none if no row reads it.
    """
    return [
        None if disc is None
        else {name: METRICS[name].measure(cont, disc, cfg.sobolev_eta) for name in cfg.metrics}
        for disc in traces
    ]


def _run_trials(
    cfg: ExperimentConfig, trials: range, measure: Callable
) -> tuple[list[Abort | None], list]:
    """Couple a range of trials across the ladder and measure each one.

    Each trial draws its atoms once; ``couple`` thins the continuous path
    once on them and runs the discrete scheme at every delta still running in
    one ladder call guessed by that path.  This is exact: every process raises
    the shared ceiling through ``PoissonAtoms.cover``, a ceiling extension is
    the strip keyed by its index, whichever process asks for it first, and
    atoms above a process's own ceiling never pass its thinning.  A runaway
    past the atom budget aborts its grid's cell, or every live cell if the
    continuous path ran away.
    This is also the process-pool entry point.
    ``measure(cfg, trial, cont, traces)``, a module-level function or a
    partial of one, so that a process pool can send it, turns a trial into
    its sample; ``traces`` is None at every delta whose cell has hit the
    runaway guard.  A measure that returns None gives up on the run, which
    ends the range there.  The range reads nothing of any other range.
    Returns, per delta, the trial and error that aborted its cell (or None),
    and the samples in trial order.
    """
    run = cfg.run
    aborted: list[Abort | None] = [None] * len(run.grids)
    samples = []
    for trial in trials:
        live = [i for i, a in enumerate(aborted) if a is None]
        if not live:
            break
        try:
            cont, ladder = couple(
                run.kernel, run.jump_rate, run.marks, [run.grids[i] for i in live],
                run.atoms(trial), allow_unstable=cfg.allow_unstable,
            )
        except RunawayIntensityError as exc:
            for i in live:
                aborted[i] = (trial, exc)
            break
        traces: list[DiscreteTrace | None] = [None] * len(run.grids)
        for i, disc in zip(live, ladder):
            if isinstance(disc, RunawayIntensityError):
                aborted[i] = (trial, disc)
            else:
                traces[i] = disc
        sample = measure(cfg, trial, cont, traces)
        if sample is None:
            break
        samples.append(sample)
    return aborted, samples


def _map_trials(
    cfg: ExperimentConfig, measure: Callable, workers: int
) -> tuple[list[Abort | None], list]:
    """``_run_trials`` over every trial, in trial order regardless of workers.

    With several workers, at most one per CPU, one process pool runs
    contiguous trial ranges that each cover the whole ladder and share
    nothing; a delta aborted in any range is aborted, with the error of its
    earliest aborted trial, so what an output reads does not depend on the
    worker count.  A range never learns of another's aborts: it runs on
    after an earlier range's abort or give-up, and no output reads that work.
    """
    workers = min(workers, os.cpu_count() or 1)
    n = cfg.trials
    if workers <= 1:
        return _run_trials(cfg, range(n), measure)
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a run asks for a pool

    edges = [n * k // workers for k in range(workers + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    with ProcessPoolExecutor(max_workers=len(chunks)) as ex:
        results = list(ex.map(_run_trials, [cfg] * len(chunks), chunks, [measure] * len(chunks)))
    aborted = [
        next((a for a in per_range if a is not None), None)
        for per_range in zip(*(a for a, _ in results))
    ]
    return aborted, [s for _, samples in results for s in samples]


# --------------------------------------------------------------------------
# Convergence experiment
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    delta: float
    metric: str
    mean: float
    stderr: float
    theory_shape: float
    flag: str = ""


@dataclass
class ConvergenceReport:
    """Per-(delta, metric) Monte Carlo summaries, power-law fits, shape verdicts.

    The multiplicative constants of the theorem shapes are existential, so
    the shape verdicts compare only scalings: whether the measured means
    decrease along the ladder and how the fitted exponent relates to the
    exponent of the theory-shape column.
    """

    rows: list[ConvergenceRow] = field(default_factory=list)
    fits: dict[str, PowerLawFit | None] = field(default_factory=dict)
    shape_checks: dict[str, dict] = field(default_factory=dict)
    trials: int = 0

    def mean_table(self, metric: str) -> list[tuple[float, float, float]]:
        """(delta, mean, stderr) rows for one metric, ladder order."""
        return [
            (r.delta, r.mean, r.stderr) for r in self.rows if r.metric == metric
        ]

    def to_csv_text(self) -> str:
        lines = ["delta,metric,mean,stderr,theory_shape,flag"]
        for r in self.rows:
            lines.append(
                f"{r.delta!r},{r.metric},{r.mean!r},{r.stderr!r},{r.theory_shape!r},{r.flag}"
            )
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        return {
            "trials": self.trials,
            "fits": {
                m: (None if f is None else asdict(f)) for m, f in self.fits.items()
            },
            "shape_checks": self.shape_checks,
            "rows": [asdict(r) for r in self.rows],
        }


def _mc_mean_se(arr: np.ndarray) -> tuple[float, float]:
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def run_convergence(config: ExperimentConfig) -> ConvergenceReport:
    """Run the full delta ladder and fit error-vs-delta power laws.

    Trials run trial-major: one atom draw and one continuous path per
    trial, shared by every delta.  A runaway-intensity error aborts the
    affected ladder cell only; its rows carry NaN statistics and an
    ``aborted`` flag.
    """
    workers = config.effective_workers()  # a bad count is refused before any work
    bsets = config.run.thinnable().bound_sets
    aborted, per_trial = _map_trials(config, _cell_metrics, workers)
    report = ConvergenceReport(trials=config.trials)
    for i, (delta, bset) in enumerate(zip(config.delta_ladder, bsets)):
        cell = None if aborted[i] else [cells[i] for cells in per_trial]
        for metric in config.metrics:
            shape = METRICS[metric].shape(bset)
            if cell is None:
                flag = f"aborted:{type(aborted[i][1]).__name__}"
                report.rows.append(ConvergenceRow(delta, metric, math.nan, math.nan, shape, flag))
                continue
            mean, se = _mc_mean_se(np.array([values[metric] for values in cell]))
            report.rows.append(ConvergenceRow(delta, metric, mean, se, shape))
    for metric in config.metrics:
        rows = [r for r in report.rows if r.metric == metric]
        pts = [(r.delta, r.mean) for r in rows if not r.flag]
        positive = [(d, m) for d, m in pts if m > 0 and math.isfinite(m)]
        fit = report.fits[metric] = fit_powerlaw(positive) if len(positive) >= 3 else None
        shapes = [(r.delta, r.theory_shape) for r in rows if r.theory_shape > 0]
        finite = [m for _, m in pts if math.isfinite(m)]
        report.shape_checks[metric] = {
            "monotone_decreasing": bool(
                len(finite) == len(pts)
                and all(b <= a for a, b in zip(finite[:-1], finite[1:]))
            ),
            "measured_exponent": fit.exponent if fit else None,
            "theory_exponent": fit_powerlaw(shapes).exponent if len(shapes) >= 3 else None,
        }
    return report


# --------------------------------------------------------------------------
# Bound verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundVerdict:
    name: str
    statistic: float
    bound: float
    margin: float
    passed: bool
    detail: str = ""


# the increment mismatch at (T/4, 3T/4) must fall at least this fast in delta
SCALING_SLOPE_MIN = 0.45


class _VerifyPlan(NamedTuple):
    """What every trial of ``verify`` shares (``Run.verify_plan``)."""

    rate: float                  # rate of the compound Poisson path, 0 for none
    times: np.ndarray            # T k / 20, k = 1..20: continuous intensity reads
    grid_idx: np.ndarray         # up to 20 finest-grid bins: discrete intensity reads
    mark_mean: float             # E Y, for the compensators


class _VerifySample(NamedTuple):
    """What one trial contributes to the Monte Carlo verdicts of ``verify``."""

    mismatch: list[float]        # risk-increment mismatch on (T/4, 3T/4], per delta
    intensity: np.ndarray        # continuous intensity at T k / 20, k = 1..20
    grid_intensity: np.ndarray   # finest-delta intensity at up to 20 grid points
    xi_continuous: float         # terminal risk minus its compensator
    xi_discrete: float           # the same at the finest delta
    modulus: float               # sparse modulus of the compound Poisson path


def _verify_sample(
    cfg: ExperimentConfig,
    trial: int,
    cont: ContinuousPath,
    traces: list[DiscreteTrace | None],
) -> _VerifySample | None:
    """One trial of ``verify``; None once a delta has aborted, which fails the run."""
    if any(disc is None for disc in traces):
        return None
    run = cfg.run
    kernel, jump_rate, marks, plan = run.kernel, run.jump_rate, run.marks, run.verify_plan
    T = cfg.horizon
    delta_min = cfg.delta_ladder[-1]
    s, t = 0.25 * T, 0.75 * T
    # the continuous risk at t and at s: the marks' running sum at the last
    # jump at or before each, as its step path holds it
    risk = np.concatenate(([0.0], np.cumsum(cont.marks)))
    r_t, r_s = risk[cont.times.searchsorted([t, s], side="right")]
    inc_c = float(r_t - r_s)
    mismatch = []
    for disc in traces:
        # the discrete risk at t and at s: its value at the last grid point
        # at or before each
        r_t, r_s = disc.risk[disc.grid.points.searchsorted([t, s], side="right") - 1]
        mismatch.append(abs(inc_c - float(r_t - r_s)))
    disc = traces[-1]
    # the compound Poisson path draws from its own stream, (seed, trial, 1):
    # every atom under the ceiling ``rate`` is one of its jumps
    modulus = math.nan
    if plan.rate > 0:
        tau, _, y, _ = sample_atoms(T, plan.rate, marks, (cfg.seed, trial, 1)).merged()
        modulus = modulus_sparse(step_from_jumps(tau, y, T), delta_min)
    return _VerifySample(
        mismatch,
        eval_intensity(cont, kernel, jump_rate, plan.times),
        disc.intensity[plan.grid_idx],
        cont.terminal_risk - plan.mark_mean * integrate_intensity(cont, kernel, jump_rate),
        disc.terminal_risk - plan.mark_mean * float(disc.intensity[1:].sum() * delta_min),
        modulus,
    )


def verify_bounds(config: ExperimentConfig) -> list[BoundVerdict]:
    """Monte Carlo checks of the lemma-level bounds and the increment scaling.

    Stability verdicts are pure arithmetic; the intensity mean bounds,
    martingale zero-means and modulus bound are tested at ``mean <= bound +
    3 standard errors``; the increment mismatch at fixed (s, t) = (T/4,
    3T/4) must scale with a log-log slope of at least ``SCALING_SLOPE_MIN``
    across the ladder (zero errors pass trivially).  The trials run on the
    engine of ``convergence``; a runaway at any delta stops its range of
    trials and raises the error of the earliest aborted trial.
    """
    workers = config.effective_workers()  # a bad count is refused before any work
    run = config.run.thinnable()
    jump_rate, marks = run.jump_rate, run.marks
    T = config.horizon
    ladder = config.delta_ladder
    delta_min = ladder[-1]
    verdicts: list[BoundVerdict] = []

    rho = rho_continuous(run.kernel, jump_rate.lipschitz, marks)
    rho_d = rho_discrete(run.grids[-1], jump_rate.lipschitz, marks)
    verdicts.append(
        BoundVerdict("stability_continuous", rho, 1.0, 1.0 - rho, rho < 1.0)
    )
    verdicts.append(
        BoundVerdict(
            "stability_discrete", rho_d, 1.0, 1.0 - rho_d, rho_d < 1.0,
            detail=f"delta={delta_min}",
        )
    )

    # each trial also samples the modulus of a compound Poisson path at the
    # dominating rate, for the constant-free modulus bound
    rate = run.verify_plan.rate
    aborted, per_trial = _map_trials(config, _verify_sample, workers)
    failed = [a for a in aborted if a is not None]
    if failed:
        raise min(failed, key=lambda a: a[0])[1]

    def mean_bound_verdict(name: str, samples: np.ndarray, bound: float | None):
        if bound is None:
            verdicts.append(BoundVerdict(name, math.nan, math.nan, math.nan, False, "unstable"))
            return
        means = samples.mean(axis=0)
        ses = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
        margins = bound + 3.0 * ses - means
        verdicts.append(
            BoundVerdict(
                name,
                float(means.max()),
                bound,
                float(margins.min()),
                bool(np.all(margins >= 0.0)),
                detail=f"{samples.shape[1]} time points",
            )
        )

    mean_bound_verdict(
        "mean_intensity_continuous", np.array([s.intensity for s in per_trial]),
        jump_rate.at_zero / (1.0 - rho) if rho < 1.0 else None,
    )
    mean_bound_verdict(
        "mean_intensity_discrete", np.array([s.grid_intensity for s in per_trial]),
        jump_rate.at_zero / (1.0 - rho_d) if rho_d < 1.0 else None,
    )

    for name, arr in (
        ("martingale_continuous", np.array([s.xi_continuous for s in per_trial])),
        ("martingale_discrete", np.array([s.xi_discrete for s in per_trial])),
    ):
        mean, se = _mc_mean_se(arr)
        margin = 3.0 * se - abs(mean)
        verdicts.append(
            BoundVerdict(name, mean, 0.0, margin, margin >= 0.0, detail=f"3se={3*se:.4g}")
        )

    if rate > 0:
        mean, se = _mc_mean_se(np.array([s.modulus for s in per_trial]))
        bound = modulus_poisson_bound(rate, T, delta_min, marks)
        margin = bound + 3.0 * se - mean
        verdicts.append(
            BoundVerdict(
                "modulus_poisson", mean, bound, margin, margin >= 0.0,
                detail=f"rate={rate:.4g} delta={delta_min}",
            )
        )

    # increment mismatch at fixed times across the ladder
    mismatches = np.array([s.mismatch for s in per_trial]).T
    ladder_means = [(delta, float(row.mean())) for delta, row in zip(ladder, mismatches)]
    if all(m < 1e-12 for _, m in ladder_means):
        verdicts.append(
            BoundVerdict("increment_scaling", 0.0, SCALING_SLOPE_MIN, 0.0, True,
                         detail="all increments match exactly")
        )
    else:
        positive = [(d, m) for d, m in ladder_means if m > 0]
        if len(positive) >= 3:
            fit = fit_powerlaw(positive)
            verdicts.append(
                BoundVerdict(
                    "increment_scaling", fit.exponent, SCALING_SLOPE_MIN,
                    fit.exponent - SCALING_SLOPE_MIN, fit.exponent >= SCALING_SLOPE_MIN,
                    detail=f"fit over {len(positive)} deltas",
                )
            )
        else:
            verdicts.append(
                BoundVerdict("increment_scaling", math.nan, SCALING_SLOPE_MIN,
                             math.nan, False, detail="too few positive points")
            )
    return verdicts


def verdicts_csv_text(verdicts: list[BoundVerdict]) -> str:
    lines = ["check,statistic,bound,margin,passed,detail"]
    for v in verdicts:
        lines.append(
            f"{v.name},{v.statistic!r},{v.bound!r},{v.margin!r},{v.passed},{v.detail}"
        )
    return "\n".join(lines) + "\n"


def verdicts_json(verdicts: list[BoundVerdict]) -> str:
    return json.dumps([asdict(v) for v in verdicts], indent=2, sort_keys=True)
