"""Outside-in tracer for the hawkpath layers.

Wraps public functions of each layer module by name, in every loaded
``hawkpath`` module namespace that binds them, records one span per call
(name, start, end, parent span, ``(seed, trial)`` key) in memory and
derives work counters from the wrapped calls' arguments and return values.
Nothing under ``src/`` is edited: :meth:`Tracer.install` swaps the module
attributes and :meth:`Tracer.uninstall` puts the originals back.

Quadrature and step-path helpers (``integrate``, ``shift_modulus``,
``step_from_jumps``, ``sobolev_norm``, ...) are deliberately left
unwrapped, so their time counts as self time of the norm, constant or
metric that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

# layer (module) -> traced function names
LAYERS: dict[str, tuple[str, ...]] = {
    "kernels": ("l1_norm", "c_r", "grid_coefficients", "p_variation"),
    "randomness": ("sample_atoms", "extend_ceiling", "mark_moments"),
    "simulate": (
        "simulate_continuous",
        "simulate_discrete",
        "simulate_discrete_fast",
        "eval_intensity",
        "integrate_intensity",
        "couple",
        "default_ceiling",
        "path_to_step",
    ),
    "metrics": (
        "sobolev_distance",
        "skorokhod_distance",
        "feasible_eps",
        "modulus_sparse",
        "skorokhod_upper_bound",
        "fit_powerlaw",
    ),
    "bounds": ("rho_continuous", "rho_discrete", "bound_set", "modulus_poisson_bound"),
    "harness": (
        "build_kernel",
        "build_jump_rate",
        "build_mark_model",
        "run_convergence",
        "verify_bounds",
    ),
    "cli": ("cli_main",),
}

# metric functions whose step-path arguments count toward the jump statistics
_PATH_METRICS = ("metrics.sobolev_distance", "metrics.skorokhod_distance", "metrics.modulus_sparse")


def _strip_sizes(atoms) -> list[int]:
    return [len(s.tau) for s in atoms.strips]


class Counters:
    """Work counts read from the arguments and results of traced calls."""

    def __init__(self) -> None:
        self.atoms_drawn = 0
        self.events_continuous = 0
        self.events_discrete = 0
        self.atoms_scanned_continuous = 0
        self.continuous_keys: set[tuple] = set()
        self.bins = 0
        self.path_jumps: list[int] = []
        self.unavailable: set[str] = set()

    def observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        try:
            self._observe(name, args, kwargs, result)
        except (AttributeError, TypeError, IndexError):
            # a refactor changed a container; report, do not crash the run
            self.unavailable.add(name)

    def _observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        if name == "randomness.sample_atoms":
            self.atoms_drawn += sum(_strip_sizes(result))
        elif name == "randomness.extend_ceiling":
            self.atoms_drawn += _strip_sizes(result)[-1]
        elif name == "simulate.simulate_continuous":
            atoms = kwargs["atoms"] if "atoms" in kwargs else args[4]
            self.events_continuous += len(result.times)
            self.atoms_scanned_continuous += sum(_strip_sizes(atoms))
            self.continuous_keys.add(tuple(atoms.seed_entropy))
        elif name == "simulate.simulate_discrete":
            self.bins += int(result.count)
            self.events_discrete += int(result.terminal_count)
        elif name in _PATH_METRICS:
            for arg in args:
                if hasattr(arg, "jump_count"):
                    self.path_jumps.append(int(arg.jump_count))


class Tracer:
    """Span recorder over wrapped hawkpath functions (single thread)."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, key]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters = Counters()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function that exists; record the ones that do not."""
        loaded = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "hawkpath" or name.startswith("hawkpath."))
        ]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"hawkpath.{layer}")
            for fname in names:
                original = getattr(module, fname, None) if module else None
                if not callable(original):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        seed_pos = params.index("seed") if "seed" in params else None
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def key_of(args, kwargs):
            seed = kwargs.get("seed")
            if seed is None and seed_pos is not None and seed_pos < len(args):
                seed = args[seed_pos]
            if seed is not None:
                return (seed,) if isinstance(seed, int) else tuple(seed)
            for arg in (*args, *kwargs.values()):
                entropy = getattr(arg, "seed_entropy", None)
                if entropy is not None:
                    return tuple(entropy)
            return spans[stack[-1]][4] if stack else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, key_of(args, kwargs)])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            counters.observe(name, args, kwargs, result)
            return result

        return wrapper

    # -- reduction ----------------------------------------------------------

    def function_stats(self) -> dict[str, dict]:
        """Per function: calls, inclusive total, self time and p90 call time."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = defaultdict(list)
        self_time: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += (end - start) - child_time[index]
        stats = {}
        for name, values in durations.items():
            stats[name] = {
                "calls": len(values),
                "total_s": sum(values),
                "self_s": self_time[name],
                "p90_ms": 1000.0 * nearest_rank(values, 0.9),
            }
        return stats

    def report(self) -> dict:
        c = self.counters
        return {
            "functions": self.function_stats(),
            "absent": self.absent,
            "counters": {
                "atoms_drawn": c.atoms_drawn,
                "events_continuous": c.events_continuous,
                "events_discrete": c.events_discrete,
                "atoms_scanned_continuous": c.atoms_scanned_continuous,
                "continuous_keys": len(c.continuous_keys),
                "bins": c.bins,
                "path_jumps": c.path_jumps,
                "unavailable": sorted(c.unavailable),
            },
            "span_count": len(self.spans),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, key in self.spans:
                out.write(json.dumps([name, start, end, parent, key]) + "\n")


def nearest_rank(values, q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])
