"""One benchmark step in a fresh interpreter; prints one JSON line last.

    python3 perfbench/child.py setup CONFIG
    python3 perfbench/child.py run COMMAND CONFIG OUTDIR
    python3 perfbench/child.py trace COMMAND CONFIG OUTDIR TRACE_JSON SPANS_JSONL
    python3 perfbench/child.py sweep SEED

``hawkpath`` must be importable (``PYTHONPATH=src``).  ``setup`` reports the
CLOCK_MONOTONIC reading once the config is validated and its kernel, jump
rate and mark model are built, so the parent can time it from before the
interpreter started.  ``run`` and ``trace`` time one ``cli_main`` call, and a
fixed calibration loop before and after it, and report the process's peak
RSS; ``trace`` also wraps the layers (see ``tracer.py``) and writes
per-function statistics, counters and spans.
``sweep`` times the exact path metrics on seeded step paths of fixed size.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _setup(config: str) -> dict:
    import hawkpath.cli  # noqa: F401  (everything one CLI invocation imports)
    from hawkpath.harness import (
        ExperimentConfig,
        build_jump_rate,
        build_kernel,
        build_mark_model,
    )

    cfg = ExperimentConfig.from_dict(json.loads(Path(config).read_text(encoding="utf-8")))
    build_kernel(cfg.kernel, cfg.horizon)
    build_jump_rate(cfg.jump_rate)
    build_mark_model(cfg.marks)
    return {"ready": time.monotonic()}


def _cli(command: str, config: str, outdir: str) -> tuple[int, float, int]:
    """(exit code, cli_main seconds, bytes printed) for one CLI call."""
    import hawkpath.cli

    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = hawkpath.cli.cli_main([command, config, "--output-dir", outdir])
    wall = time.perf_counter() - start
    return code, wall, len(captured.getvalue().encode("utf-8"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


CALIBRATION_LOOPS = 250_000


def _calibrate() -> float:
    """Seconds for a fixed loop of small numpy calls, the kind of work the pipeline does."""
    import numpy as np

    a = np.arange(64, dtype=float)
    total = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        total += float(np.dot(a, a[::-1])) + i % 7
    return time.perf_counter() - start


def _timed_cli(command: str, config: str, outdir: str) -> dict:
    """One CLI call between two calibration loops, which gauge the machine's speed."""
    before = _calibrate()
    code, wall, printed = _cli(command, config, outdir)
    after = _calibrate()
    return {
        "exit": code,
        "wall_s": wall,
        "calibration_s": 0.5 * (before + after),
        "stdout_bytes": printed,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _trace(command: str, config: str, outdir: str, trace_json: str, spans: str) -> dict:
    import hawkpath.cli  # noqa: F401  (the tracer wraps only loaded modules)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        result = _timed_cli(command, config, outdir)
    finally:
        tracer.uninstall()
    Path(trace_json).write_text(json.dumps(tracer.report()), encoding="utf-8")
    tracer.write_spans(spans)
    return result


SWEEP_SIZES = (100, 250, 500, 1000)
SWEEP_HORIZON = 200.0
SWEEP_DELTA = 0.25


def _sweep(seed: int) -> dict:
    """Time each exact metric once per size on a unit-jump path and its grid rounding.

    The second path moves every jump up to the next multiple of
    SWEEP_DELTA, which is how the discrete scheme embeds the same events.
    A size the exact Skorokhod algorithm refuses is reported as "refused".
    """
    import numpy as np

    from hawkpath.errors import ParameterError
    from hawkpath.metrics import modulus_sparse, skorokhod_distance, sobolev_distance
    from hawkpath.simulate import step_from_jumps

    results: dict[str, float | str] = {}
    for size in SWEEP_SIZES:
        rng = np.random.default_rng((seed, size))
        times = np.sort(rng.uniform(0.0, SWEEP_HORIZON, size))
        rounded = np.minimum(np.ceil(times / SWEEP_DELTA) * SWEEP_DELTA, SWEEP_HORIZON)
        f = step_from_jumps(times, np.ones(size), SWEEP_HORIZON)
        g = step_from_jumps(rounded, np.ones(size), SWEEP_HORIZON)
        calls = {
            "sobolev_distance": lambda: sobolev_distance(f, g, 0.25),
            "skorokhod_distance": lambda: skorokhod_distance(f, g),
            "modulus_sparse": lambda: modulus_sparse(f, SWEEP_DELTA),
        }
        for name, call in calls.items():
            start = time.perf_counter()
            try:
                call()
            except ParameterError:
                results[f"{name}.J{size}"] = "refused"
                continue
            results[f"{name}.J{size}"] = time.perf_counter() - start
    return results


def main(argv: list[str]) -> None:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        result = _setup(*args)
    elif mode == "run":
        result = _timed_cli(*args)
    elif mode == "trace":
        result = _trace(*args)
    elif mode == "sweep":
        result = _sweep(int(args[0]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
