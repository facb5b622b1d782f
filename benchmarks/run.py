"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is loaded from ``src/`` next to this
directory, never from an installed copy.  The run:

1. sets up (fresh import of the package, input generation, file writes),
   runs the workload's fixed task list once as a warm-up and checks its
   outputs against the independent checker;
2. runs the task list again, whole rounds at a time, until ``--seconds``
   have passed, with one more timed set-up before each round; every round
   must give the warm-up's outputs.  ``wall_s`` is the median round;
   ``task_ms_p50`` and ``task_ms_p90`` are taken over the tasks of all
   timed rounds; ``setup_s`` is the median set-up.  Spreading the set-ups
   between the rounds lets them see the same changes of machine speed as
   the rounds do;
3. with ``--trace 1``, sets up and runs one more round with every layer
   entry point wrapped in a span, writes the spans to
   ``.bench_out/trace-<workload>-<seed>.tsv`` and reports the per-layer
   figures instead of the end-to-end ones; ``trace.overhead_s`` is the
   traced round minus the median untraced one.

Every time reported is brought to a reference processor speed.  On a
shared virtual machine the processor's speed swings by up to 1.6 times in
spells of ten seconds to a minute, and a plain time measures the machine
more than the program.  A fixed snippet of interpreter work, which touches
nothing of the package, is timed after every task and around every
set-up; each time is multiplied by (``REFERENCE_SNIPPET_S`` over the median
snippet time of its round, or of its set-up) to the power
``SPEED_EXPONENT``.  The program's own work is not scaled away: a program
twice as slow reads twice as slow.  The unscaled figures are printed on the
line before the result.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 2 without that line when the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "sizedhedonic"
LAYERS = ("model", "stability", "algorithms", "exact", "reductions", "textio", "cli",
          "instances")
# The snippet time at which a reported time equals the measured one; about
# the snippet's time in the faster spells of the machine the README's
# figures come from.
REFERENCE_SNIPPET_S = 12e-6
# When the machine slows down, the snippet slows down more than the tasks:
# regressing log(round time) on log(snippet time) over identical rounds
# gave slopes of 0.61-0.77 on the four workloads.
SPEED_EXPONENT = 0.7
SETUP_SNIPPETS = 100
_SNIPPET_VALUES = {i: (i * 7) % 13 for i in range(64)}


def snippet_s() -> float:
    """The time of a fixed snippet of dict lookups and integer arithmetic.

    It allocates no container, so it neither triggers nor absorbs the
    garbage collections of the tasks around it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100):
        total += _SNIPPET_VALUES[i & 63] * (i % 5) - (total >> 3)
    return time.perf_counter() - start


def scale(snippets) -> float:
    """The factor that brings times taken next to ``snippets`` to reference speed."""
    return (REFERENCE_SNIPPET_S / statistics.median(snippets)) ** SPEED_EXPONENT


def load_package():
    """Import the package afresh and return its modules."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return argparse.Namespace(**{
        layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS})


class Round:
    """Times each task of one pass over a workload's task list."""

    def __init__(self, failure, tracer=None) -> None:
        self.failure = failure
        self.tracer = tracer
        self.task_s: list[float] = []
        self.snippet_s: list[float] = []
        self.failed = 0
        self.wall_s = 0.0  # the round without its snippets, unscaled

    def timed(self, fn, *args):
        span = self.tracer.open("task") if self.tracer else None
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing task is counted, not fatal
            result = self.failure(f"{type(exc).__name__}: {exc}")
            self.failed += 1
        self.task_s.append(time.perf_counter() - start)
        if span is not None:
            self.tracer.close(span)
        self.snippet_s.append(snippet_s())
        return result

    @property
    def scale(self) -> float:
        return scale(self.snippet_s)


def run_round(workload, lib, state, failure, tracer=None):
    gc.collect()
    r = Round(failure, tracer)
    start = time.perf_counter()
    outputs = workload.round(lib, state, r.timed)
    r.wall_s = time.perf_counter() - start - sum(r.snippet_s)
    return r, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; know {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    failure = workloads.Failure

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        setup_s = []  # (unscaled, scale)

        def timed_setup():
            gc.collect()
            snippets = [snippet_s() for _ in range(SETUP_SNIPPETS)]
            start = time.perf_counter()
            lib = load_package()
            state = workload.setup(lib, args.seed, workdir)
            elapsed = time.perf_counter() - start
            snippets += [snippet_s() for _ in range(SETUP_SNIPPETS)]
            setup_s.append((elapsed, scale(snippets)))
            return lib, state

        lib, state = timed_setup()
        _, reference = run_round(workload, lib, state, failure)
        errors = workload.check(state, reference)
        rounds = []
        deadline = time.perf_counter() + args.seconds
        first = {k: m for k, m in sys.modules.items() if k.partition(".")[0] == PACKAGE}
        while not rounds or time.perf_counter() < deadline:
            # The timed set-up's modules and inputs are dropped: the rounds,
            # and the traced run, use the first set-up's modules, so that
            # outputs compare equal.  Inputs are rebuilt with them, untimed,
            # after the timed set-up, so that two sets of inputs never
            # coexist in the peak resident set.
            state = None
            timed_setup()
            sys.modules.update(first)
            state = workload.setup(lib, args.seed, workdir)
            r, outputs = run_round(workload, lib, state, failure)
            if outputs != reference:
                errors.append(f"round {len(rounds) + 1} gave other outputs than the warm-up")
            rounds.append(r)
        wall_s = statistics.median(r.wall_s * r.scale for r in rounds)
        task_ms = [t * 1e3 * r.scale for r in rounds for t in r.task_s]
        cuts = statistics.quantiles(task_ms, n=100, method="inclusive")
        metrics = {
            "wall_s": (wall_s, "s"),
            "task_ms_p50": (cuts[49], "ms"),
            "task_ms_p90": (cuts[89], "ms"),
            "setup_s": (statistics.median(t * k for t, k in setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        attempted = sum(len(r.task_s) for r in rounds)
        failed = sum(r.failed for r in rounds)

        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer, PACKAGE)
            span = tracer.open("setup")
            state = workload.setup(lib, args.seed, workdir)
            tracer.close(span)
            traced, outputs = run_round(workload, lib, state, failure, tracer)
            if outputs != reference:
                errors.append("the traced round gave other outputs than the warm-up")
            metrics = tracing.layer_metrics(tracer, traced.scale)
            # one traced round against the median untraced one: noisy, and
            # it can be negative
            metrics["trace.overhead_s"] = (traced.wall_s * traced.scale - wall_s, "s")
            tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.tsv")

    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    snippets = [t for r in rounds for t in r.snippet_s]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(rounds[0].task_s)} tasks, {len(errors)} check failures; unscaled "
          f"wall_s {statistics.median(r.wall_s for r in rounds):.4f} s, "
          f"setup_s {statistics.median(t for t, _ in setup_s):.4f} s, "
          f"snippet {statistics.median(snippets) * 1e6:.2f} us")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
