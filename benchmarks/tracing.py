"""Spans around the calls into each layer of the package, for the traced run.

The package is not modified: ``install`` replaces its layer entry points
with wrappers, under every name a module of the package holds them by
(``sizedhedonic.verify``, ``sizedhedonic.exact.verify`` and
``sizedhedonic.cli.verify`` are one function), and patches ``__init__`` of
``Game`` and ``Partition``.  Spans live in flat arrays until the run writes
them out; per-layer figures are computed from them afterwards.

Cheap, hot helpers (``blocking_check``, ``candidate_deviations``,
``feasible_partition_exists``, the ``prefs`` selectors) are left unwrapped:
wrapping them would put most of the tracing cost inside the spans of their
callers and skew those callers' self times.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

# Entry points per layer, as attribute names of the layer's module.
LAYER_FUNCTIONS = {
    "textio": (
        "parse", "parse_game", "parse_partition", "parse_x3c", "parse_mmm",
        "parse_cover", "parse_matching", "serialize_game", "serialize_partition",
        "serialize_x3c", "serialize_mmm", "serialize_cover", "serialize_matching",
    ),
    "model": ("greedy_feasible_partition", "singleton_partition"),
    "stability": ("verify", "apply_deviation"),
    "algorithms": (
        "cis_upper", "cns_pairs", "cis_star_nonzero", "cis_star_nonneg",
        "aziz_reference", "symmetric_dynamics", "dynamics_steps",
    ),
    "exact": ("enumerate_partitions", "exists_stable", "max_welfare_partition"),
    "reductions": ("x3c_to_cns", "mmm_to_ns_is", "x3c_to_ns_bounded", "witness_partition"),
    "cli": ("run",),
}
LAYER_CLASSES = {"model": ("Game", "Partition")}
# Entry points whose return value is an iterator that does the work lazily;
# each step of it gets its own span, named with a ``.next`` suffix.
LAZY = {"exact.enumerate_partitions", "algorithms.dynamics_steps"}
SOLVERS = (
    "cis_upper", "cns_pairs", "cis_star_nonzero", "cis_star_nonneg",
    "aziz_reference", "symmetric_dynamics",
)


class Tracer:
    """Spans (name, parent, start, end) in flat arrays, plus counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(span)
        self.start.append(time.perf_counter_ns())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter_ns()
        self._stack.pop()

    def totals(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        child_ns = [0] * len(self.name)
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(int)
        own: defaultdict = defaultdict(int)
        for i in range(len(self.name)):
            key = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[key] += 1
            incl[key] += dur
            own[key] += dur - child_ns[i]
        return calls, incl, own

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )


class _TracedIterator:
    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer: Tracer, name: str, it) -> None:
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        span = self._tracer.open(self._name)
        try:
            item = next(self._it)
        finally:
            self._tracer.close(span)
        self._tracer.counts[self._name + ".items"] += 1
        return item


def _wrap(tracer: Tracer, name: str, fn):
    observe = _OBSERVERS.get(name)
    lazy = name in LAZY

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if observe is not None:
            observe(tracer.counts, args, result)
        if lazy:
            return _TracedIterator(tracer, name + ".next", result)
        return result

    return traced


def _wrap_init(tracer: Tracer, name: str, cls) -> None:
    init = cls.__init__
    observe = _OBSERVERS.get(name)

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        span = tracer.open(name)
        try:
            init(self, *args, **kwargs)
        finally:
            tracer.close(span)
        if observe is not None:
            observe(tracer.counts, args, self)

    cls.__init__ = traced_init


def _count_cells(counts, args, game) -> None:
    counts["model.game_cells"] += (game.n + 1) ** 2


def _count_deviations(counts, args, report) -> None:
    counts["stability.deviations_checked"] += report.checked_deviations


def _count_bytes(counts, args, result) -> None:
    if args and isinstance(args[0], str):
        counts["textio.bytes_parsed"] += len(args[0].encode())


_OBSERVERS = {
    "model.Game": _count_cells,
    "stability.verify": _count_deviations,
    **{f"textio.{f}": _count_bytes for f in LAYER_FUNCTIONS["textio"] if f.startswith("parse")},
}


def install(tracer: Tracer, package: str = "sizedhedonic") -> None:
    """Route every layer entry point of the loaded package through ``tracer``."""
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == package or k.startswith(package + "."))]
    for layer, names in LAYER_FUNCTIONS.items():
        home = sys.modules[f"{package}.{layer}"]
        for attr in names:
            original = getattr(home, attr)
            wrapper = _wrap(tracer, f"{layer}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    for layer, names in LAYER_CLASSES.items():
        home = sys.modules[f"{package}.{layer}"]
        for attr in names:
            _wrap_init(tracer, f"{layer}.{attr}", getattr(home, attr))


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """The per-layer figures named in BENCHMARK.json, as (value, unit).

    Span times are multiplied by ``scale``, which brings them to the
    benchmark's reference speed (see ``run.py``).
    """
    calls, incl, own = tracer.totals()
    counts = tracer.counts

    def self_s(*names):
        return sum(own[n] for n in names) / 1e9 * scale

    def incl_s(*names):
        return sum(incl[n] for n in names) / 1e9 * scale

    def ratio(num, den):
        return num / den if den else 0.0

    parse = [f"textio.{f}" for f in LAYER_FUNCTIONS["textio"] if f.startswith("parse")]
    serialize = [f"textio.{f}" for f in LAYER_FUNCTIONS["textio"] if f.startswith("serialize")]
    enum = ("exact.enumerate_partitions", "exact.enumerate_partitions.next")
    step = "algorithms.dynamics_steps.next"
    reductions = (f"reductions.{f}" for f in LAYER_FUNCTIONS["reductions"])
    mb_parsed = counts["textio.bytes_parsed"] / 1e6
    return {
        "textio.parse_s": (self_s(*parse), "s"),
        "textio.parse_mb_per_s": (ratio(mb_parsed, incl_s(*parse)), "MB/s"),
        "textio.serialize_s": (self_s(*serialize), "s"),
        "model.game_build_s": (self_s("model.Game"), "s"),
        "model.game_cells": (counts["model.game_cells"], "count"),
        "model.partition_builds": (calls["model.Partition"], "count"),
        "model.partition_build_s": (self_s("model.Partition"), "s"),
        "stability.verify_calls": (calls["stability.verify"], "count"),
        "stability.verify_s": (self_s("stability.verify"), "s"),
        "stability.deviations_checked": (counts["stability.deviations_checked"], "count"),
        "stability.apply_deviation_s": (self_s("stability.apply_deviation"), "s"),
        "algorithms.solver_s": (self_s(*(f"algorithms.{f}" for f in SOLVERS)), "s"),
        "algorithms.step_ms": (ratio(incl_s(step) * 1e3, calls[step]), "ms"),
        "exact.enumerate_s": (self_s(*enum), "s"),
        "exact.partitions_per_s": (
            ratio(counts["exact.enumerate_partitions.next.items"], incl_s(*enum)), "1/s"),
        "exact.exists_s": (self_s("exact.exists_stable"), "s"),
        "exact.maxwelfare_s": (self_s("exact.max_welfare_partition"), "s"),
        "reductions.build_s": (self_s(*reductions), "s"),
        "cli.self_s": (self_s("cli.run"), "s"),
    }
