"""The four workloads: inputs made from a seed, one round of tasks, checks.

Each workload is a ``Workload`` of three functions:

* ``setup(lib, seed, workdir)`` makes the inputs; the same seed gives the
  same inputs.  ``lib`` holds the package's modules.
* ``round(lib, state, timed)`` runs the fixed task list once.  Every call
  into the package (or CLI invocation) goes through ``timed(fn, *args)``,
  which times it as one task and returns its result, or a ``Failure``.
  Calls look the package's functions up on ``lib`` at call time, so that
  the traced run sees them.
* ``check(state, outputs)`` compares one round's outputs with the
  independent ``checker`` and with properties the methods must have, and
  returns a list of error messages.  It runs outside every timed region.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from types import SimpleNamespace
from typing import Callable

import checker
import formats


@dataclass(frozen=True)
class Failure:
    """A task that raised; its output is the exception's text."""

    error: str


@dataclass(frozen=True)
class Workload:
    setup: Callable
    round: Callable
    check: Callable


# --------------------------------------------------------------- inputs


def random_values(rng, n, values, symmetric=False):
    v = [[0] * (n + 1) for _ in range(n + 1)]
    for a in range(1, n + 1):
        row = v[a]
        for b in range(a + 1 if symmetric else 1, n + 1):
            if b != a:
                row[b] = rng.choice(values)
                if symmetric:
                    v[b][a] = row[b]
    return v


SIGNED = tuple(range(-4, 5))
NONZERO = tuple(w for w in SIGNED if w)
NONNEG = tuple(range(0, 5))


def _splittable(m, lower, upper):
    return m == 0 or (m >= lower and m <= (m // lower) * upper)


def random_partition(rng, n, lower, upper):
    """A seeded random partition of 1..n into coalitions within the bounds.

    The sizes cycle through lower..upper (the last ones adjusted to fit)
    and only their order and the members are drawn, so that every seed
    gives the same number of coalitions of each size: the cost of a scan
    depends on that number, and it should not vary with the seed.
    """
    sizes, left = [], n
    while left:
        size = lower + len(sizes) % (upper - lower + 1)
        if size > left or not _splittable(left - size, lower, upper):
            size = next(s for s in range(lower, min(upper, left) + 1)
                        if _splittable(left - s, lower, upper))
        sizes.append(size)
        left -= size
    rng.shuffle(sizes)
    agents = list(range(1, n + 1))
    rng.shuffle(agents)
    coalitions = []
    for size in sizes:
        coalitions.append(agents[:size])
        del agents[:size]
    return checker.canonical(coalitions)


def make_game(lib, v, symmetric=False):
    n = len(v) - 1
    vals = {(a, b): v[a][b] for a in range(1, n + 1) for b in range(1, n + 1)
            if a != b and v[a][b]}
    return lib.model.Game(n, vals, symmetric=symmetric)


def values_of(game):
    """The valuation matrix of a game the package built (an input, not an output)."""
    return [[0] * (game.n + 1)] + [list(game.row(a)) for a in game.agents]


def _first_block(memo, v, coalitions, lower, upper, concept):
    key = (id(v), coalitions, lower, upper, concept)
    if key not in memo:
        memo[key] = checker.first_blocking(v, coalitions, lower, upper, concept)
    return memo[key]


def _stable_partition_errors(memo, where, v, coalitions, lower, upper, concept):
    n = len(v) - 1
    if not checker.is_partition(coalitions, n):
        return [f"{where}: not a partition of 1..{n}"]
    if not checker.within_bounds(coalitions, lower, upper):
        return [f"{where}: sizes outside {lower}:{upper}"]
    witness, _ = _first_block(memo, v, checker.canonical(coalitions), lower, upper, concept)
    if witness is not None:
        return [f"{where}: not {concept}-stable, move {witness} blocks"]
    return []


# --------------------------------------------------------------- verify

# Fixed sizes; the seed picks valuations and random partitions.  Candidate
# lists cost about n times the coalition count, so n grows with the mean
# coalition size to keep the random-partition scans in one band.
VERIFY_SLOTS = (
    # agents, valuations, bounds, solvers
    (180, SIGNED, (1, 4), ("cis_upper", "cns_pairs")),
    (210, NONZERO, (2, 5), ("cis_star_nonzero",)),
    (240, NONNEG, (3, 6), ("cis_star_nonneg",)),
    (165, SIGNED, (1, 3), ("cis_upper", "cns_pairs")),
)
VERIFY_RANDOM_PARTITIONS = 5


def verify_setup(lib, seed, workdir):
    rng = random.Random(f"verify:{seed}")
    slots = []
    for n, values, (lower, upper), solvers in VERIFY_SLOTS:
        v = random_values(rng, n, values)
        randoms = [lib.model.Partition(random_partition(rng, n, lower, upper))
                   for _ in range(VERIFY_RANDOM_PARTITIONS)]
        slots.append(SimpleNamespace(
            v=v, game=make_game(lib, v), lower=lower, upper=upper,
            bounds=lib.model.SizeBounds(lower, upper), pairs=lib.model.SizeBounds(1, 2),
            k=n // ((lower + upper) // 2), solvers=solvers, randoms=randoms))
    return SimpleNamespace(slots=slots)


def verify_round(lib, state, timed):
    out = []
    for i, slot in enumerate(state.slots):
        targets = []
        for solver in slot.solvers:
            if solver == "cis_upper":
                result = timed(lib.algorithms.cis_upper, slot.game, slot.upper)
                part = result if isinstance(result, Failure) else result[0]
                bounds = slot.bounds
            elif solver == "cns_pairs":
                part, bounds = timed(lib.algorithms.cns_pairs, slot.game), slot.pairs
            else:
                solve = getattr(lib.algorithms, solver)
                part, bounds = timed(solve, slot.game, slot.bounds, slot.k), slot.bounds
            out.append(("solve", i, solver, part))
            if not isinstance(part, Failure):
                targets.append((part, bounds))
        targets += [(part, slot.bounds) for part in slot.randoms]
        for part, bounds in targets:
            for concept in lib.stability.ALL_CONCEPTS:
                report = timed(lib.stability.verify, slot.game, part, bounds, concept)
                out.append(("verify", i, part, (bounds.lower, bounds.upper),
                            concept.value, report))
    return out


SOLVER_CONCEPT = {"cis_upper": "cis", "cns_pairs": "cns",
                  "cis_star_nonzero": "cis*", "cis_star_nonneg": "cis*"}


def verify_check(state, outputs):
    errors, memo = [], {}
    verdicts = defaultdict(dict)
    for record in outputs:
        if isinstance(record[-1], Failure):
            continue
        if record[0] == "solve":
            _, i, solver, part = record
            slot = state.slots[i]
            lower, upper = (1, 2) if solver == "cns_pairs" else (slot.lower, slot.upper)
            errors += _stable_partition_errors(memo, f"{solver} on game {i}", slot.v,
                                               part.coalitions, lower, upper,
                                               SOLVER_CONCEPT[solver])
            if solver.startswith("cis_star") and len(part.coalitions) != slot.k:
                errors.append(f"{solver} on game {i}: {len(part.coalitions)} coalitions, "
                              f"asked for {slot.k}")
            continue
        _, i, part, (lower, upper), concept, report = record
        witness, checked = _first_block(memo, state.slots[i].v, part.coalitions,
                                        lower, upper, concept)
        got = None if report.stable else (report.witness.agent, report.witness.target)
        if report.stable != (witness is None) or got != witness \
                or report.checked_deviations != checked:
            errors.append(f"verify {concept} on game {i}: got {got} after "
                          f"{report.checked_deviations}, expected {witness} after {checked}")
        verdicts[(i, part.coalitions, lower, upper)][concept] = report.stable
    for key, stable in verdicts.items():
        for strong, weak in checker.IMPLIED:
            if stable.get(strong) and stable.get(weak) is False:
                errors.append(f"game {key[0]}: {strong}-stable but not {weak}-stable")
    return errors


# ------------------------------------------------------------- dynamics

# A step's cost is dominated by building the candidate list, about n times
# the number of coalitions with room.  With a lower bound of 2 or more no
# move creates or removes a coalition, and random starts have the same
# coalition sizes for every seed, so one game's cost varies by about 10%
# between seeds (15-20% with a lower bound of 1), and eight games keep the
# round's total within about 3%.  All games have the same size and steps of
# similar cost, so the step-time percentiles do not sit between two games'
# plateaus.
DYNAMICS_GAMES = ((100, (2, 5)), (100, (3, 6))) * 4


def dynamics_setup(lib, seed, workdir):
    rng = random.Random(f"dynamics:{seed}")
    games = []
    for n, (lower, upper) in DYNAMICS_GAMES:
        v = random_values(rng, n, SIGNED, symmetric=True)
        start = random_partition(rng, n, lower, upper)
        games.append(SimpleNamespace(
            v=v, game=make_game(lib, v, symmetric=True), lower=lower, upper=upper,
            bounds=lib.model.SizeBounds(lower, upper), start=lib.model.Partition(start)))
    return SimpleNamespace(games=games)


_END = object()


def dynamics_round(lib, state, timed):
    """Per game, the (deviation, gain) of each step and the final coalitions.

    Only the current partition is kept, as ``dynamics_steps`` itself does,
    so that the peak resident set is the program's, not a trail of copies.
    """
    out = []
    for g in state.games:
        steps = lib.algorithms.dynamics_steps(g.game, g.bounds, g.start)
        moves, final = [], g.start
        while True:
            item = timed(next, steps, _END)
            if item is _END:
                break
            if isinstance(item, Failure):
                moves.append(item)
                break
            deviation, gain, final = item
            moves.append((deviation, gain))
        out.append((moves, final.coalitions))
    return out


def dynamics_check(state, outputs):
    """Replays the moves with the checker from the start partition."""
    errors = []
    for i, (g, (moves, final)) in enumerate(zip(state.games, outputs)):
        if not moves:
            errors.append(f"game {i}: the random start is already a fixed point")
        before = g.start.coalitions
        for step, item in enumerate(moves):
            if isinstance(item, Failure):
                break
            deviation, gain = item
            witness, _ = checker.first_blocking(g.v, before, g.lower, g.upper, "ns*")
            where = f"game {i} step {step}"
            if witness != (deviation.agent, deviation.target):
                errors.append(f"{where}: moved {deviation}, first ns* witness is {witness}")
                break
            after = checker.apply_move(before, deviation.agent, deviation.target)
            if gain <= 0:
                errors.append(f"{where}: gain {gain} is not positive")
            delta = checker.welfare(g.v, after) - checker.welfare(g.v, before)
            if delta != 2 * gain:
                errors.append(f"{where}: welfare rose by {delta}, twice the gain is {2 * gain}")
            before = after
        else:
            if final != before:
                errors.append(f"game {i}: final partition {final} is not the result "
                              f"of the moves")
            witness, _ = checker.first_blocking(g.v, before, g.lower, g.upper, "ns*")
            if witness is not None:
                errors.append(f"game {i}: final partition has the ns* move {witness}")
    return errors


# ----------------------------------------------------------- exhaustive

# The task list is laid out so that neither percentile sits in a gap
# between classes of tasks (see README): about a third are searches on
# small games (under ~8 ms); the rest, enumerations and welfare
# maximisations of 385-3,800 partitions and searches on larger games, take
# 8-75 ms with no gap.  p50 falls a fifth of the way into that band, p90
# near its top.

# (agents, lower, upper) for enumerate_partitions.
ENUMERATIONS = (
    (9, 2, 3), (10, 2, 2), (10, 3, 4), (10, 3, 5), (10, 3, 6),
    (9, 1, 2), (8, 1, 3), (9, 2, 4), (8, 1, 4), (9, 2, 5),
)
# (agents, lower, upper) for max_welfare_partition, each on
# WELFARE_GAMES seeded signed games.
MAX_WELFARE = (
    (8, 2, 4), (8, 2, 5), (8, 1, 2), (9, 2, 3), (10, 3, 4),
    (9, 1, 2), (8, 1, 3), (9, 2, 4), (10, 3, 5), (9, 3, 6),
)
WELFARE_GAMES = 4
# Counterexample families with no stable partition: (family, parameter,
# lower, upper, concept).  Every upper bound is below the agent count; the
# grand coalition is stable otherwise.
NO_STABLE = (
    [("star_no_cis", lo, lo, up, "cis") for lo in (2, 3, 4, 5, 6) for up in range(lo + 1, 2 * lo)]
    + [("pairs_triangle_no_cns_star", lo, lo, up, "cns*")
       for lo in (2, 3, 4, 5, 6) for up in (lo + 1, lo + 2, lo + 3) if up <= 2 * lo]
    + [("cycle_no_is_star", n, lo, up, "is*")
       for n, lo, up in ((5, 2, 3), (7, 2, 3), (7, 2, 4), (7, 3, 4), (8, 3, 5), (9, 4, 5),
                         (9, 2, 4), (9, 2, 5), (9, 2, 6), (10, 3, 4), (10, 3, 6), (10, 4, 6),
                         (11, 4, 6), (11, 5, 6))]
)
# Reduced games: (source instance, upper bound).  X3C instances reduce by
# Theorem 5 (CNS), MMM instances by Theorem 6 (NS and IS).
X3C_SOURCES = (
    ((3, ((1, 2, 3),)), 3), ((3, ()), 3), ((3, ((1, 2, 3),)), 4),
    ((3, ((1, 2, 3), (1, 2, 3))), 3),
)
MMM_SOURCES = (
    ((2, 1, ((1, 3), (2, 4))), 2), ((2, 1, ((1, 3), (2, 3))), 2),
    ((3, 1, ((1, 4), (2, 5))), 2), ((3, 1, ((1, 4), (2, 5))), 3),
    ((3, 2, ((1, 4), (2, 5), (3, 6))), 2), ((3, 3, ((1, 4), (2, 5), (3, 6))), 2),
    ((4, 2, ((1, 5), (2, 6))), 2), ((4, 2, ((1, 5), (2, 6))), 3),
    ((4, 3, ((1, 5), (2, 6), (3, 7))), 2),
)
EXISTS_BUDGET_AGENTS = 64


def has_exact_cover(ground, sets):
    return any(sorted(x for s in pick for x in s) == list(range(1, ground + 1))
               for pick in combinations(sets, ground // 3))


def has_small_maximal_matching(n, k, edges):
    """Whether some maximal matching of the bipartite graph has at most k edges."""
    for size in range(0, k + 1):
        for pick in combinations(edges, size):
            covered = [x for e in pick for x in e]
            if len(set(covered)) == len(covered) and all(
                    a in covered or b in covered for a, b in edges):
                return True
    return False


def exhaustive_setup(lib, seed, workdir):
    rng = random.Random(f"exhaustive:{seed}")
    model = lib.model
    welfare_games = []
    for n, lower, upper in MAX_WELFARE:
        for _ in range(WELFARE_GAMES):
            v = random_values(rng, n, SIGNED)
            welfare_games.append((v, make_game(lib, v), model.SizeBounds(lower, upper)))
    searches = []
    for family, param, lower, upper, concept in NO_STABLE:
        game = lib.instances.make_instance(family, **_family_args(family, param))
        searches.append((f"{family}({param})", values_of(game), game,
                         model.SizeBounds(lower, upper), concept, False))
    for (ground, sets), mu in X3C_SOURCES:
        reduced = lib.reductions.x3c_to_cns(lib.reductions.X3CInstance(ground, sets), mu)
        searches.append((f"x3c_to_cns{sets}", values_of(reduced.game), reduced.game,
                         model.SizeBounds(1, mu), "cns", has_exact_cover(ground, sets)))
    for (n, k, edges), mu in MMM_SOURCES:
        reduced = lib.reductions.mmm_to_ns_is(lib.reductions.MMMInstance(n, k, edges), mu)
        solvable = has_small_maximal_matching(n, k, edges)
        for concept in ("ns", "is"):
            searches.append((f"mmm_to_ns_is{(n, k, edges)}", values_of(reduced.game),
                             reduced.game, model.SizeBounds(1, mu), concept, solvable))
    return SimpleNamespace(
        enumerations=[(n, model.SizeBounds(lo, up)) for n, lo, up in ENUMERATIONS],
        welfare_games=welfare_games, searches=searches,
        budget=lib.exact.EnumerationBudget(max_agents=EXISTS_BUDGET_AGENTS),
        concepts={c.value: c for c in lib.stability.ALL_CONCEPTS})


def _family_args(family, param):
    return {"n": param} if family == "cycle_no_is_star" else {"lower": param}


def _count(stream):
    return sum(1 for _ in stream)


def exhaustive_round(lib, state, timed):
    exact = lib.exact
    out = []
    for n, bounds in state.enumerations:
        out.append(timed(lambda: _count(exact.enumerate_partitions(n, bounds))))
    for _, game, bounds in state.welfare_games:
        out.append(timed(exact.max_welfare_partition, game, bounds))
    for _, _, game, bounds, concept, _ in state.searches:
        out.append(timed(exact.exists_stable, game, bounds, state.concepts[concept],
                         state.budget))
    return out


def exhaustive_check(state, outputs):
    errors, memo = [], {}
    results = iter(outputs)
    for (n, bounds), count in zip(state.enumerations, results):
        expected = checker.count_partitions(n, bounds.lower, bounds.upper)
        if not isinstance(count, Failure) and count != expected:
            errors.append(f"enumerate n={n} {bounds}: {count} partitions, expected {expected}")
    for (v, game, bounds), part in zip(state.welfare_games, results):
        if isinstance(part, Failure):
            continue
        n, lo, up = game.n, bounds.lower, bounds.upper
        best = checker.max_welfare(v, n, lo, up)
        if part is None or not checker.is_partition(part.coalitions, n) \
                or not checker.within_bounds(part.coalitions, lo, up):
            errors.append(f"max welfare n={n} {bounds}: {part} is not a bounded partition")
        elif checker.welfare(v, part.coalitions) != best:
            errors.append(f"max welfare n={n} {bounds}: welfare "
                          f"{checker.welfare(v, part.coalitions)}, optimum {best}")
    for (name, v, _, bounds, concept, solvable), part in zip(state.searches, results):
        if isinstance(part, Failure):
            continue
        where = f"exists {concept} {bounds} on {name}"
        if part is None:
            if solvable:
                errors.append(f"{where}: None, but the source instance has a solution")
            continue
        if not solvable:
            errors.append(f"{where}: returned a partition, but none can exist")
        errors += _stable_partition_errors(memo, where, v, part.coalitions,
                                           bounds.lower, bounds.upper, concept)
    return errors


# ------------------------------------------------------------------ cli

CLI_DENSE_AGENTS = 200


def invoke(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def cli_setup(lib, seed, workdir):
    """Write the input files and list the invocations with what each must print.

    Each task is (argv, expected exit code, check); the expected codes
    follow the README's exit-code and ``solve`` dispatch tables.
    """
    rng = random.Random(f"cli:{seed}")
    n = CLI_DENSE_AGENTS
    tasks = []

    def put(name, text):
        path = workdir / name
        path.write_text(text)
        return str(path)

    dense = {
        "signed": (random_values(rng, n, SIGNED), False),
        "nonzero": (random_values(rng, n, NONZERO), False),
        "nonneg": (random_values(rng, n, NONNEG), False),
        "symmetric": (random_values(rng, n // 2, SIGNED, symmetric=True), True),
    }
    files = {key: put(f"{key}.ashg", formats.write_game(v, sym))
             for key, (v, sym) in dense.items()}

    # About 30% of the tasks read a dense file (65-130 ms here); the rest
    # read small files (under 20 ms).  p50 falls inside the small band, p90
    # inside the dense band (see README).

    # verify: random partitions and one stable partition.
    signed_game = make_game(lib, dense["signed"][0])
    cases = [("signed", lib.algorithms.cis_upper(signed_game, 4)[0].coalitions, 1, 4),
             ("signed", random_partition(rng, n, 1, 4), 1, 4),
             ("nonzero", random_partition(rng, n, 2, 5), 2, 5),
             ("nonneg", random_partition(rng, n, 3, 6), 3, 6)]
    for i, (key, coalitions, lo, up) in enumerate(cases):
        v = dense[key][0]
        part = put(f"{key}-{i}.part", formats.write_partition(coalitions))
        for concept in ("ns", "is*", "cns", "cis*"):
            witness, _ = checker.first_blocking(v, coalitions, lo, up, concept)
            tasks.append((["verify", "--concept", concept, "--bounds", f"{lo}:{up}",
                           files[key], part], 0 if witness is None else 1,
                          ("verdict", v, coalitions, lo, up, concept)))

    # solve: each dispatch row of the README (exit 0), and combinations
    # outside the table (exit 2).
    for key, concept, lo, up, k, code in (
        ("signed", "cis", 1, 4, None, 0),          # leader construction
        ("nonneg", "cis", 1, 5, None, 0),
        ("signed", "cis*", 1, 3, None, 0),
        ("signed", "cns", 1, 2, None, 0),          # greedy pairing
        ("signed", "cns*", 1, 2, None, 0),
        ("nonzero", "cis*", 2, 5, 50, 0),          # two-phase leader fill
        ("nonzero", "cis*", 3, 6, None, 0),
        ("nonneg", "cis*", 3, 6, 40, 0),           # budgeted leader joining
        ("symmetric", "ns*", 2, 4, None, 0),       # welfare dynamics
        ("symmetric", "ns*", 3, 5, None, 0),
        ("signed", "ns", 1, 3, None, 2),
        ("signed", "cis", 2, 4, None, 2),
        ("signed", "cis*", 2, 5, None, 2),
        ("nonzero", "cns", 1, 3, None, 2),
        ("signed", "ns*", 1, 3, None, 2),
    ):
        argv = ["solve", "--concept", concept, "--bounds", f"{lo}:{up}", files[key]]
        if k is not None:
            argv[1:1] = ["--k", str(k)]
        tasks.append((argv, code, ("stable", dense[key][0], lo, up, concept, k)))

    # gen for each family, and exists --exact on the families' files: the
    # counterexample families (exit 1), solvable games (exit 0), bounds no
    # partition fits (exit 2).
    family_files = {}
    for family, params in (("star_no_cis", (2, 3, 4, 5, 6)),
                           ("pairs_triangle_no_cns_star", (2, 3, 4, 5, 6)),
                           ("cycle_no_is_star", (7, 9, 10, 11, 12)),
                           ("intro_positive", (3, 4, 5, 6)), ("intro_negative", (3, 4, 5, 6)),
                           ("aziz_failure", (None,))):
        for param in params:
            args = {} if param is None else {"k": param} if family.startswith("intro") \
                else _family_args(family, param)
            game = lib.instances.make_instance(family, **args)
            name = family if param is None else f"{family}-{param}"
            v = values_of(game)
            family_files[name] = (put(f"{name}.ashg", formats.write_game(v, game.symmetric)), v)
            gen = ["gen", "--family", family]
            for key, x in args.items():
                gen += ["--param", f"{key}={x}"]
            tasks.append((gen, 0, ("game", v, game.symmetric)))
    for name, bounds, concept, code in (
        ("star_no_cis-2", ((2, 3),), "cis", 1),
        ("star_no_cis-3", ((3, 4), (3, 5)), "cis", 1),
        ("star_no_cis-4", ((4, 5), (4, 6), (4, 7)), "cis", 1),
        ("pairs_triangle_no_cns_star-2", ((2, 3), (2, 4)), "cns*", 1),
        ("pairs_triangle_no_cns_star-3", ((3, 4), (3, 5), (3, 6)), "cns*", 1),
        ("pairs_triangle_no_cns_star-4", ((4, 5), (4, 6)), "cns*", 1),
        ("cycle_no_is_star-7", ((2, 3), (2, 4), (3, 4)), "is*", 1),
        ("cycle_no_is_star-9", ((4, 5),), "is*", 1),
        ("cycle_no_is_star-10", ((4, 6),), "is*", 1),
        ("cycle_no_is_star-11", ((4, 6),), "is*", 1),
        ("star_no_cis-5", ((5, 6),), "cis", 1),
        ("intro_positive-3", ((2, 3),), "ns*", 0),
        ("intro_positive-4", ((2, 3),), "ns*", 0),
        ("intro_positive-4", ((2, 3),), "is*", 0),
        ("intro_negative-3", ((1, 2),), "cns", 0),
        ("aziz_failure", ((1, 4),), "cis", 0),
        ("aziz_failure", ((1, 3),), "is", 0),
        ("star_no_cis-3", ((4, 5),), "cis", 2),      # 6 agents do not fit 4:5
        ("pairs_triangle_no_cns_star-4", ((5, 6),), "cns*", 2),   # 9 agents, 5:6
    ):
        path, v = family_files[name]
        for lo, up in bounds:
            tasks.append((["exists", "--concept", concept, "--bounds", f"{lo}:{up}", "--exact",
                           path], code, ("stable", v, lo, up, concept, None)))

    # maxwelfare on seeded small games; the last bounds fit no partition.
    for i, (m, lo, up) in enumerate(((8, 2, 4), (8, 2, 5), (7, 1, 3), (8, 1, 2),
                                     (7, 2, 3), (8, 3, 4))):
        v = random_values(rng, m, SIGNED)
        path = put(f"welfare-{i}.ashg", formats.write_game(v))
        tasks.append((["maxwelfare", "--bounds", f"{lo}:{up}", path], 0,
                      ("welfare", v, lo, up)))
    tasks.append((["maxwelfare", "--bounds", "5:6", path], 2, ("welfare", v, 5, 6)))

    # reduce: each theorem, emitting the game and the certificate's partition.
    x3c = put("cover.x3c", formats.write_x3c(6, ((1, 2, 3), (2, 3, 4), (4, 5, 6))))
    cover = put("cover.cert", formats.write_cover((1, 3)))
    mmm = put("match.mmm", formats.write_mmm(3, 2, ((1, 4), (2, 4), (3, 5))))
    matching = put("match.cert", formats.write_matching(((1, 4), (3, 5))))
    for source, theorem, extra, instance, cert, (lo, up), concepts in (
        ("x3c", 5, [], x3c, cover, (1, 3), ("cns",)),
        ("x3c", 5, ["--mu", "4"], x3c, cover, (1, 4), ("cns",)),
        ("mmm", 6, [], mmm, matching, (1, 2), ("ns", "is")),
        ("mmm", 6, ["--mu", "3"], mmm, matching, (1, 3), ("ns", "is")),
        ("x3c", 9, ["--bounds", "2:4"], x3c, cover, (2, 4), ("ns",)),
        ("x3c", 9, ["--bounds", "3:5"], x3c, cover, (3, 5), ("ns",)),
    ):
        argv = ["reduce", "--from", source, "--theorem", str(theorem), *extra, instance]
        tasks.append((argv, 0, ("reduced",)))
        tasks.append((argv + ["--witness", cert], 0, ("witness", len(tasks) - 1, lo, up,
                                                      concepts)))
    return SimpleNamespace(tasks=tasks)


def cli_round(lib, state, timed):
    return [timed(invoke, lib, argv) for argv, _, _ in state.tasks]


def cli_check(state, outputs):
    errors, memo = [], {}
    for (argv, code, spec), result in zip(state.tasks, outputs):
        if isinstance(result, Failure):
            continue
        got, out, err = result
        where = " ".join(argv[:5])
        if got != code:
            errors.append(f"{where}: exit {got}, expected {code} ({err.strip()})")
            continue
        kind = spec[0]
        if kind == "verdict":
            _, v, coalitions, lo, up, concept = spec
            witness, _ = _first_block(memo, v, checker.canonical(coalitions), lo, up, concept)
            expected = None if witness is None else (
                witness[0], None if witness[1] is None
                else checker.canonical(coalitions)[witness[1]])
            if formats.read_verdict(out) != expected:
                errors.append(f"{where}: printed {out!r}, expected witness {expected}")
        elif kind == "stable" and code == 0:
            _, v, lo, up, concept, k = spec
            coalitions = formats.read_partition(out)
            errors += _stable_partition_errors(memo, where, v, coalitions, lo, up, concept)
            if k is not None and len(coalitions) != k:
                errors.append(f"{where}: {len(coalitions)} coalitions, asked for {k}")
        elif kind == "welfare" and code == 0:
            _, v, lo, up = spec
            coalitions = formats.read_partition(out)
            best = checker.max_welfare(v, len(v) - 1, lo, up)
            if not (checker.is_partition(coalitions, len(v) - 1)
                    and checker.within_bounds(coalitions, lo, up)
                    and checker.welfare(v, coalitions) == best
                    and err.strip() == f"welfare: {best}"):
                errors.append(f"{where}: printed {out!r} / {err!r}, optimum is {best}")
        elif kind == "game":
            _, v, symmetric = spec
            if formats.read_game(out) != (v, symmetric):
                errors.append(f"{where}: emitted a different game")
        elif kind == "witness":
            _, game_task, lo, up, concepts = spec
            if isinstance(outputs[game_task], Failure):
                continue
            v, _ = formats.read_game(outputs[game_task][1])
            coalitions = formats.read_partition(out)
            for concept in concepts:
                errors += _stable_partition_errors(memo, where, v, coalitions, lo, up, concept)
    return errors


WORKLOADS = {
    "verify": Workload(verify_setup, verify_round, verify_check),
    "dynamics": Workload(dynamics_setup, dynamics_round, dynamics_check),
    "exhaustive": Workload(exhaustive_setup, exhaustive_round, exhaustive_check),
    "cli": Workload(cli_setup, cli_round, cli_check),
}
