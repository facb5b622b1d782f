"""Command-line surface tying the library together.

Exit codes: 0 found / verified / stable; 1 not stable or nothing exists;
2 infeasible bounds or no applicable algorithm; 3 input error.  Results
(partition files, witness deviations) go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .algorithms import (
    NotSymmetricError,
    cis_star_nonneg,
    cis_star_nonzero,
    cis_upper,
    cns_pairs,
    symmetric_dynamics,
)
from .exact import BudgetExceededError, EnumerationBudget, exists_stable, max_welfare_partition
from .instances import make_instance
from .model import (
    Game,
    InfeasiblePartitionError,
    Partition,
    SizeBounds,
    feasible_partition_exists,
    greedy_feasible_partition,
)
from .prefs import social_welfare
from .reductions import mmm_to_ns_is, witness_partition, x3c_to_cns, x3c_to_ns_bounded
from .stability import Concept, Deviation, verify
from .textio import _read, parse, serialize_game, serialize_partition


class _UsageError(Exception):
    pass


class _Refusal(Exception):
    """No algorithm applies or no partition fits: exit 2, message printed bare."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 3
        raise _UsageError(message)


def _bounds(text: str) -> SizeBounds:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise _UsageError(f"bounds must look like '2:3', got {text!r}")
    try:
        return SizeBounds(int(lo), int(hi))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _concept(text: str) -> Concept:
    try:
        return Concept.parse(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _budget(text: str) -> EnumerationBudget:
    try:
        max_n = int(text)
    except ValueError:
        raise _UsageError(f"--max-n must be an integer, got {text!r}") from None
    if max_n < 1:
        raise _UsageError(f"--max-n must be at least 1, got {max_n}")
    return EnumerationBudget(max_agents=max_n)


def _print_deviation(deviation: Deviation, partition: Partition) -> None:
    if deviation.target is None:
        print(f"deviation {deviation.agent} new")
    else:
        members = " ".join(map(str, partition.coalitions[deviation.target]))
        print(f"deviation {deviation.agent} join {members}")


def _emit_partition(partition: Partition) -> None:
    sys.stdout.write(serialize_partition(partition))


def _cmd_verify(args) -> int:
    game = parse(_read(args.game), "game")
    partition = parse(_read(args.partition), "partition")
    report = verify(game, partition, args.bounds, args.concept)
    if report.stable:
        print("stable")
        return 0
    print("unstable")
    _print_deviation(report.witness, partition)
    return 1


def _no_partition(n: int, bounds: SizeBounds, k: int | None = None) -> _Refusal:
    into = "" if k is None else f" into {k} coalitions"
    return _Refusal(f"no partition of {n} agents{into} within {bounds}")


def _greedy_start(game: Game, bounds: SizeBounds) -> Partition:
    if (blocks := greedy_feasible_partition(game.agents, bounds)) is None:
        raise _no_partition(game.n, bounds)
    return Partition(blocks)


def _cmd_solve(args) -> int:
    game = parse(_read(args.game), "game")
    bounds, concept, k = args.bounds, args.concept, args.k
    lo, hi = bounds.lower, bounds.upper
    if k is not None and concept is not Concept.CIS_STAR:
        raise _UsageError("--k only applies to --concept cis*")
    if k is not None and k < 1:
        raise _UsageError(f"--k must be at least 1, got {k}")
    if k is not None and lo == 1:
        # the leader algorithm serves cis* at a lower bound of 1, where permissible
        # and feasible deviations coincide, but it cannot target a coalition count
        raise _Refusal("no algorithm targets a coalition count with a lower bound of 1")
    if concept.base == "cis" and lo == 1 < hi:
        partition, _ = cis_upper(game, hi)
    elif concept is Concept.CIS_STAR and lo > 1:
        if not ((nonzero := game.is_nonzero()) or game.is_nonnegative()):
            raise _Refusal(
                "CIS* solving with a nontrivial lower bound needs nonzero or "
                "nonnegative valuations; use 'exists --exact' otherwise"
            )
        solver = cis_star_nonzero if nonzero else cis_star_nonneg
        partition = solver(game, bounds, game.n // lo if k is None else k)
        if partition is None:
            raise _no_partition(game.n, bounds, k)
    elif concept.base == "cns" and (lo, hi) == (1, 2):
        partition = cns_pairs(game)
    elif concept is Concept.NS_STAR:
        partition, _ = symmetric_dynamics(game, bounds, _greedy_start(game, bounds))
    else:
        raise _Refusal(f"no algorithm for {concept} with bounds {bounds}; use 'exists --exact'")
    if not verify(game, partition, bounds, concept).stable:  # pragma: no cover - a solver bug
        raise RuntimeError(f"solver produced a partition rejected for {concept}")
    _emit_partition(partition)
    return 0


def _cmd_exists(args) -> int:
    game = parse(_read(args.game), "game")
    if not feasible_partition_exists(game.n, args.bounds):
        raise _no_partition(game.n, args.bounds)
    partition = exists_stable(game, args.bounds, args.concept, args.budget)
    if partition is None:
        print(f"no {args.concept} partition exists within {args.bounds}", file=sys.stderr)
        return 1
    _emit_partition(partition)
    return 0


def _cmd_maxwelfare(args) -> int:
    game = parse(_read(args.game), "game")
    if not feasible_partition_exists(game.n, args.bounds):
        raise _no_partition(game.n, args.bounds)
    partition = max_welfare_partition(game, args.bounds, args.budget)
    print(f"welfare: {social_welfare(game, partition)}", file=sys.stderr)
    _emit_partition(partition)
    return 0


def _cmd_gen(args) -> int:
    params = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep:
            raise _UsageError(f"--param expects key=value, got {item!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise _UsageError(f"parameter {key} must be an integer") from None
    try:
        game = make_instance(args.family, **params)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    sys.stdout.write(serialize_game(game))
    return 0


# theorem: (source format, builder, default upper bound or None where the
# theorem takes --bounds, certificate format)
_THEOREMS = {
    5: ("x3c", x3c_to_cns, 3, "cover"),
    6: ("mmm", mmm_to_ns_is, 2, "matching"),
    9: ("x3c", x3c_to_ns_bounded, None, "cover"),
}


def _cmd_reduce(args) -> int:
    source, build, default_mu, certificate = _THEOREMS[args.theorem]
    if args.source != source:
        raise _UsageError(f"theorem {args.theorem} reduces from {source} instances")
    if default_mu is None and args.mu is not None:
        raise _UsageError("--mu only applies to theorems 5 and 6")
    if default_mu is not None and args.bounds is not None:
        raise _UsageError("--bounds only applies to theorem 9")
    text = _read(args.instance)
    if default_mu is None and args.bounds is None:
        raise _UsageError(f"theorem {args.theorem} needs --bounds")
    mu = default_mu if args.mu is None else args.mu
    reduced = build(parse(text, source), args.bounds if mu is None else mu)
    if args.witness is None:
        sys.stdout.write(serialize_game(reduced.game))
        return 0
    _emit_partition(witness_partition(reduced, parse(_read(args.witness), certificate)))
    return 0


def _cmd_dynamics(args) -> int:
    game = parse(_read(args.game), "game")
    init = (_greedy_start(game, args.bounds) if args.init is None
            else parse(_read(args.init), "partition"))
    final, steps = symmetric_dynamics(game, args.bounds, init)
    print(f"steps: {steps}", file=sys.stderr)
    _emit_partition(final)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and reused after it."""
    parser = _Parser(prog="sizedhedonic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, concept=True):
        if concept:
            p.add_argument("--concept", type=_concept, required=True,
                           help="ns, is, cns, cis, optionally with a * suffix")
        p.add_argument("--bounds", type=_bounds, required=True, metavar="L:U")

    p = sub.add_parser("solve", help="construct a stable partition")
    common(p)
    p.add_argument("--k", type=int, help="coalition count (cis* only)")
    p.add_argument("game")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify", help="check a partition for stability")
    common(p)
    p.add_argument("game")
    p.add_argument("partition")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("exists", help="exhaustively decide whether a stable partition exists")
    common(p)
    p.add_argument("--exact", action="store_true", required=True,
                   help="acknowledge the exhaustive (exponential) search")
    p.add_argument("--max-n", dest="budget", type=_budget, default=EnumerationBudget(),
                   help="agent budget (default 12)")
    p.add_argument("game")
    p.set_defaults(handler=_cmd_exists)

    p = sub.add_parser("maxwelfare", help="maximize social welfare by branch and bound")
    common(p, concept=False)
    p.add_argument("--max-n", dest="budget", type=_budget, default=EnumerationBudget())
    p.add_argument("game")
    p.set_defaults(handler=_cmd_maxwelfare)

    p = sub.add_parser("gen", help="emit a named example game")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VAL")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("reduce", help="build a hardness-reduction game or its witness")
    p.add_argument("--from", dest="source", choices=("x3c", "mmm"), required=True)
    p.add_argument("--theorem", type=int, choices=(5, 6, 9), required=True,
                   help="5: x3c->CNS (upper bound); 6: mmm->NS/IS; 9: x3c->NS (both bounds)")
    p.add_argument("--mu", type=int, help="upper bound (theorems 5 and 6)")
    p.add_argument("--bounds", type=_bounds, metavar="L:U", help="bounds (theorem 9)")
    p.add_argument("--witness", metavar="CERTIFICATE",
                   help="emit the stable partition for this certificate instead of the game")
    p.add_argument("instance")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("dynamics", help="run feasible Nash dynamics on a symmetric game")
    common(p, concept=False)
    p.add_argument("--init", help="initial partition file (default: greedy feasible)")
    p.add_argument("game")
    p.set_defaults(handler=_cmd_dynamics)

    return parser


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return 2
    # The two exit-2 errors are ValueErrors, so their clause comes first.
    except (InfeasiblePartitionError, NotSymmetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
