"""Constructive polynomial-time algorithms for stable size-bounded partitions.

* ``cis_upper``: contractually individually stable partitions under an upper
  bound only, via leaders who either found a coalition with their best
  friends or join an existing one, bringing approved friends along.
* ``cns_pairs``: contractually Nash-stable partitions of size at most 2, via
  greedy best-partner pairing.
* ``cis_star_nonzero`` / ``cis_star_nonneg``: feasible-CIS partitions into a
  prescribed number of coalitions for nonzero / nonnegative valuations.
* ``symmetric_dynamics``: feasible Nash dynamics on symmetric games, a
  potential method driven by social welfare.
* ``aziz_reference``: the classic unconstrained CIS construction from the
  earlier literature, kept as a reference foil; it is known to miss CIS on
  some instances, which the leader algorithms here repair.

The four leader solvers (all but the dynamics and the foil) walk the agents
one way.  The unplaced agents are one list of ids in increasing order, the
free list.  ``_leaders`` pops each agent still free when the walk reaches
it, in id order, so a leader's free list never holds the leader;
``_strike`` deletes the agents placed with it by bisection, so the list
stays in id order without a sort, and ``cns_pairs`` puts an unpaired
leader back in its place.  A leader therefore builds no set: it reads its
free list, or the friends in it, once, and sorts that (``cns_pairs`` takes
a maximum instead).

All algorithms break ties toward the lowest agent id, so runs are
reproducible.  That tie-break is stated once, in ``prefs``: each leader
ranks its id-ordered free list, or the friends in it, once with
``prefs._rank`` and reads every option it weighs from that ranking, and a
``cns_pairs`` leader, which needs only its best partner, takes the
ranking's head with ``prefs._best``.
"""

from __future__ import annotations

__all__ = [
    "DynamicsCycleError",
    "NotSymmetricError",
    "TraceEntry",
    "aziz_reference",
    "cis_star_nonneg",
    "cis_star_nonzero",
    "cis_upper",
    "cns_pairs",
    "dynamics_steps",
    "symmetric_dynamics",
]

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, Iterator

from .model import Game, Partition, SizeBounds, _check_int, feasible_k_partition_exists
from .prefs import _best, _rank, friends, utility
from .stability import Concept, Deviation, apply_deviation, verify


class NotSymmetricError(ValueError):
    """The welfare-dynamics solver only terminates on symmetric games."""


class DynamicsCycleError(RuntimeError):
    """Nash dynamics returned to a partition they had already visited.

    ``cycle`` is the certificate of non-convergence: the partitions from the
    first visit of the repeated one up to the step before its return.  The
    first feasible Nash deviation of each leads to the next, and that of the
    last leads back to the first.
    """

    def __init__(self, cycle: tuple[Partition, ...]) -> None:
        super().__init__(
            f"Nash dynamics cycle through {len(cycle)} partitions, "
            f"starting at {cycle[0]!r}"
        )
        self.cycle = cycle


def _leaders(free: list[int]) -> Iterator[int]:
    """Pop and yield each agent still in ``free`` when the walk reaches it.

    The walk goes up the ids and goes on above the last leader, so a leader
    put back in ``free`` returns to the pool only.
    """
    a = 0
    while (i := bisect_right(free, a)) < len(free):
        a = free.pop(i)
        yield a


def _strike(free: list[int], placed: Iterable[int]) -> None:
    """Delete the ``placed`` agents from the id-ordered ``free``."""
    for b in placed:
        del free[bisect_left(free, b)]


@dataclass(frozen=True)
class TraceEntry:
    """One leader decision: the coalition acted on (1-based creation index)."""

    agent: int
    action: str  # "created" or "joined"
    coalition: int
    helpers: tuple[int, ...]


def cis_upper(game: Game, upper: int) -> tuple[Partition, tuple[TraceEntry, ...]]:
    """A contractually individually stable partition with coalitions of size <= upper.

    Leaders are picked lowest-id first.  A leader compares founding a new
    coalition from its best available friends against joining each existing
    coalition together with the best friends approved by that coalition's
    decision makers, and takes the strictly best option (ties favor founding,
    then the earlier coalition).  Joining and brought-along friends are both
    barred from coalitions whose decision makers value them negatively; the
    mover becomes a decision maker of the joined coalition.

    Running with ``upper = n`` computes a CIS partition of the unconstrained
    game.  Returns the partition and the log of leader decisions.
    """
    _check_int(upper, "upper bound")
    if upper < 2:
        raise ValueError("upper bound must be at least 2")
    free = list(game.agents)
    coalitions: list[list[int]] = []
    deciders: list[list[list[int]]] = []  # the rows of each coalition's decision makers
    joinable: list[int] = []  # indices of the coalitions not yet full, in creation order
    entries: list[TraceEntry] = []
    for a in _leaders(free):
        row = game.row(a)
        ranked = _rank(row, [b for b in free if row[b] > 0])
        own_helpers = sorted(ranked[: upper - 1])
        best = sum(map(row.__getitem__, own_helpers))
        target = None
        target_helpers = own_helpers
        for idx in joinable:
            members, rows = coalitions[idx], deciders[idx]
            if any(d[a] < 0 for d in rows):
                continue  # a decision maker vetoes the mover itself
            approved = (b for b in ranked if all(d[b] >= 0 for d in rows))
            helpers = sorted(islice(approved, upper - len(members) - 1))
            gain = sum(map(row.__getitem__, members)) + sum(map(row.__getitem__, helpers))
            if gain > best:
                best, target, target_helpers = gain, idx, helpers
        if target is None:
            target = len(coalitions)
            coalitions.append([a, *own_helpers])
            deciders.append([row])
            joinable.append(target)
            entries.append(TraceEntry(a, "created", target + 1, tuple(own_helpers)))
        else:
            coalitions[target].extend([a, *target_helpers])
            deciders[target].append(row)
            entries.append(TraceEntry(a, "joined", target + 1, tuple(target_helpers)))
        _strike(free, target_helpers)
        if len(coalitions[target]) == upper:
            joinable.remove(target)
    return Partition(coalitions), tuple(entries)


def aziz_reference(game: Game) -> Partition:
    """The earlier leader-based CIS construction, without size bounds.

    A leader founds a coalition with all its available friends unless joining
    an existing coalition (counting only that coalition's current members)
    is strictly better and harms nobody there; after a join, latecomers that
    benefit some member and harm none are absorbed.  Kept as a reference
    foil: because a joining leader ignores the friends it could bring along,
    the output is not always CIS.
    """
    available: set[int] = set(game.agents)
    coalitions: list[list[int]] = []
    while available:
        a = min(available)
        row = game.row(a)
        liked = sorted(friends(game, a, available))
        best = sum(row[b] for b in liked)
        target = None
        for idx, members in enumerate(coalitions):
            if any(game.row(m)[a] < 0 for m in members):
                continue
            gain = sum(row[b] for b in members)
            if gain > best:
                best, target = gain, idx
        if target is None:
            coalitions.append([a, *liked])
            available.difference_update(coalitions[-1])
        else:
            members = coalitions[target]
            members.append(a)
            available.discard(a)
            absorbed = True
            while absorbed:
                absorbed = False
                for b in sorted(available):
                    if any(game.row(m)[b] > 0 for m in members) and all(
                        game.row(m)[b] >= 0 for m in members
                    ):
                        members.append(b)
                        available.discard(b)
                        absorbed = True
                        break
    return Partition(coalitions)


def cns_pairs(game: Game) -> Partition:
    """A contractually Nash-stable partition into coalitions of size <= 2.

    Agents are scanned in id order; a still-available agent with an available
    strictly-positive partner is paired with the best such partner (ties to
    the lowest id).  Everyone left over stays alone.
    """
    free = list(game.agents)
    pairs: list[list[int]] = []
    for a in _leaders(free):
        row = game.row(a)
        best = _best(row, free)
        if best is not None and row[best] > 0:
            pairs.append([a, best])
            _strike(free, (best,))
        else:
            insort(free, a)  # unpaired, so a later leader may still pick it
    pairs.extend([a] for a in free)
    return Partition(pairs)


def _k_partition_exists(game: Game, bounds: SizeBounds, k: int, signs_hold, signs: str) -> bool:
    """The preconditions both k-coalition CIS* solvers share, checked in order.

    Raises ``ValueError`` for a count that is no integer or is negative, a
    lower bound below 2, or valuations whose signs fail ``signs_hold``;
    otherwise reports whether a bound-respecting partition of the agents
    into k coalitions exists (for k = 0 only the empty game has one, the
    empty partition).
    """
    _check_int(k, "coalition count")
    if k < 0:
        raise ValueError("coalition count must be nonnegative")
    if bounds.lower < 2:
        raise ValueError("requires a lower bound of at least 2")
    if not signs_hold():
        raise ValueError(f"requires {signs} valuations between all agent pairs")
    return feasible_k_partition_exists(game.n, k, bounds)


def cis_star_nonzero(game: Game, bounds: SizeBounds, k: int) -> Partition | None:
    """Feasible-CIS partition into k coalitions for nonzero valuations.

    None when no bound-respecting partition into k coalitions exists.
    Phase I founds the k coalitions: each leader (lowest available id) takes
    the minimum-size coalition it values most, then up to min(upper - lower,
    x) additional friends, where x tracks how many agents may still go to
    oversized coalitions.  Phase II tops coalitions up in inverse creation
    order with the lowest-id leftovers, so only the latest leaders ever
    absorb their enemies.

    Requires a lower bound of at least 2: the guarantee leans on the fact
    that a minimum-size coalition cannot feasibly be abandoned.  With a
    lower bound of 1 a stable partition into exactly k coalitions may not
    exist at all (two mutual friends forced into n singletons), and the
    leader algorithm for upper-bounded games covers that regime without a
    coalition-count target.
    """
    if not _k_partition_exists(game, bounds, k, game.is_nonzero, "nonzero"):
        return None
    lo, hi = bounds.lower, bounds.upper
    free = list(game.agents)
    x = game.n - lo * k
    coalitions: list[list[int]] = []
    for a in islice(_leaders(free), k):
        row = game.row(a)
        ranked = _rank(row, free)
        # friends come first in the ranking, so the best of them that phase I
        # left are the positive prefix of the rest
        extra = [b for b in ranked[lo - 1 : lo - 1 + min(hi - lo, x)] if row[b] > 0]
        members = [a, *sorted(ranked[: lo - 1]), *sorted(extra)]
        coalitions.append(members)
        _strike(free, members[1:])
        x -= max(0, len(members) - lo)
    for members in reversed(coalitions):
        room = hi - len(members)
        members += free[:room]
        del free[:room]
    assert not free, "k-partition capacity check guarantees room for everyone"
    return Partition(coalitions)


def cis_star_nonneg(game: Game, bounds: SizeBounds, k: int) -> Partition | None:
    """Feasible-CIS partition into k coalitions for nonnegative valuations.

    None when no bound-respecting partition into k coalitions exists.  Each
    leader (lowest available id) joins the coalition maximizing its utility
    together with its best friends, subject to each coalition's admission
    budget r = min(x + max(0, lower - size), upper - size) which reserves
    room to bring every coalition up to the lower bound; only a coalition
    with r >= 1 can take it.  Ties go to the earliest coalition, so when
    every admissible option is worth 0 (no friend can come along), the
    leader enters the first coalition that can still admit anyone, alone.

    Requires a lower bound of at least 2, for the same reason as the
    nonzero-valuations variant.
    """
    if not _k_partition_exists(game, bounds, k, game.is_nonnegative, "nonnegative"):
        return None
    lo, hi = bounds.lower, bounds.upper
    free = list(game.agents)
    coalitions: list[list[int]] = [[] for _ in range(k)]
    x = game.n - lo * k
    opened = 0  # coalitions with members
    for a in _leaders(free):
        row = game.row(a)
        ranked = _rank(row, [b for b in free if row[b] > 0])
        prefix = [0, *accumulate(map(row.__getitem__, ranked))]
        # by coalition size, the admission budget r: a coalition with r >= 1
        # can take the leader and the r - 1 best friends
        budget = [min(x + max(0, lo - s), hi - s) for s in range(hi + 1)]
        # a leader takes the earliest of equal options, so the empty coalitions
        # are always the last ones, and the first of them stands for them all;
        # size deficits plus x always leave one option a budget of 1 or more
        options = [m for m in coalitions[: opened + 1] if budget[len(m)] >= 1]
        gains = [sum(map(row.__getitem__, m)) + prefix[min(budget[len(m)] - 1, len(ranked))]
                 for m in options]
        members = options[gains.index(max(gains))]
        helpers = sorted(ranked[: budget[len(members)] - 1])
        if not members:
            opened += 1
        x -= max(0, 1 + len(helpers) - max(0, lo - len(members)))
        members.append(a)
        members.extend(helpers)
        _strike(free, helpers)
    return Partition(coalitions)


def dynamics_steps(
    game: Game, bounds: SizeBounds, partition: Partition
) -> Iterator[tuple[Deviation, int, Partition]]:
    """Repeatedly apply the first feasible Nash deviation in scan order.

    Yields (deviation, deviator's utility gain, resulting partition) per
    step and stops at a fixed point.  On symmetric games every step raises
    social welfare, so the dynamics end.  On other games the partitions
    visited are remembered, and a step that would return to one of them
    raises ``DynamicsCycleError`` (without yielding that step) instead of
    running forever.  A step whose deviator does not gain can only come of
    a defect in ``verify``, and raises ``RuntimeError`` rather than letting
    symmetric dynamics run on unguarded.
    """
    visited: dict[Partition, int] | None = None  # partition -> step index
    if not game.has_symmetric_table():
        visited = {partition: 0}
    while True:
        report = verify(game, partition, bounds, Concept.NS_STAR)
        if report.stable:
            return
        deviation = report.witness
        agent = deviation.agent
        before = utility(game, agent, partition.coalition_of(agent))
        partition = apply_deviation(partition, deviation)
        gain = utility(game, agent, partition.coalition_of(agent)) - before
        if gain <= 0:  # every NS* witness gains
            raise RuntimeError(f"verify returned a witness without gain: {deviation}")
        if visited is not None:
            if partition in visited:
                raise DynamicsCycleError(tuple(visited)[visited[partition]:])
            visited[partition] = len(visited)
        yield deviation, gain, partition


def symmetric_dynamics(
    game: Game, bounds: SizeBounds, init: Partition
) -> tuple[Partition, int]:
    """Run feasible Nash dynamics on a symmetric game to a stable point.

    Each step strictly increases social welfare by twice the deviator's
    gain, and welfare is an integer bounded above, so the dynamics reach a
    partition with no feasible Nash deviation.  Returns it with the step
    count.  Raises ``NotSymmetricError`` on a game that is not symmetric;
    the first ``verify`` of the dynamics raises ``ValueError`` when ``init``
    does not cover the game's agents and ``InfeasiblePartitionError`` when
    it violates the bounds.
    """
    if not game.has_symmetric_table():
        raise NotSymmetricError("welfare dynamics require symmetric valuations")
    final, steps = init, 0
    for _, _, partition in dynamics_steps(game, bounds, init):
        final, steps = partition, steps + 1
    return final, steps
