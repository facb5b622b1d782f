"""Exhaustive enumeration of size-bounded partitions and brute-force oracles.

All three oracles run one leader-first depth-first search (``_search``): the
lowest unassigned agent always leads the next coalition, and its candidate
coalitions are tried in lexicographic order of their member tuples, so the
partitions are reached strictly increasing under the canonical key and none
twice.  The candidates come from one loop over a stack of indices
(``_coalition_candidates``), the one statement of their order.  Branches
whose residual agent count cannot be partitioned within the bounds are
pruned arithmetically: a candidate whose remainder does not fit is counted
and dropped.

A frame with no prefix test has the same candidates, position for
position, as any other frame of its size m.  So a frame below the root
with no prefix test (no twin held back, no sign rule) and an upper bound
of at least 3 reads them from the call's table for size m, which
``_size_table`` builds the first time such a frame is reached by running
the loop once over the positions 0..m-1.  An entry keeps a candidate whose
remainder fits: C-level getters for its agents and for the rest, which are
the child frame's agents, the remainder's size, and the steps it stands
for, itself and the unfit candidates just before it.  The table also keeps
the unfit candidates after its last entry, so the step count, and every
budget verdict, is the loop's.  A call's tables hold at most
``_TABLE_CAP`` (2,048) entries: size m gets a table only when the sizes
1..m have at most that many candidates in all, the sum of C(m, s) over
the coalition sizes s, which every size below the root of a default-budget
search (12 agents) meets.  Other frames run the loop.  The rule reads only
the frame's own prefix test, size and bounds; on the ``exhaustive``
benchmark, tables at U = 2 and a table for the root, which is visited
once, cost more than they saved.

A remainder of fewer than 2L agents can only be closed by one coalition,
all of it, so the search tries that coalition in place, with no frame
pushed, and counts the candidates a frame would have built around it by
formula: the r - L + 1 chain prefixes up to and including the whole
remainder of r agents before it, and the unfit rest after it.

Each caller passes a prune hook that rejects a candidate or returns a
value, which the search keeps beside the coalition on its stack.  The
leaves a caller keeps become ``Partition`` objects through a trusted
constructor, since the search builds them in canonical form; a leaf builds
its agent index only when first asked.  The search alone counts steps, candidates tried or complete
partitions reached, and raises ``BudgetExceededError`` past its cap;
``EnumerationBudget`` says which step each oracle counts.

``enumerate_partitions`` prunes nothing else and yields every leaf.

The two oracles also try interchangeable agents in one order only.  Agents
a < b are twins when swapping them leaves the valuation table unchanged:
v_a(b) = v_b(a), and v_a(x) = v_b(x) and v_x(a) = v_x(b) for every other x.
The swap then maps a partition to one that is stable exactly when it is and
has the same welfare.  The twin rule, which the search applies itself,
drops a prefix whose newest member b has a smaller twin that is still
unassigned and not in the prefix, with all its extensions.  The
swapped partition of each one dropped comes earlier in canonical order, as
the coalition being built holds a in place of b, so the first stable
partition and the first strict welfare maximum are always reached.  This is
the lex-leader rule of symmetry breaking (Crawford, Ginsberg, Luks and Roy,
KR 1996) for transpositions.  Each frame holds back the unassigned agents
whose largest smaller twin is unassigned too, and tests only that twin.
That is the same rule on the search's paths: had a smaller one been left
behind when that twin was placed, the twin's own prefix would have been
dropped.  The extensions of a dropped prefix break the rule too: their
later members are larger than b, so none of them is b's smaller twin.  A
game without twins runs the plain search, step for step.

``exists_stable`` rejects a candidate from which a member blocks by
leaving for a new singleton, or that blocks or is blocked by an
already-completed coalition through one member's move; such a deviation
survives in every completion of the branch, so the pruning is exact and the
first leaf is the same partition a filtered full enumeration would report.
The oracle states none of these rules itself: it asks ``stability`` for
their coalition-level form and keeps each coalition's mover record beside
it on the search stack.  With a lower bound of 1 and an upper bound of at
least 3, its prefix hook, the sign rule, also drops a prefix P, with all
its extensions, when some member ``a`` that no unassigned agent can veto
under abandoned consent has ``u_a(P) + maxpos_a * (U - |P|) < 0``
(``maxpos_a`` its largest valuation, or 0): in every extension ``a`` gains
by leaving for a new singleton, so the candidate-level rule would reject it
anyway.  The final leaf is still checked with ``verify``.

``max_welfare_partition`` is a branch and bound.  It keeps the welfare of
the completed coalitions and rejects a candidate when that welfare, plus
the candidate's, plus an optimistic bound on the remaining agents is at most
the best welfare found so far.  The bound gives each remaining agent the sum
of its U-1 largest positive valuations toward the other remaining agents: an
agent has at most U-1 partners, so its utility in any completion is no
larger.  No pruned branch holds a partition of strictly greater welfare, and
the best is replaced only on strictly greater welfare, so the result is the
first maximum-welfare partition in canonical order, as a full enumeration
would find it.

Both oracles work out each coalition's facts once per call: the search
meets the same candidate under many prefixes, and what it needs of it
depends on the coalition alone.  ``exists_stable`` keeps each candidate's
mover record, or the mark that a member leaves it for a new singleton, in a
dict; the pair tests against completed coalitions still run under every
prefix.  ``max_welfare_partition`` keeps each candidate's internal welfare
and the bitmask of its agents, and stacks the running welfare and the
bitmask of the assigned agents beside each coalition.  That bitmask fixes
the remainder, so the optimistic bound is kept per bitmask and the
remainder's list is built only the first time.  A coalition comes up
again only under another set of agents assigned before it, so neither
oracle keeps a first coalition, which holds agent 1, nor a second one that
closes the partition, which is the rest of the first.  A coalition memo
holds at most one entry per distinct coalition the search admits: no more
than the coalitions of sizes L..U, and for ``exists_stable`` no more than
its step budget, which counts candidates.  The bound memo holds one entry
per remainder reached.  Every memo lives as long as the call.
"""

from __future__ import annotations

__all__ = [
    "BudgetExceededError",
    "EnumerationBudget",
    "enumerate_partitions",
    "exists_stable",
    "max_welfare_partition",
]

import math
from dataclasses import dataclass
from operator import itemgetter

from .model import Game, Partition, SizeBounds, _check_agent_count, feasible_partition_exists
from .stability import Concept, _coalition_rules, verify


class BudgetExceededError(RuntimeError):
    """An enumeration outgrew its configured budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    """Desk-scale guard rails for the exponential oracles.

    ``max_partitions`` caps the steps each oracle takes:

    - ``enumerate_partitions`` and ``max_welfare_partition``: complete
      partitions the search reaches, the one empty partition of zero agents
      included.  The enumeration yields each one it reaches; branch and
      bound reaches no more than that;
    - ``exists_stable``: candidate coalitions tried, each counted before its
      size-feasibility test, so zero agents take no step.  A remainder
      closed by one coalition counts by formula every candidate the loop
      would have built for it.  Candidates under a prefix that the sign
      rule or the twin rule drops (see the module docstring) are never
      built and not counted.

    Every oracle raises ``BudgetExceededError`` at the cap, since a
    truncated search is no verdict.  To take only a prefix of the
    enumeration, slice the stream: ``itertools.islice(stream, m)`` takes m
    partitions from a stream capped at m without raising.
    """

    max_agents: int = 12
    max_partitions: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_agents < 1:
            raise ValueError("max_agents must be positive")
        if self.max_partitions < 0:
            raise ValueError("max_partitions must be nonnegative")


DEFAULT_BUDGET = EnumerationBudget()


# The most candidates a call's size tables may hold: every table below the
# root of a search within the default budget's 12 agents.
_TABLE_CAP = 2048


def _checked_budget(n: int, budget: EnumerationBudget | None) -> EnumerationBudget:
    budget = budget or DEFAULT_BUDGET
    if n > budget.max_agents:
        raise BudgetExceededError(f"n={n} exceeds budget.max_agents={budget.max_agents}")
    return budget


def _exceeded(cap: float) -> BudgetExceededError:
    return BudgetExceededError(f"enumeration exceeded {cap} steps")


def _coalition_candidates(leader: int, rest: list[int], bounds: SizeBounds, viable=None):
    """Candidate coalitions for ``leader``, in lexicographic member order.

    One loop over a stack of indices into ``rest``: a prefix comes before
    its extensions, and a prefix that cannot reach the lower bound even by
    taking everything left is abandoned.  When given, ``viable(prefix)``
    sees each prefix as a member is appended, before it is yielded or
    extended; a false result drops the prefix with all its extensions.
    """
    lo, hi = bounds.lower, bounds.upper
    if lo <= 1:
        yield (leader,)
    if hi < 2:
        return
    m = len(rest)
    combo = [leader]
    picked: list[int] = []  # the index in ``rest`` of each member after the leader
    i = 0
    while True:
        if len(combo) == hi - 1:
            # the last member: each agent left completes a candidate
            prefix = tuple(combo)
            for b in rest[i:]:
                cand = prefix + (b,)
                if viable is None or viable(cand):
                    yield cand
        elif i < m and len(combo) + m - i >= lo:
            combo.append(rest[i])
            if viable is not None and not viable(combo):
                combo.pop()
                i += 1
                continue
            if len(combo) >= lo:
                yield tuple(combo)
            picked.append(i)
            i += 1
            continue
        if not picked:
            return
        combo.pop()
        i = picked.pop() + 1


def _twin_below(rows: list[list[int]], n: int) -> list[int] | None:
    """Per agent b, its largest twin below it, or 0; None if no agent has one.

    Agents a < b are twins when v_a(b) = v_b(a), and v_a(x) = v_b(x) and
    v_x(a) = v_x(b) for every other x: swapping them is an automorphism of
    the game.  Twinship is an equivalence, since the transpositions of two
    twin pairs sharing an agent conjugate to a third, so each agent is tested
    against one member of each twin class among the agents whose row and
    column hold the same multisets of values.
    """
    columns = [list(column) for column in zip(*rows)]

    def twins(a: int, b: int) -> bool:
        # the swap maps a's row onto b's row and a's column onto b's column
        row, column = rows[a][:], columns[a][:]
        row[a], row[b] = row[b], row[a]
        column[a], column[b] = column[b], column[a]
        return row == rows[b] and column == columns[b]

    groups: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {}
    for a in range(1, n + 1):
        key = (tuple(sorted(rows[a])), tuple(sorted(columns[a])))
        groups.setdefault(key, []).append(a)
    below = [0] * (n + 1)
    for members in groups.values():
        latest: list[int] = []  # the largest member so far of each twin class
        for b in members:
            for i, a in enumerate(latest):
                if twins(a, b):
                    below[b] = a
                    latest[i] = b
                    break
            else:
                latest.append(b)
    return below if any(below) else None


def _getter(positions) -> itemgetter:
    # an itemgetter of one position returns the item, so that one takes a slice
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def _size_table(m: int, bounds: SizeBounds, fits: list[bool]):
    """The candidates of a frame of m agents with no prefix test, by position.

    Runs ``_coalition_candidates`` once over the positions 0..m-1.  For each
    candidate whose remainder r fits (``fits[r]``) it keeps ``(members,
    rest, r, steps)``: getters that take the candidate's and the remainder's
    agents from the frame's tuple (the latter None when r = 0), and the steps
    the candidate stands for, itself and the unfit candidates just before
    it.  Returns the entries and the number of unfit candidates after the
    last one.
    """
    entries = []
    unfit = 0
    for cand in _coalition_candidates(0, range(1, m), bounds):
        r = m - len(cand)
        if fits[r]:
            rest = [i for i in range(m) if i not in cand]
            entries.append((_getter(cand), _getter(rest) if r else None, r, unfit + 1))
            unfit = 0
        else:
            unfit += 1
    return entries, unfit


def _search(
    n: int,
    bounds: SizeBounds,
    admit=None,
    twin_below: list[int] | None = None,
    viable_in=None,
    max_tried: float = math.inf,
    max_leaves: float = math.inf,
):
    """Leader-first DFS over the bound-respecting partitions of agents 1..n.

    Yields the stack of ``(coalition, value)`` pairs chosen so far, which is
    reused, at every complete partition.  ``admit(cand, avail, chosen)``
    sees a size-feasible candidate coalition, the agents still unassigned
    (``cand`` included) and that stack.  It returns None to prune the
    candidate, or the value to keep beside it; without a hook every
    candidate is kept with the value None.  ``twin_below`` is the list
    ``_twin_below`` returns; None runs no twin rule.  ``viable_in(avail)``,
    when given, returns the caller's prefix test for the frame whose agents
    are ``avail``, or None when that frame needs none.  Raises
    ``BudgetExceededError`` once more than ``max_tried`` candidates have
    been tried, or more than ``max_leaves`` complete partitions reached.
    """
    chosen: list[tuple[tuple[int, ...], object]] = []
    if n == 0:
        if max_leaves < 1:
            raise _exceeded(max_leaves)
        yield chosen
        return
    lower, upper = bounds.lower, bounds.upper
    fits = [feasible_partition_exists(r, bounds) for r in range(n + 1)]
    # remainder -> (candidates counted up to it, after it); such an r fits
    # only as one coalition, so r <= U and every size from L to r is a candidate
    closing = {
        r: (r - lower + 1, sum(math.comb(r - 1, s - 1) - 1 for s in range(lower, r + 1)))
        for r in range(1, min(n, 2 * lower - 1) + 1)
        if fits[r]
    }
    tables: dict[int, tuple[list, int] | bool] = {}  # size -> its table, or False
    tried = leaves = 0
    value = None

    def frame(avail):
        viable = None if viable_in is None else viable_in(avail)
        if twin_below is not None:
            # each unassigned agent whose largest smaller twin is unassigned too
            unassigned = set(avail)
            held = {b: twin_below[b] for b in avail if twin_below[b] in unassigned}
            if held:
                caller = viable

                def viable(prefix):
                    # the leader stands in for the twin of a member not held back
                    return held.get(prefix[-1], prefix[0]) in prefix and (
                        caller is None or caller(prefix)
                    )

        m = len(avail)
        if viable is None and upper >= 3 and m < n:
            if m not in tables:
                # the sizes 1..m have sum C(m, s) candidates in all, so the
                # tables a call builds hold at most _TABLE_CAP entries
                fit = sum(math.comb(m, s) for s in range(lower, upper + 1)) <= _TABLE_CAP
                tables[m] = fit and _size_table(m, bounds, fits)
            if tables[m]:
                entries, unfit = tables[m]
                return tuple(avail), iter(entries), unfit, True
        return avail, _coalition_candidates(avail[0], avail[1:], bounds, viable), 0, False

    frames = [frame(list(range(1, n + 1)))]
    while frames:
        avail, cands, behind, table = frames[-1]
        for cand in cands:
            if table:
                members, out, remaining, steps = cand
                cand = members(avail)
                tried += steps
            else:
                tried += 1
                remaining = len(avail) - len(cand)
            if tried > max_tried:
                raise _exceeded(max_tried)
            if not fits[remaining]:
                continue
            if not remaining:
                leaves += 1
                if leaves > max_leaves:
                    raise _exceeded(max_leaves)
            if admit is not None:
                value = admit(cand, avail, chosen)
                if value is None:
                    continue
            chosen.append((cand, value))
            if not remaining:
                yield chosen
                chosen.pop()
                continue
            rest = out(avail) if table else [a for a in avail if a not in cand]
            if remaining not in closing:
                frames.append(frame(rest))
                break
            # the remainder closes as one coalition, all of it, tried here;
            # the candidates a frame would build around it are counted by formula
            ahead, after = closing[remaining]
            tried += ahead
            if tried > max_tried:
                raise _exceeded(max_tried)
            leaves += 1
            if leaves > max_leaves:
                raise _exceeded(max_leaves)
            closer = tuple(rest)
            if admit is None or (value := admit(closer, rest, chosen)) is not None:
                chosen.append((closer, value))
                yield chosen
                chosen.pop()
            tried += after  # checked by the next candidate or the frame's end
            chosen.pop()
        else:
            tried += behind
            if tried > max_tried:
                raise _exceeded(max_tried)
            frames.pop()
            if chosen:
                chosen.pop()


def _coalitions(chosen: list[tuple[tuple[int, ...], object]]) -> list[tuple[int, ...]]:
    # a list, not tuple() over a generator: that leaves its over-allocated
    # tuples on the interpreter's free list, about 170 KB per enumeration
    return [c for c, _ in chosen]


def enumerate_partitions(
    n: int, bounds: SizeBounds, budget: EnumerationBudget | None = None
):
    """Yield every bound-respecting partition of agents 1..n once, in canonical order.

    A bad agent count raises ``Game``'s ``ValueError`` when this is called,
    as the budget check does, not when the stream is read.
    """
    _check_agent_count(n)
    budget = _checked_budget(n, budget)
    return (
        Partition._from_canonical(_coalitions(chosen))
        for chosen in _search(n, bounds, max_leaves=budget.max_partitions)
    )


def exists_stable(
    game: Game,
    bounds: SizeBounds,
    concept: Concept,
    budget: EnumerationBudget | None = None,
) -> Partition | None:
    """First stable partition in canonical enumeration order, or None.

    The same answer as filtering ``enumerate_partitions`` through
    ``verify``, from a search that prunes exactly (module docstring).
    """
    budget = _checked_budget(game.n, budget)
    lower, upper = bounds.lower, bounds.upper
    rows = [game.row(a) for a in range(game.n + 1)]
    movers, blocks_into, breaks_away, abandoned_vetoes, _ = _coalition_rules(game, bounds, concept)
    records: dict[tuple[int, ...], list | None] = {}  # coalition -> mover record, or None
    unknown = object()

    def admit(cand, avail, done):
        # the value kept beside a coalition is its mover record
        again = len(done) > 1 or (len(done) == 1 and len(cand) < len(avail))
        record = records.get(cand, unknown) if again else unknown
        if record is unknown:
            record = movers(cand)
            if breaks_away(record, cand):
                record = None
            if again:  # only a coalition that can come up again is kept
                records[cand] = record
        if record is None:  # a member leaves it for a new singleton
            return None
        for other, other_record in done:
            if blocks_into(record, other) or blocks_into(other_record, cand):
                return None
        return record

    viable_in = None
    if lower == 1 and upper >= 3:
        best_gain = [max(row) for row in rows]  # entry 0 is 0, so never negative

        def viable_in(avail):
            # the members nobody still unassigned can hold back: in every
            # extension of a prefix such a member may leave for a new singleton
            unassigned = set(avail)
            free = {a for a in avail if abandoned_vetoes[a].isdisjoint(unassigned)}

            def viable(prefix):
                # false when a free member's utility stays negative even if
                # every open seat goes to its favourite agent
                room = upper - len(prefix)
                for a in prefix:
                    if a in free and best_gain[a] * room < -sum(map(rows[a].__getitem__, prefix)):
                        return False
                return True

            return viable

    twins = _twin_below(rows, game.n)
    leaf = next(_search(game.n, bounds, admit, twins, viable_in, budget.max_partitions), None)
    if leaf is None:
        return None
    partition = Partition._from_canonical(_coalitions(leaf))
    report = verify(game, partition, bounds, concept)
    if not report.stable:  # pragma: no cover - incremental checks cover all pairs
        raise RuntimeError("search returned a partition the verifier rejects")
    return partition


def max_welfare_partition(
    game: Game, bounds: SizeBounds, budget: EnumerationBudget | None = None
) -> Partition | None:
    """A bound-respecting partition of maximum social welfare, or None.

    Ties are resolved toward the first partition in canonical order, as a
    full enumeration would find it (module docstring).  For symmetric games
    the result is stable for feasible Nash deviations; for arbitrary games
    it is stable for feasible contractual-individual deviations, because any
    such deviation strictly raises welfare.
    """
    budget = _checked_budget(game.n, budget)
    partners = bounds.upper - 1
    rows = [game.row(a) for a in range(game.n + 1)]
    # each agent's positive valuations, largest first
    liked = {}
    for a in game.agents:
        row = rows[a]
        liked[a] = sorted(((row[b], b) for b in game.agents if row[b] > 0), reverse=True)
    facts: dict[tuple[int, ...], tuple[int, int]] = {}  # coalition -> (welfare, agent bitmask)
    optimistic: dict[int, int] = {}  # bitmask of the assigned agents -> bound on the rest
    bits = [1 << a for a in range(game.n + 1)]
    best_welfare = -math.inf

    def bound(rest: list[int]) -> int:
        members = set(rest)
        total = 0
        for a in rest:
            room = partners
            for value, b in liked[a]:
                if not room:
                    break
                if b in members:
                    total += value
                    room -= 1
        return total

    def admit(cand, avail, done):
        # the value kept beside a coalition is the welfare of the stack up to
        # it and the bitmask of the agents it has assigned
        again = len(done) > 1 or (len(done) == 1 and len(cand) < len(avail))
        fact = facts.get(cand) if again else None
        if fact is None:
            welfare = 0
            for a in cand:
                # the diagonal of the table is 0: a sum over the whole coalition
                welfare += sum(map(rows[a].__getitem__, cand))
            fact = welfare, sum(map(bits.__getitem__, cand))
            if again:
                facts[cand] = fact
        welfare, assigned = fact
        if done:
            below, assigned_below = done[-1][1]
            welfare += below
            assigned |= assigned_below
        if len(cand) == len(avail):
            return (welfare, assigned) if welfare > best_welfare else None
        cap = optimistic.get(assigned)
        if cap is None:
            # the assigned agents fix the remainder
            cap = optimistic[assigned] = bound([a for a in avail if a not in cand])
        return (welfare, assigned) if welfare + cap > best_welfare else None

    best = None
    twins = _twin_below(rows, game.n)
    for chosen in _search(game.n, bounds, admit, twins, max_leaves=budget.max_partitions):
        best = _coalitions(chosen)
        best_welfare = chosen[-1][1][0] if chosen else 0
    return None if best is None else Partition._from_canonical(best)
