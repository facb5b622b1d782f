"""Reference copies of the selectors and of four constructive solvers.

These are the straightforward forms the package once ran: one Python call
per pool member, ``enemies`` rebuilt over the whole pool for every
coalition a ``cis_upper`` leader considers, and the ranking rule spelled
out as a sort key.  The tests compare the package's ranked, C-level passes
against them, so any change in a chosen partner, helper or coalition shows.
They call only each other, never the package's selectors.
"""

from __future__ import annotations

from typing import Iterable

from sizedhedonic import Game, Partition, SizeBounds, TraceEntry
from sizedhedonic.algorithms import _k_partition_exists


def top_set(game: Game, agent: int, pool: Iterable[int], k: int) -> list[int]:
    candidates = [b for b in set(pool) if b != agent]
    if k <= 0:
        return []
    if k >= len(candidates):
        return sorted(candidates)
    row = game.row(agent)
    candidates.sort(key=lambda b: (-row[b], b))
    return sorted(candidates[:k])


def friends(game: Game, who: int | Iterable[int], pool: Iterable[int]) -> set[int]:
    return _signed(game, who, pool, positive=True)


def enemies(game: Game, who: int | Iterable[int], pool: Iterable[int]) -> set[int]:
    return _signed(game, who, pool, positive=False)


def _signed(game, who, pool, positive: bool) -> set[int]:
    sources = [who] if isinstance(who, int) else list(who)
    result: set[int] = set()
    for b in pool:
        for a in sources:  # row entry a is 0, so an agent never selects itself
            v = game.row(a)[b]
            if (v > 0) if positive else (v < 0):
                result.add(b)
                break
    return result


def cis_upper(game: Game, upper: int) -> tuple[Partition, tuple[TraceEntry, ...]]:
    if upper < 2:
        raise ValueError("upper bound must be at least 2")
    available: set[int] = set(game.agents)
    coalitions: list[list[int]] = []
    deciders: list[set[int]] = []
    entries: list[TraceEntry] = []
    while available:
        a = min(available)
        row = game.row(a)
        liked = friends(game, a, available)
        own_helpers = top_set(game, a, liked, upper - 1)
        best = sum(row[b] for b in own_helpers)
        target = None
        target_helpers = own_helpers
        for idx, members in enumerate(coalitions):
            if len(members) + 1 > upper:
                continue
            if any(game.row(d)[a] < 0 for d in deciders[idx]):
                continue  # a decision maker vetoes the mover itself
            vetoed = enemies(game, deciders[idx], available)
            pool = [b for b in liked if b not in vetoed]
            helpers = top_set(game, a, pool, upper - len(members) - 1)
            gain = sum(row[b] for b in members) + sum(row[b] for b in helpers)
            if gain > best:
                best, target, target_helpers = gain, idx, helpers
        if target is None:
            coalitions.append([a, *own_helpers])
            deciders.append({a})
            entries.append(TraceEntry(a, "created", len(coalitions), tuple(own_helpers)))
            available.difference_update(coalitions[-1])
        else:
            coalitions[target].extend([a, *target_helpers])
            deciders[target].add(a)
            entries.append(TraceEntry(a, "joined", target + 1, tuple(target_helpers)))
            available.difference_update({a, *target_helpers})
    return Partition(coalitions), tuple(entries)


def cns_pairs(game: Game) -> Partition:
    available: set[int] = set(game.agents)
    pairs: list[list[int]] = []
    for a in game.agents:
        if a not in available:
            continue
        row = game.row(a)
        best = None
        for b in sorted(available):
            if row[b] > 0 and (best is None or row[b] > row[best]):
                best = b
        if best is not None:
            pairs.append([a, best])
            available.difference_update((a, best))
    pairs.extend([a] for a in sorted(available))
    return Partition(pairs)


def cis_star_nonzero(game: Game, bounds: SizeBounds, k: int) -> Partition | None:
    if not _k_partition_exists(game, bounds, k, game.is_nonzero, "nonzero"):
        return None
    available: set[int] = set(game.agents)
    x = game.n - bounds.lower * k
    coalitions: list[list[int]] = []
    for _ in range(k):
        a = min(available)
        members = [a, *top_set(game, a, available, bounds.lower - 1)]
        liked = friends(game, a, available.difference(members))
        members += top_set(game, a, liked, min(bounds.upper - bounds.lower, x))
        coalitions.append(members)
        available.difference_update(members)
        x -= max(0, len(members) - bounds.lower)
    rest = sorted(available)
    for members in reversed(coalitions):
        while rest and len(members) < bounds.upper:
            members.append(rest.pop(0))
    assert not rest, "k-partition capacity check guarantees room for everyone"
    return Partition(coalitions)


def cis_star_nonneg(game: Game, bounds: SizeBounds, k: int) -> Partition | None:
    if not _k_partition_exists(game, bounds, k, game.is_nonnegative, "nonnegative"):
        return None
    lo, hi = bounds.lower, bounds.upper
    available: set[int] = set(game.agents)
    coalitions: list[list[int]] = [[] for _ in range(k)]
    x = game.n - lo * k
    while available:
        a = min(available)
        row = game.row(a)
        # the friends ranked once as ``top_set`` ranks them; the r - 1 best
        # of them, in id order, are its result for every coalition
        ranked = sorted(friends(game, a, available), key=lambda b: (-row[b], b))
        budgets = [min(x + max(0, lo - len(m)), hi - len(m)) for m in coalitions]
        best, target, helpers = 0, None, []
        for i, (members, r) in enumerate(zip(coalitions, budgets)):
            if r < 1:
                continue
            cand = sorted(ranked[: r - 1])
            gain = sum(row[b] for b in members) + sum(row[b] for b in cand)
            if gain > best:
                best, target, helpers = gain, i, cand
        if target is None:
            target = next((i for i, r in enumerate(budgets) if r >= 1), None)
            assert target is not None, "size deficits plus x always cover the pool"
        members = coalitions[target]
        x -= max(0, 1 + len(helpers) - max(0, lo - len(members)))
        members.append(a)
        members.extend(helpers)
        available.difference_update((a, *helpers))
    return Partition(coalitions)
