"""Utility evaluation, social welfare, and agent-set selectors.

The selectors (best-k subset, friends, enemies) are the building blocks of
every constructive algorithm in the package.  All functions are pure.
"""

from __future__ import annotations

from typing import Iterable

from .model import Game, Partition


def utility(game: Game, agent: int, coalition: Iterable[int]) -> int:
    """Additive utility of ``agent`` for a coalition it belongs to.

    Sum of the agent's valuations for the other members; 0 for a singleton.
    The row's own entry is 0, so the sum runs over the whole coalition.
    """
    members = set(coalition)
    if agent not in members:
        raise ValueError(f"agent {agent} is not a member of {sorted(members)}")
    return sum(map(game.row(agent).__getitem__, members))


def social_welfare(game: Game, partition: Partition) -> int:
    """Sum of all agents' utilities under ``partition``."""
    return sum(utility(game, a, c) for c in partition for a in c)


def top_set(game: Game, agent: int, pool: Iterable[int], k: int) -> list[int]:
    """Up to ``k`` agents of ``pool`` (minus ``agent``) that the agent values most.

    Returns all of pool minus the agent when it has fewer than k members.
    Ties are broken toward the lowest agent id, which makes every algorithm
    in the package deterministic.  Result is sorted by id.
    """
    candidates = [b for b in set(pool) if b != agent]
    if k <= 0:
        return []
    if k >= len(candidates):
        return sorted(candidates)
    row = game.row(agent)
    candidates.sort(key=lambda b: (-row[b], b))
    return sorted(candidates[:k])


def friends(game: Game, who: int | Iterable[int], pool: Iterable[int]) -> set[int]:
    """Members of ``pool`` valued strictly positively by ``who``.

    ``who`` may be a single agent or a set of agents; for a set, the result
    is the union over its members.  The sign test is applied to individual
    valuations, never to sums.
    """
    return _signed(game, who, pool, positive=True)


def enemies(game: Game, who: int | Iterable[int], pool: Iterable[int]) -> set[int]:
    """Members of ``pool`` valued strictly negatively by ``who``."""
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
