"""Utility evaluation, social welfare, and agent-set selectors.

The selectors (best-k subset, friends, enemies) and the ranking helpers
below are the building blocks of every constructive algorithm in the
package.  All functions are pure.

An agent ranks others by its valuation, highest first, and breaks ties
toward the lowest agent id.  That rule is stated once, on a list of ids in
increasing order that does not hold the agent: ``_rank`` sorts it stably
by the agent's row, highest first, and ``_best`` takes its first maximum
without a sort.  ``top_set`` ranks any pool, which ``_ids`` first lists in
increasing id order; the leader solvers of ``algorithms`` apply both to
their free lists, which are id-ordered already.  Every other selector and
solver reads its choices from these, which makes every algorithm in the
package deterministic.
"""

from __future__ import annotations

__all__ = ["enemies", "friends", "social_welfare", "top_set", "utility"]

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


def _ids(agent: int, pool: Iterable[int]) -> list[int]:
    ids = set(pool)
    ids.discard(agent)
    return sorted(ids)


def _rank(row: list[int], ids: Iterable[int]) -> list[int]:
    return sorted(ids, key=row.__getitem__, reverse=True)


def _best(row: list[int], ids: Iterable[int]) -> int | None:
    return max(ids, key=row.__getitem__, default=None)


def top_set(game: Game, agent: int, pool: Iterable[int], k: int) -> list[int]:
    """Up to ``k`` agents of ``pool`` (minus ``agent``) that the agent values most.

    The first ``k`` of the agent's ranking of the pool, sorted by id:
    all of pool minus the agent when it has fewer than k members, and none
    for k <= 0.
    """
    return sorted(_rank(game.row(agent), _ids(agent, pool))[: max(k, 0)])


def friends(game: Game, who: int | Iterable[int], pool: Iterable[int]) -> set[int]:
    """Members of ``pool`` valued strictly positively by ``who``.

    ``who`` may be a single agent or a set of agents; for a set, the result
    is the union over its members.  The sign test is applied to individual
    valuations, never to sums.  A row's own entry is 0, so an agent never
    selects itself.
    """
    members = list(pool)  # read once for each row of ``who``
    return {b for row in _rows(game, who) for b in members if row[b] > 0}


def enemies(game: Game, who: int | Iterable[int], pool: Iterable[int]) -> set[int]:
    """Members of ``pool`` valued strictly negatively by ``who``."""
    members = list(pool)
    return {b for row in _rows(game, who) for b in members if row[b] < 0}


def _rows(game: Game, who: int | Iterable[int]) -> list[list[int]]:
    return [game.row(who)] if isinstance(who, int) else [game.row(a) for a in who]
