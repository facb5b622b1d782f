"""Metamorphic relations of the exact oracles and of ``verify``.

Relabelling the agents by a permutation, or scaling every valuation by an
integer k >= 2, changes the input but not what the definitions make of it,
so each relation checks an answer without enumerating anything:

* relabelled by pi: ``exists_stable`` finds no partition exactly when it
  finds none on the original, and pi of each game's answer is stable in
  the other game; ``max_welfare_partition``'s welfare is the same; and
  ``verify``'s verdict on pi(P) is its verdict on P.  Each oracle returns
  the first partition in canonical order that it looks for, so the other
  game's answer, mapped back, comes no earlier than the game's own;
* scaled by k: every partition and every ``StabilityReport`` is identical.

A third of the games are built from classes of twins, so the twin rule of
``exact`` prunes under another leader order after each relabelling, and a
third from classes of agents whose rows agree but whose columns do not,
which the twin rule must not take for twins.  Bounds with a lower bound of
1 and an upper bound of at least 3, where the sign rule applies, come up
in 26 of the 150 games.  Each game is relabelled twice.
"""

from __future__ import annotations

import random

import pytest

from sizedhedonic import (
    ALL_CONCEPTS,
    Game,
    Partition,
    SizeBounds,
    exists_stable,
    feasible_partition_exists,
    max_welfare_partition,
    social_welfare,
    verify,
)

from conftest import random_feasible_partition, random_game

SEEDS = range(150)


def class_game(rng: random.Random, n: int, twins: bool) -> Game:
    """A game whose agents fall into classes, each class sharing one row.

    Within a class every valuation is one value.  Toward an agent b of
    another class, a's valuation depends on a's class and, with ``twins``,
    on b's class, else on b itself.  With ``twins`` any two agents of one
    class are twins.  Without, their rows agree up to the swap but their
    columns need not, so the twin rule must tell them apart.
    """
    count = rng.randint(1, max(1, n // 2))
    cls = [rng.randrange(count) for _ in range(n + 1)]
    within = [rng.randint(-3, 3) for _ in range(count)]
    toward = [[rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(count)]
    return Game(
        n,
        {
            (a, b): within[cls[a]] if cls[a] == cls[b] else toward[cls[a]][cls[b] if twins else b]
            for a in range(1, n + 1)
            for b in range(1, n + 1)
            if a != b
        },
    )


def case(seed: int) -> tuple[Game, SizeBounds]:
    rng = random.Random(9100 + seed)
    n = rng.randint(3, 8)
    if seed % 3 < 2:
        game = class_game(rng, n, twins=seed % 3 == 0)
    else:
        game = random_game(rng, n, symmetric=seed % 2 == 0)
    while True:
        lower = rng.randint(1, 3)
        bounds = SizeBounds(lower, rng.randint(lower, min(n, lower + 3)))
        if feasible_partition_exists(n, bounds):
            return game, bounds


def relabelled(game: Game, pi: list[int]) -> Game:
    """The game in which agent pi[a] values pi[b] as a values b."""
    return Game(
        game.n,
        {(pi[a], pi[b]): w for a, b, w in game.nonzero_pairs()},
        symmetric=game.symmetric,
    )


def scaled(game: Game, k: int) -> Game:
    return Game(
        game.n,
        {(a, b): k * w for a, b, w in game.nonzero_pairs()},
        symmetric=game.symmetric,
    )


def mapped(partition: Partition, pi: list[int]) -> Partition:
    return Partition([[pi[a] for a in c] for c in partition.coalitions])


@pytest.mark.parametrize("turn", range(2))
@pytest.mark.parametrize("seed", SEEDS)
def test_relabelling_and_scaling_keep_every_answer(seed, turn):
    game, bounds = case(seed)
    rng = random.Random(2 * seed + turn)
    n = game.n
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pi = [0, *order]
    inverse = [0] * (n + 1)
    for a in range(1, n + 1):
        inverse[pi[a]] = a
    k = rng.randint(2, 5)
    other, big = relabelled(game, pi), scaled(game, k)
    partitions = [random_feasible_partition(rng, n, bounds) for _ in range(3)]

    # each oracle returns the first partition in canonical order that it looks
    # for, and the other game's answer, mapped back, is one such partition too
    best, best_other = max_welfare_partition(game, bounds), max_welfare_partition(other, bounds)
    assert social_welfare(other, best_other) == social_welfare(game, best)
    assert best.coalitions <= mapped(best_other, inverse).coalitions
    assert max_welfare_partition(big, bounds) == best

    for concept in ALL_CONCEPTS:
        found = exists_stable(game, bounds, concept)
        found_other = exists_stable(other, bounds, concept)
        assert (found is None) == (found_other is None), concept
        if found is not None:
            back, across = mapped(found_other, inverse), mapped(found, pi)
            assert verify(game, back, bounds, concept).stable, concept
            assert verify(other, across, bounds, concept).stable, concept
            assert found.coalitions <= back.coalitions, concept
            assert found_other.coalitions <= across.coalitions, concept
        assert exists_stable(big, bounds, concept) == found, concept
        for p in partitions:
            report = verify(game, p, bounds, concept)
            assert verify(other, mapped(p, pi), bounds, concept).stable == report.stable
            assert verify(big, p, bounds, concept) == report
