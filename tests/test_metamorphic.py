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

The hardness reductions meet the same relation through their sources.
Permuting an X3C source's set indices by sigma and its ground elements by
tau, or each side of an MMM source's vertices, relabels the reduced game:
renaming each role label by the permutations sends one game's agents onto
the other's with every valuation kept, and carries the witness of a
certificate to a stable partition of the relabelled game.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from sizedhedonic import (
    ALL_CONCEPTS,
    Concept,
    EnumerationBudget,
    Game,
    MMMInstance,
    Partition,
    SizeBounds,
    X3CInstance,
    exists_stable,
    feasible_partition_exists,
    max_welfare_partition,
    mmm_to_ns_is,
    social_welfare,
    verify,
    witness_partition,
    x3c_to_cns,
    x3c_to_ns_bounded,
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


def shuffled(rng: random.Random, count: int) -> list[int]:
    """A permutation of 1..count as a list indexed from 1."""
    order = list(range(1, count + 1))
    rng.shuffle(order)
    return [0, *order]


def x3c_with_cover(rng: random.Random) -> tuple[X3CInstance, list[int]]:
    ground = rng.choice((3, 6, 6))
    elements = list(range(1, ground + 1))
    rng.shuffle(elements)
    sets = [tuple(elements[i : i + 3]) for i in range(0, ground, 3)]
    sets += [tuple(rng.sample(range(1, ground + 1), 3)) for _ in range(rng.randint(0, 2))]
    order = shuffled(rng, len(sets))[1:]
    cover = sorted(order[:ground // 3])
    listed = [None] * len(sets)
    for s, position in enumerate(order):
        listed[position - 1] = sets[s]
    return X3CInstance(ground, tuple(listed)), cover


def relabelled_x3c(instance: X3CInstance, sigma: list[int], tau: list[int]) -> X3CInstance:
    """Set s becomes set sigma[s], and element r becomes tau[r]."""
    sets = [()] * len(instance.sets)
    for s, members in enumerate(instance.sets, start=1):
        sets[sigma[s] - 1] = tuple(tau[r] for r in members)
    return X3CInstance(instance.ground_size, tuple(sets))


def x3c_label(label: str, sigma: list[int], tau: list[int]) -> str:
    """A role label of an X3C reduction renamed by sigma and tau.

    Element roles ``name[r]`` and pair roles ``name[s:r]`` follow both;
    a set's own agents ``xi[s:i]`` follow sigma alone; the spare-set
    fillers ``t``, the dummies ``d`` and the chaser ``alpha`` stay.
    """
    name, _, rest = label.partition("[")
    if not rest or name in ("t", "d"):
        return label
    fields = [int(f) for f in rest[:-1].split(":")]
    if len(fields) == 1:
        return f"{name}[{tau[fields[0]]}]"
    s, r = fields
    return f"{name}[{sigma[s]}:{r if name == 'xi' else tau[r]}]"


def mmm_label(label: str, side_a: list[int], side_b: list[int]) -> str:
    """A role label of the MMM reduction with each side's vertices renamed."""
    name, _, rest = label.partition("[")
    if name == "x":
        return label
    return f"{name}[{(side_a if name == 'a' else side_b)[int(rest[:-1])]}]"


def assert_relabels(reduced, other, rename, certificate, other_certificate, bounds, concepts):
    """``other`` is ``reduced`` with each role label renamed by ``rename``."""
    phi = [0] + [other.agent(rename(reduced.roles[a])) for a in reduced.game.agents]
    assert sorted(phi) == list(range(other.game.n + 1))
    game, image = reduced.game, other.game
    for a in game.agents:
        row, image_row = game.row(a), image.row(phi[a])
        assert all(row[b] == image_row[phi[b]] for b in game.agents)
    mapped_witness = mapped(witness_partition(reduced, certificate), phi)
    own_witness = witness_partition(other, other_certificate)
    for concept in concepts:
        assert verify(image, mapped_witness, bounds, concept).stable, concept
        assert verify(image, own_witness, bounds, concept).stable, concept


@pytest.mark.parametrize("seed", range(16))
def test_x3c_relabelling_relabels_the_reduced_games(seed):
    rng = random.Random(7300 + seed)
    instance, cover = x3c_with_cover(rng)
    sigma, tau = shuffled(rng, len(instance.sets)), shuffled(rng, instance.ground_size)
    other = relabelled_x3c(instance, sigma, tau)
    other_cover = [sigma[s] for s in cover]

    def rename(label):
        return x3c_label(label, sigma, tau)

    mu = rng.randint(3, 4)
    assert_relabels(x3c_to_cns(instance, mu), x3c_to_cns(other, mu), rename, cover,
                    other_cover, SizeBounds(1, mu), [Concept.CNS])
    for bounds in (SizeBounds(2, 4), SizeBounds(3, 5)):
        assert_relabels(x3c_to_ns_bounded(instance, bounds), x3c_to_ns_bounded(other, bounds),
                        rename, cover, other_cover, bounds, [Concept.NS])


@pytest.mark.parametrize("seed", range(16))
def test_mmm_relabelling_relabels_the_reduced_game(seed):
    rng = random.Random(7400 + seed)
    n = rng.randint(1, 4)
    edges = [(a, b) for a in range(1, n + 1) for b in range(n + 1, 2 * n + 1) if rng.random() < 0.5]
    rng.shuffle(edges)
    matching, covered = [], set()
    for a, b in edges:
        if not covered & {a, b}:
            matching.append((a, b))
            covered |= {a, b}
    k = rng.randint(max(1, len(matching)), n)
    side_a, side_b = shuffled(rng, n), shuffled(rng, n)

    def move(edge):
        return side_a[edge[0]], n + side_b[edge[1] - n]

    instance = MMMInstance(n, k, tuple(edges))
    other = MMMInstance(n, k, tuple(map(move, edges)))
    mu = rng.randint(2, 3)
    assert_relabels(mmm_to_ns_is(instance, mu), mmm_to_ns_is(other, mu),
                    lambda label: mmm_label(label, side_a, side_b), matching,
                    [move(e) for e in matching], SizeBounds(1, mu), [Concept.NS, Concept.IS])


def test_tiny_theorem_5_verdicts_hold_under_every_element_relabelling():
    budget = EnumerationBudget(max_agents=32, max_partitions=20_000_000)
    bounds = SizeBounds(1, 3)
    for instance, verdict in ((X3CInstance(3, ((1, 2, 3),)), True), (X3CInstance(3, ()), False)):
        for order in permutations((1, 2, 3)):
            tau = [0, *order]
            other = relabelled_x3c(instance, [0, 1], tau)
            reduced = x3c_to_cns(other, 3)
            found = exists_stable(reduced.game, bounds, Concept.CNS, budget)
            assert (found is not None) == verdict, order
