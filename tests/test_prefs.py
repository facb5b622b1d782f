import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sizedhedonic import (
    Partition,
    aziz_failure,
    enemies,
    friends,
    intro_positive,
    pairs_triangle_no_cns_star,
    social_welfare,
    top_set,
    utility,
)
from sizedhedonic.model import Game

import solver_reference as reference
from conftest import random_game


def test_singleton_utility_is_zero():
    g = aziz_failure()
    for a in g.agents:
        assert utility(g, a, {a}) == 0


def test_utilities_on_reference_game():
    g = aziz_failure()
    assert utility(g, 3, {1, 3}) == 3
    assert utility(g, 3, {2, 3, 4}) == 4
    assert utility(g, 1, {1, 2, 3, 4}) == -2


def test_utility_requires_membership():
    g = aziz_failure()
    with pytest.raises(ValueError):
        utility(g, 1, {2, 3})


def test_social_welfare():
    g = intro_positive(3)
    assert social_welfare(g, Partition([[a] for a in g.agents])) == 0
    assert social_welfare(g, Partition([[1, 2], [3, 4], [5, 6]])) == -6
    assert social_welfare(g, Partition([[1, 3, 5], [2, 4, 6]])) == 12


def test_social_welfare_is_twice_pair_sum_when_symmetric(rng):
    for _ in range(30):
        g = random_game(rng, rng.randint(1, 7), symmetric=True)
        p = Partition([list(g.agents)])
        pair_sum = sum(
            g.value(a, b) for a in g.agents for b in g.agents if a < b
        )
        assert social_welfare(g, p) == 2 * pair_sum


class TestTopSet:
    def test_empty_pool(self):
        g = aziz_failure()
        assert top_set(g, 1, {1}, 3) == []
        assert top_set(g, 1, set(), 2) == []

    def test_reference_game_best_single(self):
        g = aziz_failure()
        assert top_set(g, 3, {1, 2, 4}, 1) == [1]

    def test_tie_breaks_to_lowest_id(self):
        g = Game(3, {(1, 2): 1, (1, 3): 1})
        assert top_set(g, 1, {2, 3}, 1) == [2]

    def test_short_pool_returned_whole(self):
        g = aziz_failure()
        assert top_set(g, 3, {1, 2}, 5) == [1, 2]

    def test_cardinality_and_exclusion(self, rng):
        for _ in range(200):
            g = random_game(rng, rng.randint(1, 7))
            a = rng.randint(1, g.n)
            pool = {b for b in g.agents if rng.random() < 0.6}
            k = rng.randint(0, g.n + 1)
            chosen = top_set(g, a, pool, k)
            assert a not in chosen
            assert set(chosen) <= pool - {a}
            assert len(chosen) == min(max(k, 0), len(pool - {a}))

    def test_no_improving_swap(self, rng):
        for _ in range(200):
            g = random_game(rng, rng.randint(2, 7))
            a = rng.randint(1, g.n)
            pool = set(g.agents)
            k = rng.randint(1, g.n)
            chosen = top_set(g, a, pool, k)
            excluded = pool - set(chosen) - {a}
            total = sum(g.value(a, b) for b in chosen)
            for out in chosen:
                for inn in excluded:
                    swapped = total - g.value(a, out) + g.value(a, inn)
                    assert swapped <= total


class TestFriendsEnemies:
    def test_all_zero_game(self):
        g = Game(4)
        assert friends(g, 1, g.agents) == set()
        assert enemies(g, 1, g.agents) == set()

    def test_reference_game(self):
        g = aziz_failure()
        assert friends(g, 3, {1, 2, 4}) == {1, 2, 4}
        assert enemies(g, 1, {2, 3, 4}) == {2, 4}

    def test_triangle_enemies(self):
        g = pairs_triangle_no_cns_star(2)  # c1, c2, c3 are agents 3, 4, 5
        assert enemies(g, 3, {4, 5}) == {4}

    def test_set_source_is_union(self, rng):
        for _ in range(100):
            g = random_game(rng, rng.randint(1, 6))
            agents = list(g.agents)
            sources = {a for a in agents if rng.random() < 0.5}
            pool = {a for a in agents if rng.random() < 0.5}
            union = set()
            for a in sources:
                union |= friends(g, a, pool)
            assert friends(g, sources, pool) == union


@st.composite
def selector_cases(draw):
    """A game valued in -2..2 (ties everywhere), an agent, a pool, a source
    set and a count.  Pools and sources repeat ids and may hold the agent;
    counts run from below zero to past the pool's size."""
    n = draw(st.integers(1, 8))
    agents = st.integers(1, n)
    cells = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    values = draw(st.lists(st.integers(-2, 2), min_size=len(cells), max_size=len(cells)))
    game = Game(n, dict(zip(cells, values)))
    agent = draw(agents)
    pool = draw(st.lists(agents, max_size=2 * n))
    who = draw(st.one_of(agents, st.lists(agents, max_size=n)))
    k = draw(st.integers(-2, 2 * n + 2))
    return game, agent, pool, who, k


class TestSelectorsMatchTheReferences:
    """The selectors against their straightforward reference copies."""

    @given(selector_cases())
    @settings(max_examples=400, deadline=None)
    def test_top_set(self, case):
        game, agent, pool, _, k = case
        expected = reference.top_set(game, agent, pool, k)
        for given_pool in (pool, set(pool), iter(pool)):
            assert top_set(game, agent, given_pool, k) == expected

    @given(selector_cases())
    @settings(max_examples=400, deadline=None)
    def test_friends_and_enemies(self, case):
        game, _, pool, who, _ = case
        for selector, ref in ((friends, reference.friends), (enemies, reference.enemies)):
            expected = ref(game, who, pool)
            assert selector(game, who, pool) == expected
            assert selector(game, who, iter(pool)) == expected
            if not isinstance(who, int):
                assert selector(game, iter(who), iter(pool)) == expected
                assert selector(game, set(who), pool) == expected
