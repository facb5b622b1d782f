import pytest

import copy
import pickle
import random
from itertools import combinations, islice

from sizedhedonic import (
    ALL_CONCEPTS,
    BudgetExceededError,
    Concept,
    EnumerationBudget,
    MMMInstance,
    Partition,
    SizeBounds,
    X3CInstance,
    cycle_no_is_star,
    enumerate_partitions,
    exists_stable,
    intro_positive,
    max_welfare_partition,
    mmm_to_ns_is,
    pairs_triangle_no_cns_star,
    social_welfare,
    star_no_cis,
    verify,
    x3c_to_cns,
    x3c_to_ns_bounded,
)
from sizedhedonic import exact
from sizedhedonic.model import Game, feasible_partition_exists

from conftest import (
    dumb_set_partitions,
    random_feasible_bounds,
    random_game,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_small_counts():
    assert sum(1 for _ in enumerate_partitions(4, SizeBounds(2, 3))) == 3
    assert sum(1 for _ in enumerate_partitions(3, SizeBounds(1, 3))) == 5
    assert list(enumerate_partitions(8, SizeBounds(5, 7))) == []


@pytest.mark.parametrize("n", range(1, 11))
def test_unbounded_stream_counts_are_bell_numbers(n):
    assert sum(1 for _ in enumerate_partitions(n, SizeBounds(1, n))) == BELL[n]


def test_stream_is_strictly_increasing_and_duplicate_free():
    for n, b in [(6, SizeBounds(1, 6)), (7, SizeBounds(2, 3)), (6, SizeBounds(2, 4))]:
        keys = [p.coalitions for p in enumerate_partitions(n, b)]
        assert all(x < y for x, y in zip(keys, keys[1:]))


def test_stream_matches_independent_generator():
    for n in range(1, 8):
        for lo in range(1, 4):
            for hi in range(lo, 5):
                b = SizeBounds(lo, hi)
                ours = {p.coalitions for p in enumerate_partitions(n, b)}
                dumb = {
                    Partition(part).coalitions
                    for part in dumb_set_partitions(list(range(1, n + 1)))
                    if all(b.contains(len(blk)) for blk in part)
                }
                assert ours == dumb


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        list(enumerate_partitions(13, SizeBounds(1, 13)))
    tight = EnumerationBudget(max_agents=12, max_partitions=10)
    with pytest.raises(BudgetExceededError):
        list(enumerate_partitions(6, SizeBounds(1, 6), tight))


def test_islice_takes_a_prefix_up_to_the_cap():
    # a prefix of the stream is taken by slicing it; the cap raises only when
    # a partition past it is asked for
    tight = EnumerationBudget(max_agents=12, max_partitions=10)
    full = list(enumerate_partitions(6, SizeBounds(1, 6)))
    assert list(islice(enumerate_partitions(6, SizeBounds(1, 6), tight), 10)) == full[:10]
    with pytest.raises(BudgetExceededError):
        list(islice(enumerate_partitions(6, SizeBounds(1, 6), tight), 11))


@pytest.mark.parametrize("cap", [-1, -10])
def test_negative_partition_cap_is_rejected(cap):
    with pytest.raises(ValueError, match="max_partitions"):
        EnumerationBudget(max_partitions=cap)


def test_agent_cap_must_be_positive():
    with pytest.raises(ValueError, match="^max_agents must be positive$"):
        EnumerationBudget(max_agents=0)


def test_zero_partition_cap_admits_no_step():
    none = EnumerationBudget(max_partitions=0)
    with pytest.raises(BudgetExceededError):
        next(enumerate_partitions(3, SizeBounds(1, 3), none))
    with pytest.raises(BudgetExceededError):
        exists_stable(intro_positive(1), SizeBounds(1, 2), Concept.NS, none)


def test_enumeration_of_zero_agents_is_the_empty_partition():
    for b in (SizeBounds(1, 1), SizeBounds(2, 3), SizeBounds(4, 6)):
        assert list(enumerate_partitions(0, b)) == [Partition([])]


class TestLeafBudgets:
    # enumerate_partitions and max_welfare_partition count the complete
    # partitions the search reaches, the empty partition of zero agents too;
    # exists_stable counts candidates tried, and zero agents try none
    none = EnumerationBudget(max_partitions=0)
    one = EnumerationBudget(max_partitions=1)

    @pytest.mark.parametrize("b", [SizeBounds(1, 1), SizeBounds(2, 3)])
    def test_zero_agents_reach_one_leaf(self, b):
        with pytest.raises(BudgetExceededError):
            list(enumerate_partitions(0, b, self.none))
        with pytest.raises(BudgetExceededError):
            max_welfare_partition(Game(0), b, self.none)
        assert list(enumerate_partitions(0, b, self.one)) == [Partition([])]
        assert max_welfare_partition(Game(0), b, self.one) == Partition([])

    @pytest.mark.parametrize("b", [SizeBounds(1, 1), SizeBounds(2, 3)])
    def test_zero_agents_try_no_candidate(self, b):
        for concept in ALL_CONCEPTS:
            assert exists_stable(Game(0), b, concept, self.none) == Partition([])

    @pytest.mark.parametrize(
        "game, bounds, has_twins, partitions, reached",
        [
            (pairs_triangle_no_cns_star(3), SizeBounds(3, 5), True, 35, 12),
            (cycle_no_is_star(7), SizeBounds(1, 3), False, 652, 5),
        ],
    )
    def test_leaf_caps_finish_at_the_leaf_count(
        self, game, bounds, has_twins, partitions, reached
    ):
        # ``partitions`` is the full enumeration's length and ``reached`` the
        # leaves branch and bound reaches; each is the smallest cap that finishes
        rows = [game.row(a) for a in range(game.n + 1)]
        assert (exact._twin_below(rows, game.n) is not None) == has_twins
        assert sum(1 for _ in enumerate_partitions(game.n, bounds)) == partitions
        for oracle, leaves in [
            (lambda cap: list(enumerate_partitions(game.n, bounds, cap)), partitions),
            (lambda cap: max_welfare_partition(game, bounds, cap), reached),
        ]:
            oracle(EnumerationBudget(max_partitions=leaves))
            with pytest.raises(BudgetExceededError):
                oracle(EnumerationBudget(max_partitions=leaves - 1))


class TestHonestBudgets:
    # a quiet cap must not turn a truncated search into a verdict
    quiet = EnumerationBudget(max_partitions=1)

    def test_exists_stable_raises_at_quiet_cap(self):
        g, b = intro_positive(3), SizeBounds(2, 3)
        assert exists_stable(g, b, Concept.NS_STAR) is not None
        with pytest.raises(BudgetExceededError):
            exists_stable(g, b, Concept.NS_STAR, self.quiet)

    def test_max_welfare_raises_at_quiet_cap(self):
        with pytest.raises(BudgetExceededError):
            max_welfare_partition(intro_positive(3), SizeBounds(2, 3), self.quiet)

    @pytest.mark.parametrize(
        "game, bounds, concept, steps",
        [
            (cycle_no_is_star(7), SizeBounds(2, 3), Concept.IS_STAR, 252),
            (star_no_cis(3), SizeBounds(3, 4), Concept.CIS, 6),
            (pairs_triangle_no_cns_star(3), SizeBounds(3, 5), Concept.CNS_STAR, 94),
            (star_no_cis(2), SizeBounds(2, 3), Concept.CIS_STAR, 2),
            # negative valuations at 1:3, where the sign rule prunes
            (random_game(random.Random(1), 7), SizeBounds(1, 3), Concept.NS, 52),
        ],
    )
    def test_exists_stable_step_counts_are_pinned(self, game, bounds, concept, steps):
        # ``steps`` is the smallest cap under which the search finishes;
        # a change to what the search counts would move budget verdicts
        exists_stable(game, bounds, concept, EnumerationBudget(max_partitions=steps))
        with pytest.raises(BudgetExceededError):
            exists_stable(game, bounds, concept, EnumerationBudget(max_partitions=steps - 1))

    @pytest.mark.parametrize(
        "game, bounds, concept, steps",
        [
            (pairs_triangle_no_cns_star(6), SizeBounds(6, 7), Concept.CNS_STAR, 2380),
            (star_no_cis(6), SizeBounds(6, 7), Concept.CIS, 6),
            (cycle_no_is_star(10), SizeBounds(3, 4), Concept.IS_STAR, 5320),
            (intro_positive(3), SizeBounds(2, 3), Concept.NS_STAR, 3),
            # frames of 7 and 8 agents read size tables; that of 8 ends in two unfit candidates
            (cycle_no_is_star(11), SizeBounds(3, 4), Concept.IS_STAR, 10485),
        ],
    )
    def test_closing_frame_step_counts_are_pinned(self, game, bounds, concept, steps):
        # every search here closes branches on a remainder below twice the
        # lower bound, whose candidates are counted without being generated;
        # the last one finds its stable partition in such a frame
        def budget(cap):
            return EnumerationBudget(max_agents=game.n, max_partitions=cap)

        exists_stable(game, bounds, concept, budget(steps))
        with pytest.raises(BudgetExceededError):
            exists_stable(game, bounds, concept, budget(steps - 1))

    @pytest.mark.parametrize(
        "game, bounds, steps",
        [
            (intro_positive(3), SizeBounds(2, 3), 6),
            (random_game(random.Random(7), 8), SizeBounds(2, 4), 14),
            (random_game(random.Random(11), 9), SizeBounds(1, 3), 16),
            (random_game(random.Random(3), 8, symmetric=True), SizeBounds(1, 8), 25),
        ],
    )
    def test_max_welfare_step_counts_are_pinned(self, game, bounds, steps):
        # ``steps`` is the smallest cap under which branch and bound finishes
        max_welfare_partition(game, bounds, EnumerationBudget(max_partitions=steps))
        with pytest.raises(BudgetExceededError):
            max_welfare_partition(game, bounds, EnumerationBudget(max_partitions=steps - 1))


class TestFactsOncePerSearch:
    def test_each_admitted_coalition_gets_one_mover_record(self, monkeypatch):
        admitted, recorded = [], []
        rules, search = exact._coalition_rules, exact._search

        def counting_rules(*args):
            movers, *others = rules(*args)

            def counting_movers(coalition):
                recorded.append(coalition)
                return movers(coalition)

            return (counting_movers, *others)

        def watched_search(n, bounds, admit, *args):
            def watched_admit(cand, avail, chosen):
                admitted.append(cand)
                return admit(cand, avail, chosen)

            return search(n, bounds, watched_admit, *args)

        monkeypatch.setattr(exact, "_coalition_rules", counting_rules)
        monkeypatch.setattr(exact, "_search", watched_search)
        assert exists_stable(cycle_no_is_star(9), SizeBounds(2, 4), Concept.IS_STAR) is None
        assert len(admitted) > len(set(admitted))  # the search meets coalitions again
        assert recorded == list(dict.fromkeys(admitted))


class TestSizeTables:
    # a frame with no prefix test reads its candidates from the table of its
    # size, built once per call over the positions 0..m-1

    def test_tables_list_what_the_generator_yields(self, rng):
        for m in range(1, 13):
            ids = tuple(sorted(rng.sample(range(1, 3 * m + 1), m)))
            for lower in range(1, m + 1):
                for upper in range(max(lower, 3), m + 1):
                    bounds = SizeBounds(lower, upper)
                    fits = [feasible_partition_exists(r, bounds) for r in range(m + 1)]
                    expected, unfit = [], 0  # fitting candidates, unfit ones just before
                    for cand in exact._coalition_candidates(ids[0], list(ids[1:]), bounds):
                        r = m - len(cand)
                        if fits[r]:
                            rest = tuple(a for a in ids if a not in cand)
                            expected.append((cand, rest, r, unfit))
                            unfit = 0
                        else:
                            unfit += 1
                    entries, trailing = exact._size_table(m, bounds, fits)
                    listed = [
                        (members(ids), out(ids) if r else (), r, steps - 1)
                        for members, out, r, steps in entries
                    ]
                    assert listed == expected and trailing == unfit, (m, bounds)
                    assert all(out is None for _, out, r, _ in entries if not r)

    def test_a_call_holds_at_most_the_cap(self, monkeypatch):
        # below the root of 13 agents at 1:13 the sizes 2..11 have tables of
        # 2, 4, ..., 1,024 entries; size 12 would take 2,048 more
        built = []
        size_table = exact._size_table

        def recorded(m, bounds, fits):
            table = size_table(m, bounds, fits)
            built.append((m, len(table[0])))
            return table

        monkeypatch.setattr(exact, "_size_table", recorded)
        bounds, budget = SizeBounds(1, 13), EnumerationBudget(max_agents=13)
        tabled = list(islice(enumerate_partitions(13, bounds, budget), 3000))
        assert sorted(built) == [(m, 2 ** (m - 1)) for m in range(2, 12)]
        assert sum(entries for _, entries in built) == 2046 <= exact._TABLE_CAP
        monkeypatch.setattr(exact, "_TABLE_CAP", 0)
        built.clear()
        assert list(islice(enumerate_partitions(13, bounds, budget), 3000)) == tabled
        assert built == []


class TestTrustedLeaves:
    # the search's leaves skip ``Partition.__init__``; each must be the
    # partition that validated construction would give
    def test_enumerated_partitions_equal_their_validated_rebuilds(self):
        for n in range(1, 9):
            for lo in range(1, n + 1):
                for hi in range(lo, n + 1):
                    for p in enumerate_partitions(n, SizeBounds(lo, hi)):
                        q = Partition(p.coalitions)
                        assert p == q and hash(p) == hash(q)
                        assert p.n == q.n == n
                        assert all(p.index_of(a) == q.index_of(a) for a in range(1, n + 1))
                        assert all(p.coalition_of(a) == q.coalition_of(a) for a in range(1, n + 1))

    def test_either_lookup_builds_the_index_first(self):
        # a leaf builds its index on its first lookup, through either method
        for n in range(1, 8):
            for lo in range(1, n + 1):
                bounds = SizeBounds(lo, n)
                leaves = zip(enumerate_partitions(n, bounds), enumerate_partitions(n, bounds))
                agents = range(1, n + 1)
                for p, r in leaves:
                    q = Partition(p.coalitions)
                    assert [p.coalition_of(a) for a in agents] == [q.coalition_of(a) for a in agents]
                    assert [r.index_of(a) for a in agents] == [q.index_of(a) for a in agents]

    def test_oracle_results_equal_their_validated_rebuilds(self, rng):
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            found = [max_welfare_partition(g, b)]
            found += [exists_stable(g, b, concept) for concept in ALL_CONCEPTS]
            for p in filter(None, found):
                q = Partition(p.coalitions)
                assert p == q and hash(p) == hash(q) and p.n == q.n
                assert all(p.index_of(a) == q.index_of(a) for a in range(1, n + 1))
                assert all(p.coalition_of(a) == q.coalition_of(a) for a in range(1, n + 1))

    @pytest.mark.parametrize("copy_of", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy])
    def test_never_indexed_leaves_copy_whole(self, copy_of):
        for p in enumerate_partitions(6, SizeBounds(1, 4)):
            q, r = copy_of(p), Partition(p.coalitions)
            assert q == p == r and hash(q) == hash(r) and q.n == r.n == 6
            assert [q.coalition_of(a) for a in range(1, 7)] == [r.coalition_of(a) for a in range(1, 7)]

    def test_empty_leaf_has_no_agents(self):
        p = Partition._from_canonical([])
        assert p.n == 0 and len(p) == 0 and p == Partition([])
        assert next(enumerate_partitions(0, SizeBounds(1, 1))).n == 0


def first_stable_by_filter(game, bounds):
    """The first stable partition per concept, scanning the full stream."""
    first = {}
    for p in enumerate_partitions(game.n, bounds):
        for concept in ALL_CONCEPTS:
            if concept not in first and verify(game, p, bounds, concept).stable:
                first[concept] = p
        if len(first) == len(ALL_CONCEPTS):
            break
    return first


# zero-heavy games: a zero valuation never vetoes, and random games rarely
# have enough zeros to test that rule.  The reduced games and the family
# bounds are those of the exhaustive benchmark, up to nine agents.
STRUCTURED = [
    (mmm_to_ns_is(MMMInstance(2, 1, ((1, 3), (2, 4))), 2).game, SizeBounds(1, 2)),
    (mmm_to_ns_is(MMMInstance(2, 1, ((1, 3), (2, 3))), 2).game, SizeBounds(1, 2)),
    (star_no_cis(2), SizeBounds(2, 3)),
    (star_no_cis(3), SizeBounds(3, 4)),
    (star_no_cis(3), SizeBounds(3, 5)),
    (star_no_cis(4), SizeBounds(4, 5)),
    (star_no_cis(4), SizeBounds(4, 6)),
    (star_no_cis(4), SizeBounds(4, 7)),
    (pairs_triangle_no_cns_star(2), SizeBounds(2, 3)),
    (pairs_triangle_no_cns_star(2), SizeBounds(2, 4)),
    (pairs_triangle_no_cns_star(3), SizeBounds(3, 4)),
    (pairs_triangle_no_cns_star(3), SizeBounds(3, 5)),
    (pairs_triangle_no_cns_star(3), SizeBounds(3, 6)),
    (pairs_triangle_no_cns_star(4), SizeBounds(4, 5)),
    (pairs_triangle_no_cns_star(4), SizeBounds(4, 6)),
    (pairs_triangle_no_cns_star(4), SizeBounds(4, 7)),
    (cycle_no_is_star(5), SizeBounds(2, 3)),
    (cycle_no_is_star(7), SizeBounds(2, 3)),
    (cycle_no_is_star(7), SizeBounds(2, 4)),
    (cycle_no_is_star(7), SizeBounds(3, 4)),
    (cycle_no_is_star(8), SizeBounds(3, 5)),
    (cycle_no_is_star(9), SizeBounds(4, 5)),
    (cycle_no_is_star(9), SizeBounds(2, 4)),
    (cycle_no_is_star(9), SizeBounds(2, 5)),
    (cycle_no_is_star(9), SizeBounds(2, 6)),
]


class TestExistsStable:
    def test_nonexistence_families(self):
        b = SizeBounds(2, 3)
        assert exists_stable(star_no_cis(2), b, Concept.CIS) is None
        assert exists_stable(star_no_cis(2), b, Concept.CIS_STAR) is not None
        assert exists_stable(cycle_no_is_star(7), b, Concept.IS_STAR) is None
        assert exists_stable(pairs_triangle_no_cns_star(2), b, Concept.CNS_STAR) is None

    def test_matches_naive_filter(self, rng):
        # the pruned search must return exactly the first stable partition in
        # canonical order, as an unpruned scan through the verifier does
        for _ in range(80):
            n = rng.randint(1, 7)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            for concept in ALL_CONCEPTS:
                naive = next(
                    (
                        p
                        for p in enumerate_partitions(n, b)
                        if verify(g, p, b, concept).stable
                    ),
                    None,
                )
                assert exists_stable(g, b, concept) == naive

    @pytest.mark.parametrize("game, bounds", STRUCTURED)
    def test_matches_naive_filter_on_structured_games(self, game, bounds):
        first = first_stable_by_filter(game, bounds)
        for concept in ALL_CONCEPTS:
            assert exists_stable(game, bounds, concept) == first.get(concept), concept

    def test_cis_always_exists_with_trivial_lower_bound(self, rng):
        for _ in range(40):
            n = rng.randint(1, 7)
            g = random_game(rng, n)
            b = SizeBounds(1, rng.randint(2, max(2, n)))
            assert exists_stable(g, b, Concept.CIS) is not None

    def test_cis_star_exists_whenever_bounds_are_satisfiable(self, rng):
        for _ in range(40):
            n = rng.randint(1, 7)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            assert exists_stable(g, b, Concept.CIS_STAR) is not None


def has_exact_cover(ground, sets):
    return any(
        sorted(x for s in pick for x in s) == list(range(1, ground + 1))
        for pick in combinations(sets, ground // 3)
    )


def has_small_maximal_matching(n, k, edges):
    for size in range(k + 1):
        for pick in combinations(edges, size):
            covered = {x for e in pick for x in e}
            if len(covered) == 2 * size and all(a in covered or b in covered for a, b in edges):
                return True
    return False


class TestSignAwarePrefixes:
    """At L = 1 and U >= 3 the search drops a prefix with a member who,
    whatever joins, keeps a negative utility and cannot be vetoed."""

    def test_matches_naive_filter_on_zero_heavy_games(self, rng):
        # a third of the valuations are 0, so many members cannot be vetoed
        for _ in range(20):
            n = rng.randint(3, 8)
            g = random_game(rng, n, low=-1, high=1)
            b = SizeBounds(1, rng.randint(3, n if n < 8 else 3))
            first = first_stable_by_filter(g, b)
            for concept in ALL_CONCEPTS:
                assert exists_stable(g, b, concept) == first.get(concept), (n, b, concept)

    # the exhaustive benchmark's X3C sources (Theorem 5, CNS) and two of
    # ground 6; the first stable partition's coalitions of two or more agents
    # as the search found it before prefixes were pruned
    @pytest.mark.parametrize(
        "ground, sets, upper, pairs",
        [
            (3, ((1, 2, 3),), 3,
             ((10, 13), (11, 19), (12, 25), (14, 18), (20, 24), (26, 30))),
            (3, (), 3, None),
            (3, ((1, 2, 3),), 4,
             ((10, 13), (11, 19), (12, 25), (14, 18), (20, 24), (26, 30))),
            (3, ((1, 2, 3), (1, 2, 3)), 3,
             ((10, 13), (11, 19), (12, 25), (14, 18), (20, 24), (26, 30), (31, 37, 43),
              (32, 36), (38, 42), (44, 48))),
            (6, ((1, 2, 3), (3, 4, 5)), 3, None),
            (6, ((1, 2, 3), (2, 3, 4), (4, 5, 6)), 3,
             ((19, 25), (20, 31), (21, 37), (22, 61), (23, 67), (24, 73), (26, 30), (32, 36),
              (38, 42), (43, 49, 55), (44, 48), (50, 54), (56, 60), (62, 66), (68, 72),
              (74, 78))),
        ],
    )
    def test_x3c_reductions_are_pinned(self, ground, sets, upper, pairs):
        game = x3c_to_cns(X3CInstance(ground, sets), upper).game
        budget = EnumerationBudget(max_agents=game.n)
        found = exists_stable(game, SizeBounds(1, upper), Concept.CNS, budget)
        assert (found is None) == (not has_exact_cover(ground, sets))
        if found is not None:
            assert tuple(c for c in found.coalitions if len(c) > 1) == pairs

    # the exhaustive benchmark's MMM sources (Theorem 6, NS and IS)
    @pytest.mark.parametrize(
        "n, k, edges, upper, pairs",
        [
            (2, 1, ((1, 3), (2, 4)), 2, None),
            (2, 1, ((1, 3), (2, 3)), 2, ((1, 3), (2, 5), (6, 7), (8, 9))),
            (3, 1, ((1, 4), (2, 5)), 2, None),
            (3, 1, ((1, 4), (2, 5)), 3, None),
            (3, 2, ((1, 4), (2, 5), (3, 6)), 2, None),
            (3, 3, ((1, 4), (2, 5), (3, 6)), 2, ((1, 4), (2, 5), (3, 6))),
            (4, 2, ((1, 5), (2, 6)), 2,
             ((1, 5), (2, 6), (3, 9), (4, 14), (10, 11), (12, 13), (15, 16), (17, 18))),
            (4, 2, ((1, 5), (2, 6)), 3,
             ((1, 5), (2, 6), (3, 9), (4, 14), (10, 11), (12, 13), (15, 16), (17, 18))),
            (4, 3, ((1, 5), (2, 6), (3, 7)), 2,
             ((1, 5), (2, 6), (3, 7), (4, 9), (10, 11), (12, 13))),
        ],
    )
    def test_mmm_reductions_are_pinned(self, n, k, edges, upper, pairs):
        game = mmm_to_ns_is(MMMInstance(n, k, edges), upper).game
        budget = EnumerationBudget(max_agents=game.n)
        for concept in (Concept.NS, Concept.IS):
            found = exists_stable(game, SizeBounds(1, upper), concept, budget)
            assert (found is None) == (not has_small_maximal_matching(n, k, edges))
            if found is not None:
                assert tuple(c for c in found.coalitions if len(c) > 1) == pairs


class TestMaxWelfare:
    def test_example_game_reaches_twelve(self):
        from sizedhedonic import intro_positive

        g = intro_positive(3)
        best = max_welfare_partition(g, SizeBounds(2, 3))
        assert social_welfare(g, best) == 12

    def test_infeasible_bounds_yield_none(self):
        from sizedhedonic.model import Game

        assert max_welfare_partition(Game(8), SizeBounds(5, 7)) is None

    def test_all_zero_game_ties_to_first_canonical(self):
        from sizedhedonic.model import Game

        g = Game(4)
        assert max_welfare_partition(g, SizeBounds(1, 4)) == Partition(
            [[1], [2], [3], [4]]
        )

    def test_true_maximum(self, rng):
        for _ in range(25):
            n = rng.randint(1, 6)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            best = max_welfare_partition(g, b)
            welfare = social_welfare(g, best)
            assert welfare == max(
                social_welfare(g, p) for p in enumerate_partitions(n, b)
            )

    def test_symmetric_maximum_is_ns_star(self, rng):
        for _ in range(25):
            n = rng.randint(2, 7)
            g = random_game(rng, n, symmetric=True)
            b = random_feasible_bounds(rng, n)
            best = max_welfare_partition(g, b)
            assert verify(g, best, b, Concept.NS_STAR).stable

    def test_any_maximum_is_cis_star(self, rng):
        for _ in range(25):
            n = rng.randint(2, 7)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            best = max_welfare_partition(g, b)
            assert verify(g, best, b, Concept.CIS_STAR).stable

    @pytest.mark.parametrize("values", [(0,), (-1, 0, 1), (-3, -2, -1, 0, 1, 2, 3)])
    def test_is_first_maximum_of_full_enumeration(self, rng, values):
        # branch and bound must return the same partition, not just the same
        # welfare, as a scan keeping the first strict maximum
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_game(rng, n, low=values[0], high=values[-1])
            b = random_feasible_bounds(rng, n)
            first = None
            for p in enumerate_partitions(n, b):
                if first is None or social_welfare(g, p) > social_welfare(g, first):
                    first = p
            assert max_welfare_partition(g, b) == first


def twin_game(rng, n, low=-3, high=3):
    """A game whose agents fall into random classes that value each other,
    and are valued, by class alone; up to two valuations are then redrawn,
    which may split a class."""
    classes = rng.randint(1, n)
    kind = [rng.randrange(classes) for _ in range(n + 1)]
    table = [[rng.randint(low, high) for _ in range(classes)] for _ in range(classes)]
    vals = {
        (a, b): table[kind[a]][kind[b]]
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if a != b
    }
    for _ in range(rng.randint(0, 2) if n > 1 else 0):
        a, b = rng.sample(range(1, n + 1), 2)
        vals[a, b] = rng.randint(low, high)
    return Game(n, vals)


def swap_keeps_table(game, a, b):
    swap = {a: b, b: a}
    return all(
        game.value(swap.get(x, x), swap.get(y, y)) == game.value(x, y)
        for x in game.agents
        for y in game.agents
        if x != y
    )


class TestTwinPruning:
    """Twins, agents whose swap is an automorphism, are tried in one order."""

    def test_twins_are_exactly_the_swaps_that_keep_the_table(self, rng):
        for _ in range(150):
            n = rng.randint(1, 9)
            g = twin_game(rng, n, *rng.choice([(-3, 3), (-1, 1), (0, 1)]))
            below = exact._twin_below([g.row(a) for a in range(n + 1)], n)
            brute = {
                (a, b) for a, b in combinations(g.agents, 2) if swap_keeps_table(g, a, b)
            }
            if below is None:
                assert not brute
                continue

            def oldest(a):
                while below[a]:
                    a = below[a]
                return a

            reported = {(a, b) for a, b in combinations(g.agents, 2) if oldest(a) == oldest(b)}
            assert reported == brute
            assert all(below[b] < b and (below[b], b) in brute for b in g.agents if below[b])

    @staticmethod
    def pairwise_twin_below(rows, n):
        """``_twin_below`` by the definition, pair by pair: v_a(b) = v_b(a),
        and v_a(x) = v_b(x) and v_x(a) = v_x(b) for every other x."""
        below = [0] * (n + 1)
        for b in range(1, n + 1):
            for a in range(1, b):
                others = [x for x in range(1, n + 1) if x not in (a, b)]
                if rows[a][b] == rows[b][a] and all(
                    rows[a][x] == rows[b][x] and rows[x][a] == rows[x][b] for x in others
                ):
                    below[b] = a
        return below if any(below) else None

    def test_twin_below_matches_the_pairwise_definition(self, rng):
        games = [twin_game(rng, rng.randint(1, 24), *rng.choice([(-3, 3), (-1, 1), (0, 1)]))
                 for _ in range(120)]
        games += [
            x3c_to_cns(X3CInstance(6, ((1, 2, 3), (2, 3, 4), (4, 5, 6))), 3).game,
            x3c_to_cns(X3CInstance(6, ((1, 2, 3), (2, 3, 4), (4, 5, 6), (1, 5, 6))), 3).game,
            x3c_to_cns(X3CInstance(3, ((1, 2, 3), (1, 2, 3))), 4).game,
            mmm_to_ns_is(MMMInstance(3, 2, ((1, 4), (2, 4), (3, 5))), 3).game,
            mmm_to_ns_is(MMMInstance(4, 2, ((1, 5), (2, 6))), 2).game,
            x3c_to_ns_bounded(X3CInstance(6, ((1, 2, 3), (4, 5, 6))), SizeBounds(2, 4)).game,
            x3c_to_ns_bounded(X3CInstance(6, ((1, 2, 3), (3, 4, 5))), SizeBounds(3, 5)).game,
        ]
        for g in games:
            rows = [g.row(a) for a in range(g.n + 1)]
            assert exact._twin_below(rows, g.n) == self.pairwise_twin_below(rows, g.n), g

    def test_twin_free_games_get_no_hook(self, rng):
        # such games pass None to the search, which then runs no twin rule
        # and takes the plain search's steps
        games = [cycle_no_is_star(5), cycle_no_is_star(7)]
        games += [random_game(rng, n) for n in range(4, 9)]
        for g in games:
            rows = [g.row(a) for a in range(g.n + 1)]
            assert exact._twin_below(rows, g.n) is None

    @pytest.mark.parametrize("trivial_lower", [True, False])
    def test_exists_stable_matches_naive_filter_on_twin_games(self, rng, trivial_lower):
        # with a lower bound of 1 the twin hook is composed with the sign hook
        for _ in range(25):
            n = rng.randint(3, 8)
            g = twin_game(rng, n, *rng.choice([(-3, 3), (-1, 1), (0, 2)]))
            if trivial_lower:
                b = SizeBounds(1, rng.randint(3, min(n, 5)))
            else:
                lo = rng.randint(2, n)
                b = SizeBounds(lo, rng.randint(lo, n))
            first = first_stable_by_filter(g, b)
            for concept in ALL_CONCEPTS:
                assert exists_stable(g, b, concept) == first.get(concept), (n, b, concept)

    def test_max_welfare_is_first_maximum_on_twin_games(self, rng):
        for _ in range(40):
            n = rng.randint(3, 8)
            g = twin_game(rng, n, *rng.choice([(-3, 3), (-1, 1), (0, 2)]))
            b = random_feasible_bounds(rng, n)
            first = None
            for p in enumerate_partitions(n, b):
                if first is None or social_welfare(g, p) > social_welfare(g, first):
                    first = p
            assert max_welfare_partition(g, b) == first

    @pytest.mark.parametrize(
        "sets", [((1, 2, 3), (4, 5, 6)), ((1, 2, 3), (3, 4, 5))], ids=["cover", "no-cover"]
    )
    def test_theorem_9_games_are_decided(self, sets):
        # 17 agents at 2:4 with 8 interchangeable dummies: past 3,000,000
        # steps without twin pruning, whether or not a cover exists
        b = SizeBounds(2, 4)
        game = x3c_to_ns_bounded(X3CInstance(6, sets), b).game
        found = exists_stable(game, b, Concept.NS, EnumerationBudget(max_agents=17))
        assert (found is not None) == has_exact_cover(6, sets)
        if found is not None:
            assert verify(game, found, b, Concept.NS).stable
