import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sizedhedonic import (
    Game,
    Partition,
    SizeBounds,
    feasibility_threshold,
    feasible_k_partition_exists,
    feasible_partition_exists,
    greedy_feasible_partition,
    is_feasible_partition,
    singleton_partition,
)

from conftest import sizes_decomposable, sizes_decomposable_k


class TestGame:
    def test_total_table_defaults_to_zero(self):
        g = Game(3, {(1, 2): 5})
        assert g.value(1, 2) == 5
        assert g.value(2, 1) == 0
        assert g.value(3, 1) == 0

    def test_self_valuation_rejected(self):
        with pytest.raises(ValueError):
            Game(2, {(1, 1): 1})
        with pytest.raises(ValueError):
            Game(2).value(1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Game(2, {(1, 3): 1})

    @pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
    def test_non_integer_agent_count_rejected(self, n):
        message = f"^agent count must be an integer, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            Game(n)

    def test_negative_agent_count_rejected(self):
        with pytest.raises(ValueError, match="^agent count must be nonnegative$"):
            Game(-1)

    @pytest.mark.parametrize("w", [1.5, True, "2"])
    def test_non_integer_valuation_rejected(self, w):
        with pytest.raises(ValueError, match=r"^valuation v_1\(2\) must be an integer$"):
            Game(2, {(1, 2): w})

    @pytest.mark.parametrize(
        "key, bad", [((1.0, 2), 1.0), (("a", 2), "a"), ((2, "a"), "a"), ((1, 2.0), 2.0)]
    )
    def test_non_integer_agent_ids_rejected(self, key, bad):
        message = f"^agent ids must be integers, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            Game(3, {(1, 3): 1, key: 5})

    def test_bool_ids_are_the_integers_they_equal(self):
        assert Game(3, {(True, 2): 5}) == Game(3, {(1, 2): 5})

    @pytest.mark.parametrize("key", [5, (1, 2, 3), (1,), "ab", None])
    def test_keys_that_are_no_pair_are_named(self, key):
        message = f"^valuation key {re.escape(repr(key))} is not a pair of agent ids$"
        with pytest.raises(ValueError, match=message) as raised:
            Game(3, {(1, 3): 1, key: 5})
        assert raised.value.__cause__ is None and raised.value.__suppress_context__

    def test_symmetric_flag_names_the_first_asymmetric_pair(self):
        with pytest.raises(ValueError, match=r"^declared symmetric but v_2\(3\) != v_3\(2\)$"):
            Game(4, {(2, 3): 1, (3, 2): 2, (3, 4): 1}, symmetric=True)
        assert not Game(4, {(2, 3): 1, (3, 2): 2, (3, 4): 1}).has_symmetric_table()
        assert Game(3, {(1, 3): 2, (3, 1): 2}).has_symmetric_table()

    def test_symmetric_flag_validated(self):
        with pytest.raises(ValueError):
            Game(2, {(1, 2): 1, (2, 1): 2}, symmetric=True)
        g = Game(2, {(1, 2): 1, (2, 1): 1}, symmetric=True)
        assert g.symmetric and g.has_symmetric_table()

    def test_class_predicates(self):
        assert Game(2, {(1, 2): 1, (2, 1): -1}).is_nonzero()
        assert not Game(2, {(1, 2): 1}).is_nonzero()
        assert Game(2, {(1, 2): 1}).is_nonnegative()
        assert not Game(2, {(1, 2): -1}).is_nonnegative()

    def test_class_predicates_match_pairwise_definitions(self):
        # the row scans against the definitions, one pair at a time
        def pairwise_nonzero(g):
            return all(g.value(a, b) != 0 for a in g.agents for b in g.agents if a != b)

        def pairwise_nonnegative(g):
            return all(g.value(a, b) >= 0 for a in g.agents for b in g.agents if a != b)

        rng = random.Random(0x51A7)
        games = [Game(0), Game(1)]
        for _ in range(150):
            n = rng.randint(2, 7)
            pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
            base = rng.choice([(1, 3), (-3, -1), (-3, 3), (0, 2)])
            vals = {pair: rng.choice([w for w in range(base[0], base[1] + 1) if w]) for pair in pairs}
            games.append(Game(n, vals))
            # a single zero, or a single negative entry, anywhere off the diagonal
            odd = rng.choice(pairs)
            games.append(Game(n, {**vals, odd: 0}))
            positive = {pair: abs(w) for pair, w in vals.items()}
            games.append(Game(n, {**positive, odd: -rng.randint(1, 3)}))
            games.append(Game(n, {**positive, odd: 0}))
        for g in games:
            assert g.is_nonzero() == pairwise_nonzero(g), g
            assert g.is_nonnegative() == pairwise_nonnegative(g), g
        assert Game(0).is_nonzero() and Game(1).is_nonzero() and Game(1).is_nonnegative()

    def test_kept_predicate_answers_leave_equality_and_hashing_alone(self):
        # (valuations, is_nonzero, is_nonnegative); answered twice, so the
        # second answer comes from what the first call kept
        cases = [
            ({(1, 2): 2, (2, 1): -1, (1, 3): 1, (3, 1): 3, (2, 3): -4, (3, 2): 1}, True, False),
            ({(1, 2): 2, (2, 1): 1, (1, 3): 1, (3, 1): 3, (2, 3): 4}, False, True),
            ({(1, 2): 2, (2, 1): 1, (1, 3): 1, (3, 1): 3, (2, 3): 4, (3, 2): 1}, True, True),
        ]
        for vals, nonzero, nonnegative in cases:
            table = [[0] * 4 for _ in range(4)]
            for (a, b), w in vals.items():
                table[a][b] = w
            builders = (
                lambda: Game(3, vals),
                lambda: Game._from_table(3, [row[:] for row in table], False),
            )
            for build in builders:
                filled = build()
                for _ in range(2):
                    assert (filled.is_nonzero(), filled.is_nonnegative()) == (nonzero, nonnegative)
                for fresh in (build() for build in builders):
                    assert filled == fresh and fresh == filled
                    assert hash(filled) == hash(fresh)
                    assert len({filled, fresh}) == 1

    def test_equal_games_hash_equal_and_the_symmetric_flag_counts(self):
        table = {(1, 2): 4, (2, 1): 4, (3, 1): -2, (1, 3): -2}
        assert Game(3, table) == Game(3, dict(reversed(table.items())))
        assert hash(Game(3, table)) == hash(Game(3, dict(reversed(table.items()))))
        declared = Game(3, table, symmetric=True)
        assert declared != Game(3, table)
        assert hash(declared) != hash(Game(3, table))
        assert len({Game(3, table), Game(3, table), declared}) == 2

    def test_repr_counts_nonzero_valuations(self):
        table = {(1, 2): 4, (2, 1): 4, (2, 3): 0}
        assert repr(Game(3, table)) == "Game(n=3, 2 nonzero valuations)"
        assert repr(Game(3, table, symmetric=True)) == "Game(n=3, 2 nonzero valuations, symmetric)"
        assert repr(Game(0)) == "Game(n=0, 0 nonzero valuations)"

    def test_never_equal_to_another_type(self):
        assert Game(2) != (2,)
        assert not Game(0) == 0
        assert Game(0).__eq__(0) is NotImplemented


class TestPartition:
    def test_canonical_form(self):
        p = Partition([[4, 2], [3, 1]])
        assert p.coalitions == ((1, 3), (2, 4))
        assert p.coalition_of(4) == (2, 4)
        assert p.index_of(3) == 0
        assert p.sizes() == (2, 2)

    def test_must_cover_exactly(self):
        with pytest.raises(ValueError):
            Partition([[1], [3]])  # gap at 2
        with pytest.raises(ValueError):
            Partition([[1, 2], [2, 3]])  # overlap
        with pytest.raises(ValueError):
            Partition([[1], []])  # empty coalition
        with pytest.raises(ValueError):
            Partition([[1, 1, 2]])  # duplicate inside

    @pytest.mark.parametrize(
        "coalitions",
        [
            [[1], [3]],  # gap at 2
            [[1, 2], [4]],  # gap at 3
            [[0, 1], [2]],  # agent 0
            [[1, 2, 4]],  # agent n + 1
            [[1], [2, 3], [5]],  # agent n + 2
            [[-1, 1], [2]],  # a negative id
        ],
    )
    def test_the_cover_error_is_named(self, coalitions):
        with pytest.raises(ValueError, match=r"^coalitions must cover exactly the agents 1\.\.n$"):
            Partition(coalitions)

    def test_the_empty_partition_covers_no_agents(self):
        p = Partition([])
        assert (p.coalitions, p.n, p.sizes()) == ((), 0, ())

    def test_feasibility_check(self):
        b = SizeBounds(2, 3)
        assert is_feasible_partition(Partition([[1, 2], [3, 4, 5]]), b)
        assert not is_feasible_partition(Partition([[1, 2, 3, 4], [5, 6]]), b)
        assert is_feasible_partition(singleton_partition(4), SizeBounds(1, 5))

    @pytest.mark.parametrize("lower, upper", [(1, 1), (1, 4), (3, 3), (2, 7)])
    def test_the_empty_partition_is_feasible_under_any_bounds(self, lower, upper):
        assert is_feasible_partition(Partition([]), SizeBounds(lower, upper))
        assert is_feasible_partition(singleton_partition(0), SizeBounds(lower, upper))

    def test_all_singletons_at_lower_one(self):
        for n in (1, 2, 7):
            assert is_feasible_partition(singleton_partition(n), SizeBounds(1, 1))
            assert is_feasible_partition(singleton_partition(n), SizeBounds(1, 3))
            assert not is_feasible_partition(singleton_partition(n), SizeBounds(2, 3))

    def test_sizes_on_either_bound_are_feasible(self):
        b = SizeBounds(2, 4)
        assert is_feasible_partition(Partition([[1, 2], [3, 4]]), b)  # all exactly lower
        assert is_feasible_partition(Partition([[1, 2, 3, 4], [5, 6, 7, 8]]), b)  # all exactly upper
        assert is_feasible_partition(Partition([[1, 2], [3, 4, 5, 6]]), b)
        assert is_feasible_partition(Partition([[1, 2, 3]]), SizeBounds(3, 3))

    def test_one_coalition_one_past_either_bound_is_infeasible(self):
        b = SizeBounds(2, 4)
        # every other coalition sits inside the bounds, so the one outlier decides
        assert not is_feasible_partition(Partition([[1, 2], [3], [4, 5, 6, 7]]), b)
        assert not is_feasible_partition(Partition([[1], [2, 3], [4, 5, 6, 7]]), b)
        assert not is_feasible_partition(Partition([[1, 2], [3, 4, 5, 6, 7], [8, 9, 10]]), b)
        assert not is_feasible_partition(Partition([[1, 2, 3, 4, 5], [6, 7]]), b)
        assert not is_feasible_partition(Partition([[1, 2], [3, 4, 5, 6]]), SizeBounds(3, 4))
        assert not is_feasible_partition(Partition([[1, 2, 3], [4, 5, 6, 7]]), SizeBounds(3, 3))

    @pytest.mark.parametrize(
        "coalitions, bad",
        [
            ([[True, 2]], True),
            ([[1.0, 2]], 1.0),
            ([[1], [2, 3.0]], 3.0),
            ([[1], [False]], False),
            ([["1"]], "1"),
        ],
    )
    def test_non_integer_agent_ids_rejected(self, coalitions, bad):
        message = f"^agent ids must be integers, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            Partition(coalitions)

    @pytest.mark.parametrize(
        "coalitions, bad",
        [([[1], ["a"]], "a"), ([[1, "a"]], "a"), ([[2], [1, None]], None), ([[1], [[2]]], [2])],
    )
    def test_ids_that_do_not_compare_or_hash_rejected(self, coalitions, bad):
        message = f"^agent ids must be integers, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            Partition(coalitions)

    @pytest.mark.parametrize("coalitions, bad", [([5], 5), ([[1], 2], 2), ([[1], None], None)])
    def test_coalitions_that_are_no_collection_are_named(self, coalitions, bad):
        message = f"^coalition {re.escape(repr(bad))} is not a collection of agent ids$"
        with pytest.raises(ValueError, match=message) as raised:
            Partition(coalitions)
        assert raised.value.__cause__ is None and raised.value.__suppress_context__

    def test_overlap_names_the_first_repeat_in_canonical_order(self):
        with pytest.raises(ValueError, match="^agent 3 appears in more than one coalition$"):
            Partition([[4, 3], [1, 4], [2, 3]])
        with pytest.raises(ValueError, match="^agent True appears in more than one coalition$"):
            Partition([[1], [True]])


    def test_size_facts_match_their_definitions_under_alternating_bounds(self):
        from sizedhedonic import enumerate_partitions

        cycle = [SizeBounds(lo, hi) for lo, hi in [(1, 1), (2, 3), (1, 7), (3, 3), (2, 7), (1, 3)]]

        def check(p, sizes_first):
            # ask in either order, so that either query may be the first one
            for _ in range(2):
                for b in cycle:
                    if sizes_first:
                        assert p.sizes() == tuple(map(len, p.coalitions))
                    defined = all(b.lower <= len(c) <= b.upper for c in p.coalitions)
                    assert is_feasible_partition(p, b) is defined
                    assert p.sizes() == tuple(map(len, p.coalitions))

        built = [Partition([]), singleton_partition(0), singleton_partition(5),
                 Partition([[4, 2], [3, 1], [5, 6, 7]]), Partition([[1, 2, 3, 4, 5, 6, 7, 8]])]
        for p in built:
            check(p, sizes_first=False)
        assert [p.sizes() for p in built] == [(), (), (1,) * 5, (2, 2, 3), (8,)]
        bell = [1, 1, 2, 5, 15, 52, 203, 877]
        for n in range(8):
            everything = SizeBounds(1, max(n, 1))
            for sizes_first in (False, True):
                leaves = list(enumerate_partitions(n, everything))
                assert len(leaves) == bell[n]
                for p in leaves:
                    check(p, sizes_first)

    def test_never_equal_to_another_type(self):
        assert Partition([[1, 2]]) != ((1, 2),)
        assert not Partition([]) == ()
        assert Partition([[1]]).__eq__(((1,),)) is NotImplemented


class TestSizeBounds:
    @pytest.mark.parametrize("lower, upper", [(True, 2), (1, True), (False, True), (1.0, 2), (1, "2")])
    def test_non_integers_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="^size bounds must be integers$"):
            SizeBounds(lower, upper)

    def test_integers_accepted(self):
        assert str(SizeBounds(1, 2)) == "1:2"

    @pytest.mark.parametrize("lower, upper", [(3, 2), (0, 2)])
    def test_order_checked(self, lower, upper):
        with pytest.raises(ValueError, match=rf"^invalid size bounds \({lower}, {upper}\)$"):
            SizeBounds(lower, upper)


class TestFeasibilityArithmetic:
    def test_eight_agents_between_five_and_seven(self):
        assert not feasible_partition_exists(8, SizeBounds(5, 7))

    def test_trivial_lower_bound(self):
        for n in range(1, 20):
            assert feasible_partition_exists(n, SizeBounds(1, 3))

    def test_seven_agents_pairs_and_triples(self):
        assert feasible_partition_exists(7, SizeBounds(2, 3))
        assert feasible_k_partition_exists(7, 3, SizeBounds(2, 3))

    def test_k_partition_examples(self):
        assert not feasible_k_partition_exists(8, 1, SizeBounds(5, 7))
        assert feasible_k_partition_exists(6, 2, SizeBounds(3, 3))

    @given(st.integers(1, 30), st.integers(1, 7), st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_formula_matches_size_recursion(self, n, lo, extra):
        b = SizeBounds(lo, lo + extra)
        assert feasible_partition_exists(n, b) == sizes_decomposable(n, b.lower, b.upper)

    @given(st.integers(1, 24), st.integers(1, 10), st.integers(1, 6), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_k_formula_matches_size_recursion(self, n, k, lo, extra):
        b = SizeBounds(lo, lo + extra)
        assert feasible_k_partition_exists(n, k, b) == sizes_decomposable_k(
            n, k, b.lower, b.upper
        )

    def test_exists_iff_max_coalition_count_works(self):
        for n in range(1, 25):
            for lo in range(1, 7):
                for hi in range(lo, 7):
                    b = SizeBounds(lo, hi)
                    expected = n // lo >= 1 and feasible_k_partition_exists(n, n // lo, b)
                    assert feasible_partition_exists(n, b) == expected

    def test_zero_agents_have_exactly_the_empty_partition(self):
        for lo in range(1, 6):
            for hi in range(lo, 7):
                b = SizeBounds(lo, hi)
                assert feasible_partition_exists(0, b)
                assert feasible_k_partition_exists(0, 0, b)
                for k in range(1, 4):
                    assert not feasible_k_partition_exists(0, k, b)

    def test_feasibility_matches_the_size_recursion_from_zero(self):
        for n in range(0, 12):
            for k in range(0, 6):
                for lo in range(1, 4):
                    for hi in range(lo, 5):
                        b = SizeBounds(lo, hi)
                        assert feasible_k_partition_exists(n, k, b) == sizes_decomposable_k(
                            n, k, lo, hi
                        )
                        assert feasible_partition_exists(n, b) == sizes_decomposable(n, lo, hi)

    def test_only_negative_counts_raise(self):
        b = SizeBounds(2, 3)
        with pytest.raises(ValueError):
            feasible_partition_exists(-1, b)
        with pytest.raises(ValueError):
            feasible_k_partition_exists(-1, 1, b)
        with pytest.raises(ValueError):
            feasible_k_partition_exists(4, -1, b)


class TestFeasibilityThreshold:
    def test_examples(self):
        assert feasibility_threshold(SizeBounds(2, 3)) == 2
        assert feasibility_threshold(SizeBounds(1, 4)) == 0
        # the sufficient-bound formula gives 14 here, but every n >= 10 is
        # already feasible and n = 9 is not, so the least threshold is 10
        assert feasibility_threshold(SizeBounds(5, 7)) == 10
        assert not feasible_partition_exists(9, SizeBounds(5, 7))

    def test_rejects_equal_bounds(self):
        with pytest.raises(ValueError):
            feasibility_threshold(SizeBounds(3, 3))

    def test_threshold_is_least(self):
        for lo in range(1, 8):
            for hi in range(lo + 1, 9):
                b = SizeBounds(lo, hi)
                t = feasibility_threshold(b)
                for n in range(max(t, 1), 4 * hi):
                    assert feasible_partition_exists(n, b)
                if t > 1:
                    assert not feasible_partition_exists(t - 1, b)


class TestGreedyPartition:
    def test_packs_or_declines(self):
        assert greedy_feasible_partition(range(1, 9), SizeBounds(5, 7)) is None
        blocks = greedy_feasible_partition(range(1, 8), SizeBounds(2, 3))
        assert sorted(a for blk in blocks for a in blk) == list(range(1, 8))
        assert all(2 <= len(blk) <= 3 for blk in blocks)

    def test_empty_pool(self):
        assert greedy_feasible_partition([], SizeBounds(2, 3)) == []

    def test_every_feasible_count(self):
        for n in range(1, 30):
            for lo in range(1, 6):
                for hi in range(lo, 7):
                    b = SizeBounds(lo, hi)
                    blocks = greedy_feasible_partition(range(1, n + 1), b)
                    if feasible_partition_exists(n, b):
                        assert blocks is not None
                        assert all(b.contains(len(blk)) for blk in blocks)
                        assert sum(len(blk) for blk in blocks) == n
                    else:
                        assert blocks is None
