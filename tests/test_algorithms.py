import random

import pytest

from sizedhedonic import (
    Concept,
    DynamicsCycleError,
    InfeasiblePartitionError,
    NotSymmetricError,
    Partition,
    SizeBounds,
    aziz_failure,
    aziz_reference,
    cis_star_nonneg,
    cis_star_nonzero,
    cis_upper,
    cns_pairs,
    cycle_no_is_star,
    dynamics_steps,
    exists_stable,
    feasible_k_partition_exists,
    intro_negative,
    intro_positive,
    max_welfare_partition,
    singleton_partition,
    social_welfare,
    star_no_cis,
    symmetric_dynamics,
    verify,
)
from sizedhedonic.stability import apply_deviation
from sizedhedonic.model import Game

from conftest import random_feasible_bounds, random_feasible_partition, random_game


class TestCisUpper:
    def test_reference_game(self):
        g = aziz_failure()
        partition, trace = cis_upper(g, 4)
        assert partition == Partition([[1], [2, 3, 4]])
        assert verify(g, partition, SizeBounds(1, 4), Concept.CIS).stable
        actors = [e.agent for e in trace]
        assert len(actors) == len(set(actors))

    def test_all_zero_game_stays_singleton(self):
        g = Game(5)
        partition, trace = cis_upper(g, 3)
        assert partition == Partition([[a] for a in g.agents])
        assert all(e.action == "created" and e.helpers == () for e in trace)

    def test_mutual_pair(self):
        g = Game(2, {(1, 2): 1, (2, 1): 1})
        partition, _ = cis_upper(g, 2)
        assert partition == Partition([[1, 2]])

    def test_rejects_upper_below_two(self):
        with pytest.raises(ValueError):
            cis_upper(Game(2), 1)

    def test_latecomers_never_join_over_a_decision_makers_objection(self):
        # leader 1 takes friend 4; without barring disliked joiners, agent 2
        # would enter for 4's sake, push 1 below zero, and 1 could then flee
        g = Game(
            4,
            {(1, 4): 2, (1, 2): -3, (2, 4): 5, (2, 3): 1},
        )
        partition, _ = cis_upper(g, 4)
        assert partition == Partition([[1, 4], [2, 3]])
        assert verify(g, partition, SizeBounds(1, 4), Concept.CIS).stable

    def test_soundness_sweep(self, rng):
        for _ in range(200):
            n = rng.randint(1, 8)
            g = random_game(rng, n)
            upper = rng.randint(2, 8)
            partition, trace = cis_upper(g, upper)
            assert max(partition.sizes()) <= upper
            assert verify(g, partition, SizeBounds(1, upper), Concept.CIS).stable
            actors = [e.agent for e in trace]
            assert len(actors) == len(set(actors))

    def test_unconstrained_via_full_upper(self, rng):
        for _ in range(40):
            n = rng.randint(2, 7)
            g = random_game(rng, n)
            partition, _ = cis_upper(g, n)
            b = SizeBounds(1, n)
            assert verify(g, partition, b, Concept.CIS).stable
            assert exists_stable(g, b, Concept.CIS) is not None


class TestAzizReference:
    def test_known_failure_instance(self):
        g = aziz_failure()
        out = aziz_reference(g)
        assert out == Partition([[1, 3], [2, 4]])
        report = verify(g, out, SizeBounds(1, 4), Concept.CIS)
        assert not report.stable
        assert report.witness.agent == 3
        assert out.coalitions[report.witness.target] == (2, 4)

    def test_all_zero_game(self):
        assert aziz_reference(Game(4)) == Partition([[1], [2], [3], [4]])

    def test_disagrees_with_repaired_algorithm_on_reference_game(self):
        g = aziz_failure()
        fixed, _ = cis_upper(g, 4)
        b = SizeBounds(1, 4)
        assert not verify(g, aziz_reference(g), b, Concept.CIS).stable
        assert verify(g, fixed, b, Concept.CIS).stable


class TestCnsPairs:
    def test_all_zero_game(self):
        assert cns_pairs(Game(3)) == Partition([[1], [2], [3]])

    def test_one_sided_pair_sticks(self):
        g = Game(3, {(1, 2): 5, (2, 1): -1})
        out = cns_pairs(g)
        assert out == Partition([[1, 2], [3]])
        assert verify(g, out, SizeBounds(1, 2), Concept.CNS).stable

    def test_reference_game(self):
        g = aziz_failure()
        out = cns_pairs(g)
        assert out == Partition([[1, 3], [2, 4]])
        assert verify(g, out, SizeBounds(1, 2), Concept.CNS).stable

    def test_soundness_sweep(self, rng):
        for _ in range(200):
            g = random_game(rng, rng.randint(1, 8))
            out = cns_pairs(g)
            assert max(out.sizes()) <= 2
            assert verify(g, out, SizeBounds(1, 2), Concept.CNS).stable


class TestCisStarNonzero:
    def test_examples(self):
        vals = {(a, b): -1 for a in range(1, 5) for b in range(1, 5) if a != b}
        vals[(1, 2)] = vals[(2, 1)] = 1
        g = Game(4, vals)
        assert cis_star_nonzero(g, SizeBounds(2, 2), 2) == Partition([[1, 2], [3, 4]])
        all_pos = Game(4, {(a, b): 1 for a in range(1, 5) for b in range(1, 5) if a != b})
        assert cis_star_nonzero(all_pos, SizeBounds(2, 4), 1) == Partition([[1, 2, 3, 4]])
        eight = Game(
            8, {(a, b): 1 for a in range(1, 9) for b in range(1, 9) if a != b}
        )
        assert cis_star_nonzero(eight, SizeBounds(5, 7), 1) is None

    def test_two_phase_trace(self):
        # leader 1 takes its best partner plus two friends (budget x = 3 caps
        # at upper - lower = 2), leader 5 pairs with the tied lowest id, and
        # the leftover agent 7 tops up the youngest coalition
        vals = {(a, b): -1 for a in range(1, 8) for b in range(1, 8) if a != b}
        vals.update({(1, 2): 3, (1, 3): 2, (1, 4): 1, (4, 5): 2})
        g = Game(7, vals)
        out = cis_star_nonzero(g, SizeBounds(2, 4), 2)
        assert out == Partition([[1, 2, 3, 4], [5, 6, 7]])
        assert verify(g, out, SizeBounds(2, 4), Concept.CIS_STAR).stable

    def test_rejects_zero_valuations(self):
        with pytest.raises(ValueError):
            cis_star_nonzero(Game(3), SizeBounds(2, 3), 1)

    def test_rejects_trivial_lower_bound(self):
        # with lower bound 1 and k = n, two mutual friends admit no stable
        # partition into k coalitions at all, so the contract is unmeetable
        g = Game(2, {(1, 2): 1, (2, 1): 1})
        with pytest.raises(ValueError):
            cis_star_nonzero(g, SizeBounds(1, 2), 2)
        with pytest.raises(ValueError):
            cis_star_nonneg(g, SizeBounds(1, 2), 2)

    def test_soundness_sweep(self, rng):
        for _ in range(200):
            n = rng.randint(2, 8)
            g = random_game(rng, n, nonzero=True)
            lo = rng.randint(2, n)
            hi = rng.randint(lo, n)
            k = rng.randint(1, n)
            b = SizeBounds(lo, hi)
            out = cis_star_nonzero(g, b, k)
            if feasible_k_partition_exists(n, k, b):
                assert out is not None and len(out) == k
                assert verify(g, out, b, Concept.CIS_STAR).stable
            else:
                assert out is None


def test_k_coalition_solvers_decline_the_empty_game():
    for solver in (cis_star_nonzero, cis_star_nonneg):
        assert solver(Game(0), SizeBounds(2, 3), 1) is None


def test_k_coalition_solvers_split_the_empty_game_into_zero_coalitions():
    b = SizeBounds(2, 3)
    friends = Game(4, {(a, c): 1 for a in range(1, 5) for c in range(1, 5) if a != c})
    for solver in (cis_star_nonzero, cis_star_nonneg):
        assert solver(Game(0), b, 0) == Partition([])
        assert solver(friends, b, 0) is None
        with pytest.raises(ValueError):
            solver(friends, b, -1)


def test_solvers_agree_on_the_empty_game():
    g, empty = Game(0), Partition([])
    for lo, hi in ((1, 1), (1, 3), (2, 3), (3, 5)):
        b = SizeBounds(lo, hi)
        assert exists_stable(g, b, Concept.CIS) == empty
        assert max_welfare_partition(g, b) == empty
        assert symmetric_dynamics(g, b, empty) == (empty, 0)
    assert cis_upper(g, 3) == (empty, ())
    assert cns_pairs(g) == empty


class TestCisStarNonneg:
    def test_all_zero_game(self):
        g = Game(6)
        out = cis_star_nonneg(g, SizeBounds(2, 3), 2)
        assert sorted(out.sizes()) == [3, 3]
        assert verify(g, out, SizeBounds(2, 3), Concept.CIS_STAR).stable

    def test_unsatisfiable_count_is_declined(self):
        assert cis_star_nonneg(Game(8), SizeBounds(5, 7), 1) is None

    def test_budgeted_join_trace(self):
        # agent 1 spends the single extra slot on a triple with both friends;
        # later leaders can then only open fresh coalitions at minimum size
        g = Game(
            7,
            {(1, 2): 2, (1, 3): 1, (2, 1): 1, (4, 5): 3, (6, 1): 2, (6, 7): 1},
        )
        out = cis_star_nonneg(g, SizeBounds(2, 3), 3)
        assert out == Partition([[1, 2, 3], [4, 5], [6, 7]])
        assert verify(g, out, SizeBounds(2, 3), Concept.CIS_STAR).stable

    def test_star_counterexample_game(self):
        g = star_no_cis(2)
        out = cis_star_nonneg(g, SizeBounds(2, 3), 2)
        assert verify(g, out, SizeBounds(2, 3), Concept.CIS_STAR).stable

    def test_rejects_negative_valuations(self):
        with pytest.raises(ValueError):
            cis_star_nonneg(Game(2, {(1, 2): -1}), SizeBounds(2, 2), 1)

    @pytest.mark.parametrize(
        "seed, n, bounds, k, coalitions",
        [
            (5, 10, SizeBounds(2, 4), 3, ((1, 2, 3, 5), (4, 6, 7, 8), (9, 10))),
            (5, 10, SizeBounds(2, 4), 4, ((1, 2, 3, 5), (4, 7), (6, 9), (8, 10))),
            (6, 11, SizeBounds(2, 5), 3, ((1, 3, 4, 8, 9), (2, 5, 10, 11), (6, 7))),
            (6, 11, SizeBounds(2, 5), 5, ((1, 3, 8), (2, 5), (4, 9), (6, 11), (7, 10))),
            (7, 12, SizeBounds(3, 5), 3, ((1, 2, 3, 4, 8), (5, 9, 10, 11), (6, 7, 12))),
            (7, 12, SizeBounds(3, 5), 4, ((1, 2, 4), (3, 6, 7), (5, 9, 11), (8, 10, 12))),
        ],
    )
    def test_partitions_are_pinned(self, seed, n, bounds, k, coalitions):
        # valuations 0..3 tie often, so these pin the helpers' tie-breaking
        # toward the lowest id as well as the choice of coalition
        g = random_game(random.Random(seed), n, low=0, high=3, nonneg=True)
        assert cis_star_nonneg(g, bounds, k).coalitions == coalitions

    def test_soundness_sweep(self, rng):
        for _ in range(200):
            n = rng.randint(2, 8)
            g = random_game(rng, n, nonneg=True)
            lo = rng.randint(2, n)
            hi = rng.randint(lo, n)
            k = rng.randint(1, n)
            b = SizeBounds(lo, hi)
            out = cis_star_nonneg(g, b, k)
            if feasible_k_partition_exists(n, k, b):
                assert out is not None and len(out) == k
                assert verify(g, out, b, Concept.CIS_STAR).stable
            else:
                assert out is None


class TestSymmetricDynamics:
    def test_intro_fixed_points(self):
        b = SizeBounds(2, 3)
        p = Partition([[1, 2], [3, 4], [5, 6]])
        assert symmetric_dynamics(intro_positive(3), b, p) == (p, 0)
        assert symmetric_dynamics(intro_negative(3), b, p) == (p, 0)

    def test_off_diagonal_start_already_stable(self):
        g = intro_positive(3)
        init = Partition([[1, 4], [2, 5], [3, 6]])
        final, steps = symmetric_dynamics(g, SizeBounds(2, 3), init)
        assert steps == 0 and final == init
        assert social_welfare(g, final) == 6

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetricError):
            symmetric_dynamics(Game(2, {(1, 2): 1}), SizeBounds(1, 2), Partition([[1], [2]]))

    def test_rejects_infeasible_init(self):
        g = intro_positive(2)
        with pytest.raises(InfeasiblePartitionError):
            symmetric_dynamics(g, SizeBounds(2, 2), Partition([[1], [2], [3], [4]]))

    def test_start_partition_is_checked_by_verify(self):
        g, b = intro_positive(2), SizeBounds(2, 2)
        for init in (Partition([[1, 2]]), Partition([[1, 2], [3], [4]])):
            with pytest.raises(Exception) as raised:
                verify(g, init, b, Concept.NS_STAR)
            with pytest.raises(type(raised.value)) as again:
                symmetric_dynamics(g, b, init)
            assert str(again.value) == str(raised.value)
        with pytest.raises(NotSymmetricError):  # symmetry comes first
            symmetric_dynamics(Game(2, {(1, 2): 1}), b, Partition([[1]]))

    def test_converges_with_exact_welfare_steps(self, rng):
        for _ in range(60):
            n = rng.randint(2, 7)
            g = random_game(rng, n, symmetric=True)
            b = random_feasible_bounds(rng, n)
            init = random_feasible_partition(rng, n, b)
            welfare = social_welfare(g, init)
            steps = 0
            final = init
            for deviation, gain, after in dynamics_steps(g, b, init):
                assert gain >= 1
                new_welfare = social_welfare(g, after)
                assert new_welfare - welfare == 2 * gain
                welfare = new_welfare
                final = after
                steps += 1
            assert verify(g, final, b, Concept.NS_STAR).stable
            best = social_welfare(g, max_welfare_partition(g, b))
            assert steps <= max(0, best - social_welfare(g, init))


class TestDynamicsThatMove:
    """A run that takes steps, from singletons to two pairs."""

    GAME = Game(6, {(1, 2): 3, (2, 1): 3, (3, 4): 2, (4, 3): 2}, symmetric=True)

    def test_two_pairs_form_from_singletons(self):
        b, init = SizeBounds(1, 3), singleton_partition(6)
        result = symmetric_dynamics(self.GAME, b, init)
        assert result == (Partition([[1, 2], [3, 4], [5], [6]]), 2)
        steps = list(dynamics_steps(self.GAME, b, init))
        assert [(d.agent, d.target, gain) for d, gain, _ in steps] == [(1, 1, 3), (3, 2, 2)]
        assert (steps[-1][2], len(steps)) == result


def test_aziz_reference_absorbs_a_latecomer():
    # agent 2 joins 1, whom it likes, and agent 3 follows: 2 likes it and
    # nobody in the coalition minds
    assert aziz_reference(Game(3, {(2, 1): 5, (2, 3): 1})) == Partition([[1, 2, 3]])


class TestDynamicsCycle:
    def test_directed_triangle_cycle_is_reported(self):
        g, b = cycle_no_is_star(3), SizeBounds(1, 2)
        steps = []
        with pytest.raises(DynamicsCycleError) as info:
            for _, _, after in dynamics_steps(g, b, singleton_partition(3)):
                steps.append(after)
        cycle = info.value.cycle
        assert cycle == (
            Partition([[1, 2], [3]]),
            Partition([[1], [2, 3]]),
            Partition([[1, 3], [2]]),
        )
        assert steps == list(cycle)
        for here, there in zip(cycle, cycle[1:] + cycle[:1]):
            witness = verify(g, here, b, Concept.NS_STAR).witness
            assert apply_deviation(here, witness) == there

    def test_random_nonsymmetric_dynamics_end_or_report_a_true_cycle(self, rng):
        for _ in range(40):
            n = rng.randint(2, 6)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            init = random_feasible_partition(rng, n, b)
            seen = [init]
            try:
                for _, _, after in dynamics_steps(g, b, init):
                    assert after not in seen
                    seen.append(after)
            except DynamicsCycleError as exc:
                start = seen.index(exc.cycle[0])
                assert tuple(seen[start:]) == exc.cycle
                witness = verify(g, seen[-1], b, Concept.NS_STAR).witness
                assert apply_deviation(seen[-1], witness) == exc.cycle[0]
            else:
                assert verify(g, seen[-1], b, Concept.NS_STAR).stable
