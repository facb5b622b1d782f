import random
import re
from itertools import islice

import pytest

from sizedhedonic import (
    Concept,
    DynamicsCycleError,
    InfeasiblePartitionError,
    NotSymmetricError,
    Partition,
    SizeBounds,
    TraceEntry,
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
from sizedhedonic import algorithms
from sizedhedonic.stability import Deviation, StabilityReport, apply_deviation
from sizedhedonic.model import Game

import solver_reference as reference
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


@pytest.mark.parametrize("value", [1.5, 2.5, 3.0, True, "2", None])
def test_non_integer_coalition_count_and_upper_bound_rejected(value):
    # a float k once read as no partition, or raised a raw error from islice
    got = re.escape(repr(value))
    friends = Game(6, {(a, c): 1 for a in range(1, 7) for c in range(1, 7) if a != c})
    message = f"^coalition count must be an integer, got {got}$"
    for solver in (cis_star_nonzero, cis_star_nonneg):
        # the count is checked before the lower bound
        for b in (SizeBounds(2, 3), SizeBounds(1, 3)):
            with pytest.raises(ValueError, match=message):
                solver(friends, b, value)
    with pytest.raises(ValueError, match=f"^upper bound must be an integer, got {got}$"):
        cis_upper(friends, value)


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

    def test_a_step_without_gain_fails_rather_than_loops(self, monkeypatch):
        # agent 5 leaving its singleton for a new one gains nothing and
        # returns to the same partition; symmetric dynamics remember no
        # visited partitions, so only the gain test stops them
        def verify_without_gain(game, partition, bounds, concept):
            return StabilityReport(concept, False, Deviation(5, None), 1)

        monkeypatch.setattr(algorithms, "verify", verify_without_gain)
        steps = dynamics_steps(self.GAME, SizeBounds(1, 3), singleton_partition(6))
        with pytest.raises(RuntimeError, match="without gain"):
            list(islice(steps, 3))


def test_aziz_reference_absorbs_a_latecomer():
    # agent 2 joins 1, whom it likes, and agent 3 follows: 2 likes it and
    # nobody in the coalition minds
    assert aziz_reference(Game(3, {(2, 1): 5, (2, 3): 1})) == Partition([[1, 2, 3]])


def test_aziz_reference_leaves_a_latecomer_nobody_likes():
    # agent 3 joins 1 2, whom it likes; agent 4 harms nobody there but
    # benefits nobody either, so it is not absorbed
    game = Game(4, {(1, 2): 1, (3, 1): 1})
    assert aziz_reference(game) == Partition([[1, 2, 3], [4]])


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


def _coalitions(text):
    """``"1 3|2"`` -> ``((1, 3), (2,))``."""
    return tuple(tuple(map(int, c.split())) for c in text.split("|"))


def _trace(text):
    """``"1+1:3,6 8>4"`` -> agent 1 created coalition 1 with helpers 3 and 6,
    then agent 8 joined coalition 4 alone."""
    entries = []
    for item in text.split():
        head, _, helpers = item.partition(":")
        sign = "+" if "+" in head else ">"
        agent, coalition = head.split(sign)
        action = "created" if sign == "+" else "joined"
        entries.append(TraceEntry(int(agent), action, int(coalition),
                                  tuple(int(h) for h in helpers.split(",") if h)))
    return tuple(entries)


class TestSolverPins:
    """Seeded answers on tie-heavy games (valuations 0..2 or -1..1).

    Equal valuations abound, so these pin every tie-break: partners and
    helpers toward the lowest id, founding over an equal join, and the
    earlier coalition over a later one with the same gain.
    """

    @pytest.mark.parametrize(
        "seed, n, values, upper, coalitions, trace",
        [
            (11, 12, (0, 2), 3,
             "1 3 6|2 9 10|4 7 12|5 8 11",
             "1+1:3,6 2+2:9,10 4+3:7,12 5+4:11 8>4"),
            (12, 24, (-1, 1), 4,
             "1 4 5 6|2 7 10 11|3 8 12 14|9 15 21 24|13|16 18 23|17 22|19 20",
             "1+1:4,5,6 2+2:7,10,11 3+3:8,12,14 9+4:15,24 13+5 16+6:18,23 17+7:22 19+8:20 21>4"),
            (13, 30, (-1, 1), 5,
             "1 4 5 7 9|2 3 10 11 13|6 12 20 21 22|8 14 16 17 26|15 24 28|18 30|19 29|23 25|27",
             "1+1:4,5,7,9 2+2:3,10,11,13 6+3:12,20,21,22 8+4:14,16,26 15+5:24,28 17>4 "
             "18+6:30 19+7:29 23+8:25 27+9"),
            (15, 8, (0, 2), 4, "1 3 4 5|2 6 7 8", "1+1:4,5 2+2:6,7 3>1 8>2"),
            (15, 30, (0, 2), 2,
             "1 4|2 3|5 8|6 10|7 9|11 18|12 13|14 20|15 17|16 21|19 22|23 27|24 25|26 28|29|30",
             "1+1:4 2+2:3 5+3:8 6+4:10 7+5:9 11+6:18 12+7:13 14+8:20 15+9:17 16+10:21 "
             "19+11:22 23+12:27 24+13:25 26+14:28 29+15 30+16"),
            (16, 30, (-1, 1), 6,
             "1 11 12 15 21 23|2 3 4 5 9 10|6 8 13 19|7 14 18 26 27 30|16 17 28|20 24 29|22|25",
             "1+1:11,12,15,21,23 2+2:3,4,5,9,10 6+3:8,13,19 7+4:18,26,27,30 14>4 16+5:28 "
             "17>5 20+6:24,29 22+7 25+8"),
            (28, 24, (0, 2), 5,
             "1 3 5 6 7|2 10 11 12 13|4 8 18 20 21|9 14 16 17 24|15 19 22 23",
             "1+1:3,5,6,7 2+2:10,11,12,13 4+3:8,18,20,21 9+4:14,16,24 15+5:19,22,23 17>4"),
            (31, 12, (0, 2), 4, "1 3 7 11|2 5 8 12|4 6 9 10", "1+1:3,7,11 2+2:5,12 4+3:6,9 8>2 10>3"),
        ],
    )
    def test_cis_upper(self, seed, n, values, upper, coalitions, trace):
        g = random_game(random.Random(seed), n, *values)
        partition, entries = cis_upper(g, upper)
        assert partition.coalitions == _coalitions(coalitions)
        assert entries == _trace(trace)

    @pytest.mark.parametrize(
        "seed, n, values, coalitions",
        [
            (21, 10, (0, 2), "1 4|2 5|3 7|6 10|8 9"),
            (22, 15, (-1, 1), "1 5|2 4|3 7|6 8|9 10|11 13|12 14|15"),
            (23, 20, (0, 2), "1 5|2 4|3 7|6 11|8 9|10 12|13 20|14 16|15 17|18 19"),
            (24, 30, (-1, 1),
             "1 2|3 4|5 7|6 9|8 10|11 12|13 16|14 15|17 21|18 20|19 26|22 27|23 24|25 28|29 30"),
            (25, 30, (0, 2),
             "1 6|2 3|4 5|7 9|8 11|10 16|12 14|13 25|15 17|18 19|20 21|22 24|23 26|27 30|28 29"),
        ],
    )
    def test_cns_pairs(self, seed, n, values, coalitions):
        g = random_game(random.Random(seed), n, *values)
        assert cns_pairs(g).coalitions == _coalitions(coalitions)

    @pytest.mark.parametrize(
        "seed, n, values, bounds, k, coalitions",
        [
            (31, 12, (-1, 1), SizeBounds(2, 4), 4, "1 3 5|2 6 7 12|4 8 11|9 10"),
            (32, 16, (0, 2), SizeBounds(2, 3), 6, "1 5 7|2 4 6|3 8 9|10 11 12|13 14|15 16"),
            (33, 20, (-1, 1), SizeBounds(3, 5), 5,
             "1 4 5 7 8|2 10 12 13 15|3 9 14 17|6 11 16|18 19 20"),
            (34, 25, (0, 2), SizeBounds(2, 5), 7,
             "1 2 6 7 9|3 4 5 10 14|8 11 12 20 21|13 18 19 24|15 17|16 23|22 25"),
            (35, 30, (-1, 1), SizeBounds(2, 4), 9,
             "1 2 4 6|3 11 13 15|5 7 8 16|9 12 17 18|10 23 24 28|14 21 22 25|19 27|20 26|29 30"),
            (36, 30, (-1, 1), SizeBounds(3, 6), 7,
             "1 2 5 10 11 12|3 6 9 14 15 16|4 7 8 13 19 22|17 18 20|21 24 25|23 26 28|27 29 30"),
        ],
    )
    def test_cis_star_nonzero(self, seed, n, values, bounds, k, coalitions):
        g = random_game(random.Random(seed), n, *values, nonzero=True)
        assert cis_star_nonzero(g, bounds, k).coalitions == _coalitions(coalitions)

    @pytest.mark.parametrize(
        "seed, n, coalitions",
        [
            (41, 8, "1 7 8|2 3 6|4 5"),
            (42, 12, "1 2 5 10 12|3 4 6 7 8 9|11"),
            (43, 20, "1 4 8 9 12 14 16 18 20|2 13 17|3 6 15 19|5 11|7 10"),
            (44, 30, "1 3 4 5 14 18 19 21 22 24 26 27|2 7 9 30|6 8 15 20 25 28 29|10 11 16 23|12 13 17"),
        ],
    )
    def test_aziz_reference(self, seed, n, coalitions):
        g = random_game(random.Random(seed), n, -1, 1)
        assert aziz_reference(g).coalitions == _coalitions(coalitions)


def _same_answers(game, upper, bounds, k):
    """Each solver that applies to ``game`` gives its reference copy's answer."""
    assert cis_upper(game, upper) == reference.cis_upper(game, upper)
    assert cns_pairs(game) == reference.cns_pairs(game)
    for solver, ref, signs in ((cis_star_nonzero, reference.cis_star_nonzero, game.is_nonzero),
                               (cis_star_nonneg, reference.cis_star_nonneg, game.is_nonnegative)):
        if signs():
            assert solver(game, bounds, k) == ref(game, bounds, k)


class TestSolversMatchTheReferences:
    """The solvers against the reference copies in tests/solver_reference.py."""

    def test_small_tie_heavy_games(self, rng):
        for _ in range(400):
            n = rng.randint(1, 12)
            values = rng.choice(((-1, 1), (0, 2), (-3, 3)))
            lo = rng.randint(2, max(2, n))
            bounds, k = SizeBounds(lo, rng.randint(lo, max(lo, n))), rng.randint(0, n)
            upper = rng.randint(2, max(2, n))
            for signs in ({}, {"nonzero": True}, {"nonneg": True}):
                _same_answers(random_game(rng, n, *values, **signs), upper, bounds, k)


class TestSolversAtScale:
    """The solvers against the reference copies on games of 150 to 400 agents.

    Each game takes the bounds of the ``verify`` benchmark workload:
    ``cis_upper`` at upper bounds 3 and 4, ``cns_pairs``, and the k-coalition
    solvers at 2:5 (nonzero) and 3:6 (nonnegative) with k = n / ⌊(L+U)/2⌋.
    Valuations run over -4..4 as there, and over the tie-heavy -1..1 and 0..2.
    """

    def test_solvers_match_the_references(self):
        rng = random.Random(0x5CA1E5)
        for i in range(6):
            n = rng.randint(150, 400)
            values = ((-4, 4), (-1, 1), (0, 2))[i % 3]
            g = random_game(rng, n, *values)
            for upper in (3, 4):
                assert cis_upper(g, upper) == reference.cis_upper(g, upper)
            assert cns_pairs(g) == reference.cns_pairs(g)
            for solver, ref, bounds, signs in (
                (cis_star_nonzero, reference.cis_star_nonzero, SizeBounds(2, 5), "nonzero"),
                (cis_star_nonneg, reference.cis_star_nonneg, SizeBounds(3, 6), "nonneg"),
            ):
                g = random_game(rng, n, *values, **{signs: True})
                k = n // ((bounds.lower + bounds.upper) // 2)
                out = solver(g, bounds, k)
                assert out is not None and out == ref(g, bounds, k)
