import random

import pytest

from sizedhedonic import (
    ALL_CONCEPTS,
    IMPLICATIONS,
    Concept,
    Deviation,
    InfeasiblePartitionError,
    Partition,
    SizeBounds,
    apply_deviation,
    blocking_check,
    candidate_deviations,
    intro_negative,
    intro_positive,
    aziz_failure,
    feasible_partition_exists,
    social_welfare,
    utility,
    verify,
)
from sizedhedonic.stability import FEASIBLE, PERMISSIBLE

from conftest import random_feasible_bounds, random_feasible_partition, random_game


def test_concept_roster():
    assert len(ALL_CONCEPTS) == 8
    assert Concept.parse("ns").base == "ns" and not Concept.parse("ns").feasible_variant
    assert Concept.parse("CIS*").feasible_variant
    assert str(Concept.CNS_STAR) == "CNS*"
    with pytest.raises(ValueError):
        Concept.parse("core")


class TestCandidateDeviations:
    def test_all_pairs_with_lower_two_have_no_feasible_moves(self):
        g = intro_positive(3)
        p = Partition([[1, 2], [3, 4], [5, 6]])
        assert candidate_deviations(g, p, SizeBounds(2, 3), FEASIBLE) == []

    def test_lower_one_modes_coincide(self, rng):
        for _ in range(50):
            n = rng.randint(1, 7)
            g = random_game(rng, n)
            b = SizeBounds(1, rng.randint(1, n))
            p = random_feasible_partition(rng, n, b)
            assert candidate_deviations(g, p, b, PERMISSIBLE) == candidate_deviations(
                g, p, b, FEASIBLE
            )

    def test_mixed_sizes(self):
        g5 = random_game_fixed()  # sizes drive the list, valuations are irrelevant
        p = Partition([[1, 2, 3], [4, 5]])
        devs = candidate_deviations(g5, p, SizeBounds(2, 3), FEASIBLE)
        assert devs == [Deviation(1, 1), Deviation(2, 1), Deviation(3, 1)]

    def test_new_target_only_when_lower_is_one(self):
        g5 = random_game_fixed()
        p = Partition([[1, 2, 3], [4, 5]])
        devs = candidate_deviations(g5, p, SizeBounds(1, 3), PERMISSIBLE)
        assert Deviation(1, None) in devs
        assert Deviation(4, 0) not in devs  # the triple is full at upper bound 3
        wide = candidate_deviations(g5, p, SizeBounds(1, 4), PERMISSIBLE)
        assert Deviation(4, 0) in wide
        # agents already alone cannot "form" a new singleton
        q = Partition([[1], [2], [3], [4], [5]])
        assert all(
            d.target is not None
            for d in candidate_deviations(g5, q, SizeBounds(1, 2), PERMISSIBLE)
        )

    def test_scan_order(self):
        g5 = random_game_fixed()
        p = Partition([[1, 4], [2, 5], [3]])
        devs = candidate_deviations(g5, p, SizeBounds(1, 3), PERMISSIBLE)
        expected = [
            Deviation(1, 1), Deviation(1, 2), Deviation(1, None),
            Deviation(2, 0), Deviation(2, 2), Deviation(2, None),
            Deviation(3, 0), Deviation(3, 1),
            Deviation(4, 1), Deviation(4, 2), Deviation(4, None),
            Deviation(5, 0), Deviation(5, 2), Deviation(5, None),
        ]
        assert devs == expected


def random_game_fixed():
    import random

    return random_game(random.Random(7), 5)


class TestBlockingCheck:
    def test_intro_game_cis_moves(self):
        g = intro_positive(3)
        p = Partition([[1, 2], [3, 4], [5, 6]])
        b = SizeBounds(2, 3)
        for d in candidate_deviations(g, p, b, PERMISSIBLE):
            assert blocking_check(g, p, d, Concept.CIS)

    def test_reference_game_witness(self):
        g = aziz_failure()
        p = Partition([[1, 3], [2, 4]])
        assert blocking_check(g, p, Deviation(3, 1), Concept.CIS)

    def test_no_gain_never_blocks(self, rng):
        for _ in range(100):
            n = rng.randint(2, 7)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            p = random_feasible_partition(rng, n, b)
            for d in candidate_deviations(g, p, b, PERMISSIBLE):
                before = utility(g, d.agent, p.coalition_of(d.agent))
                after = (
                    0
                    if d.target is None
                    else sum(g.value(d.agent, x) for x in p.coalitions[d.target])
                )
                if after <= before:
                    for concept in ALL_CONCEPTS:
                        assert not blocking_check(g, p, d, concept)

    def test_matches_recomputed_utilities(self, rng):
        # independent oracle: perform the move and compare every affected
        # agent's utility before and after, straight from the definition
        def brute(g, p, d, concept):
            moved = apply_deviation(p, d)
            before = {a: utility(g, a, p.coalition_of(a)) for a in g.agents}
            after = {a: utility(g, a, moved.coalition_of(a)) for a in g.agents}
            if after[d.agent] <= before[d.agent]:
                return False
            welcomed = () if d.target is None else p.coalitions[d.target]
            if concept.joined_consent and any(after[b] < before[b] for b in welcomed):
                return False
            abandoned = [b for b in p.coalition_of(d.agent) if b != d.agent]
            if concept.abandoned_consent and any(after[b] < before[b] for b in abandoned):
                return False
            return True

        for _ in range(60):
            n = rng.randint(2, 7)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            p = random_feasible_partition(rng, n, b)
            for d in candidate_deviations(g, p, b, PERMISSIBLE):
                for concept in ALL_CONCEPTS:
                    assert blocking_check(g, p, d, concept) == brute(g, p, d, concept)

    def test_zero_valuation_never_vetoes(self):
        # mover gains, abandoned partner is indifferent, welcomed pair indifferent
        from sizedhedonic.model import Game

        g = Game(4, {(1, 3): 1})
        p = Partition([[1, 2], [3, 4]])
        d = Deviation(1, 1)
        for concept in ALL_CONCEPTS:
            assert blocking_check(g, p, d, concept)


class TestVerify:
    def test_example_matrix(self):
        b = SizeBounds(2, 3)
        pos, neg = intro_positive(3), intro_negative(3)
        p = Partition([[1, 2], [3, 4], [5, 6]])
        assert verify(pos, p, b, Concept.NS_STAR).stable
        report = verify(pos, p, b, Concept.CIS)
        assert not report.stable
        assert report.witness == Deviation(1, 1)
        assert report.witness.describe(p) == "agent 1 -> {3, 4}"
        assert Deviation(1, None).describe(p) == "agent 1 -> new singleton"
        assert verify(neg, p, b, Concept.NS).stable

    def test_rejects_out_of_bounds_partition(self):
        g = intro_positive(3)
        with pytest.raises(InfeasiblePartitionError):
            verify(g, Partition([[1, 2, 3, 4], [5, 6]]), SizeBounds(2, 3), Concept.NS)

    def test_rejects_wrong_agent_count(self):
        g = intro_positive(2)
        with pytest.raises(ValueError):
            verify(g, Partition([[1, 2]]), SizeBounds(1, 2), Concept.NS)

    def test_deterministic_and_witness_is_valid(self, rng):
        for _ in range(30):
            n = rng.randint(2, 7)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            p = random_feasible_partition(rng, n, b)
            for concept in ALL_CONCEPTS:
                first = verify(g, p, b, concept)
                second = verify(g, p, b, concept)
                assert first == second
                if not first.stable:
                    assert first.witness in candidate_deviations(g, p, b, concept.mode)
                    assert blocking_check(g, p, first.witness, concept)

    def test_implication_lattice_sample(self, rng):
        for _ in range(300):
            n = rng.randint(1, 8)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            p = random_feasible_partition(rng, n, b)
            verdict = {c: verify(g, p, b, c).stable for c in ALL_CONCEPTS}
            for stronger, weaker in IMPLICATIONS:
                assert not (verdict[stronger] and not verdict[weaker])

    def test_is_implies_individual_rationality_when_lower_is_one(self, rng):
        hits = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            g = random_game(rng, n)
            b = SizeBounds(1, rng.randint(1, n))
            p = random_feasible_partition(rng, n, b)
            if verify(g, p, b, Concept.IS).stable:
                hits += 1
                for a in g.agents:
                    assert utility(g, a, p.coalition_of(a)) >= 0
        assert hits  # the property must actually fire

    def test_symmetric_feasible_ns_moves_shift_welfare_by_twice_gain(self, rng):
        for _ in range(100):
            n = rng.randint(2, 7)
            g = random_game(rng, n, symmetric=True)
            b = random_feasible_bounds(rng, n)
            p = random_feasible_partition(rng, n, b)
            base = social_welfare(g, p)
            for d in candidate_deviations(g, p, b, FEASIBLE):
                before = utility(g, d.agent, p.coalition_of(d.agent))
                after = (
                    0
                    if d.target is None
                    else sum(g.value(d.agent, x) for x in p.coalitions[d.target])
                )
                moved = apply_deviation(p, d)
                assert social_welfare(g, moved) - base == 2 * (after - before)


class TestAdmissibilityIsDefinitional:
    """Cross-check the generated lists against the raw definitions.

    A move is permissible iff the mover's new coalition ends within bounds,
    and feasible iff the whole moved partition respects the bounds.
    """

    def test_against_exhaustive_move_universe(self, rng):
        from sizedhedonic import is_feasible_partition

        for _ in range(80):
            n = rng.randint(2, 7)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            p = random_feasible_partition(rng, n, b)
            permissible = set(candidate_deviations(g, p, b, PERMISSIBLE))
            feasible = set(candidate_deviations(g, p, b, FEASIBLE))
            assert feasible <= permissible
            for agent in range(1, n + 1):
                targets = [i for i in range(len(p.coalitions)) if i != p.index_of(agent)]
                if len(p.coalition_of(agent)) > 1:
                    targets.append(None)
                for target in targets:
                    d = Deviation(agent, target)
                    moved = apply_deviation(p, d)
                    new_home = moved.coalition_of(agent)
                    assert (d in permissible) == b.contains(len(new_home))
                    assert (d in feasible) == is_feasible_partition(moved, b)


def test_apply_deviation_moves_and_cleans_up():
    p = Partition([[1, 2], [3]])
    assert apply_deviation(p, Deviation(3, 0)) == Partition([[1, 2, 3]])
    assert apply_deviation(p, Deviation(1, None)) == Partition([[1], [2], [3]])
    assert apply_deviation(p, Deviation(2, 1)) == Partition([[1], [2, 3]])
    with pytest.raises(ValueError):
        apply_deviation(p, Deviation(1, 0))


@pytest.mark.parametrize("agent", [0, 9, -1])
def test_apply_deviation_rejects_agents_outside_the_partition(agent):
    p = Partition([[1, 2], [3]])
    for target in (0, None):
        with pytest.raises(ValueError, match=f"^deviation agent {agent} is not in the partition$"):
            apply_deviation(p, Deviation(agent, target))


@pytest.mark.parametrize("target", [-1, 3, 7])
def test_apply_deviation_rejects_targets_that_are_no_coalition(target):
    p = Partition([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError, match="not a coalition index"):
        apply_deviation(p, Deviation(1, target))
    assert apply_deviation(p, Deviation(1, 2)) == Partition([[1, 5, 6], [2], [3, 4]])


class TestVerifyMatchesDefinitionalOracle:
    """``verify`` and ``dynamics_steps`` against the definitions alone.

    The oracle lists every single-agent move, performs it with
    ``apply_deviation``, decides admissibility from coalition sizes, and
    takes every utility as a sum of ``Game.value`` pairs.  It never reads
    ``Game.row``, ``prefs.utility`` or ``candidate_deviations``.
    """

    @staticmethod
    def oracle_utility(game, agent, coalition):
        return sum(game.value(agent, b) for b in coalition if b != agent)

    @classmethod
    def oracle_verify(cls, game, partition, bounds, concept):
        """(stable, witness, checked) straight from the definitions."""
        checked = 0
        for agent in game.agents:
            source = partition.index_of(agent)
            targets = [i for i in range(len(partition.coalitions)) if i != source]
            if len(partition.coalitions[source]) > 1:
                targets.append(None)
            for target in targets:
                move = Deviation(agent, target)
                moved = apply_deviation(partition, move)
                if concept.feasible_variant:
                    admissible = all(bounds.contains(len(c)) for c in moved.coalitions)
                else:
                    admissible = bounds.contains(len(moved.coalition_of(agent)))
                if not admissible:
                    continue
                checked += 1
                gain = {
                    b: cls.oracle_utility(game, b, moved.coalition_of(b))
                    - cls.oracle_utility(game, b, partition.coalition_of(b))
                    for b in game.agents
                }
                if gain[agent] <= 0:
                    continue
                joined = () if target is None else partition.coalitions[target]
                abandoned = [b for b in partition.coalitions[source] if b != agent]
                if concept.joined_consent and any(gain[b] < 0 for b in joined):
                    continue
                if concept.abandoned_consent and any(gain[b] < 0 for b in abandoned):
                    continue
                return False, move, checked
        return True, None, checked

    @staticmethod
    def corpus(rng):
        """Seeded games with n <= 7 and values -2..2, a third of them zero-heavy."""
        from sizedhedonic.model import Game

        cases = []
        for i in range(150):
            n = rng.randint(1, 7)
            if i % 3 == 2:
                choices = (-2, -1, 0, 0, 0, 0, 0, 1, 2)
                vals = {
                    (a, b): rng.choice(choices)
                    for a in range(1, n + 1)
                    for b in range(1, n + 1)
                    if a != b
                }
                g = Game(n, vals)
            else:
                g = random_game(rng, n, low=-2, high=2, symmetric=i % 3 == 1)
            b = random_feasible_bounds(rng, n)
            cases.append((g, b, random_feasible_partition(rng, n, b)))
        return cases

    def test_verify_matches_oracle(self, rng):
        stable = unstable = 0
        for g, b, p in self.corpus(rng):
            for concept in ALL_CONCEPTS:
                report = verify(g, p, b, concept)
                expected = self.oracle_verify(g, p, b, concept)
                assert (report.stable, report.witness, report.checked_deviations) == expected
                stable += report.stable
                unstable += not report.stable
        assert stable > 100 and unstable > 100  # both verdicts are exercised

    def test_dynamics_gain_is_oracle_utility_change(self, rng):
        from sizedhedonic import DynamicsCycleError, dynamics_steps

        steps = 0
        for g, b, p in self.corpus(rng):
            if g.has_symmetric_table():
                continue
            before = p
            try:
                for deviation, gain, after in dynamics_steps(g, b, p):
                    agent = deviation.agent
                    assert gain == self.oracle_utility(
                        g, agent, after.coalition_of(agent)
                    ) - self.oracle_utility(g, agent, before.coalition_of(agent))
                    before = after
                    steps += 1
            except DynamicsCycleError:
                pass
        assert steps > 50


class TestLazyScan:
    """``verify`` builds deviations only up to its witness, in the list's order."""

    @staticmethod
    def count_builds(monkeypatch):
        from sizedhedonic import stability

        built = [0]

        def counting(*args):
            built[0] += 1
            return Deviation(*args)

        monkeypatch.setattr(stability, "Deviation", counting)
        return built

    @staticmethod
    def unvetoed(game, partition, moves):
        """The moves whose mover no other member of its source values positively.

        Under abandoned consent ``verify`` builds only these: the veto of a
        mover's source coalition holds against every target alike.
        """
        return [
            d
            for d in moves
            if not any(
                game.value(b, d.agent) > 0
                for b in partition.coalition_of(d.agent)
                if b != d.agent
            )
        ]

    def test_builds_stop_at_the_witness(self, monkeypatch):
        rng = random.Random(400)
        g = random_game(rng, 400)
        b = SizeBounds(2, 5)
        p = random_feasible_partition(rng, 400, b)
        lists = {mode: candidate_deviations(g, p, b, mode) for mode in (PERMISSIBLE, FEASIBLE)}
        built = self.count_builds(monkeypatch)
        for concept in ALL_CONCEPTS:
            built[0] = 0
            report = verify(g, p, b, concept)
            devs = lists[concept.mode]
            assert not report.stable
            assert report.checked_deviations < len(devs)
            if concept.abandoned_consent:
                upto = devs[: report.checked_deviations]
                assert built[0] == len(self.unvetoed(g, p, upto))
            else:
                assert built[0] == report.checked_deviations

    def test_a_stable_partition_builds_the_whole_list(self, monkeypatch):
        from sizedhedonic import cis_star_nonzero

        g = random_game(random.Random(401), 400, nonzero=True)
        b = SizeBounds(2, 5)
        p = cis_star_nonzero(g, b, 100)
        devs = candidate_deviations(g, p, b, FEASIBLE)
        built = self.count_builds(monkeypatch)
        report = verify(g, p, b, Concept.CIS_STAR)
        assert report.stable and len(devs) > 1000
        assert built[0] < report.checked_deviations == len(devs)
        assert built[0] == len(self.unvetoed(g, p, devs))

    def test_verify_walks_candidate_deviations_in_order(self, rng):
        stable = unstable = 0
        for g, b, p in TestVerifyMatchesDefinitionalOracle.corpus(rng):
            for concept in ALL_CONCEPTS:
                report = verify(g, p, b, concept)
                devs = candidate_deviations(g, p, b, concept.mode)
                if report.stable:
                    assert report.checked_deviations == len(devs)
                    stable += 1
                else:
                    assert report.witness == devs[report.checked_deviations - 1]
                    unstable += 1
        assert stable > 100 and unstable > 100

    def test_unknown_mode_raises_at_the_call(self):
        g = random_game_fixed()
        p = Partition([[1, 2, 3], [4, 5]])
        with pytest.raises(ValueError, match="unknown deviation mode"):
            candidate_deviations(g, p, SizeBounds(1, 3), "nash")


class TestVerifyAtScale:
    """``verify`` against an eager reference on games of 60 to 240 agents.

    The reference lists ``candidate_deviations`` in full and takes the first
    move ``blocking_check`` accepts, with its 1-based position.  The corpus
    mixes random partitions with the solvers' outputs, whose stable verdicts
    make both routes scan to the end.
    """

    KINDS = ("signed", "nonzero", "nonneg", "zero-heavy")

    @staticmethod
    def reference(game, partition, bounds, concept):
        devs = candidate_deviations(game, partition, bounds, concept.mode)
        for position, move in enumerate(devs, 1):
            if blocking_check(game, partition, move, concept):
                return False, move, position
        return True, None, len(devs)

    @staticmethod
    def game(rng, n, kind):
        from sizedhedonic.model import Game

        if kind == "zero-heavy":
            choices = (-2, -1, 0, 0, 0, 0, 0, 1, 2)
            agents = range(1, n + 1)
            return Game(n, {(a, b): rng.choice(choices) for a in agents for b in agents if a != b})
        return random_game(rng, n, nonzero=kind == "nonzero", nonneg=kind == "nonneg")

    @classmethod
    def corpus(cls, rng):
        from sizedhedonic import (
            cis_star_nonneg,
            cis_star_nonzero,
            cis_upper,
            cns_pairs,
            feasible_partition_exists,
        )

        cases = []
        for i in range(8):
            kind = cls.KINDS[i % 4]
            n = rng.randint(60, 240)
            g = cls.game(rng, n, kind)
            upper = rng.randint(3, 6)
            for b in (SizeBounds(1, upper), SizeBounds(2, upper), SizeBounds(upper - 1, upper)):
                if feasible_partition_exists(n, b):
                    cases.append(("random", g, b, random_feasible_partition(rng, n, b)))
            cases.append(("cis_upper", g, SizeBounds(1, upper), cis_upper(g, upper)[0]))
            cases.append(("cns_pairs", g, SizeBounds(1, 2), cns_pairs(g)))
            solver = {"nonzero": cis_star_nonzero, "nonneg": cis_star_nonneg}.get(kind)
            if solver is not None:
                b = SizeBounds(2, upper)
                p = solver(g, b, -(-n // upper))
                assert p is not None
                cases.append((solver.__name__, g, b, p))
        return cases

    def test_verify_matches_the_eager_reference(self):
        rng = random.Random(0x5CA1E)
        verdicts = set()
        stranded = full_source = held_back = 0
        for label, g, b, p in self.corpus(rng):
            sizes = p.sizes()
            stranded += b.lower >= 2 and b.lower in sizes
            full_source += b.upper in sizes
            held_back += any(
                g.value(x, a) > 0 for a in g.agents for x in p.coalition_of(a) if x != a
            )
            for concept in ALL_CONCEPTS:
                report = verify(g, p, b, concept)
                expected = self.reference(g, p, b, concept)
                assert (report.stable, report.witness, report.checked_deviations) == expected, (
                    label, g.n, b, concept,
                )
                verdicts.add((label, concept.abandoned_consent, report.stable))
        for label in ("random", "cis_upper", "cns_pairs", "cis_star_nonzero", "cis_star_nonneg"):
            assert (label, True, True) in verdicts  # a contractual full scan
        assert ("random", True, False) in verdicts and ("random", False, False) in verdicts
        assert stranded and full_source and held_back


class TestCoalitionRules:
    """The coalition-level form of the rules, which the exact search uses,
    agrees with the move-level form on every ordered pair of coalitions."""

    @staticmethod
    def corpus(rng):
        cases = []
        while len(cases) < 160:
            if len(cases) % 2:
                n = rng.randint(2, 8)
                b = SizeBounds(1, rng.randint(2, n))
            else:
                # a lower bound of 2 or 3, with room for several coalitions
                lower = rng.randint(2, 3)
                n = rng.randint(2 * lower, 8)
                b = SizeBounds(lower, rng.randint(lower, lower + 2))
                if not feasible_partition_exists(n, b):
                    continue
            g = random_game(rng, n, *rng.choice([(-3, 3), (-1, 1), (0, 2), (-2, 1)]))
            cases.append((g, b, random_feasible_partition(rng, n, b)))
        return cases

    def test_pair_and_break_away_tests_match_blocking_check(self):
        from sizedhedonic.stability import _coalition_rules

        rng = random.Random(0x2013)
        seen = set()
        for g, b, p in self.corpus(rng):
            for concept in ALL_CONCEPTS:
                movers, blocks_into, breaks_away, _, _ = _coalition_rules(g, b, concept)
                admissible = set(candidate_deviations(g, p, b, concept.mode))

                def blocks(d):
                    return d in admissible and blocking_check(g, p, d, concept)

                for s, source in enumerate(p.coalitions):
                    record = movers(source)
                    expected = any(blocks(Deviation(a, None)) for a in source)
                    assert breaks_away(record, source) == expected, (g, b, p, concept, source)
                    seen.add(("singleton", expected))
                    for t, target in enumerate(p.coalitions):
                        if t == s:
                            continue
                        expected = any(blocks(Deviation(a, t)) for a in source)
                        assert blocks_into(record, target) == expected, (g, b, p, concept, s, t)
                        seen.add((str(concept), b.lower == 1, expected))
        assert {("singleton", True), ("singleton", False)} <= seen
        assert {(str(c), low, x) for c in ALL_CONCEPTS for low in (True, False) for x in (True, False)} <= seen

    def test_veto_indexes_match_the_veto_predicates(self, rng):
        from sizedhedonic.stability import _abandoned_veto, _coalition_rules, _joined_veto

        for g, b, _ in self.corpus(rng)[:40]:
            for concept in ALL_CONCEPTS:
                *_, abandoned, joined = _coalition_rules(g, b, concept)
                for a in g.agents:
                    assert abandoned[a] == {
                        x for x in g.agents
                        if concept.abandoned_consent and _abandoned_veto(g, a, (x,))
                    }
                    assert joined[a] == {
                        x for x in g.agents if concept.joined_consent and _joined_veto(g, a, (x,))
                    }
