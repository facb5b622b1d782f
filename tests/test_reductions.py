import random

import pytest

from sizedhedonic import (
    Concept,
    EnumerationBudget,
    InvalidCertificateError,
    MMMInstance,
    SizeBounds,
    X3CInstance,
    exists_stable,
    mmm_to_ns_is,
    verify,
    witness_partition,
    x3c_to_cns,
    x3c_to_ns_bounded,
)

FIG2 = X3CInstance(6, ((1, 2, 3), (2, 3, 4), (4, 5, 6)))
FIG4 = MMMInstance(4, 2, ((1, 5), (2, 5), (2, 6), (2, 7), (3, 7), (4, 7), (4, 8)))


def random_x3c(rng: random.Random, rho: int, extra_sets: int):
    """A solvable instance (shuffled set order) plus its exact-cover indices."""
    from math import comb

    ground = 3 * rho
    extra_sets = min(extra_sets, comb(ground, 3) - rho)
    elements = list(range(1, ground + 1))
    rng.shuffle(elements)
    sets = [tuple(sorted(elements[3 * i : 3 * i + 3])) for i in range(rho)]
    seen = set(sets)
    while len(sets) < rho + extra_sets:
        cand = tuple(sorted(rng.sample(range(1, ground + 1), 3)))
        if cand not in seen:
            seen.add(cand)
            sets.append(cand)
    order = list(range(len(sets)))
    rng.shuffle(order)
    cover = sorted(order.index(i) + 1 for i in range(rho))
    return X3CInstance(ground, tuple(sets[i] for i in order)), cover


class TestInstanceTypes:
    def test_x3c_validation(self):
        with pytest.raises(ValueError):
            X3CInstance(4, ())
        with pytest.raises(ValueError):
            X3CInstance(6, ((1, 2, 2),))
        with pytest.raises(ValueError):
            X3CInstance(6, ((1, 2, 9),))

    def test_mmm_validation(self):
        with pytest.raises(ValueError):
            MMMInstance(2, 3, ())
        with pytest.raises(ValueError):
            MMMInstance(2, 1, ((1, 2),))  # does not cross the bipartition
        with pytest.raises(ValueError):
            MMMInstance(2, 1, ((1, 3), (1, 3)))
        with pytest.raises(ValueError, match="^each side needs at least one vertex$"):
            MMMInstance(0, 1, ())


    def test_witness_of_an_unknown_construction_is_named(self):
        from dataclasses import replace

        reduced = replace(x3c_to_cns(FIG2, 3), construction="x3c_to_nothing")
        with pytest.raises(ValueError, match="^unknown construction 'x3c_to_nothing'$"):
            witness_partition(reduced, [1, 3])


class TestX3CToCns:
    def test_agent_counts(self):
        rg = x3c_to_cns(FIG2, 3)
        assert rg.game.n == 78
        assert rg.role_count("zeta[") == 6 + 9  # element gadgets plus set gadgets
        assert rg.role_count("a[") == 9
        assert rg.role_count("abar[") == 9

    def test_empty_instance(self):
        rg = x3c_to_cns(X3CInstance(0, ()), 3)
        assert rg.game.n == 0

    def test_value_alphabet_and_default(self):
        rg = x3c_to_cns(FIG2, 3)
        g = rg.game
        values = {g.value(a, b) for a in g.agents for b in g.agents if a != b}
        assert values == {-3, -1, 0, 1, 2}

    def test_each_agent_receives_at_most_one_positive_two(self):
        g = x3c_to_cns(FIG2, 3).game
        for b in g.agents:
            incoming = [g.value(a, b) for a in g.agents if a != b]
            assert incoming.count(2) <= 1
            assert max(incoming) <= 2

    def test_companion_edges(self):
        rg = x3c_to_cns(FIG2, 3)
        g = rg.game
        assert g.value(rg.agent("abar[1:2]"), rg.agent("a[1:2]")) == 2
        assert g.value(rg.agent("abar[1:2]"), rg.agent("a[1:3]")) == -1
        assert g.value(rg.agent("a[1:2]"), rg.agent("zeta[2]")) == 0
        assert g.value(rg.agent("alpha[4]"), rg.agent("zeta[4]")) == 1
        assert g.value(rg.agent("zeta[4]"), rg.agent("alpha[4]")) == -3

    def test_needs_room_for_triples(self):
        with pytest.raises(ValueError):
            x3c_to_cns(FIG2, 2)

    def test_witness_verifies(self):
        rg = x3c_to_cns(FIG2, 3)
        w = witness_partition(rg, [1, 3])
        assert verify(rg.game, w, SizeBounds(1, 3), Concept.CNS).stable

    def test_invalid_covers_rejected(self):
        rg = x3c_to_cns(FIG2, 3)
        for bad in ([1, 2], [1], [1, 1, 3], [1, 4]):
            with pytest.raises(InvalidCertificateError):
                witness_partition(rg, bad)


class TestMmmToNsIs:
    def test_agent_count(self):
        assert mmm_to_ns_is(FIG4, 2).game.n == 2 * 4 + 5 * (4 - 2)

    def test_no_gadgets_when_budget_is_full(self):
        rg = mmm_to_ns_is(MMMInstance(2, 2, ((1, 3),)), 2)
        assert rg.game.n == 4
        assert rg.role_count("x[") == 0

    def test_edges_are_symmetric_threes(self):
        g = mmm_to_ns_is(FIG4, 2).game
        for a, b in FIG4.edges:
            assert g.value(a, b) == 3 and g.value(b, a) == 3

    def test_gadget_cycle_weights_and_default(self):
        rg = mmm_to_ns_is(FIG4, 2)
        g = rg.game
        assert g.value(rg.agent("x[1:1]"), rg.agent("x[1:2]")) == 2
        assert g.value(rg.agent("x[1:2]"), rg.agent("x[1:1]")) == 1
        assert g.value(rg.agent("x[1:5]"), rg.agent("x[1:1]")) == 2
        assert g.value(rg.agent("x[1:1]"), rg.agent("x[2:1]")) == -6 * 4
        assert g.value(1, rg.agent("x[2:1]")) == 2

    def test_witness_verifies_for_ns_and_is(self):
        rg = mmm_to_ns_is(FIG4, 2)
        w = witness_partition(rg, [(2, 5), (4, 7)])
        assert verify(rg.game, w, SizeBounds(1, 2), Concept.NS).stable
        assert verify(rg.game, w, SizeBounds(1, 2), Concept.IS).stable

    def test_short_matchings_leave_singletons(self):
        # k = n means no gadgets; the matching {(1,3)} is maximal since the
        # only other edge also touches vertex 1, and agents 2 and 4 stay alone
        rg = mmm_to_ns_is(MMMInstance(2, 2, ((1, 3), (1, 4))), 2)
        w = witness_partition(rg, [(1, 3)])
        assert w.coalitions == ((1, 3), (2,), (4,))
        assert verify(rg.game, w, SizeBounds(1, 2), Concept.NS).stable

    def test_invalid_matchings_rejected(self):
        rg = mmm_to_ns_is(FIG4, 2)
        with pytest.raises(InvalidCertificateError):
            witness_partition(rg, [(1, 5), (2, 5)])  # shares vertex 5
        with pytest.raises(InvalidCertificateError):
            witness_partition(rg, [(1, 6)])  # not an edge
        with pytest.raises(InvalidCertificateError):
            witness_partition(rg, [(1, 5)])  # not maximal: (3,7) is free
        with pytest.raises(InvalidCertificateError):
            witness_partition(
                mmm_to_ns_is(MMMInstance(4, 1, FIG4.edges), 2), [(2, 5), (4, 7)]
            )  # exceeds budget


class TestX3CToNsBounded:
    def test_reference_size(self):
        rg = x3c_to_ns_bounded(FIG2, SizeBounds(2, 4))
        assert rg.game.n == 21
        assert rg.game.n % 4 != 0

    def test_size_formula_and_indivisibility(self, rng):
        for _ in range(20):
            rho = rng.randint(1, 3)
            inst, _cover = random_x3c(rng, rho, rng.randint(0, 2))
            lo = rng.randint(2, 4)
            hi = rng.randint(max(4, lo + 1), lo + 4)
            b = SizeBounds(lo, hi)
            rg = x3c_to_ns_bounded(inst, b)
            dummies = rg.role_count("d[")
            ceil_term = -(-(lo - 1) // (hi - lo))
            assert dummies == ceil_term * hi + hi
            assert rg.game.n == (ceil_term + len(inst.sets) + 1) * hi + 1
            assert rg.game.n % hi != 0

    def test_unlisted_pairs_default_to_zero(self):
        rg = x3c_to_ns_bounded(FIG2, SizeBounds(2, 4))
        g = rg.game
        betas = [a for a, l in rg.roles.items() if l.startswith("beta[")]
        dummies = [a for a, l in rg.roles.items() if l.startswith("d[")]
        xi_of_set_1 = [rg.agent(f"xi[1:{i}]") for i in (1,)]
        assert all(g.value(a, b) == 0 for a in betas for b in betas if a != b)
        assert all(g.value(a, b) == 0 for a in dummies for b in dummies if a != b)
        assert all(g.value(b, d) == 0 for b in betas for d in dummies)
        # beta agents of covered elements are indifferent to their set's crew
        assert g.value(rg.agent("beta[1]"), xi_of_set_1[0]) == 0
        assert g.value(xi_of_set_1[0], rg.agent("beta[1]")) == 0

    def test_chaser_values_every_core_agent(self):
        rg = x3c_to_ns_bounded(FIG2, SizeBounds(2, 4))
        g = rg.game
        chaser = rg.agent("alpha")
        for agent, label in rg.roles.items():
            if label[0] in ("b", "x", "t"):  # beta, xi, t prefixes
                assert g.value(chaser, agent) == 1
                assert g.value(agent, chaser) == -4
            elif label.startswith("d["):
                assert g.value(agent, chaser) == 4
                assert g.value(chaser, agent) == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            x3c_to_ns_bounded(FIG2, SizeBounds(2, 3))  # upper below 4
        with pytest.raises(ValueError):
            x3c_to_ns_bounded(FIG2, SizeBounds(4, 4))  # lower not below upper
        with pytest.raises(ValueError):
            x3c_to_ns_bounded(X3CInstance(6, ((1, 2, 3),)), SizeBounds(2, 4))

    def test_witness_verifies(self):
        rg = x3c_to_ns_bounded(FIG2, SizeBounds(2, 4))
        w = witness_partition(rg, [1, 3])
        assert verify(rg.game, w, SizeBounds(2, 4), Concept.NS).stable


class TestForwardSoundnessRandomized:
    def test_x3c_to_cns_random_instances(self, rng):
        for _ in range(5):
            inst, cover = random_x3c(rng, rng.randint(1, 3), rng.randint(0, 2))
            rg = x3c_to_cns(inst, 3)
            w = witness_partition(rg, cover)
            assert verify(rg.game, w, SizeBounds(1, 3), Concept.CNS).stable

    def test_x3c_to_ns_bounded_random_instances(self, rng):
        for _ in range(5):
            inst, cover = random_x3c(rng, rng.randint(1, 2), rng.randint(0, 2))
            lo, hi = rng.randint(2, 3), rng.randint(4, 6)
            rg = x3c_to_ns_bounded(inst, SizeBounds(lo, hi))
            w = witness_partition(rg, cover)
            assert verify(rg.game, w, SizeBounds(lo, hi), Concept.NS).stable


class TestTinyScaleEquivalence:
    budget = EnumerationBudget(max_agents=32, max_partitions=20_000_000)

    def test_x3c_yes_and_no(self):
        yes = x3c_to_cns(X3CInstance(3, ((1, 2, 3),)), 3)
        assert exists_stable(yes.game, SizeBounds(1, 3), Concept.CNS, self.budget)
        no = x3c_to_cns(X3CInstance(3, ()), 3)
        assert exists_stable(no.game, SizeBounds(1, 3), Concept.CNS, self.budget) is None

    def test_mmm_yes_and_no(self):
        yes = mmm_to_ns_is(MMMInstance(2, 1, ((1, 3), (1, 4))), 2)
        no = mmm_to_ns_is(MMMInstance(2, 1, ((1, 3), (2, 4))), 2)
        b = SizeBounds(1, 2)
        for concept in (Concept.NS, Concept.IS):
            assert exists_stable(yes.game, b, concept, self.budget) is not None
            assert exists_stable(no.game, b, concept, self.budget) is None


PINNED_X3C = X3CInstance(6, ((1, 2, 3), (2, 3, 4), (4, 5, 6), (1, 5, 6)))
PINNED_MMM = MMMInstance(3, 2, ((1, 4), (2, 4), (3, 5), (3, 6)))


@pytest.mark.parametrize(
    "build, agents, digest",
    [
        (lambda: x3c_to_cns(PINNED_X3C, 3), 96,
         "0003d6dc441299396bed996e5dd45b2ba263e30d5e4c80508d9a14992203bf28"),
        (lambda: x3c_to_cns(PINNED_X3C, 4), 96,
         "0003d6dc441299396bed996e5dd45b2ba263e30d5e4c80508d9a14992203bf28"),
        (lambda: mmm_to_ns_is(PINNED_MMM, 2), 11,
         "8362dce230968c6291151016beb5d04c87d448789d56976ea2c6c9ef896d3f5d"),
        (lambda: mmm_to_ns_is(PINNED_MMM, 3), 11,
         "8362dce230968c6291151016beb5d04c87d448789d56976ea2c6c9ef896d3f5d"),
        (lambda: x3c_to_ns_bounded(PINNED_X3C, SizeBounds(2, 4)), 25,
         "9e6eab69fb20675f664e311eb6e98c5c5a20882738e4da120b3ae9b2b3fee1ba"),
        (lambda: x3c_to_ns_bounded(PINNED_X3C, SizeBounds(3, 5)), 31,
         "37d522fc62d7fb86e5e1c8ced64388cc7bdcbfb76e0677d9d47ad590eee84cd7"),
    ],
)
def test_reduced_games_and_roles_are_pinned(build, agents, digest):
    """Agent ids, role labels and valuations stay byte-identical."""
    import hashlib

    from sizedhedonic.textio import serialize_game

    reduced = build()
    assert reduced.game.n == agents
    text = serialize_game(reduced.game) + "".join(
        f"{a} {label}\n" for a, label in sorted(reduced.roles.items())
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest
