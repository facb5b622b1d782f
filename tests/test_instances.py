import pytest

from sizedhedonic import (
    FAMILIES,
    Concept,
    Partition,
    SizeBounds,
    aziz_failure,
    cycle_no_is_star,
    exists_stable,
    intro_negative,
    intro_positive,
    make_instance,
    pairs_triangle_no_cns_star,
    star_no_cis,
    verify,
)


def test_intro_positive_table():
    g = intro_positive(3)
    assert g.n == 6 and g.symmetric
    for i in range(1, 4):
        assert g.value(2 * i - 1, 2 * i) == -1
    assert g.value(1, 3) == 1 and g.value(2, 5) == 1 and g.value(4, 6) == 1


def test_intro_negative_table():
    g = intro_negative(2)
    assert g.symmetric
    assert all(g.value(a, b) == -1 for a in g.agents for b in g.agents if a != b)


def test_star_table():
    g = star_no_cis(2)
    assert g.n == 4 and g.symmetric
    center = 4
    for leaf in (1, 2, 3):
        assert g.value(center, leaf) == 1 and g.value(leaf, center) == 1
    assert g.value(1, 2) == g.value(2, 3) == 0


def test_cycle_table():
    g = cycle_no_is_star(5)
    for i in range(1, 6):
        succ = i % 5 + 1
        assert g.value(i, succ) == 1
        assert g.value(succ, i) == 0
    assert not g.symmetric


def test_pairs_triangle_table():
    g = pairs_triangle_no_cns_star(3)
    assert g.n == 7
    assert g.value(1, 3) == -1 and g.value(3, 1) == -1  # pair (a_1, b_1)
    assert g.value(2, 4) == -1 and g.value(4, 2) == -1
    assert g.value(5, 6) == -1 and g.value(6, 7) == -1 and g.value(7, 5) == -1
    assert g.value(6, 5) == 0 and g.value(5, 7) == 0


def test_reference_failure_table():
    g = aziz_failure()
    assert g.value(1, 2) == -1 and g.value(1, 4) == -1
    assert g.value(3, 1) == 3 and g.value(3, 2) == 2 and g.value(3, 4) == 2
    assert g.value(4, 2) == 1
    assert g.value(2, 1) == g.value(2, 3) == g.value(4, 1) == 0


def test_parameter_validation():
    for family, bad in [
        ("intro_positive", {"k": 0}),
        ("star_no_cis", {"lower": 1}),
        ("pairs_triangle_no_cns_star", {"lower": 1}),
        ("cycle_no_is_star", {"n": 0}),
    ]:
        with pytest.raises(ValueError):
            make_instance(family, **bad)
    with pytest.raises(ValueError, match="^need at least one pair$"):
        intro_negative(0)
    with pytest.raises(ValueError):
        make_instance("nonsense")
    with pytest.raises(ValueError):
        make_instance("aziz_failure", k=3)


def test_dispatch_matches_direct_constructors():
    assert make_instance("intro_positive", k=2) == intro_positive(2)
    assert make_instance("star_no_cis", lower=3) == star_no_cis(3)
    assert make_instance("aziz_failure") == aziz_failure()


class TestAdvertisedStabilityFacts:
    def test_star_has_no_cis_but_a_cis_star(self):
        b = SizeBounds(2, 3)
        assert exists_stable(star_no_cis(2), b, Concept.CIS) is None
        assert exists_stable(star_no_cis(2), b, Concept.CIS_STAR) is not None
        from sizedhedonic import EnumerationBudget

        big = EnumerationBudget(max_agents=14)
        assert exists_stable(star_no_cis(3), SizeBounds(3, 4), Concept.CIS, big) is None
        assert exists_stable(star_no_cis(3), SizeBounds(3, 4), Concept.CIS_STAR, big)

    def test_cycles_track_divisibility(self):
        b = SizeBounds(2, 3)
        assert exists_stable(cycle_no_is_star(7), b, Concept.IS_STAR) is None
        assert exists_stable(cycle_no_is_star(5), b, Concept.IS_STAR) is None
        # control: when the bounds divide the cycle length, IS* comes back
        assert exists_stable(cycle_no_is_star(6), b, Concept.IS_STAR) is not None
        assert exists_stable(cycle_no_is_star(7), SizeBounds(3, 4), Concept.IS_STAR) is None

    def test_pairs_triangle_has_no_cns_star(self):
        g = pairs_triangle_no_cns_star(2)
        assert g.n == 5
        assert exists_stable(g, SizeBounds(2, 3), Concept.CNS_STAR) is None
        assert exists_stable(
            pairs_triangle_no_cns_star(3), SizeBounds(3, 4), Concept.CNS_STAR
        ) is None

    @pytest.mark.parametrize(
        "game, bounds, concept",
        [
            (star_no_cis(2), SizeBounds(2, 4), Concept.CIS),
            (pairs_triangle_no_cns_star(2), SizeBounds(2, 5), Concept.CNS_STAR),
            (cycle_no_is_star(5), SizeBounds(2, 6), Concept.IS_STAR),
        ],
    )
    def test_grand_coalition_is_stable_once_upper_reaches_agent_count(
        self, game, bounds, concept
    ):
        grand = Partition([list(game.agents)])
        assert exists_stable(game, bounds, concept) == grand

    def test_intro_partition_matrix(self):
        b = SizeBounds(2, 4)
        pi = Partition([[1, 2], [3, 4], [5, 6]])
        assert verify(intro_positive(3), pi, b, Concept.NS_STAR).stable
        assert not verify(intro_positive(3), pi, b, Concept.CIS).stable
        assert verify(intro_negative(3), pi, b, Concept.NS).stable


def test_families_name_every_builder_in_order():
    assert FAMILIES == (
        "intro_positive",
        "intro_negative",
        "star_no_cis",
        "cycle_no_is_star",
        "pairs_triangle_no_cns_star",
        "aziz_failure",
    )
