"""Tests of the benchmark's independent checker.

Run with ``python3 -m pytest benchmarks/test_checker.py``.  The references
here are brute force over tiny inputs, coded separately from the checker.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

import checker


def brute_partitions(n, lower, upper):
    """Every bounded partition of 1..n, from all labellings of the agents."""
    seen = set()
    for labels in product(range(n), repeat=n):
        blocks = {}
        for agent, label in zip(range(1, n + 1), labels):
            blocks.setdefault(label, []).append(agent)
        parts = checker.canonical(blocks.values())
        if all(lower <= len(c) <= upper for c in parts):
            seen.add(parts)
    return seen


def naive_first_blocking(v, coalitions, lower, upper, concept):
    """The scan written out move by move, with utilities summed afresh."""
    parts = sorted(sorted(c) for c in coalitions)
    starred = concept.endswith("*")
    base = concept.rstrip("*")
    checked = 0
    for agent in range(1, sum(map(len, parts)) + 1):
        source = next(c for c in parts if agent in c)
        if starred and len(source) > 1 and len(source) - 1 < lower:
            continue
        targets = [i for i, c in enumerate(parts) if c is not source and len(c) + 1 <= upper]
        if lower == 1 and len(source) > 1:
            targets.append(None)
        for t in targets:
            checked += 1
            joined = [] if t is None else parts[t]
            before = sum(v[agent][b] for b in source if b != agent)
            after = sum(v[agent][b] for b in joined)
            if after <= before:
                continue
            if base in ("is", "cis") and any(v[b][agent] < 0 for b in joined):
                continue
            if base in ("cns", "cis") and any(v[b][agent] > 0 for b in source if b != agent):
                continue
            return (agent, t), checked
    return None, checked


def random_values(rng, n, low=-2, high=2):
    return [[0] * (n + 1)] + [[0] + [rng.randint(low, high) if a != b else 0
                                     for b in range(1, n + 1)] for a in range(1, n + 1)]


def intro_positive(k):
    n = 2 * k
    v = [[0] * (n + 1)] + [[0] + [1 if a != b else 0 for b in range(1, n + 1)]
                           for a in range(1, n + 1)]
    for i in range(1, k + 1):
        v[2 * i - 1][2 * i] = v[2 * i][2 * i - 1] = -1
    return v


@pytest.mark.parametrize("n", range(0, 7))
def test_counts_match_brute_force_and_enumerator(n):
    for lo, up in [(lo, up) for lo in range(1, n + 1) for up in range(lo, n + 1)] or [(1, 1)]:
        expected = brute_partitions(n, lo, up)
        listed = [checker.canonical(p) for p in checker.partitions(n, lo, up)]
        assert checker.count_partitions(n, lo, up) == len(expected)
        assert len(listed) == len(set(listed)) and set(listed) == expected


def test_unbounded_counts_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]
    assert [checker.count_partitions(n, 1, max(n, 1)) for n in range(10)] == bell


def test_documented_example():
    v = intro_positive(3)
    pairs = [(1, 2), (3, 4), (5, 6)]
    assert checker.first_blocking(v, pairs, 2, 3, "ns*")[0] is None
    assert checker.first_blocking(v, pairs, 2, 3, "cis")[0] == (1, 1)


def test_scan_matches_the_definition_on_random_games():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 7)
        lo = rng.randint(1, 3)
        up = rng.randint(max(lo, 1), 4)
        parts = list(checker.partitions(n, lo, up))
        if not parts:
            continue
        v = random_values(rng, n)
        coalitions = [list(c) for c in rng.choice(parts)]
        rng.shuffle(coalitions)
        for concept in checker.CONCEPTS:
            assert checker.first_blocking(v, coalitions, lo, up, concept) == \
                naive_first_blocking(v, coalitions, lo, up, concept)


def test_verdicts_respect_the_implications():
    rng = random.Random(11)
    for _ in range(200):
        n, lo, up = rng.randint(2, 6), rng.randint(1, 2), rng.randint(2, 4)
        parts = list(checker.partitions(n, lo, up))
        if not parts:
            continue
        v = random_values(rng, n)
        coalitions = [list(c) for c in rng.choice(parts)]
        stable = {c: checker.first_blocking(v, coalitions, lo, up, c)[0] is None
                  for c in checker.CONCEPTS}
        for strong, weak in checker.IMPLIED:
            assert not stable[strong] or stable[weak]


def test_max_welfare_matches_brute_force():
    rng = random.Random(3)
    for n in range(1, 7):
        for lo, up in [(1, 2), (1, n), (2, 3), (2, 4)]:
            v = random_values(rng, n, -3, 3)
            options = brute_partitions(n, lo, up)
            expected = max((checker.welfare(v, p) for p in options), default=None)
            assert checker.max_welfare(v, n, lo, up) == expected


def test_apply_move_and_welfare():
    v = intro_positive(2)
    assert checker.welfare(v, [(1, 2), (3, 4)]) == -4
    assert checker.apply_move([(1, 2), (3, 4)], 1, 1) == ((1, 3, 4), (2,))
    assert checker.apply_move([(1, 2), (3, 4)], 3, None) == ((1, 2), (3,), (4,))
    assert checker.apply_move([(1,), (2, 3)], 1, 1) == ((1, 2, 3),)

