"""Independent reference for the benchmark's correctness checks.

Written from the definitions of size-bounded additively separable hedonic
games, not from the package's code, so that a fault in the package cannot
hide behind the same fault here.  Valuations are a dense matrix ``v`` with
``v[a][b]`` the value agent ``a`` puts on agent ``b`` (agents 1..n; row and
column 0 unused).  A partition is any iterable of iterables of agent ids;
concepts are the strings ``ns``, ``is``, ``cns``, ``cis``, each optionally
with a ``*`` suffix for the feasible variant.

Definitions used:

* A move sends agent ``a`` from its coalition S to another coalition T of
  the partition, or to a fresh singleton when the lower bound is 1 and
  ``a`` is not alone.  It is admissible when ``|T| + 1 <= U``; under a
  starred concept also when S stays within the bounds or vanishes, i.e.
  ``|S| == 1`` or ``|S| - 1 >= L``.
* Scan order: agents ascending; for each agent the other coalitions in
  canonical order (members ascending, coalitions ordered by their least
  member); the fresh singleton last.
* The move blocks when ``a`` strictly gains.  Under IS and CIS any member
  of T who values ``a`` negatively vetoes it; under CNS and CIS any other
  member of S who values ``a`` positively vetoes it.
"""

from __future__ import annotations

from math import comb

BASES = ("ns", "is", "cns", "cis")
CONCEPTS = BASES + tuple(b + "*" for b in BASES)

# Stability under the left concept implies stability under the right one:
# every consent rule only removes blocking moves, and the starred variants
# quantify over a subset of the plain variant's moves.
IMPLIED = (
    ("ns", "is"), ("ns", "cns"), ("is", "cis"), ("cns", "cis"),
    ("ns*", "is*"), ("ns*", "cns*"), ("is*", "cis*"), ("cns*", "cis*"),
    ("ns", "ns*"), ("is", "is*"), ("cns", "cns*"), ("cis", "cis*"),
)


def canonical(coalitions) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(c)) for c in coalitions))


def is_partition(coalitions, n: int) -> bool:
    members = [a for c in coalitions for a in c]
    return all(coalitions) and sorted(members) == list(range(1, n + 1))


def within_bounds(coalitions, lower: int, upper: int) -> bool:
    return all(lower <= len(c) <= upper for c in coalitions)


def welfare(v, coalitions) -> int:
    return sum(v[a][b] for c in coalitions for a in c for b in c if a != b)


def first_blocking(v, coalitions, lower: int, upper: int, concept: str):
    """(witness, checked) for the partition under ``concept``.

    ``witness`` is ``(agent, target)`` for the first blocking move in scan
    order, ``target`` being the canonical index of the joined coalition or
    None for a fresh singleton; None when nothing blocks.  ``checked``
    counts the admissible moves up to and including the witness, or all of
    them when nothing blocks.
    """
    base, starred = concept.rstrip("*"), concept.endswith("*")
    if base not in BASES:
        raise ValueError(f"unknown concept {concept!r}")
    joined_veto = base in ("is", "cis")
    left_veto = base in ("cns", "cis")
    parts = canonical(coalitions)
    home = {a: i for i, c in enumerate(parts) for a in c}
    open_targets = [i for i, c in enumerate(parts) if len(c) < upper]
    checked = 0
    for a in sorted(home):
        s = home[a]
        source = parts[s]
        if starred and len(source) != 1 and len(source) - 1 < lower:
            continue
        row = v[a]
        own = sum(row[b] for b in source if b != a)
        moves = [(t, sum(row[b] for b in parts[t])) for t in open_targets if t != s]
        if lower == 1 and len(source) > 1:
            moves.append((None, 0))
        for t, value in moves:
            checked += 1
            if value <= own:
                continue
            if joined_veto and t is not None and any(v[b][a] < 0 for b in parts[t]):
                continue
            if left_veto and any(v[b][a] > 0 for b in source if b != a):
                continue
            return (a, t), checked
    return None, checked


def apply_move(coalitions, agent: int, target):
    """The canonical partition after ``agent`` moves to ``target``."""
    parts = [list(c) for c in canonical(coalitions)]
    joined = parts[target] if target is not None else None
    for c in parts:
        if agent in c:
            c.remove(agent)
    if joined is None:
        parts.append([agent])
    else:
        joined.append(agent)
    return canonical(c for c in parts if c)


def count_partitions(n: int, lower: int, upper: int) -> int:
    """Set partitions of n agents into blocks of size lower..upper.

    P(0) = 1 and P(m) = sum over s in lower..upper of C(m-1, s-1) * P(m-s):
    the block holding the first agent picks its s-1 other members.
    """
    p = [1] + [0] * n
    for m in range(1, n + 1):
        p[m] = sum(comb(m - 1, s - 1) * p[m - s] for s in range(lower, min(upper, m) + 1))
    return p[n]


def partitions(n: int, lower: int, upper: int):
    """Every bounded partition of 1..n, each once, by inserting agents in turn.

    Agent i joins one of the open blocks or opens a new one; a branch ends
    as soon as the blocks still short of ``lower`` need more agents than
    are left.  Yields lists of blocks that the caller must not keep.
    """
    blocks: list[list[int]] = []

    def grow(i: int):
        if sum(max(0, lower - len(b)) for b in blocks) > n - i + 1:
            return
        if i > n:
            yield blocks
            return
        for b in blocks:
            if len(b) < upper:
                b.append(i)
                yield from grow(i + 1)
                b.pop()
        blocks.append([i])
        yield from grow(i + 1)
        blocks.pop()

    yield from grow(1)


def max_welfare(v, n: int, lower: int, upper: int):
    """Largest social welfare over all bounded partitions, or None if none exist."""
    return max((welfare(v, p) for p in partitions(n, lower, upper)), default=None)
