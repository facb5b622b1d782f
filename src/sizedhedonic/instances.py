"""Generators for the named example and counterexample games.

Each family emits the exact integer valuation table of its construction; no
normalization.  Agent id layouts are fixed and documented per family so that
serialized golden files stay stable.
"""

from __future__ import annotations

__all__ = [
    "FAMILIES",
    "aziz_failure",
    "cycle_no_is_star",
    "intro_negative",
    "intro_positive",
    "make_instance",
    "pairs_triangle_no_cns_star",
    "star_no_cis",
]

from .model import Game

def intro_positive(k: int) -> Game:
    """Symmetric game on k pairs: partners value each other -1, everyone else +1.

    Agents 2i-1 and 2i form pair i.  The all-pairs partition is stable for
    every feasible concept with a lower bound of 2, yet admits permissible
    contractual-individual deviations whenever the upper bound allows
    triples.
    """
    if k < 1:
        raise ValueError("need at least one pair")
    n = 2 * k
    vals = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                vals[(a, b)] = 1
    for i in range(1, k + 1):
        vals[(2 * i - 1, 2 * i)] = vals[(2 * i, 2 * i - 1)] = -1
    return Game(n, vals, symmetric=True)


def intro_negative(k: int) -> Game:
    """Symmetric game on 2k agents where every valuation is -1."""
    if k < 1:
        raise ValueError("need at least one pair")
    n = 2 * k
    vals = {(a, b): -1 for a in range(1, n + 1) for b in range(1, n + 1) if a != b}
    return Game(n, vals, symmetric=True)


def star_no_cis(lower: int) -> Game:
    """Simple symmetric star on 2*lower agents; leaves 1..2*lower-1, center last.

    The center values every leaf 1 (mutually); leaves are mutually
    indifferent.  With bounds (lower, upper) for any lower < upper < 2*lower
    this game has no contractually individually stable partition, although
    feasible-CIS partitions exist.  Once the upper bound reaches the 2*lower
    agents, the grand coalition is stable.
    """
    if lower < 2:
        raise ValueError("construction needs a lower bound of at least 2")
    n = 2 * lower
    center = n
    vals = {}
    for leaf in range(1, n):
        vals[(center, leaf)] = vals[(leaf, center)] = 1
    return Game(n, vals, symmetric=True)


def cycle_no_is_star(n: int) -> Game:
    """Simple directed cycle: agent i values its successor (i mod n) + 1 at 1.

    With bounds whose lower and upper both fail to divide n (and
    2 <= lower < upper < n), no feasible-IS partition exists.  The divisibility
    condition is the caller's responsibility.  Once the upper bound exceeds
    n, the grand coalition is stable.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    vals = {(i, i % n + 1): 1 for i in range(1, n + 1) if n > 1}
    return Game(n, vals)


def pairs_triangle_no_cns_star(lower: int) -> Game:
    """Mutual -1 pairs plus a directed -1 triangle; 2*lower + 1 agents.

    Pairs are (i, lower-1+i) for i in 1..lower-1; the triangle is the last
    three agents with arcs 1 -> 2 -> 3 -> 1.  With bounds (lower, upper) for
    2 <= lower < upper <= 2*lower no feasible-CNS partition exists.  Once the
    upper bound reaches the 2*lower + 1 agents, the grand coalition is stable.
    """
    if lower < 2:
        raise ValueError("construction needs a lower bound of at least 2")
    n = 2 * (lower - 1) + 3
    vals = {}
    for i in range(1, lower):
        a, b = i, lower - 1 + i
        vals[(a, b)] = vals[(b, a)] = -1
    c1, c2, c3 = n - 2, n - 1, n
    vals[(c1, c2)] = vals[(c2, c3)] = vals[(c3, c1)] = -1
    return Game(n, vals)


def aziz_failure() -> Game:
    """The fixed 4-agent game on which the reference CIS construction fails."""
    vals = {
        (1, 2): -1,
        (1, 4): -1,
        (3, 1): 3,
        (3, 2): 2,
        (3, 4): 2,
        (4, 2): 1,
    }
    return Game(4, vals)


_BUILDERS = {
    "intro_positive": intro_positive,
    "intro_negative": intro_negative,
    "star_no_cis": star_no_cis,
    "cycle_no_is_star": cycle_no_is_star,
    "pairs_triangle_no_cns_star": pairs_triangle_no_cns_star,
    "aziz_failure": aziz_failure,
}
FAMILIES = tuple(_BUILDERS)


def make_instance(family: str, **params: int) -> Game:
    """Dispatch by family id; parameter names per generator signature."""
    if family not in _BUILDERS:
        raise ValueError(f"unknown instance family {family!r}; know {FAMILIES}")
    try:
        return _BUILDERS[family](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {family}: {exc}") from None
