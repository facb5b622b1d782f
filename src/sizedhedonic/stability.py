"""Single-agent deviations and verification of the eight stability concepts.

A deviation moves one agent into an existing coalition or (when the lower
bound is 1) into a fresh singleton.  Two admissibility modes exist:

* permissible -- the joined coalition must end up within the size bounds;
* feasible    -- additionally the abandoned coalition must stay within the
  bounds (or vanish, which requires it was a singleton).

Each of Nash / individual / contractual-Nash / contractual-individual
stability quantifies over one of the two modes; the feasible-mode variants
are written with a trailing ``*``.  A deviation blocks a partition when the
deviator strictly gains and the consent requirements of the concept hold:
individual-style concepts give a veto to members of the joined coalition who
would strictly lose, contractual-style concepts to members of the abandoned
coalition who would strictly lose.  An agent whose valuation of the mover is
zero never vetoes.

The abandoned-coalition veto depends only on the mover, never on the target,
so ``verify`` decides it once per agent and skips a held-back mover whole.

The rules come in two forms, both stated here.  The move-level form
(``_scan``, ``_abandoned_veto``, ``_joined_veto`` and ``blocking_check``)
judges one deviation from a partition; ``verify`` and the dynamics use it.
The coalition-level form (``_coalition_rules``) judges whole coalitions
before any partition holds them, for the search of
``exact.exists_stable``: can a member of one coalition block by joining
another, or by leaving for a new singleton.  The two share the strand rule
(``_strands``), and their veto indexes make the same sign tests as the
two veto predicates; a test compares the forms on every pair of
coalitions.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass

from .model import Game, InfeasiblePartitionError, Partition, SizeBounds, is_feasible_partition

PERMISSIBLE = "permissible"
FEASIBLE = "feasible"


class Concept(enum.Enum):
    """The four consent regimes, each in a permissible and a feasible flavor."""

    NS = "ns"
    IS = "is"
    CNS = "cns"
    CIS = "cis"
    NS_STAR = "ns*"
    IS_STAR = "is*"
    CNS_STAR = "cns*"
    CIS_STAR = "cis*"

    @property
    def base(self) -> str:
        return self.value.rstrip("*")

    @property
    def feasible_variant(self) -> bool:
        return self.value.endswith("*")

    @property
    def mode(self) -> str:
        return FEASIBLE if self.feasible_variant else PERMISSIBLE

    @property
    def joined_consent(self) -> bool:
        """Members of the joined coalition may veto (IS and CIS families)."""
        return self.base in ("is", "cis")

    @property
    def abandoned_consent(self) -> bool:
        """Members of the abandoned coalition may veto (CNS and CIS families)."""
        return self.base in ("cns", "cis")

    @classmethod
    def parse(cls, text: str) -> "Concept":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown stability concept {text!r}") from None

    def __str__(self) -> str:
        return self.base.upper() + ("*" if self.feasible_variant else "")


ALL_CONCEPTS = tuple(Concept)

# Direct implications between concepts: stability of the source implies
# stability of the destination (further ones follow by transitivity).
IMPLICATIONS: tuple[tuple[Concept, Concept], ...] = (
    (Concept.NS, Concept.IS),
    (Concept.NS, Concept.CNS),
    (Concept.IS, Concept.CIS),
    (Concept.CNS, Concept.CIS),
    (Concept.NS_STAR, Concept.IS_STAR),
    (Concept.NS_STAR, Concept.CNS_STAR),
    (Concept.IS_STAR, Concept.CIS_STAR),
    (Concept.CNS_STAR, Concept.CIS_STAR),
    (Concept.NS, Concept.NS_STAR),
    (Concept.IS, Concept.IS_STAR),
    (Concept.CNS, Concept.CNS_STAR),
    (Concept.CIS, Concept.CIS_STAR),
)


@dataclass(frozen=True)
class Deviation:
    """One agent moving to the coalition at canonical index ``target``.

    ``target`` is None for forming a new singleton coalition.
    """

    agent: int
    target: int | None

    def describe(self, partition: Partition) -> str:
        if self.target is None:
            return f"agent {self.agent} -> new singleton"
        members = partition.coalitions[self.target]
        return f"agent {self.agent} -> {{{', '.join(map(str, members))}}}"


@dataclass(frozen=True)
class StabilityReport:
    concept: Concept
    stable: bool
    witness: Deviation | None
    checked_deviations: int


def candidate_deviations(
    game: Game, partition: Partition, bounds: SizeBounds, mode: str
) -> list[Deviation]:
    """All admissible deviations from ``partition``, in canonical scan order.

    Scan order: agent id ascending, existing target coalitions by canonical
    index ascending, the new-singleton move last.  With a lower bound of 1
    the permissible and feasible lists coincide.  ``verify`` walks the same
    sequence lazily and stops at its witness; this is the eager list.
    """
    if mode not in (PERMISSIBLE, FEASIBLE):
        raise ValueError(f"unknown deviation mode {mode!r}")
    return [move for _, _, _, moves in _scan(partition, bounds, mode) for move in moves]


def _scan(
    partition: Partition, bounds: SizeBounds, mode: str
) -> Iterator[tuple[int, tuple[int, ...], int, Iterator[Deviation]]]:
    """Per agent, in the order ``candidate_deviations`` states, its admissible moves.

    Yields ``(agent, source, count, moves)``, where ``source`` is the agent's
    coalition and ``moves`` builds its ``count`` deviations lazily, so a
    caller can count them without building them.  An agent the feasible mode
    strands is not yielded.
    """
    lower, upper = bounds.lower, bounds.upper
    open_targets = [idx for idx, c in enumerate(partition.coalitions) if len(c) < upper]
    n_open = len(open_targets)
    feasible = mode == FEASIBLE
    for agent in range(1, partition.n + 1):
        source_idx = partition.index_of(agent)
        source = partition.coalitions[source_idx]
        size = len(source)
        if feasible and _strands(size, lower):
            continue
        singleton = lower == 1 and size > 1
        count = n_open - (size < upper) + singleton  # own coalition is no target
        yield agent, source, count, _moves(agent, source_idx, open_targets, singleton)


def _strands(size: int, lower: int) -> bool:
    """Whether a member leaving a coalition of ``size`` strands it below ``lower``.

    The feasible mode forbids such a move.  A singleton vanishes instead.
    """
    return size != 1 and size - 1 < lower


def _moves(
    agent: int, source_idx: int, open_targets: list[int], singleton: bool
) -> Iterator[Deviation]:
    """The moves of ``agent``: each open target but its own, then a new singleton."""
    for idx in open_targets:
        if idx != source_idx:
            yield Deviation(agent, idx)
    if singleton:
        yield Deviation(agent, None)


def _abandoned_veto(game: Game, agent: int, source: tuple[int, ...]) -> bool:
    """Whether a member of ``source``, the coalition ``agent`` leaves, values it positively.

    Under abandoned consent such a member would strictly lose by any move of
    ``agent``, whatever the target, and so vetoes them all.
    """
    return any(game.row(b)[agent] > 0 for b in source)  # row(agent)[agent] is 0


def _joined_veto(game: Game, agent: int, target: tuple[int, ...]) -> bool:
    """Whether a member of ``target``, the coalition ``agent`` joins, values it negatively.

    Under joined consent such a member would strictly lose by the move, and
    so vetoes it.
    """
    return any(game.row(b)[agent] < 0 for b in target)


def blocking_check(
    game: Game, partition: Partition, deviation: Deviation, concept: Concept
) -> bool:
    """Whether ``deviation`` blocks ``partition`` under ``concept``.

    True iff the deviator strictly gains and no agent holding a veto under
    the concept strictly loses.  Admissibility of the deviation for the
    concept's mode is the caller's responsibility.
    """
    agent = deviation.agent
    row = game.row(agent)
    source = partition.coalition_of(agent)
    current = sum(row[b] for b in source)  # row[agent] is 0
    if deviation.target is None:
        gain = -current
        target_members: tuple[int, ...] = ()
    else:
        target_members = partition.coalitions[deviation.target]
        gain = sum(row[b] for b in target_members) - current
    if gain <= 0:
        return False
    if concept.joined_consent and _joined_veto(game, agent, target_members):
        return False
    if concept.abandoned_consent and _abandoned_veto(game, agent, source):
        return False
    return True


def _coalition_rules(game: Game, bounds: SizeBounds, concept: Concept) -> tuple:
    """The coalition-level form of the rules of ``concept`` (module docstring).

    Returns ``(movers, blocks_into, breaks_away, abandoned_vetoes,
    joined_vetoes)``.  ``movers(coalition)`` is the coalition's mover
    record: one entry per member allowed to leave it (the feasible mode's
    strand rule permits it and nobody left behind holds an abandoned veto),
    holding the member's utility, its valuation lookup and the agents
    holding a joined veto over it.  ``blocks_into(record, target)`` tells
    whether a mover in ``record`` blocks by joining the coalition
    ``target``, and ``breaks_away(record, coalition)`` whether one blocks by
    leaving ``coalition``, whose record it is, for a new singleton.
    ``abandoned_vetoes[a]`` and ``joined_vetoes[a]`` are the agents holding
    each veto over the moves of agent ``a``, empty under a concept that
    gives no such consent.
    """
    lower, upper = bounds.lower, bounds.upper
    rows = [game.row(a) for a in range(game.n + 1)]
    # the sign tests of _abandoned_veto and _joined_veto, one agent b at a time
    abandoned = joined = [frozenset()] * (game.n + 1)
    if concept.abandoned_consent:
        abandoned = [frozenset(b for b in game.agents if rows[b][a] > 0) for a in range(game.n + 1)]
    if concept.joined_consent:
        joined = [frozenset(b for b in game.agents if rows[b][a] < 0) for a in range(game.n + 1)]
    feasible = concept.feasible_variant
    may_leave = [not (feasible and _strands(size, lower)) for size in range(upper + 1)]

    def movers(coalition):
        # the diagonal of the table is 0, so a sum over the whole coalition
        # is the member's utility
        if not may_leave[len(coalition)]:
            return []
        record = []
        for a in coalition:
            if abandoned[a].isdisjoint(coalition):
                value = rows[a].__getitem__
                record.append((sum(map(value, coalition)), value, joined[a]))
        return record

    def blocks_into(record, target):
        if len(target) >= upper:
            return False
        for utility, value, vetoes in record:
            if sum(map(value, target)) > utility and vetoes.isdisjoint(target):
                return True
        return False

    def breaks_away(record, coalition):
        # a new singleton needs a lower bound of 1, and has a gain of minus
        # the mover's utility
        return lower == 1 and len(coalition) > 1 and any(u < 0 for u, _, _ in record)

    return movers, blocks_into, breaks_away, abandoned, joined


def verify(
    game: Game, partition: Partition, bounds: SizeBounds, concept: Concept
) -> StabilityReport:
    """Check ``partition`` for stability, reporting the first blocking deviation.

    The partition must respect the bounds; stability concepts are only
    defined on bound-respecting partitions.  The witness, when present, is
    the minimum blocking deviation under the canonical scan order, so
    identical inputs always produce identical reports.  The scan is lazy: it
    builds each admissible deviation only when it comes to it and stops at
    the first blocking one.  Under abandoned consent (CNS, CIS and their
    feasible variants) the veto depends on the mover alone, so it is decided
    once per agent: a mover held back by its source coalition costs one pass
    over that coalition, and its moves are counted in ``checked_deviations``
    without being built.  Every other move costs one ``blocking_check``.
    """
    if partition.n != game.n:
        raise ValueError(f"partition covers {partition.n} agents, game has {game.n}")
    if not is_feasible_partition(partition, bounds):
        raise InfeasiblePartitionError(
            f"partition sizes {partition.sizes()} violate bounds {bounds}"
        )
    checked = 0
    vetoes = concept.abandoned_consent
    for agent, source, count, moves in _scan(partition, bounds, concept.mode):
        if vetoes and _abandoned_veto(game, agent, source):
            checked += count  # every move of this agent is vetoed
            continue
        for deviation in moves:
            checked += 1
            if blocking_check(game, partition, deviation, concept):
                return StabilityReport(concept, False, deviation, checked)
    return StabilityReport(concept, True, None, checked)


def apply_deviation(partition: Partition, deviation: Deviation) -> Partition:
    """The partition after performing ``deviation``.

    Raises ``ValueError`` when the agent is not in ``partition``, or the
    target is the agent's own coalition or not a coalition index of it.
    """
    agent = deviation.agent
    try:
        source_idx = partition.index_of(agent)
    except KeyError:
        raise ValueError(f"deviation agent {agent!r} is not in the partition") from None
    target = deviation.target
    if target == source_idx:
        raise ValueError("deviation target equals the agent's current coalition")
    if target is not None and not 0 <= target < len(partition):
        raise ValueError(f"deviation target {target} is not a coalition index")
    coalitions: list[list[int]] = [list(c) for c in partition.coalitions]
    coalitions[source_idx].remove(agent)
    if target is None:
        coalitions.append([agent])
    else:
        coalitions[target].append(agent)
    return Partition(c for c in coalitions if c)
