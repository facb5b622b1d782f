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

What ``verify`` costs.  It walks the admissible deviations in the order of
``candidate_deviations`` and stops at its witness.  Before its first agent
it pays at three rates:

* per partition: the coalition sizes with their least and largest, which
  ``Partition(...)`` keeps from its validation and a trusted partition
  works out on its first scan, and the agent index;
* per bounds: the open-target record, which holds the indices of the
  coalitions below the upper bound, that list with the new singleton
  appended when the lower bound is 1, and the coalition sizes whose members
  the feasible mode may not move;
* per call: the bounds check (two comparisons) and the loop over the agents.

``verify`` alone reads and writes the record, in the partition's
``_open_record`` slot, keyed on both bounds.  It keeps the record for the
last bounds asked, so the eight concepts on one partition and bounds make
it once, and other bounds overwrite it.  Each call reads the slot once and
uses the record it read or made, so two threads asking different bounds
cost each other a rebuild, never a wrong scan.

In the loop, the abandoned-coalition veto depends only on the mover, never
on the target, so ``verify`` decides it once per agent and skips a
held-back mover whole: one early-exit loop over its source coalition, a
list index per member, and its moves counted without being listed.  Nor
does the mover's utility u_a(source) depend on the target: ``verify``
computes it once per agent, and each move then costs one C-level sum of
the mover's row over its target, plus the joined veto where the concept
has one.  Each checked move is still built as a ``Deviation``, and each
call returns a ``StabilityReport``: frozen dataclasses with slots whose
``__init__`` writes the slots directly, about 0.24 and 0.37 µs a build on
Python 3.11.  ``apply_deviation`` edits the two coalitions a move touches
and adopts the result through the trusted ``Partition._from_canonical``.

The rules come in two forms, both stated here.  The move-level form
(``_moves``, ``_abandoned_veto``, ``_joined_veto`` and ``blocking_check``)
judges one deviation from a partition; ``verify`` and the dynamics use it,
``verify`` with the mover's utility hoisted out of its moves.
``candidate_deviations`` lists the admissible moves from the coalitions,
the bounds and the strand rule alone, without the record, so tests can
hold ``verify`` against it.
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
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass

from .model import (
    Game,
    InfeasiblePartitionError,
    Partition,
    SizeBounds,
    _check_ids,
    is_feasible_partition,
)

PERMISSIBLE = "permissible"
FEASIBLE = "feasible"


class Concept(enum.Enum):
    """The four consent regimes, each in a permissible and a feasible flavor.

    Each member carries its flags as plain attributes, set once from its
    value when the class is built: ``base`` is the value without its ``*``,
    ``feasible_variant`` whether it has one, and ``mode`` the deviation
    mode that follows (``FEASIBLE`` or ``PERMISSIBLE``).  ``joined_consent``
    says whether members of the joined coalition may veto (the IS and CIS
    families), ``abandoned_consent`` whether members of the abandoned
    coalition may (the CNS and CIS families).
    """

    NS = "ns"
    IS = "is"
    CNS = "cns"
    CIS = "cis"
    NS_STAR = "ns*"
    IS_STAR = "is*"
    CNS_STAR = "cns*"
    CIS_STAR = "cis*"

    def __init__(self, value: str) -> None:
        self.base = value.rstrip("*")
        self.feasible_variant = value.endswith("*")
        self.mode = FEASIBLE if self.feasible_variant else PERMISSIBLE
        self.joined_consent = self.base in ("is", "cis")
        self.abandoned_consent = self.base in ("cns", "cis")

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


# Deviation and StabilityReport write their own ``__init__``: the generated
# frozen one stores each field through ``object.__setattr__``, theirs through
# its slot descriptor, bound below each class (``slots=True`` returns a new
# class).
@dataclass(frozen=True, slots=True, init=False)
class Deviation:
    """One agent moving to the coalition at canonical index ``target``.

    ``target`` is None for forming a new singleton coalition.
    """

    agent: int
    target: int | None

    def __init__(self, agent: int, target: int | None) -> None:
        _set_agent(self, agent)
        _set_target(self, target)

    def describe(self, partition: Partition) -> str:
        if self.target is None:
            return f"agent {self.agent} -> new singleton"
        members = partition.coalitions[self.target]
        return f"agent {self.agent} -> {{{', '.join(map(str, members))}}}"


_set_agent = Deviation.agent.__set__
_set_target = Deviation.target.__set__


@dataclass(frozen=True, slots=True, init=False)
class StabilityReport:
    concept: Concept
    stable: bool
    witness: Deviation | None
    checked_deviations: int

    def __init__(
        self, concept: Concept, stable: bool, witness: Deviation | None, checked_deviations: int
    ) -> None:
        _set_concept(self, concept)
        _set_stable(self, stable)
        _set_witness(self, witness)
        _set_checked(self, checked_deviations)


_set_concept = StabilityReport.concept.__set__
_set_stable = StabilityReport.stable.__set__
_set_witness = StabilityReport.witness.__set__
_set_checked = StabilityReport.checked_deviations.__set__


def candidate_deviations(
    game: Game, partition: Partition, bounds: SizeBounds, mode: str
) -> list[Deviation]:
    """All admissible deviations from ``partition``, in canonical scan order.

    Scan order: agent id ascending, existing target coalitions by canonical
    index ascending, the new-singleton move last.  With a lower bound of 1
    the permissible and feasible lists coincide.  ``verify`` walks the same
    sequence lazily and stops at its witness; this is the eager list.  It is
    defined for any partition of the game's agents, within ``bounds`` or
    not; a partition of another number of agents raises ``verify``'s
    ``ValueError``.
    """
    if partition.n != game.n:
        raise ValueError(f"partition covers {partition.n} agents, game has {game.n}")
    if mode not in (PERMISSIBLE, FEASIBLE):
        raise ValueError(f"unknown deviation mode {mode!r}")
    lower = bounds.lower
    coalitions = partition.coalitions
    open_targets = [idx for idx, c in enumerate(coalitions) if len(c) < bounds.upper]
    moves = []
    for agent, source_idx in sorted((a, idx) for idx, c in enumerate(coalitions) for a in c):
        size = len(coalitions[source_idx])
        if mode == FEASIBLE and _strands(size, lower):
            continue
        moves += [Deviation(agent, idx) for idx in open_targets if idx != source_idx]
        # a new singleton needs a lower bound of 1, and a mover not already alone
        if lower == 1 and size > 1:
            moves.append(Deviation(agent, None))
    return moves


def _strands(size: int, lower: int) -> bool:
    """Whether a member leaving a coalition of ``size`` strands it below ``lower``.

    The feasible mode forbids such a move.  A singleton vanishes instead.
    """
    return size != 1 and size - 1 < lower


def _moves(agent: int, source_idx: int, targets: list[int | None]) -> Iterator[Deviation]:
    """The moves of ``agent``: one to each of ``targets`` but its own coalition.

    A target of None is a new singleton.
    """
    for idx in targets:
        if idx != source_idx:
            yield Deviation(agent, idx)


def _abandoned_veto(game: Game, agent: int, source: tuple[int, ...]) -> bool:
    """Whether a member of ``source``, the coalition ``agent`` leaves, values it positively.

    Under abandoned consent such a member would strictly lose by any move of
    ``agent``, whatever the target, and so vetoes them all.
    """
    rows = game._v  # rows[b] is game.row(b), and rows[agent][agent] is 0
    for b in source:
        if rows[b][agent] > 0:
            return True
    return False


def _joined_veto(game: Game, agent: int, target: tuple[int, ...]) -> bool:
    """Whether a member of ``target``, the coalition ``agent`` joins, values it negatively.

    Under joined consent such a member would strictly lose by the move, and
    so vetoes it.
    """
    rows = game._v  # rows[b] is game.row(b)
    for b in target:
        if rows[b][agent] < 0:
            return True
    return False


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
    identical inputs always produce identical reports.  ``checked_deviations``
    counts the admissible moves up to and including the witness, or all of
    them on a stable verdict, so an unstable report's witness is
    ``candidate_deviations(...)[checked_deviations - 1]``.  A move blocks
    exactly when ``blocking_check`` says so.  The module docstring states
    what a call costs.
    """
    if partition.n != game.n:
        raise ValueError(f"partition covers {partition.n} agents, game has {game.n}")
    if not is_feasible_partition(partition, bounds):
        raise InfeasiblePartitionError(
            f"partition sizes {partition.sizes()} violate bounds {bounds}"
        )
    lower, upper = bounds.lower, bounds.upper
    sizes = partition._sizes_low_high()[0]
    record = partition._open_record
    if record is None or record[0] != lower or record[1] != upper:
        open_targets: list[int | None] = [idx for idx, size in enumerate(sizes) if size < upper]
        # None, the new singleton, comes last, and only a lower bound of 1 lets one exist
        with_singleton = open_targets + [None] if lower == 1 else open_targets
        # a coalition of more than ``lower`` members strands nobody
        stranding = tuple(size for size in range(lower + 1) if _strands(size, lower))
        record = partition._open_record = (lower, upper, open_targets, with_singleton, stranding)
    _, _, open_targets, with_singleton, stranding = record
    if not concept.feasible_variant:
        stranding = ()
    index = partition._agent_index()
    checked = 0
    vetoes, joined = concept.abandoned_consent, concept.joined_consent
    coalitions = partition.coalitions
    rows = game._v  # rows[agent] is game.row(agent)
    # the agents in the order of candidate_deviations
    for agent in range(1, partition.n + 1):
        source_idx = index[agent]
        size = sizes[source_idx]
        if size in stranding:
            continue
        targets = with_singleton if size > 1 else open_targets
        source = coalitions[source_idx]
        if vetoes and _abandoned_veto(game, agent, source):
            checked += len(targets) - (size < upper)  # every move of this agent is vetoed
            continue
        value = rows[agent].__getitem__
        current = sum(map(value, source))  # row[agent] is 0
        for deviation in _moves(agent, source_idx, targets):
            checked += 1
            target = deviation.target
            members = () if target is None else coalitions[target]
            # the move of blocking_check: a strict gain, then the joined veto
            if sum(map(value, members)) > current and not (
                joined and _joined_veto(game, agent, members)
            ):
                return StabilityReport(concept, False, deviation, checked)
    return StabilityReport(concept, True, None, checked)


def apply_deviation(partition: Partition, deviation: Deviation) -> Partition:
    """The partition after performing ``deviation``.

    Raises ``ValueError`` when the agent is not in ``partition``, or the
    target is not a coalition index of it (an ``int`` in range, or None) or
    is the agent's own coalition, or the agent is no integer but only
    equals one (``True`` for agent 1).
    The result is built from the parent's canonical tuples with the trusted
    constructor: the mover is sliced out of its source (a singleton source
    is dropped) and inserted in order into its target, or added as a new
    singleton, and one sort puts the coalitions, which are disjoint, back
    in order of their least members.
    """
    agent = deviation.agent
    try:
        source_idx = partition.index_of(agent)
    except KeyError:
        raise ValueError(f"deviation agent {agent!r} is not in the partition") from None
    target = deviation.target
    # an index that only equals an int (1.0, True) is no coalition index either
    if target is not None and (type(target) is not int or not 0 <= target < len(partition)):
        raise ValueError(f"deviation target {target!r} is not a coalition index")
    if target == source_idx:
        raise ValueError("deviation target equals the agent's current coalition")
    if type(agent) is not int:
        _check_ids((agent,))
    coalitions = list(partition.coalitions)
    source = coalitions[source_idx]
    if target is None:
        coalitions.append((agent,))
    else:
        members = coalitions[target]
        at = bisect_left(members, agent)
        coalitions[target] = members[:at] + (agent,) + members[at:]
    if len(source) == 1:
        del coalitions[source_idx]
    else:
        at = source.index(agent)
        coalitions[source_idx] = source[:at] + source[at + 1 :]
    coalitions.sort()
    return Partition._from_canonical(coalitions)
