"""Core data types: games, size bounds, partitions, and feasibility arithmetic.

Agents are dense integer ids 1..n.  Valuations are integers, so every
utility comparison in the package is exact.  All types are immutable after
construction and safe to share across threads.  A partition writes four
private slots later.  Two of the writes are idempotent: a partition built
by the trusted constructor (the exhaustive search's leaves, and each result
of ``stability.apply_deviation``) works out its coalition sizes (with their
least and largest) on the first call that needs them, and its agent index
on its first lookup; ``Partition(...)`` sets both while it validates.  Two
threads that race at either write each compute the same value, and either
one may be kept.  The third, the open-target record, belongs to
``stability.verify``, whose module states what it holds and why a race
between two size bounds that overwrite it costs a rebuild, never a wrong scan.
The fourth, ``_sums``, holds a dynamics run's value sums: the game object
they were summed for, its table by columns, and one column of sums per
coalition (the ``stability`` module says how they are used).
``algorithms.dynamics_steps`` and ``stability.apply_deviation`` write it
once, on a partition they have just built, before it is shared; ``verify``
reads it only for the game object it names.
"""

from __future__ import annotations

__all__ = [
    "Game",
    "InfeasiblePartitionError",
    "Partition",
    "SizeBounds",
    "feasibility_threshold",
    "feasible_k_partition_exists",
    "feasible_partition_exists",
    "greedy_feasible_partition",
    "is_feasible_partition",
    "singleton_partition",
]

import math
from dataclasses import dataclass
from typing import Iterable, Mapping


class InfeasiblePartitionError(ValueError):
    """A partition violates the coalition-size bounds it is checked against."""


@dataclass(frozen=True)
class SizeBounds:
    """Lower and upper bound on coalition cardinality, 1 <= lower <= upper."""

    lower: int
    upper: int

    def __post_init__(self) -> None:
        for bound in (self.lower, self.upper):
            if not isinstance(bound, int) or isinstance(bound, bool):
                raise ValueError("size bounds must be integers")
        if not 1 <= self.lower <= self.upper:
            raise ValueError(f"invalid size bounds ({self.lower}, {self.upper})")

    def contains(self, size: int) -> bool:
        return self.lower <= size <= self.upper

    def __str__(self) -> str:
        return f"{self.lower}:{self.upper}"


class Game:
    """An additively separable hedonic game on agents 1..n.

    Each ordered pair (a, b) of distinct agents carries an integer valuation
    v_a(b); an agent's utility for a coalition it belongs to is the sum of
    its valuations for the other members.  Valuations not supplied at
    construction default to 0.  An agent has no valuation for itself.

    ``symmetric`` is a declared property: when set, v_a(b) == v_b(a) is
    validated at construction time.

    Agent ids in the valuation keys must be integers.  ``True`` and
    ``False`` are accepted as the integers 1 and 0 they equal as dict keys.
    """

    __slots__ = ("n", "symmetric", "_v", "_nonzero", "_nonnegative")

    def __init__(
        self,
        n: int,
        valuations: Mapping[tuple[int, int], int] | None = None,
        symmetric: bool = False,
    ) -> None:
        _check_agent_count(n)
        self.n = n
        self.symmetric = symmetric
        table = [[0] * (n + 1) for _ in range(n + 1)]
        if valuations:
            try:
                for (a, b), w in valuations.items():
                    if not (1 <= a <= n and 1 <= b <= n):
                        raise ValueError(f"valuation pair ({a}, {b}) out of range 1..{n}")
                    if a == b:
                        raise ValueError(f"agent {a} may not value itself")
                    if not isinstance(w, int) or isinstance(w, bool):
                        raise ValueError(f"valuation v_{a}({b}) must be an integer")
                    table[a][b] = w
            except (TypeError, ValueError):
                # a key that is no pair fails to unpack, and an id that is no
                # integer fails the range test or the index; the first such
                # key is named, even if the loop stopped at an earlier error
                for key in valuations:
                    if not isinstance(key, tuple) or len(key) != 2:
                        message = f"valuation key {key!r} is not a pair of agent ids"
                        raise ValueError(message) from None
                    _check_ids(key)
                raise
        if symmetric and (pair := _asymmetric_pair(table)):
            raise ValueError("declared symmetric but v_{0}({1}) != v_{1}({0})".format(*pair))
        self._v = table
        self._nonzero = self._nonnegative = None  # unknown until first asked

    @classmethod
    def _from_table(cls, n: int, table: list[list[int]], symmetric: bool) -> Game:
        """Trusted constructor: adopt a finished valuation table as is.

        ``table`` must be (n+1) rows of n+1 ints with row 0, column 0 and
        the diagonal at 0.  ``symmetric`` may be set only if the table is
        symmetric, as ``has_symmetric_table`` then trusts the flag.  None of
        this is checked again.  For parsers that validated every entry while
        filling the table.
        """
        game = cls.__new__(cls)
        game.n = n
        game.symmetric = symmetric
        game._v = table
        game._nonzero = game._nonnegative = None
        return game

    @property
    def agents(self) -> range:
        return range(1, self.n + 1)

    def value(self, a: int, b: int) -> int:
        """Valuation of agent ``a`` for agent ``b`` (a != b)."""
        if a == b:
            raise ValueError("an agent has no valuation for itself")
        return self._v[a][b]

    def row(self, a: int) -> list[int]:
        """Internal valuation row of agent ``a``, indexed by agent id.

        Entry 0 and entry ``a`` itself are always 0, so a sum over a whole
        coalition containing ``a`` is the agent's utility for it, and no sign
        test on the row ever selects ``a``.  ``prefs.utility`` and every
        deviation check rely on this.  Exposed for hot loops; do not mutate.
        """
        return self._v[a]

    def nonzero_pairs(self) -> Iterable[tuple[int, int, int]]:
        """All (a, b, v_a(b)) with nonzero valuation, in (a, b) order."""
        for a in range(1, self.n + 1):
            row = self._v[a]
            for b in range(1, self.n + 1):
                if row[b]:
                    yield a, b, row[b]

    def has_symmetric_table(self) -> bool:
        """True iff v_a(b) == v_b(a) for every pair of agents.

        A game declared ``symmetric`` was validated when it was built, so it
        answers at once; any other game has its table scanned.
        """
        return self.symmetric or _asymmetric_pair(self._v) is None

    def is_nonzero(self) -> bool:
        """True iff every valuation between distinct agents is nonzero.

        The table is scanned on the first call only; a game is immutable.
        """
        if self._nonzero is None:
            # each row holds exactly two zeros of its own: column 0 and the diagonal
            self._nonzero = all(self._v[a].count(0) == 2 for a in range(1, self.n + 1))
        return self._nonzero

    def is_nonnegative(self) -> bool:
        """True iff no valuation is negative; scanned on the first call only."""
        if self._nonnegative is None:
            self._nonnegative = all(min(self._v[a]) >= 0 for a in range(1, self.n + 1))
        return self._nonnegative

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self.n == other.n
            and self.symmetric == other.symmetric
            and self._v == other._v
        )

    def __hash__(self) -> int:
        return hash((self.n, self.symmetric, tuple(map(tuple, self._v))))

    def __repr__(self) -> str:
        nnz = sum(1 for _ in self.nonzero_pairs())
        sym = ", symmetric" if self.symmetric else ""
        return f"Game(n={self.n}, {nnz} nonzero valuations{sym})"


def _asymmetric_pair(table: list[list[int]]) -> tuple[int, int] | None:
    """The first pair of agents a < b with v_a(b) != v_b(a), or None.

    Rows are compared with their columns whole.  The first row that differs
    differs only right of the diagonal: a difference at b < a would have
    made row b differ first.
    """
    for a, column in enumerate(zip(*table)):
        row = table[a]
        if row != list(column):
            return a, next(b for b in range(a + 1, len(row)) if row[b] != column[b])
    return None


def _check_int(value: object, what: str) -> None:
    """Raise the package's error, naming ``what``, unless ``value`` is an integer (no bool)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _check_agent_count(n: object) -> None:
    """Raise the package's error unless ``n`` is a nonnegative integer (no bool)."""
    _check_int(n, "agent count")
    if n < 0:
        raise ValueError("agent count must be nonnegative")


def _check_ids(ids: Iterable[object]) -> None:
    """Raise the package's error for the first of ``ids`` that is no integer."""
    for a in ids:
        if not isinstance(a, int) or isinstance(a, bool):
            raise ValueError(f"agent ids must be integers, got {a!r}")


class Partition:
    """A set of disjoint, nonempty coalitions covering agents 1..n.

    Agent ids are integers (not ``bool``).  Stored in canonical form: members
    of each coalition ascending, coalitions ordered by their minimum member.
    Coalition indices used elsewhere in the package (deviation targets,
    witnesses) refer to this canonical order.
    """

    __slots__ = ("coalitions", "n", "_index", "_size_facts", "_open_record", "_sums")

    def __init__(self, coalitions: Iterable[Iterable[int]]) -> None:
        canon = []
        for c in coalitions:
            try:
                members = tuple(sorted(c))
                repeated = len(set(members)) != len(members)
            except TypeError:  # no collection, or ids that do not compare or hash
                try:
                    iter(c)
                except TypeError:
                    raise ValueError(f"coalition {c!r} is not a collection of agent ids") from None
                _check_ids(c)
                raise
            if not members:
                raise ValueError("coalitions must be nonempty")
            if repeated:
                raise ValueError(f"repeated agent inside coalition {members}")
            canon.append(members)
        try:
            canon.sort()
        except TypeError:  # ids that do not compare, across coalitions
            _check_ids(a for c in canon for a in c)
            raise
        sizes = tuple(map(len, canon))
        n = sum(sizes)
        # one pass builds the index; the loops below run only to name what is wrong
        index = {a: i for i, c in enumerate(canon) for a in c}
        if len(index) != n:
            seen: set[int] = set()
            for c in canon:
                for a in c:
                    if a in seen:
                        raise ValueError(f"agent {a} appears in more than one coalition")
                    seen.add(a)
        if not set(map(type, index)) <= {int}:
            _check_ids(index)
        if index.keys() - range(1, n + 1):
            raise ValueError("coalitions must cover exactly the agents 1..n")
        self.coalitions = tuple(canon)
        self.n = n
        self._index = index
        self._size_facts = (sizes, min(sizes, default=math.inf), max(sizes, default=0))
        self._open_record = self._sums = None

    @classmethod
    def _from_canonical(cls, coalitions: list[tuple[int, ...]]) -> Partition:
        """Trusted constructor: adopt coalitions already in canonical form.

        ``coalitions`` must be nonempty ascending tuples, ordered by their
        first member, that cover the agents 1..n once each; none of this is
        checked again.  For searches that reach their partitions in
        canonical order, and keep or look into few of them, and for
        ``stability.apply_deviation``, which moves one agent of a canonical
        partition: the agent index is left unbuilt until ``index_of`` or
        ``coalition_of`` first needs it, and the sizes until a size query.
        """
        partition = cls.__new__(cls)
        partition.coalitions = tuple(coalitions)
        partition.n = sum(map(len, coalitions))
        partition._index = None
        partition._size_facts = partition._open_record = partition._sums = None
        return partition

    def coalition_of(self, agent: int) -> tuple[int, ...]:
        return self.coalitions[self._agent_index()[agent]]

    def index_of(self, agent: int) -> int:
        """Canonical index of the coalition containing ``agent``."""
        return self._agent_index()[agent]

    def _agent_index(self) -> dict[int, int]:
        """The dict from each agent to its coalition's canonical index.

        For scans that look up many agents; do not mutate.  A trusted leaf
        that nobody has looked into yet builds it here.
        """
        index = self._index
        if index is None:
            index = self._index = {a: i for i, c in enumerate(self.coalitions) for a in c}
        return index

    def _sizes_low_high(self) -> tuple[tuple[int, ...], float, int]:
        """The coalition sizes in canonical order, their least and their largest.

        ``Partition(...)`` keeps them from its validation; a trusted
        partition works them out on the first call and keeps them.
        With no coalition, the least size is infinite and the largest 0, so
        the empty partition lies within every bounds.
        """
        facts = self._size_facts
        if facts is None:
            sizes = tuple(map(len, self.coalitions))
            facts = self._size_facts = (sizes, min(sizes, default=math.inf), max(sizes, default=0))
        return facts

    def sizes(self) -> tuple[int, ...]:
        return self._sizes_low_high()[0]

    def __iter__(self):
        return iter(self.coalitions)

    def __len__(self) -> int:
        return len(self.coalitions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.coalitions == other.coalitions

    def __hash__(self) -> int:
        return hash(self.coalitions)

    def __repr__(self) -> str:
        inner = " | ".join(" ".join(map(str, c)) for c in self.coalitions)
        return f"Partition({inner})"


def singleton_partition(n: int) -> Partition:
    _check_agent_count(n)
    return Partition([a] for a in range(1, n + 1))


def is_feasible_partition(partition: Partition, bounds: SizeBounds) -> bool:
    """True iff every coalition size lies within ``bounds``.

    The empty partition has no coalition, so it lies within every ``bounds``.
    """
    _, least, largest = partition._sizes_low_high()
    return bounds.lower <= least and largest <= bounds.upper


def feasible_partition_exists(n: int, bounds: SizeBounds) -> bool:
    """Whether n agents can be split into coalitions within ``bounds``.

    Holds exactly when n <= floor(n / lower) * upper: with floor(n / lower)
    coalitions of minimum size there is room for everyone, and no valid
    partition can have more coalitions than that.  Zero agents have exactly
    one partition, the empty one, so n = 0 holds for every ``bounds``.
    Raises ``ValueError`` for an n that is no integer or is negative.
    """
    _check_agent_count(n)
    return n <= (n // bounds.lower) * bounds.upper


def feasible_k_partition_exists(n: int, k: int, bounds: SizeBounds) -> bool:
    """Whether n agents can be split into exactly k coalitions within bounds.

    Holds exactly when k * lower <= n <= k * upper: so k = 0 holds only for
    n = 0 (the empty partition), and n = 0 only for k = 0.  Raises
    ``ValueError`` for an n or k that is no integer or is negative.
    """
    _check_int(n, "agent count")
    _check_int(k, "coalition count")
    if n < 0 or k < 0:
        raise ValueError("agent count and coalition count must be nonnegative")
    return k * bounds.lower <= n <= k * bounds.upper


def feasibility_threshold(bounds: SizeBounds) -> int:
    """Least T such that every n >= T admits a partition within ``bounds``.

    Requires lower < upper (with lower == upper, feasibility is periodic in n
    and no threshold exists).  With k coalitions the feasible counts are the
    range [k * lower, k * upper], and consecutive ranges touch exactly when
    k >= (lower - 1) / (upper - lower).  So for the least such k, call it K,
    K * lower - 1 is the largest infeasible count (it lies in the gap before
    range K), and T = K * lower; with lower = 1 there is no gap and T = 0.
    """
    lo, hi = bounds.lower, bounds.upper
    if lo >= hi:
        raise ValueError("threshold requires lower < upper")
    return -(-(lo - 1) // (hi - lo)) * lo


def greedy_feasible_partition(agents: Iterable[int], bounds: SizeBounds) -> list[list[int]] | None:
    """Split ``agents`` into blocks within ``bounds``, or None if impossible.

    Deterministic: forms floor(n / lower) blocks of minimum size in the given
    order, then tops them up left to right with the remaining agents.
    Raises ``ValueError`` when ``agents`` is no iterable of integer ids.
    """
    try:
        pool = list(agents)
    except TypeError:
        raise ValueError(f"agents must be an iterable of agent ids, got {agents!r}") from None
    _check_ids(pool)
    n = len(pool)
    if not feasible_partition_exists(n, bounds):
        return None
    count = n // bounds.lower
    blocks = [pool[i * bounds.lower : (i + 1) * bounds.lower] for i in range(count)]
    rest = pool[count * bounds.lower :]
    for block in blocks:
        while rest and len(block) < bounds.upper:
            block.append(rest.pop(0))
    assert not rest
    return blocks
