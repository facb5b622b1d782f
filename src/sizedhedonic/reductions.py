"""Hardness-reduction builders and their certificate-derived stable partitions.

Three constructions turn instances of the NP-complete source problems into
games whose stable partitions encode solutions:

* ``x3c_to_cns``: Exact Cover by 3-Sets -> contractual Nash stability under
  an upper bound of at least 3.
* ``mmm_to_ns_is``: Minimum Maximal Matching -> Nash / individual stability
  under an upper bound of at least 2.
* ``x3c_to_ns_bounded``: Exact Cover by 3-Sets -> Nash stability under a
  nontrivial lower bound (upper >= 4).

``witness_partition`` materializes, from a valid certificate of the source
instance, the stable partition that the forward direction of each
construction guarantees; verifying it is a polynomial check at any size.

Every agent id comes from ``_add_role``, the one id rule: each role label,
in the order a builder declares it, takes the next dense id, so serialized
games are reproducible, and every agent's label is recorded in the result.
"""

from __future__ import annotations

__all__ = [
    "InvalidCertificateError",
    "MMMInstance",
    "ReducedGame",
    "X3CInstance",
    "mmm_to_ns_is",
    "witness_partition",
    "x3c_to_cns",
    "x3c_to_ns_bounded",
]

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

from .model import Game, Partition, SizeBounds, feasibility_threshold, greedy_feasible_partition


class InvalidCertificateError(ValueError):
    """The supplied cover / matching is not a valid certificate."""


@dataclass(frozen=True)
class X3CInstance:
    """Exact Cover by 3-Sets: ground set 1..ground_size, 3-element subsets."""

    ground_size: int
    sets: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.ground_size < 0 or self.ground_size % 3:
            raise ValueError("ground set size must be a nonnegative multiple of 3")
        normalized = []
        for s in self.sets:
            members = tuple(sorted(s))
            if len(members) != 3 or len(set(members)) != 3:
                raise ValueError(f"set {s} must have exactly 3 distinct elements")
            if not all(1 <= r <= self.ground_size for r in members):
                raise ValueError(f"set {s} leaves the ground set 1..{self.ground_size}")
            normalized.append(members)
        object.__setattr__(self, "sets", tuple(normalized))


@dataclass(frozen=True)
class MMMInstance:
    """Minimum Maximal Matching on a bipartite graph with sides of equal size.

    Side A is 1..n, side B is n+1..2n; ``k`` is the matching-size budget.
    """

    n: int
    k: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("each side needs at least one vertex")
        if not 1 <= self.k <= self.n:
            raise ValueError("budget k must satisfy 1 <= k <= n")
        seen = set()
        for a, b in self.edges:
            if not (1 <= a <= self.n < b <= 2 * self.n):
                raise ValueError(f"edge ({a}, {b}) does not cross the bipartition")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))


@dataclass(frozen=True)
class ReducedGame:
    """A reduction's output game plus the bookkeeping needed to audit it."""

    game: Game
    roles: dict[int, str]
    construction: str  # "x3c_to_cns" | "mmm_to_ns_is" | "x3c_to_ns_bounded"
    source: X3CInstance | MMMInstance
    mu: int | None = None
    bounds: SizeBounds | None = None
    _by_role: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_role", {v: k for k, v in self.roles.items()})

    def agent(self, role: str) -> int:
        return self._by_role[role]

    def role_count(self, prefix: str) -> int:
        return sum(1 for label in self.roles.values() if label.startswith(prefix))


def _add_role(roles: dict[int, str], label: str) -> int:
    """Give ``label`` the next agent id after the dense ids 1..len(roles)."""
    agent = len(roles) + 1
    roles[agent] = label
    return agent


# The roles of x3c_to_cns's gadget, in id order (see its docstring).
_GADGET = ("alpha", "beta", "gamma", "zeta")


def x3c_to_cns(instance: X3CInstance, mu: int) -> ReducedGame:
    """Game whose CNS partitions under (1, mu) encode exact covers, mu >= 3.

    One 4-agent gadget per ground element and per (set, element) pair: its
    roles alpha, beta and gamma form a 0-valued cycle and each values zeta
    at 1, and a witness leaves the cycle's agents alone.  Each pair also has
    a set agent ``a`` and its companion ``abar``.  Every pair of agents not
    mentioned by the construction values each other -3, deep enough to
    drown any positive valuation (the largest being the 2 that each
    companion agent assigns its set agent).
    """
    if mu < 3:
        raise ValueError("construction needs an upper bound of at least 3")
    roles: dict[int, str] = {}
    add = partial(_add_role, roles)
    elements = range(1, instance.ground_size + 1)
    pairs = [(s, r) for s, members in enumerate(instance.sets, start=1) for r in members]
    for role in _GADGET:
        for r in elements:
            add(f"{role}[{r}]")
    for s, r in pairs:
        for role in ("a", "abar", *_GADGET):
            add(f"{role}[{s}:{r}]")
    agent = {label: i for i, label in roles.items()}

    n = len(roles)
    vals = {(i, j): -3 for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    for key in [*elements, *(f"{s}:{r}" for s, r in pairs)]:
        al, be, ga, ze = (agent[f"{role}[{key}]"] for role in _GADGET)
        vals[(al, ze)] = vals[(be, ze)] = vals[(ga, ze)] = 1
        vals[(al, be)] = vals[(be, ga)] = vals[(ga, al)] = 0
    for s, r in pairs:
        a, abar, zeta_s = (agent[f"{role}[{s}:{r}]"] for role in ("a", "abar", "zeta"))
        zeta = agent[f"zeta[{r}]"]
        vals[(a, zeta)] = vals[(zeta, a)] = 0
        vals[(abar, zeta_s)] = vals[(zeta_s, abar)] = 0
        vals[(abar, a)] = 2
        for other in instance.sets[s - 1]:
            if other != r:
                mate = agent[f"a[{s}:{other}]"]
                vals[(a, mate)] = 0
                vals[(abar, mate)] = -1

    return ReducedGame(Game(n, vals), roles, "x3c_to_cns", instance, mu=mu)


def mmm_to_ns_is(instance: MMMInstance, mu: int) -> ReducedGame:
    """Game whose NS (equivalently IS) partitions under (1, mu) encode
    maximal matchings within budget, mu >= 2.

    Vertex agents keep their instance ids; n - k five-agent cycle gadgets
    follow.  Matched vertices pair across declared edges (value 3 each way);
    every gadget entry agent courts all of side A at mutual value 2; all
    unrelated pairs value each other -6n.
    """
    if mu < 2:
        raise ValueError("construction needs an upper bound of at least 2")
    n, k = instance.n, instance.k
    roles: dict[int, str] = {}
    add = partial(_add_role, roles)
    for side in "ab":  # so a[i] is agent i and b[j] is agent n + j
        for i in range(1, n + 1):
            add(f"{side}[{i}]")
    x = {(i, j): add(f"x[{i}:{j}]") for i in range(1, n - k + 1) for j in range(1, 6)}
    total = len(roles)
    filler = -6 * n
    vals = {(i, j): filler for i in range(1, total + 1) for j in range(1, total + 1) if i != j}
    for a, b in instance.edges:
        vals[(a, b)] = vals[(b, a)] = 3
    for i in range(1, n - k + 1):
        entry = x[i, 1]
        for a in range(1, n + 1):
            vals[(a, entry)] = vals[(entry, a)] = 2
        for j in range(1, 6):
            succ = j % 5 + 1
            vals[(x[i, j], x[i, succ])] = 2
            vals[(x[i, succ], x[i, j])] = 1
    return ReducedGame(Game(total, vals), roles, "mmm_to_ns_is", instance, mu=mu)


def _clash(tag: tuple[str, int], tag2: tuple[str, int], sets: Sequence[tuple[int, ...]]) -> bool:
    """Whether two tagged core agents of ``x3c_to_ns_bounded`` value each other -1.

    They do when they are beta and t; beta_r and xi_s with r not in set s;
    two xi of different sets; or two t of different spare triplets.  The
    rule is symmetric, so the pair is taken in tag order: beta, t, xi.
    """
    (kind, key), (kind2, key2) = (tag, tag2) if tag < tag2 else (tag2, tag)
    if kind == kind2:
        return kind != "beta" and key != key2
    return kind == "beta" and (kind2 == "t" or key not in sets[key2 - 1])


def x3c_to_ns_bounded(instance: X3CInstance, bounds: SizeBounds) -> ReducedGame:
    """Game whose NS partitions under ``bounds`` encode exact covers.

    Requires upper >= 4, lower < upper, and at least |R|/3 sets.  One agent
    per ground element, upper-3 agents per set, filler triplets for the sets
    a cover leaves unused, a chaser agent that wants to sit with all of
    them, and enough dummies that a nonfull all-dummy coalition always
    exists (the total agent count is never divisible by the upper bound).
    """
    lo, hi = bounds.lower, bounds.upper
    if hi < 4 or lo >= hi:
        raise ValueError("construction needs upper >= 4 and lower < upper")
    spare_sets = len(instance.sets) - instance.ground_size // 3
    if spare_sets < 0:
        raise ValueError("fewer sets than an exact cover would need")

    roles: dict[int, str] = {}
    add = partial(_add_role, roles)

    # Each core agent's tag: its kind and the ground element, set or spare
    # triplet it stands for (see _clash).
    core = {add(f"beta[{r}]"): ("beta", r) for r in range(1, instance.ground_size + 1)}
    core |= {
        add(f"xi[{s}:{i}]"): ("xi", s)
        for s in range(1, len(instance.sets) + 1)
        for i in range(1, hi - 2)
    }
    core |= {
        add(f"t[{i}:{j}]"): ("t", i)
        for i in range(1, spare_sets + 1)
        for j in range(1, 4)
    }
    # One more full coalition than the threshold's count of lower-bound
    # coalitions: once hi - 1 dummies join the chaser, the rest still reach
    # the threshold, so they split within bounds.
    dummy_count = (feasibility_threshold(bounds) // lo + 1) * hi
    dummies = [add(f"d[{i}]") for i in range(1, dummy_count + 1)]
    chaser = add("alpha")
    n = len(roles)

    vals: dict[tuple[int, int], int] = {}
    for c in core:
        vals[(c, chaser)] = -hi
        vals[(chaser, c)] = 1
    for c, tag in core.items():
        for c2, tag2 in core.items():
            if _clash(tag, tag2, instance.sets):
                vals[(c, c2)] = -1
    for d in dummies:
        for c in core:
            vals[(d, c)] = -1
        vals[(d, chaser)] = hi

    return ReducedGame(
        Game(n, vals), roles, "x3c_to_ns_bounded", instance, bounds=bounds
    )


def _check_exact_cover(instance: X3CInstance, cover: Sequence[int]) -> list[int]:
    indices = list(cover)
    if len(set(indices)) != len(indices):
        raise InvalidCertificateError("cover lists a set twice")
    if not all(1 <= s <= len(instance.sets) for s in indices):
        raise InvalidCertificateError("cover references an unknown set index")
    covered: set[int] = set()
    for s in indices:
        members = set(instance.sets[s - 1])
        if covered & members:
            raise InvalidCertificateError("cover sets overlap")
        covered |= members
    if covered != set(range(1, instance.ground_size + 1)):
        raise InvalidCertificateError("cover does not hit every ground element")
    return indices


def _check_maximal_matching(
    instance: MMMInstance, matching: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    edges = [tuple(e) for e in matching]
    edge_set = set(instance.edges)
    covered: set[int] = set()
    for e in edges:
        if e not in edge_set:
            raise InvalidCertificateError(f"{e} is not an edge of the instance")
        if covered & set(e):
            raise InvalidCertificateError("matching edges share a vertex")
        covered |= set(e)
    if len(edges) > instance.k:
        raise InvalidCertificateError(f"matching exceeds the budget k={instance.k}")
    for a, b in instance.edges:
        if a not in covered and b not in covered:
            raise InvalidCertificateError(f"matching is not maximal: ({a}, {b}) is free")
    return edges


def witness_partition(
    reduced: ReducedGame, certificate: Iterable[int] | Iterable[tuple[int, int]]
) -> Partition:
    """The stable partition a valid certificate induces on the reduced game.

    For the Exact Cover constructions the certificate is a sequence of
    1-based indices into the instance's set list forming an exact cover; for
    the matching construction it is a maximal matching of size at most k,
    given as edge pairs.  Raises InvalidCertificateError otherwise.
    """
    if reduced.construction == "x3c_to_cns":
        return _x3c_cns_witness(reduced, _check_exact_cover(reduced.source, list(certificate)))
    if reduced.construction == "mmm_to_ns_is":
        return _mmm_witness(reduced, _check_maximal_matching(reduced.source, list(certificate)))
    if reduced.construction == "x3c_to_ns_bounded":
        return _x3c_ns_witness(reduced, _check_exact_cover(reduced.source, list(certificate)))
    raise ValueError(f"unknown construction {reduced.construction!r}")


def _x3c_cns_witness(reduced: ReducedGame, cover: list[int]) -> Partition:
    inst: X3CInstance = reduced.source
    agent = reduced.agent
    cycle = _GADGET[:3]  # the roles a witness leaves alone
    chosen = set(cover)
    coalitions = [[agent(f"{role}[{r}]")] for r in range(1, inst.ground_size + 1) for role in cycle]
    for s, members in enumerate(inst.sets, start=1):
        if s in chosen:
            coalitions += [[agent(f"a[{s}:{r}]"), agent(f"zeta[{r}]")] for r in members]
        else:
            coalitions.append([agent(f"a[{s}:{r}]") for r in members])
        for r in members:
            coalitions.append([agent(f"abar[{s}:{r}]"), agent(f"zeta[{s}:{r}]")])
            coalitions += [[agent(f"{role}[{s}:{r}]")] for role in cycle]
    return Partition(coalitions)


def _mmm_witness(reduced: ReducedGame, matching: list[tuple[int, int]]) -> Partition:
    inst: MMMInstance = reduced.source
    covered = {v for e in matching for v in e}
    coalitions: list[list[int]] = [list(e) for e in matching]
    free_a = [a for a in range(1, inst.n + 1) if a not in covered]
    gadget_hosts = free_a[: inst.n - inst.k]
    for i, a in enumerate(gadget_hosts, start=1):
        coalitions.append([a, reduced.agent(f"x[{i}:1]")])
        coalitions.append([reduced.agent(f"x[{i}:2]"), reduced.agent(f"x[{i}:3]")])
        coalitions.append([reduced.agent(f"x[{i}:4]"), reduced.agent(f"x[{i}:5]")])
    placed = {a for c in coalitions for a in c}
    coalitions += [[a] for a in range(1, reduced.game.n + 1) if a not in placed]
    return Partition(coalitions)


def _x3c_ns_witness(reduced: ReducedGame, cover: list[int]) -> Partition:
    inst: X3CInstance = reduced.source
    bounds = reduced.bounds
    hi = bounds.upper
    chosen = set(cover)
    coalitions: list[list[int]] = []
    spare_rank = 0
    for s, members in enumerate(inst.sets, start=1):
        block = [reduced.agent(f"xi[{s}:{i}]") for i in range(1, hi - 2)]
        if s in chosen:
            block += [reduced.agent(f"beta[{r}]") for r in members]
        else:
            spare_rank += 1
            block += [reduced.agent(f"t[{spare_rank}:{j}]") for j in range(1, 4)]
        coalitions.append(block)
    dummies = sorted(i for i, label in reduced.roles.items() if label.startswith("d["))
    coalitions.append(dummies[: hi - 1] + [reduced.agent("alpha")])
    rest = greedy_feasible_partition(dummies[hi - 1 :], bounds)
    assert rest is not None, "dummy block is sized to admit a feasible split"
    coalitions += rest
    return Partition(coalitions)
