"""The benchmark's own writer and reader for the package's text formats.

Used to write the CLI workload's input files and to read the CLI's stdout
back, so that the CLI checks do not go through the ``textio`` code they
measure.  Only the parts of the formats the workload uses are covered.
"""

from __future__ import annotations


def write_game(v, symmetric: bool = False) -> str:
    n = len(v) - 1
    lines = [f"ashg {n}" + (" symmetric" if symmetric else "")]
    for a in range(1, n + 1):
        row = v[a]
        for b in range(a + 1 if symmetric else 1, n + 1):
            if b != a and row[b]:
                lines.append(f"v {a} {b} {row[b]}")
    return "\n".join(lines) + "\n"


def read_game(text: str):
    """(valuation matrix, symmetric flag) of a game file."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    header = lines[0]
    if header[0] != "ashg":
        raise ValueError(f"not a game: {header}")
    n = int(header[1])
    symmetric = header[2:] == ["symmetric"]
    v = [[0] * (n + 1) for _ in range(n + 1)]
    for tag, a, b, w in lines[1:]:
        if tag != "v":
            raise ValueError(f"not a valuation line: {tag}")
        v[int(a)][int(b)] = int(w)
        if symmetric:
            v[int(b)][int(a)] = int(w)
    return v, symmetric


def write_partition(coalitions) -> str:
    return "".join(" ".join(map(str, c)) + "\n" for c in coalitions)


def read_partition(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(t) for t in line.split()) for line in text.splitlines() if line.strip()]


def read_verdict(text: str):
    """None for ``stable``, else (agent, members joined or None for new)."""
    lines = text.split("\n")
    if lines[0] == "stable":
        return None
    if lines[0] != "unstable":
        raise ValueError(f"not a verdict: {lines[0]!r}")
    tokens = lines[1].split()
    if tokens[0] != "deviation":
        raise ValueError(f"not a deviation: {lines[1]!r}")
    if tokens[2] == "new":
        return int(tokens[1]), None
    return int(tokens[1]), tuple(int(t) for t in tokens[3:])


def write_x3c(ground: int, sets) -> str:
    return f"x3c {ground}\n" + "".join(f"set {a} {b} {c}\n" for a, b, c in sets)


def write_mmm(n: int, k: int, edges) -> str:
    return f"mmm {n} {k}\n" + "".join(f"edge {a} {b}\n" for a, b in edges)


def write_cover(indices) -> str:
    return "cover " + " ".join(map(str, indices)) + "\n"


def write_matching(edges) -> str:
    return "".join(f"match {a} {b}\n" for a, b in edges)
