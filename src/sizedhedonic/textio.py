r"""Line-oriented text formats for games, partitions, and source instances.

Formats (blank lines are ignored everywhere; ids are 1-based):

* game:       ``ashg <n> [symmetric]`` then ``v <i> <j> <w>`` per valuation;
              unlisted pairs are 0; under ``symmetric`` each line sets both
              directions and an unordered pair may be given at most once.
* partition:  one coalition per line, members whitespace-separated.
* x3c:        ``x3c <ground size>`` then ``set <a> <b> <c>`` per subset.
* mmm:        ``mmm <n> <k>`` then ``edge <i> <j>`` with i in 1..n and
              j in n+1..2n.
* cover:      ``cover <s1> <s2> ...`` (1-based set indices; lines accumulate).
* matching:   ``match <i> <j>`` per matched edge.

``parse`` / ``serialize`` round-trip on canonical form.

A malformed line raises ``ParseError`` with its line number, as
``str.splitlines`` counts lines; an error about the text as a whole, such
as an X3C set outside the ground set, has line 0.  Each line of the x3c,
mmm and matching formats, and each ``v`` line of a game, is a record
checked by one rule (``_record``): first its tag and field count, whose
mismatch raises the line's usage text, then each field in turn, which must
be an integer and is named in the error.  The game header, whose flag is
optional, has its own check (``_game_header``).  A game, x3c or mmm text
with no non-blank line raises ``empty input`` at line 1, naming the header
it expected (``_head``).

A game is read into its (n+1)² valuation table by one cell rule, which
both of its passes keep.  Each weight token is read through one memo for
the whole text (``_Weights``), which gives a zero weight as None, so every
cell a ``v`` line wrote reads as not 0 and every cell still 0 was never
written.  Once the body is read, ``_adopt`` sets each None back to 0 (only
when the memo holds a zero) and adopts the table as the ``Game``.  A
canonical game file (ASCII, ``\n`` line breaks, the header on the first
line with any whitespace between its tokens, and then only ``v i j w``
lines, as ``serialize_game`` writes) is parsed in bulk, a few kilobytes at
a time, and finds a repeated pair or a self-valuation by counting the
cells that are not 0 once the body is read (``_parse_canonical_game``).
Every other game text is parsed line by line, where a pair is a repeat
when its cell is not 0 (``_parse_game_lines``), with identical results and
errors.  Neither pass keeps any per-cell structure besides the table.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import repeat
from operator import setitem
from pathlib import Path

from .model import Game, Partition
from .reductions import MMMInstance, X3CInstance


class ParseError(ValueError):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _lines(text: str):
    """The line number and whitespace-split tokens of each non-blank line."""
    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens:
            yield number, tokens


def _head(rows, tag: str) -> tuple[int, list[str]]:
    """The first of ``rows`` (from ``_lines``), which must hold a ``tag`` header."""
    for head in rows:
        return head
    raise ParseError(1, f"empty input, expected an {tag!r} header")


def _record(number: int, tokens: list[str], tag: str, names, usage: str) -> tuple[int, ...]:
    """The integer fields of the record ``tokens`` on line ``number``.

    The record rule is the module docstring's: the tag must be ``tag`` and
    there must be one field per entry of ``names``, else ``usage`` is
    raised; each field not an integer is then named by its entry.
    """
    if tokens[0] != tag or len(tokens) != len(names) + 1:
        raise ParseError(number, usage)
    return tuple(map(_int, tokens[1:], repeat(number), names))


def _int(token: str, number: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(number, f"{what} must be an integer, got {token!r}") from None


def _build(constructor, *args):
    """``constructor(*args)``, with its ``ValueError`` raised as a ``ParseError``.

    Such an error concerns the text as a whole, so its line is 0.
    """
    try:
        return constructor(*args)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def parse_game(text: str) -> Game:
    """Parse the game format into a ``Game``.

    A canonical text, such as ``serialize_game`` writes, is read in bulk by
    ``_parse_canonical_game``.  Any other text, and every text with an
    error in its body, is read by the line loop ``_parse_game_lines``.
    Both build the same table.  A header error is raised by
    ``_game_header``, which both passes call on the same tokens and line
    number; only the line loop raises a body error.  So each error keeps
    its text and line number.
    """
    game = _parse_canonical_game(text)
    return game if game is not None else _parse_game_lines(text)


def _game_header(tokens: list[str], line: int) -> tuple[int, bool]:
    """The agent count and symmetric flag of an ``ashg <n> [symmetric]`` header.

    ``tokens`` are the (non-empty) whitespace-split header, found on
    ``line``; a malformed header raises its ``ParseError``.
    """
    if tokens[0] != "ashg" or len(tokens) not in (2, 3):
        raise ParseError(line, "expected header 'ashg <n> [symmetric]'")
    n = _int(tokens[1], line, "agent count")
    if n < 0:
        raise ParseError(line, "agent count must be nonnegative")
    if tokens[2:] not in ([], ["symmetric"]):
        raise ParseError(line, f"unknown header flag {tokens[2]!r}")
    return n, len(tokens) == 3


# Characters per bulk chunk; a chunk runs on to the end of its last line.
_CHUNK = 1 << 12
# The ASCII line breaks of str.splitlines other than "\n".
_OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def _parse_canonical_game(text: str) -> Game | None:
    r"""The game of a canonical text, or None for a text it cannot vouch for.

    Canonical means ASCII with ``\n`` as the only line break, the header
    ``ashg <n>`` or ``ashg <n> symmetric`` on the first line (split on any
    whitespace, as the line loop splits it), and then only lines that begin
    with ``v `` and hold four tokens.  The body is read in chunks of about
    ``_CHUNK`` characters cut after a ``\n``, so no list of the whole file
    is kept.  A chunk of L lines, each beginning with ``v ``, must split into
    4L tokens.  The i column (tokens 1, 5, 9, ...) goes through a dict from
    the strings ``"1"``..``"n"`` to their table rows, the j column (tokens
    2, 6, 10, ...) through a dict of the same strings to their ints, which
    also checks their range, and the w column through ``_Weights``.  Since
    ``v`` is neither an id nor an integer, the L ``v`` that begin the lines
    then all sit in the L places of the tag column, so each line is exactly
    ``v i j w``.  The table is filled by one C-level scatter, i's row at j's
    id; under ``symmetric`` a second one, through the same dicts, writes
    j's row at i's id.  By the cell rule each line leaves its cell not 0.
    After the last chunk the cells that are not 0 are counted: a
    self-valuation leaves the diagonal not 0, and a repeated pair (under
    ``symmetric``, either direction of a given pair) leaves fewer such
    cells than there are lines (twice as many under ``symmetric``).  Any
    other failed check returns None, and the line loop then reads the text
    and raises its error.  A malformed header on the first line is the
    exception: ``_game_header`` raises here the error the line loop would
    raise for the same line.
    """
    if not text.isascii() or any(map(text.__contains__, _OTHER_LINE_BREAKS)):
        return None
    end = text.find("\n")
    header = (text if end < 0 else text[:end]).split()
    if not header:
        return None
    n, symmetric = _game_header(header, 1)
    table = [[0] * (n + 1) for _ in range(n + 1)]
    ids = {str(a): a for a in range(1, n + 1)}
    rows = {str(a): table[a] for a in range(1, n + 1)}
    weights = _Weights()
    given = 0
    size = len(text)
    start = end + 1 if end >= 0 else size
    while start < size:
        stop = text.find("\n", start + _CHUNK) + 1 or size
        chunk = text[start:stop]
        start = stop
        lines = chunk.count("\n") + (not chunk.endswith("\n"))
        tokens = chunk.split()
        if (
            len(tokens) != 4 * lines
            or not chunk.startswith("v ")
            or chunk.count("\nv ") != lines - 1
        ):
            return None
        try:
            # token r of each line names the row and token c the column: i's row
            # at j's id, and under symmetric also j's row at i's id
            for r, c in ((1, 2), (2, 1))[: 1 + symmetric]:
                others = map(ids.__getitem__, tokens[c::4])
                values = map(weights.__getitem__, tokens[3::4])
                deque(map(setitem, map(rows.__getitem__, tokens[r::4]), others, values), 0)
        except (KeyError, ValueError):
            return None
        given += lines
    untouched = sum(map(list.count, table, repeat(0)))
    diagonal = list(map(list.__getitem__, table, range(n + 1)))
    if diagonal.count(0) != n + 1 or (n + 1) ** 2 - untouched != given * (1 + symmetric):
        return None
    return _adopt(n, table, symmetric, weights)


class _Weights(dict):
    """The memo from a weight token to its value, ``int(token)``, kept by
    either game pass for the whole text.

    A zero weight is given as None, the module docstring's cell rule, so
    that a cell a line wrote is told from a cell no line wrote.  A token
    ``int`` cannot read raises its ``ValueError``.
    """

    def __missing__(self, token: str) -> int | None:
        value = self[token] = int(token) or None
        return value


def _adopt(n: int, table: list[list], symmetric: bool, weights: _Weights) -> Game:
    """The game of a filled ``table``: each None set back to 0, when
    ``weights`` holds a zero, and the table adopted as it is."""
    if None in weights.values():
        for row in table:
            if None in row:
                row[:] = [w or 0 for w in row]
    return Game._from_table(n, table, symmetric)


def _parse_game_lines(text: str) -> Game:
    """Parse the game format line by line, straight into the valuation table.

    Each ``v`` line is checked and written into the (n+1)² table as it is
    read, its weight through ``_Weights``.  By the module docstring's cell
    rule a pair whose cell is not 0 was given before, so a repeated pair
    (or, under ``symmetric``, either direction of a given pair) is rejected
    on the line that repeats it, and no other per-cell mark is kept.
    """
    rows = _lines(text)
    number, header = _head(rows, "ashg")
    n, symmetric = _game_header(header, number)
    table = [[0] * (n + 1) for _ in range(n + 1)]
    weights = _Weights()
    for number, tokens in rows:
        # the fast path; a line that fails it is malformed, and _record raises its error
        try:
            tag, i, j, w = tokens
            i, j, w = int(i), int(j), weights[w]
        except ValueError:
            tag = None
        if tag != "v":
            names = ("agent id", "agent id", "valuation")
            i, j, w = _record(number, tokens, "v", names, "expected 'v <i> <j> <w>'")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(number, f"agent ids must lie in 1..{n}")
        if i == j:
            raise ParseError(number, "an agent may not value itself")
        row = table[i]
        if row[j] != 0:
            if symmetric and row[j] != w:
                old = row[j] or 0
                raise ParseError(number, f"symmetry conflict: v_{i}({j}) already set to {old}")
            raise ParseError(number, f"duplicate valuation for pair ({i}, {j})")
        row[j] = w
        if symmetric:
            table[j][i] = w
    return _adopt(n, table, symmetric, weights)


def serialize_game(game: Game) -> str:
    lines = [f"ashg {game.n}" + (" symmetric" if game.symmetric else "")]
    for a, b, w in game.nonzero_pairs():
        if game.symmetric and a > b:
            continue
        lines.append(f"v {a} {b} {w}")
    return "\n".join(lines) + "\n"


def parse_partition(text: str) -> Partition:
    coalitions = []
    for number, tokens in _lines(text):
        coalitions.append([_int(tok, number, "agent id") for tok in tokens])
    return _build(Partition, coalitions)


def serialize_partition(partition: Partition) -> str:
    return "\n".join(" ".join(map(str, c)) for c in partition.coalitions) + "\n"


def parse_x3c(text: str) -> X3CInstance:
    rows = _lines(text)
    header = _head(rows, "x3c")
    (ground,) = _record(*header, "x3c", ("ground size",), "expected header 'x3c <ground size>'")
    usage = "expected 'set <a> <b> <c>'"
    sets = tuple(_record(*row, "set", ("element",) * 3, usage) for row in rows)
    return _build(X3CInstance, ground, sets)


def serialize_x3c(instance: X3CInstance) -> str:
    lines = [f"x3c {instance.ground_size}"]
    lines += [f"set {a} {b} {c}" for a, b, c in instance.sets]
    return "\n".join(lines) + "\n"


def parse_mmm(text: str) -> MMMInstance:
    rows = _lines(text)
    header = _head(rows, "mmm")
    n, k = _record(*header, "mmm", ("side size", "budget"), "expected header 'mmm <n> <k>'")
    usage = "expected 'edge <i> <j>'"
    edges = tuple(_record(*row, "edge", ("vertex", "vertex"), usage) for row in rows)
    return _build(MMMInstance, n, k, edges)


def serialize_mmm(instance: MMMInstance) -> str:
    lines = [f"mmm {instance.n} {instance.k}"]
    lines += [f"edge {a} {b}" for a, b in instance.edges]
    return "\n".join(lines) + "\n"


def parse_cover(text: str) -> list[int]:
    indices: list[int] = []
    for number, tokens in _lines(text):
        if tokens[0] != "cover":
            raise ParseError(number, "expected 'cover <s1> <s2> ...'")
        indices += [_int(tok, number, "set index") for tok in tokens[1:]]
    return indices


def serialize_cover(indices) -> str:
    return "cover " + " ".join(map(str, indices)) + "\n"


def parse_matching(text: str) -> list[tuple[int, int]]:
    usage = "expected 'match <i> <j>'"
    return [_record(*row, "match", ("vertex", "vertex"), usage) for row in _lines(text)]


def serialize_matching(edges) -> str:
    return "\n".join(f"match {a} {b}" for a, b in edges) + "\n"


_PARSERS = {
    "game": parse_game,
    "partition": parse_partition,
    "x3c": parse_x3c,
    "mmm": parse_mmm,
    "cover": parse_cover,
    "matching": parse_matching,
}


def parse(source: str | os.PathLike, kind: str):
    """Parse ``source`` (text, or a path-like pointing at a file) as ``kind``.

    A file that cannot be opened or decoded raises ``ValueError`` naming it
    (``_read``, which the CLI reads its files through too).
    """
    if kind not in _PARSERS:
        raise ValueError(f"unknown kind {kind!r}; know {sorted(_PARSERS)}")
    return _PARSERS[kind](_read(source) if isinstance(source, os.PathLike) else source)


def _read(path: str | os.PathLike) -> str:
    """The text of the file at ``path``; a file that cannot be opened or
    decoded raises ``ValueError("cannot read <path>: <reason>")``."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
