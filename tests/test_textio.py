from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sizedhedonic import (
    MMMInstance,
    Partition,
    X3CInstance,
    aziz_failure,
    intro_positive,
    mmm_to_ns_is,
    star_no_cis,
    x3c_to_cns,
)
from sizedhedonic import textio
from sizedhedonic.model import Game
from sizedhedonic.textio import (
    ParseError,
    parse,
    parse_cover,
    parse_game,
    parse_matching,
    parse_mmm,
    parse_partition,
    parse_x3c,
    serialize_cover,
    serialize_game,
    serialize_matching,
    serialize_mmm,
    serialize_partition,
    serialize_x3c,
)


class TestGameFormat:
    def test_minimal(self):
        g = parse_game("ashg 2\nv 1 2 5\n")
        assert g.n == 2 and g.value(1, 2) == 5 and g.value(2, 1) == 0

    def test_symmetric_sets_both_directions(self):
        g = parse_game("ashg 3 symmetric\nv 1 2 4\n")
        assert g.symmetric and g.value(2, 1) == 4

    def test_symmetry_conflict(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_game("ashg 2 symmetric\nv 1 2 3\nv 2 1 4")

    def test_duplicates_rejected(self):
        with pytest.raises(ParseError):
            parse_game("ashg 2\nv 1 2 3\nv 1 2 3")
        with pytest.raises(ParseError):
            parse_game("ashg 2 symmetric\nv 1 2 3\nv 2 1 3")

    def test_range_and_shape_errors(self):
        for text in (
            "",
            "ashg\n",
            "ashg two\n",
            "ashg 2 lopsided\n",
            "ashg 2\nv 1 3 1\n",
            "ashg 2\nv 1 1 1\n",
            "ashg 2\nv 1 2\n",
            "ashg 2\nw 1 2 3\n",
        ):
            with pytest.raises(ParseError):
                parse_game(text)

    def test_round_trips(self):
        for g in (aziz_failure(), intro_positive(3), star_no_cis(2), Game(1), Game(0)):
            assert parse_game(serialize_game(g)) == g

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trips_random(self, data):
        n = data.draw(st.integers(0, 6))
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
        vals = {
            pair: data.draw(st.integers(-9, 9), label=str(pair)) for pair in pairs
        }
        g = Game(n, vals)
        assert parse_game(serialize_game(g)) == g


class TestPartitionFormat:
    def test_parse_and_serialize(self):
        p = parse_partition("2 4\n1 3\n")
        assert p == Partition([[1, 3], [2, 4]])
        assert serialize_partition(p) == "1 3\n2 4\n"

    def test_bad_partitions(self):
        with pytest.raises(ParseError):
            parse_partition("1 2\n2 3\n")
        with pytest.raises(ParseError):
            parse_partition("1 x\n")

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_round_trips_random(self, data):
        n = data.draw(st.integers(1, 30))
        agents = data.draw(st.permutations(range(1, n + 1)))
        cuts = data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        bounds = [0, *sorted(cuts), n]
        coalitions = [list(agents[i:j]) for i, j in zip(bounds, bounds[1:])]
        shuffled = [data.draw(st.permutations(c)) for c in coalitions]
        shuffled = data.draw(st.permutations(shuffled))
        p = Partition(shuffled)
        text = "".join(" ".join(map(str, c)) + "\n" for c in shuffled)
        assert parse_partition(text) == p
        assert parse_partition(serialize_partition(p)) == p


class TestInstanceFormats:
    def test_x3c_round_trip(self):
        inst = X3CInstance(6, ((1, 2, 3), (4, 5, 6)))
        assert parse_x3c(serialize_x3c(inst)) == inst
        with pytest.raises(ParseError):
            parse_x3c("x3c 6\nset 1 2\n")
        with pytest.raises(ParseError):
            parse_x3c("x3c 5\n")

    def test_mmm_round_trip(self):
        inst = MMMInstance(2, 1, ((1, 3), (2, 4)))
        assert parse_mmm(serialize_mmm(inst)) == inst
        with pytest.raises(ParseError):
            parse_mmm("mmm 2 1\nedge 1 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: empty input, expected an 'x3c' header"),
            ("x3c\n", "line 1: expected header 'x3c <ground size>'"),
            ("mmm 3\n", "line 1: expected header 'x3c <ground size>'"),
            ("x3c 3\nedge 1 2\n", "line 2: expected 'set <a> <b> <c>'"),
        ],
    )
    def test_x3c_errors_name_the_line(self, text, message):
        with pytest.raises(ParseError) as raised:
            parse_x3c(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: empty input, expected an 'mmm' header"),
            ("mmm 2\n", "line 1: expected header 'mmm <n> <k>'"),
            ("x3c 2 1\n", "line 1: expected header 'mmm <n> <k>'"),
            ("mmm 2 1\nedge 1\n", "line 2: expected 'edge <i> <j>'"),
            ("mmm 2 1\nset 1 3\n", "line 2: expected 'edge <i> <j>'"),
        ],
    )
    def test_mmm_errors_name_the_line(self, text, message):
        with pytest.raises(ParseError) as raised:
            parse_mmm(text)
        assert str(raised.value) == message

    def test_certificates(self):
        assert parse_cover(serialize_cover([1, 3])) == [1, 3]
        assert parse_cover("cover 1\ncover 2 3\n") == [1, 2, 3]
        assert parse_matching(serialize_matching([(1, 3), (2, 4)])) == [(1, 3), (2, 4)]
        with pytest.raises(ParseError):
            parse_cover("coverage 1\n")
        with pytest.raises(ParseError):
            parse_matching("match 1\n")

    def test_all_generator_outputs_round_trip(self):
        from sizedhedonic import (
            cycle_no_is_star,
            intro_negative,
            pairs_triangle_no_cns_star,
            x3c_to_ns_bounded,
        )
        from sizedhedonic.model import SizeBounds

        games = [
            intro_positive(2),
            intro_negative(3),
            star_no_cis(3),
            cycle_no_is_star(7),
            pairs_triangle_no_cns_star(2),
            aziz_failure(),
            x3c_to_cns(X3CInstance(3, ((1, 2, 3),)), 3).game,
            mmm_to_ns_is(MMMInstance(2, 1, ((1, 3), (1, 4))), 2).game,
            x3c_to_ns_bounded(X3CInstance(3, ((1, 2, 3),)), SizeBounds(2, 4)).game,
        ]
        for g in games:
            assert parse_game(serialize_game(g)) == g


def test_generic_parse_dispatch(tmp_path: Path):
    assert parse("ashg 1\n", "game").n == 1
    path = tmp_path / "g.ashg"
    path.write_text(serialize_game(aziz_failure()))
    assert parse(path, "game") == aziz_failure()
    with pytest.raises(ValueError):
        parse("ashg 1\n", "matrix")


# Every ParseError of the game format, pinned by its full text: the line
# number (counted by str.splitlines, which also breaks on \r, \x0c and
# \u2028) and the order of the checks within a line (keyword and arity, then
# i, j and w as integers, then range, then self-valuation, then duplicate or
# symmetry conflict).
GAME_PARSE_ERRORS = [
    ("", 1, "empty input, expected an 'ashg' header"),
    ("\n  \n\t\n", 1, "empty input, expected an 'ashg' header"),
    ("\n\nashg two\n", 3, "agent count must be an integer, got 'two'"),
    ("\n\n\nashg 2\nv 1 1 1\n", 5, "an agent may not value itself"),
    ("ashg\n", 1, "expected header 'ashg <n> [symmetric]'"),
    ("graph 2\n", 1, "expected header 'ashg <n> [symmetric]'"),
    ("ashg 2 symmetric extra\n", 1, "expected header 'ashg <n> [symmetric]'"),
    ("ashg two\n", 1, "agent count must be an integer, got 'two'"),
    ("ashg -1\n", 1, "agent count must be nonnegative"),
    ("ashg 2 lopsided\n", 1, "unknown header flag 'lopsided'"),
    ("ashg 2\nv 1 2\n", 2, "expected 'v <i> <j> <w>'"),
    ("ashg 2\nv 1 2 3 4\n", 2, "expected 'v <i> <j> <w>'"),
    ("ashg 2\nw 1 2 3\n", 2, "expected 'v <i> <j> <w>'"),
    ("ashg 2\nv 1 x 1 1\n", 2, "expected 'v <i> <j> <w>'"),
    ("ashg 2\nv x 2 3\n", 2, "agent id must be an integer, got 'x'"),
    ("ashg 2\nv 1 y 3\n", 2, "agent id must be an integer, got 'y'"),
    ("ashg 2\nv 1 2 z\n", 2, "valuation must be an integer, got 'z'"),
    ("ashg 2\nv x y z\n", 2, "agent id must be an integer, got 'x'"),
    ("ashg 2\nv 1 9 z\n", 2, "valuation must be an integer, got 'z'"),
    ("ashg 2\nv 1 2 1.5\n", 2, "valuation must be an integer, got '1.5'"),
    ("ashg 2\nv 1 3 1\n", 2, "agent ids must lie in 1..2"),
    ("ashg 2\nv 0 1 1\n", 2, "agent ids must lie in 1..2"),
    ("ashg 2\nv 3 3 1\n", 2, "agent ids must lie in 1..2"),
    ("ashg 0\nv 1 2 3\n", 2, "agent ids must lie in 1..0"),
    ("ashg 2\nv 1 1 1\n", 2, "an agent may not value itself"),
    ("ashg 2\nv 1 2 3\n\nv 1 2 3\n", 4, "duplicate valuation for pair (1, 2)"),
    ("ashg 2\nv 1 2 3\nv 1 2 4\n", 3, "duplicate valuation for pair (1, 2)"),
    ("ashg 2 symmetric\nv 1 2 3\nv 2 1 3\n", 3, "duplicate valuation for pair (2, 1)"),
    ("ashg 2 symmetric\nv 1 2 3\nv 2 1 4\n", 3, "symmetry conflict: v_2(1) already set to 3"),
    ("ashg 2 symmetric\nv 1 2 3\nv 1 2 4\n", 3, "symmetry conflict: v_1(2) already set to 3"),
    ("ashg 2 symmetric\nv 1 2 0\nv 2 1 5\n", 3, "symmetry conflict: v_2(1) already set to 0"),
    ("ashg 2 symmetric\nv 1 2 3\nv 2 1 x\n", 3, "valuation must be an integer, got 'x'"),
    ("ashg 2\x0c\x0cv 1 2 x", 3, "valuation must be an integer, got 'x'"),
    ("ashg 2\r\nv 1 1 1\rv 1 3 1", 2, "an agent may not value itself"),
    ("ashg 2\rv 1 2 1\rv 1 3 1", 3, "agent ids must lie in 1..2"),
    ("ashg 2\u2028\nv 1 2 q", 3, "valuation must be an integer, got 'q'"),
    ("ashg 2\nx 1 2 a\n", 2, "expected 'v <i> <j> <w>'"),
    ("ashg 2\nv\t1\t2\tz\n", 2, "valuation must be an integer, got 'z'"),
]


@pytest.mark.parametrize("text, line, message", GAME_PARSE_ERRORS)
def test_game_parse_error_text_and_line(text, line, message):
    with pytest.raises(ParseError) as info:
        parse_game(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


# Every ParseError of the record formats (x3c, mmm, matching, and cover's
# integer fields), pinned by its full text: per line, the tag and field count
# come first, then each field in turn as a named integer.
RECORD_PARSE_ERRORS = [
    ("x3c", "", 1, "empty input, expected an 'x3c' header"),
    ("x3c", "\n  \n\t\n", 1, "empty input, expected an 'x3c' header"),
    ("x3c", "set 1 2 3\n", 1, "expected header 'x3c <ground size>'"),
    ("x3c", "x3c\n", 1, "expected header 'x3c <ground size>'"),
    ("x3c", "x3c 3 3\n", 1, "expected header 'x3c <ground size>'"),
    ("x3c", "x3c six\n", 1, "ground size must be an integer, got 'six'"),
    ("x3c", "\n\nx3c six\n", 3, "ground size must be an integer, got 'six'"),
    ("x3c", "x3c 3\nedge 1 2 3\n", 2, "expected 'set <a> <b> <c>'"),
    ("x3c", "x3c 3\nset 1 2\n", 2, "expected 'set <a> <b> <c>'"),
    ("x3c", "x3c 3\nset 1 2 3 4\n", 2, "expected 'set <a> <b> <c>'"),
    ("x3c", "x3c 3\nset 1 2 x 4\n", 2, "expected 'set <a> <b> <c>'"),
    ("x3c", "x3c 3\nset a 2 3\n", 2, "element must be an integer, got 'a'"),
    ("x3c", "x3c 3\nset 1 b 3\n", 2, "element must be an integer, got 'b'"),
    ("x3c", "x3c 3\nset 1 2 c\n", 2, "element must be an integer, got 'c'"),
    ("x3c", "x3c 3\nset a b c\n", 2, "element must be an integer, got 'a'"),
    ("x3c", "x3c 3\nset 1 2 3\n\n\tset 1 2 q\n", 4, "element must be an integer, got 'q'"),
    ("mmm", "", 1, "empty input, expected an 'mmm' header"),
    ("mmm", "\n  \n\t\n", 1, "empty input, expected an 'mmm' header"),
    ("mmm", "edge 2 1\n", 1, "expected header 'mmm <n> <k>'"),
    ("mmm", "mmm 2\n", 1, "expected header 'mmm <n> <k>'"),
    ("mmm", "mmm 2 1 0\n", 1, "expected header 'mmm <n> <k>'"),
    ("mmm", "mmm a b\n", 1, "side size must be an integer, got 'a'"),
    ("mmm", "mmm 2 b\n", 1, "budget must be an integer, got 'b'"),
    ("mmm", "\n \nmmm 2 b\n", 3, "budget must be an integer, got 'b'"),
    ("mmm", "mmm 2 1\nmatch 1 3\n", 2, "expected 'edge <i> <j>'"),
    ("mmm", "mmm 2 1\nedge 1\n", 2, "expected 'edge <i> <j>'"),
    ("mmm", "mmm 2 1\nedge 1 3 4\n", 2, "expected 'edge <i> <j>'"),
    ("mmm", "mmm 2 1\nedge 1 x 4\n", 2, "expected 'edge <i> <j>'"),
    ("mmm", "mmm 2 1\nedge x 3\n", 2, "vertex must be an integer, got 'x'"),
    ("mmm", "mmm 2 1\nedge 1 y\n", 2, "vertex must be an integer, got 'y'"),
    ("matching", "edge 1 3\n", 1, "expected 'match <i> <j>'"),
    ("matching", "match 1\n", 1, "expected 'match <i> <j>'"),
    ("matching", "match 1 2 3\n", 1, "expected 'match <i> <j>'"),
    ("matching", "match x 3\n", 1, "vertex must be an integer, got 'x'"),
    ("matching", "match 1 y\n", 1, "vertex must be an integer, got 'y'"),
    ("matching", "match 1 3\n\nmatch 2 z\n", 3, "vertex must be an integer, got 'z'"),
    ("cover", "coverage 1\n", 1, "expected 'cover <s1> <s2> ...'"),
    ("cover", "cover 1 x\n", 1, "set index must be an integer, got 'x'"),
]


@pytest.mark.parametrize("kind, text, line, message", RECORD_PARSE_ERRORS)
def test_record_parse_error_text_and_line(kind, text, line, message):
    with pytest.raises(ParseError) as info:
        parse(text, kind)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_parse_game_matches_game_from_its_lines(data):
    """A valid game text parses to the Game built from its valuation lines."""
    n = data.draw(st.integers(0, 8), label="n")
    symmetric = data.draw(st.booleans(), label="symmetric")
    if symmetric:
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    else:
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    lines = []
    vals: dict[tuple[int, int], int] = {}
    for a, b in chosen:
        if symmetric and data.draw(st.booleans()):
            a, b = b, a
        w = data.draw(st.integers(-50, 50))
        vals[(a, b)] = w
        if symmetric:
            vals[(b, a)] = w
        lines.append(f"v {a} {b} {w}")
    lines = data.draw(st.permutations(lines))
    blanks = st.sampled_from(["", "  ", "\t"])
    body = []
    for line in lines:
        body += data.draw(st.lists(blanks, max_size=2))
        body.append(line)
    header = f"ashg {n}" + (" symmetric" if symmetric else "")
    text = "\n".join([*data.draw(st.lists(blanks, max_size=2)), header, *body]) + "\n"
    game = parse_game(text)
    assert game == Game(n, vals, symmetric=symmetric)
    if symmetric:
        assert game.has_symmetric_table()


def test_round_trip_at_two_hundred_agents():
    import random

    rng = random.Random(200)
    n = 200
    vals = {
        (a, b): rng.randint(-9, 9)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if a != b and rng.random() < 0.5
    }
    g = Game(n, vals)
    assert parse_game(serialize_game(g)) == g
    sym = {(a, b): w for (a, b), w in vals.items() if a < b}
    sym.update({(b, a): w for (a, b), w in sym.items()})
    s = Game(n, sym, symmetric=True)
    assert parse_game(serialize_game(s)) == s


# The bulk pass of parse_game against the line loop it falls back to: on
# every text both return an equal Game, or raise the same ParseError text
# on the same line.  Valid texts are mutated into the forms the bulk pass
# must leave to the line loop, valid or not.

LINE_BREAKS = ["\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028"]


# Integers that int() reads but str() does not write; "\u0663" is an
# Arabic-Indic 3 and "\uff13" a full-width 3.
NON_CANONICAL_INTEGERS = ["+3", "007", "-03", "1_0", "-0", "+0", "00", "\u0663", "\uff13"]


def outcome(parse, text):
    try:
        return "game", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line


@st.composite
def game_texts(draw):
    """A canonical game text and the same text under up to four mutations,
    with the number of mutations applied."""
    n = draw(st.integers(0, 7), label="n")
    symmetric = draw(st.booleans(), label="symmetric")
    if symmetric:
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    else:
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    header = ["ashg", str(n)] + (["symmetric"] if symmetric else [])
    lines = [["v", str(a), str(b), str(draw(st.integers(-12, 12)))] for a, b in chosen]
    canonical = "\n".join(" ".join(t) for t in [header, *lines]) + "\n"
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=4), label="mutations")
    # each line is (leading text, tokens, separator, line break)
    rows = [["", header, " ", "\n"]] + [["", tokens, " ", "\n"] for tokens in lines]
    for mutate in mutations:
        mutate(draw, rows, n)
    text = "".join(lead + sep.join(tokens) + end for lead, tokens, sep, end in rows)
    return canonical, text, len(mutations)


def _body_index(draw, rows, insert=False):
    return draw(st.integers(1, len(rows) if insert else len(rows) - 1))


def _blank(draw, rows, n):
    rows.insert(_body_index(draw, rows, True), [draw(st.sampled_from(["", "  ", "\t", " \t "])), [], " ", "\n"])


def _indent(draw, rows, n):
    draw(st.sampled_from(rows))[0] = draw(st.sampled_from([" ", "\t", "\x1f"]))


def _separator(draw, rows, n):
    draw(st.sampled_from(rows))[2] = draw(st.sampled_from(["\t", "  ", " \t", "\xa0", "\u3000"]))


def _line_break(draw, rows, n):
    draw(st.sampled_from(rows))[3] = draw(st.sampled_from(LINE_BREAKS))


def _no_final_newline(draw, rows, n):
    rows[-1][3] = ""


def _respell(draw, rows, n):
    tokens = draw(st.sampled_from(rows))[1]
    if len(tokens) > 1:
        k = draw(st.integers(1, len(tokens) - 1)) if tokens[0] == "v" else 1
        tokens[k] = draw(st.sampled_from(NON_CANONICAL_INTEGERS))


def _out_of_range(draw, rows, n):
    if len(rows) > 1:
        tokens = rows[_body_index(draw, rows)][1]
        if len(tokens) > 2:
            tokens[draw(st.sampled_from([1, 2]))] = draw(st.sampled_from(["0", str(n + 1)]))


def _self_valuation(draw, rows, n):
    if n:
        a = str(draw(st.integers(1, n)))
        rows.insert(_body_index(draw, rows, True), ["", ["v", a, a, "1"], " ", "\n"])


def _arity(draw, rows, n):
    if len(rows) > 1:
        tokens = rows[_body_index(draw, rows)][1]
        if tokens and draw(st.booleans()):
            tokens.pop()
        else:
            tokens.append(draw(st.sampled_from(["1", "v", "x"])))


def _repeat(draw, rows, n):
    # a pair given again, as is or reversed, with its weight, another one or 0
    if len(rows) > 1:
        tokens = rows[_body_index(draw, rows)][1]
        if len(tokens) == 4 and tokens[0] == "v":
            _, a, b, w = tokens
            if draw(st.booleans()):
                a, b = b, a
            w = draw(st.sampled_from([w, "0", str(draw(st.integers(-3, 3)))]))
            rows.insert(_body_index(draw, rows, True), ["", ["v", a, b, w], " ", "\n"])


def _no_agents(draw, rows, n):
    rows[0][1][1] = "0"


def _not_an_integer(draw, rows, n):
    tokens = draw(st.sampled_from(rows))[1]
    if len(tokens) > 1:
        tokens[draw(st.integers(1, len(tokens) - 1))] = draw(st.sampled_from(["x", "1.5", "3-"]))


def _tag(draw, rows, n):
    if len(rows) > 1:
        tokens = rows[_body_index(draw, rows)][1]
        if tokens:
            tokens[0] = draw(st.sampled_from(["w", "V", "vv", "ashg"]))


MUTATIONS = [
    _blank, _indent, _separator, _line_break, _no_final_newline, _respell,
    _out_of_range, _self_valuation, _arity, _repeat, _no_agents, _not_an_integer, _tag,
]


@given(game_texts())
@settings(max_examples=400, deadline=None)
def test_parse_game_matches_line_loop(case):
    canonical, text, mutated = case
    assert outcome(parse_game, text) == outcome(textio._parse_game_lines, text)
    if not mutated:
        assert text == canonical
        assert textio._parse_canonical_game(text) == textio._parse_game_lines(text)


# A canonical 60-agent body of about nine chunks.
_SEVERAL_CHUNKS = "".join(
    f"v {a} {b} {a - b}\n" for a in range(1, 61) for b in range(1, 61) if a != b
)

# Texts on which a bulk pass that missed one of its checks would differ from
# the line loop, valid ones among them.
EDGE_GAME_TEXTS = [
    *(f"ashg 2\nv 1 2 {c}3\n" for c in ["\n", *LINE_BREAKS, "\x1d", "\x1e", "\u2029"]),
    *(f"ashg 2\nv 1 2 3{c}v 2 1 4\n" for c in LINE_BREAKS),
    "ashg 2\nw 1 2 3\n",
    "ashg 3\nv 1 2 3\nw 1 3 4\n",
    "ashg 3\nv 1 2 3\nvv 1 3 4\n",
    "ashg 3\nv1 2 3 4\n",
    "ashg 3\nv 1 2 3\nv 2 1 3 4\n",
    "ashg 3\nv 1 2\nv 1 3 2 1\n",
    "ashg 3\nv 1 2 3 v\nv 1 2\n",
    "ashg 3\nv 1 2 3\nv v 1 2\n",
    "ashg 3\nv \nv 1 2 3 4 1 3\n",
    "ashg 3\nv 1 2 3\n\nv 2 1 3\n",
    "ashg 3\nv 1 2 3\n \nv 2 1 3\n",
    "ashg 3\n v 1 2 3\n",
    "ashg 3\nv  1 2 3\nv\t2 1 3\nv 3 1 3 \n",
    "ashg 3\r\nv 1 2 3\r\n",
    "\nashg 3\nv 1 2 3\n",
    # texts longer than one chunk reach the bulk pass, which reads the first line
    pytest.param("\nashg 60\n" + _SEVERAL_CHUNKS, id="blank-first-line-several-chunks"),
    pytest.param(" \t\nashg 60\n" + _SEVERAL_CHUNKS, id="whitespace-first-line-several-chunks"),
    "ashg +3\nv 1 2 3\n",
    "ashg 03\nv 1 2 3\n",
    "ashg 3 \nv 1 2 3\n",
    "ashg  3\nv 1 2 3\n",
    "ashg 3\t\nv 1 2 3\n",
    "ashg 3 symmetric \nv 1 2 3\n",
    "ashg -1\n",
    "ashg x\n",
    "ashg 2",
    "ashg 2 symmetric",
    "ashg 2\nv 1 2 3",
    "ashg 2\nv 1 2 3\nv",
    "ashg 3\nv 1 1 3\n",
    "ashg 3 symmetric\nv 2 2 0\n",
    "ashg 3\nv 1 2 3\nv 1 2 3\n",
    "ashg 3\nv 1 2 3\nv 2 1 3\n",
    "ashg 3 symmetric\nv 1 2 0\nv 2 1 0\n",
    "ashg 3 symmetric\nv 1 2 0\nv 2 1 5\n",
    "ashg 3\nv 01 2 3\n",
    "ashg 3\nv 1 +2 3\n",
    *(f"ashg 3\nv 1 2 {w}\n" for w in [*NON_CANONICAL_INTEGERS, "x", "1.5"]),
    "ashg 3\nv 0 1 3\n",
    "ashg 3\nv 1 4 3\n",
    "ashg 0\nv 1 2 3\n",
    "ashg 0\n",
]


@pytest.mark.parametrize("text", EDGE_GAME_TEXTS)
def test_parse_game_matches_line_loop_on_edge_texts(text):
    assert outcome(parse_game, text) == outcome(textio._parse_game_lines, text)


def test_repeat_in_a_later_chunk_is_caught():
    g = Game(60, {(a, b): a - b for a in range(1, 61) for b in range(1, 61) if a != b})
    text = serialize_game(g)
    assert len(text) > 2 * textio._CHUNK
    first = text.split("\n")[1]
    for extra in (first, "v 2 1 9", "v 60 60 1"):
        with pytest.raises(ParseError) as info:
            parse_game(text + extra + "\n")
        assert info.value.line == text.count("\n") + 1


def test_a_text_of_one_chunk_takes_the_line_loop(monkeypatch):
    # the line loop is the faster pass on a text of one chunk
    g = Game(12, {(a, b): a - b for a in range(1, 13) for b in range(1, 13) if a != b})
    text = serialize_game(g)
    assert len(text) <= textio._CHUNK
    assert textio._parse_canonical_game(text) == g

    def bulk(text):
        raise AssertionError("the bulk pass ran on a text of one chunk")

    monkeypatch.setattr(textio, "_parse_canonical_game", bulk)
    assert parse_game(text) == g


def test_canonical_200_agent_text_takes_the_bulk_pass(monkeypatch):
    import random

    rng = random.Random(201)
    n = 200
    vals = {
        (a, b): rng.randint(-9, 9)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if a != b and rng.random() < 0.5
    }
    games = [Game(n, vals)]
    sym = {(a, b): w for (a, b), w in vals.items() if a < b}
    sym.update({(b, a): w for (a, b), w in sym.items()})
    games.append(Game(n, sym, symmetric=True))
    texts = [serialize_game(g) for g in games]

    def line_loop(text):
        raise AssertionError("the line loop ran on a canonical text")

    monkeypatch.setattr(textio, "_parse_game_lines", line_loop)
    for g, text in zip(games, texts):
        assert len(text) > 4 * textio._CHUNK  # several chunks
        assert parse_game(text) == g
        assert parse_game(text.rstrip("\n")) == g


# The bulk pass finds a repeated pair or a self-valuation by counting the
# cells its scatters wrote once the whole body is read, with a zero weight
# written as a mark of its own; these texts span several chunks, so the
# lines the count must catch sit in different chunks.


def _body(n, symmetric, skip=()):
    """The ``v`` lines of every pair of n agents but ``skip``, zeros included
    (one pair per unordered pair under ``symmetric``)."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
             if (a < b if symmetric else a != b) and (a, b) not in skip]
    return [f"v {a} {b} {(3 * a + b) % 9 - 4}" for a, b in pairs]


def _count_rule_text(symmetric, first, last):
    """A 60-agent text that gives pair (1, 2) by ``first`` and ``last`` only,
    the first line of its body and the last."""
    header = "ashg 60" + (" symmetric" if symmetric else "")
    lines = [header, *first, *_body(60, symmetric, skip={(1, 2), (2, 1)}), *last]
    return "\n".join(lines) + "\n"


COUNT_RULE_TEXTS = {
    # a repeated pair, its two copies in different chunks, one of them 0
    "repeat-then-0": _count_rule_text(False, ["v 1 2 5"], ["v 1 2 0"]),
    "0-then-repeat": _count_rule_text(False, ["v 1 2 0"], ["v 1 2 5"]),
    "0-twice": _count_rule_text(False, ["v 1 2 0"], ["v 1 2 0"]),
    "symmetric-0-twice": _count_rule_text(True, ["v 1 2 0"], ["v 1 2 0"]),
    "symmetric-0-then-reversed": _count_rule_text(True, ["v 1 2 0"], ["v 2 1 3"]),
    # a self-valuation of weight 0, first or last
    "self-0-first": _count_rule_text(False, ["v 1 2 1", "v 7 7 0"], []),
    "self-0-last": _count_rule_text(False, ["v 1 2 1"], ["v 60 60 0"]),
    "symmetric-self-0": _count_rule_text(True, ["v 1 2 1"], ["v 5 5 0"]),
    # both directions of one symmetric pair, each given as 0
    "symmetric-both-directions-0": _count_rule_text(True, ["v 1 2 0"], ["v 2 1 0"]),
    # a weight first seen in the last chunk, valid or not
    "new-weight-last": _count_rule_text(False, [], ["v 1 2 98765"]),
    "symmetric-new-weight-last": _count_rule_text(True, [], ["v 2 1 -98765"]),
    "new-zero-spelling-last": _count_rule_text(False, [], ["v 1 2 -0"]),
    "bad-weight-last": _count_rule_text(False, [], ["v 1 2 1.5"]),
}


@pytest.mark.parametrize("name", sorted(COUNT_RULE_TEXTS))
def test_count_rule_matches_line_loop_across_chunks(name):
    text = COUNT_RULE_TEXTS[name]
    assert len(text) > 2 * textio._CHUNK
    assert outcome(parse_game, text) == outcome(textio._parse_game_lines, text)


@pytest.mark.parametrize("symmetric", [False, True])
def test_a_weight_first_seen_in_the_last_chunk_takes_the_bulk_pass(symmetric):
    for weight in ("98765", "-98765", "-0"):
        text = _count_rule_text(symmetric, [], [f"v 2 1 {weight}"])
        game = textio._parse_canonical_game(text)
        assert game == textio._parse_game_lines(text)
        assert game.value(2, 1) == int(weight)


def test_canonical_200_agent_text_with_zeros_takes_the_bulk_pass(monkeypatch):
    import random

    rng = random.Random(202)
    n = 200
    vals = {
        (a, b): rng.randint(-2, 2)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if a != b and rng.random() < 0.5
    }
    sym = {(a, b): w for (a, b), w in vals.items() if a < b}
    texts = []
    for given, header in ((vals, "ashg 200"), (sym, "ashg 200 symmetric")):
        lines = [f"v {a} {b} {w}" for (a, b), w in given.items()]
        rng.shuffle(lines)
        assert sum(line.endswith(" 0") for line in lines) > 1000
        texts.append("\n".join([header, *lines]) + "\n")
    sym.update({(b, a): w for (a, b), w in sym.items()})
    games = [Game(n, vals), Game(n, sym, symmetric=True)]

    def line_loop(text):
        raise AssertionError("the line loop ran on a canonical text")

    monkeypatch.setattr(textio, "_parse_game_lines", line_loop)
    for g, text in zip(games, texts):
        assert len(text) > 4 * textio._CHUNK  # several chunks
        assert parse_game(text) == g  # so no zero mark is left in the table


@st.composite
def multi_chunk_game_texts(draw):
    """A canonical text of 30-60 agents that spans several chunks, and the
    same text under up to three mutations, each at a line past the first
    chunk; with the number of mutations applied."""
    import random

    symmetric = draw(st.booleans(), label="symmetric")
    n = draw(st.integers(45 if symmetric else 30, 60), label="n")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    header = ["ashg", str(n)] + (["symmetric"] if symmetric else [])
    lines = [line.split() for line in _body(n, symmetric) if rng.random() < 0.8]
    for tokens in lines:
        tokens[3] = str(rng.randint(-12, 12))
    rng.shuffle(lines)
    rows = [["", header, " ", "\n"]] + [["", tokens, " ", "\n"] for tokens in lines]
    canonical = "".join(lead + sep.join(tokens) + end for lead, tokens, sep, end in rows)
    # the first chunk of the body ends at the first line break _CHUNK past its start
    stop = canonical.find("\n", canonical.find("\n") + 1 + textio._CHUNK) + 1
    later = canonical.count("\n", 0, stop)  # the index of the first row past it
    assert 0 < stop < len(canonical)
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=3), label="mutations")
    # each mutation sees the rows from a later line on, that line in the header's place
    tail = rows[draw(st.integers(later, len(rows) - 1), label="line"):]
    head = rows[: len(rows) - len(tail)]
    for mutate in mutations:
        mutate(draw, tail, n)
    rows = head + tail
    text = "".join(lead + sep.join(tokens) + end for lead, tokens, sep, end in rows)
    return canonical, text, len(mutations)


@given(multi_chunk_game_texts())
@settings(max_examples=60, deadline=None)
def test_parse_game_matches_line_loop_across_chunks(case):
    canonical, text, mutated = case
    assert outcome(parse_game, text) == outcome(textio._parse_game_lines, text)
    if not mutated:
        assert text == canonical
        assert textio._parse_canonical_game(text) == textio._parse_game_lines(text)


def test_parse_names_a_file_it_cannot_decode(tmp_path: Path):
    bad = tmp_path / "bad.ashg"
    bad.write_bytes(b"ashg 2\nv 1 2 \xff\n")
    with pytest.raises(ValueError) as info:
        parse(bad, "game")
    assert str(info.value).startswith(f"cannot read {bad}: ") and "0xff" in str(info.value)


def test_parse_names_a_missing_file(tmp_path: Path):
    missing = tmp_path / "missing.ashg"
    with pytest.raises(ValueError) as info:
        parse(missing, "game")
    assert str(info.value).startswith(f"cannot read {missing}: ")


# The line loop keeps the bulk pass's cell rule: a given 0 is written as a
# mark of its own and set back to 0 once the body is read, and a pair whose
# cell is not 0 is a repeat.  Each form below makes a text the bulk pass
# leaves to the line loop.
LINE_LOOP_FORMS = {
    "blank-line": lambda lines: "\n".join([lines[0], "", *lines[1:]]) + "\n",
    "indent": lambda lines: "\n".join([lines[0], *("  " + line for line in lines[1:])]) + "\n",
    "tab-separated": lambda lines: "\n".join(line.replace(" ", "\t") for line in lines) + "\n",
}


def _line_loop_text(form, symmetric, body):
    text = LINE_LOOP_FORMS[form](["ashg 4" + (" symmetric" if symmetric else ""), *body])
    assert textio._parse_canonical_game(text) is None
    return text


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("form", sorted(LINE_LOOP_FORMS))
def test_line_loop_leaves_no_zero_mark_in_the_table(form, symmetric):
    given = {(1, 2): 0, (1, 3): 5, (2, 3): 0, (4, 1): -2, (3, 4): 0}
    text = _line_loop_text(form, symmetric, [f"v {a} {b} {w}" for (a, b), w in given.items()])
    vals = dict(given)
    if symmetric:
        vals.update({(b, a): w for (a, b), w in given.items()})
    game = parse_game(text)
    assert game == Game(4, vals, symmetric=symmetric)
    assert all(None not in game.row(a) for a in range(5))


LINE_LOOP_REPEATS = [
    # (symmetric, first line, repeating line, error)
    (False, "v 1 2 0", "v 1 2 5", "duplicate valuation for pair (1, 2)"),
    (False, "v 1 2 5", "v 1 2 0", "duplicate valuation for pair (1, 2)"),
    (False, "v 1 2 0", "v 1 2 0", "duplicate valuation for pair (1, 2)"),
    (True, "v 1 2 0", "v 1 2 0", "duplicate valuation for pair (1, 2)"),
    (True, "v 1 2 0", "v 2 1 0", "duplicate valuation for pair (2, 1)"),
    (True, "v 1 2 0", "v 2 1 5", "symmetry conflict: v_2(1) already set to 0"),
]


@pytest.mark.parametrize("form", sorted(LINE_LOOP_FORMS))
@pytest.mark.parametrize("symmetric, first, repeat, message", LINE_LOOP_REPEATS)
def test_line_loop_rejects_a_repeat_of_a_given_zero(form, symmetric, first, repeat, message):
    text = _line_loop_text(form, symmetric, [first, "v 3 4 1", repeat])
    line = len(text.splitlines())
    with pytest.raises(ParseError) as info:
        parse_game(text)
    assert str(info.value) == f"line {line}: {message}"
    assert info.value.line == line


def test_line_loop_allocates_the_table_and_no_more():
    import sys
    import tracemalloc

    n = 400
    tracemalloc.start()
    try:
        game = textio._parse_game_lines(f"\nashg {n}\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = [game.row(a) for a in range(n + 1)]
    table = sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
    assert peak < table + (n + 1) ** 2 // 2
