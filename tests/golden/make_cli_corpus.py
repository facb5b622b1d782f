"""Generate the CLI contract corpus, ``tests/golden/cli.tsv``.

Each case is an argv for ``sizedhedonic.cli.run`` and the small input files
it names, all drawn from one seed.  The cases cover every command over games
of at most 8 agents: every concept, bounds up to 3:4, ``--k`` 1-3, valid and
malformed partition and ``--init`` files, every ``gen`` family, and
``reduce`` under theorems 5, 6 and 9 on x3c sources (ground 3-9) and mmm
sources (n <= 4) with ``--mu``, ``--bounds`` and valid and invalid
``--witness`` certificates.  Input files are written here as plain text, not
by the package's serializers, so they do not move when the package does.
No case reaches an argparse "invalid choice" error, whose wording differs
between Python releases.

A case runs in process with its own directory as the working directory, so
its argv names files relative to that directory; any occurrence of the
directory's path in the output is replaced by ``<case>`` before hashing.
Each line of the corpus holds one case, tab-separated: the argv
(space-joined), the exit code, the sha256 of stdout, the sha256 of stderr,
and the sha256 of the case's input files.

    PYTHONPATH=src python tests/golden/make_cli_corpus.py

rewrites the corpus from the code at hand; ``tests/test_cli_corpus.py``
replays every line.  A change that means to alter an output regenerates the
file, and ``git diff`` then lists each changed case.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from sizedhedonic.cli import run

SEED = 20261020
CORPUS = Path(__file__).with_name("cli.tsv")
CONCEPTS = ("ns", "is", "cns", "cis", "ns*", "is*", "cns*", "cis*")
BOUNDS = tuple(f"{lo}:{hi}" for lo in range(1, 4) for hi in range(lo, 5))
BAD_BOUNDS = ("3:2", "0:2", "2-3", "a:b", "12")


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...]

    def inputs_digest(self) -> str:
        text = "".join(f"{name}\0{body}\0" for name, body in self.files)
        return hashlib.sha256(text.encode()).hexdigest()


def _case(argv, **files: str) -> Case:
    assert all(token and not any(c.isspace() for c in token) for token in argv), argv
    return Case(tuple(argv), tuple(sorted(files.items())))


# --- input files ----------------------------------------------------------

def game_text(rng: random.Random, n: int, kind: str = "random") -> str:
    """A game of ``n`` agents; ``kind`` picks its valuation alphabet.

    ``symmetric`` writes each unordered pair once under the flag; ``sparse``
    leaves most pairs 0; ``loose`` writes the lines with tabs, blank lines
    and padding, so the text misses the bulk parser.
    """
    alphabet = {
        "nonneg": range(0, 4),
        "nonzero": [w for w in range(-3, 4) if w],
    }.get(kind, range(-3, 4))
    symmetric = kind == "symmetric"
    lines = [f"ashg {n}" + (" symmetric" if symmetric else "")]
    for a in range(1, n + 1):
        for b in range(a + 1 if symmetric else 1, n + 1):
            if a == b or (kind == "sparse" and rng.random() < 0.7):
                continue
            w = rng.choice(alphabet)
            if w:
                lines.append(f"v {a} {b} {w}")
    if kind == "loose":
        lines = [line.replace(" ", "\t") if i % 2 else "  " + line for i, line in enumerate(lines)]
        lines.insert(1, "")
    return "\n".join(lines) + "\n"


def bad_game_text(rng: random.Random) -> str:
    return rng.choice([
        "",
        "ashg\n",
        "ashg x\n",
        "ashg 3 mirrored\n",
        "game 3\n",
        "ashg 3\nv 1 2\n",
        "ashg 3\nv 1 2 a\n",
        "ashg 3\nx 1 2 a\n",
        "ashg 3\nv 1 4 1\n",
        "ashg 3\nv 1 1 2\n",
        "ashg 3 symmetric\nv 1 2 1\nv 2 1 1\n",
        "ashg -1\n",
    ])


def family_text(rng: random.Random) -> str:
    """A small game of a counterexample family (see ``instances``), by formula."""
    family, size = rng.choice((("star", 2), ("star", 3), ("cycle", 5), ("cycle", 7),
                               ("pairs", 2), ("pairs", 3)))
    if family == "star":  # leaves 1..2s-1 and a center valued 1 both ways
        n = 2 * size
        lines = [f"v {leaf} {n} 1" for leaf in range(1, n)]
        return f"ashg {n} symmetric\n" + "".join(line + "\n" for line in lines)
    if family == "cycle":  # agent i values its successor at 1
        return f"ashg {size}\n" + "".join(f"v {i} {i % size + 1} 1\n" for i in range(1, size + 1))
    n = 2 * size + 1  # mutual -1 pairs plus a directed -1 triangle
    lines = [f"v {a} {b} -1" for i in range(1, size) for a, b in ((i, size - 1 + i), (size - 1 + i, i))]
    lines += [f"v {a} {b} -1" for a, b in ((n - 2, n - 1), (n - 1, n), (n, n - 2))]
    return f"ashg {n}\n" + "".join(line + "\n" for line in lines)


def partition_text(rng: random.Random, n: int, lo: int, hi: int) -> str:
    """A partition of 1..n into blocks of ``lo``..``hi`` members where one fits."""
    agents = list(range(1, n + 1))
    rng.shuffle(agents)
    blocks = []
    while agents:
        size = min(len(agents), rng.randint(lo, hi))
        blocks.append(agents[:size])
        agents = agents[size:]
    return "".join(" ".join(map(str, b)) + "\n" for b in blocks)


def bad_partition_text(rng: random.Random, n: int) -> str:
    agents = list(range(1, n + 1))
    rng.shuffle(agents)
    return rng.choice([
        " ".join(map(str, agents[:-1])) + "\n",  # one agent short
        " ".join(map(str, agents + [n + 1])) + "\n",  # an unknown agent
        " ".join(map(str, agents + agents[:1])) + "\n",  # an agent twice
        " ".join(map(str, agents)) + " x\n",  # not an integer
        "0 " + " ".join(map(str, agents)) + "\n",
    ])


def x3c_source(rng: random.Random, ground: int, sets: int, planted: bool):
    """An x3c text and, when ``planted``, the indices of an exact cover in it."""
    elements = list(range(1, ground + 1))
    chosen: list[tuple[int, ...]] = []
    if planted:
        rng.shuffle(elements)
        chosen = [tuple(sorted(elements[i : i + 3])) for i in range(0, ground, 3)]
    pool = [c for c in combinations(range(1, ground + 1), 3) if c not in chosen]
    chosen += rng.sample(pool, min(len(pool), max(0, sets - len(chosen))))
    order = list(range(len(chosen)))
    rng.shuffle(order)
    listed = [chosen[i] for i in order]
    cover = sorted(order.index(i) + 1 for i in range(ground // 3)) if planted else []
    lines = [f"x3c {ground}"] + [f"set {' '.join(map(str, rng.sample(s, 3)))}" for s in listed]
    return "\n".join(lines) + "\n", cover, listed


def bad_covers(rng: random.Random, cover: list[int], listed) -> list[str]:
    count = len(listed)
    texts = ["cover\n", "cover x\n", "set 1\n", f"cover {count + 1}\n"]
    if cover:
        texts += [f"cover {' '.join(map(str, cover + cover[:1]))}\n",
                  f"cover {' '.join(map(str, cover[:-1]))}\n"]
    if count >= 2:
        texts.append(f"cover {' '.join(map(str, rng.sample(range(1, count + 1), 2)))}\n")
    return texts


def mmm_source(rng: random.Random, n: int):
    """An mmm text, its edges and a greedy maximal matching of them."""
    k = rng.randint(1, n)
    edges = [(a, b) for a in range(1, n + 1) for b in range(n + 1, 2 * n + 1)
             if rng.random() < 0.5]
    rng.shuffle(edges)
    matching, covered = [], set()
    for a, b in edges:
        if a not in covered and b not in covered:
            matching.append((a, b))
            covered |= {a, b}
    text = f"mmm {n} {k}\n" + "".join(f"edge {a} {b}\n" for a, b in edges)
    return text, edges, matching


def matching_texts(rng: random.Random, n: int, edges, matching) -> list[str]:
    def render(pairs):
        return "".join(f"match {a} {b}\n" for a, b in pairs)

    texts = [render(matching), "match 1\n", "match a 2\n", f"match 1 {2 * n + 1}\n"]
    if matching:
        texts.append(render(matching[:-1]))  # no longer maximal, or empty
        texts.append(render(matching + matching[:1]))  # shares a vertex
    if edges:
        texts.append(render([rng.choice(edges)]))
    return texts


# --- cases ----------------------------------------------------------------

def _size(rng: random.Random) -> int:
    return rng.choice((0, 1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8))


def _verify_cases(rng):
    for i in range(420):
        n = _size(rng)
        concept, bounds = rng.choice(CONCEPTS), rng.choice(BOUNDS)
        lo, hi = map(int, bounds.split(":"))
        kind = rng.choice(("random", "random", "symmetric", "sparse", "nonneg", "loose"))
        game = game_text(rng, n, kind)
        if rng.random() < 0.15:
            game = family_text(rng)
            n = int(game.split()[1])
        roll = rng.random()
        if roll < 0.6:
            part = partition_text(rng, n, lo, hi)
        elif roll < 0.8:
            part = partition_text(rng, n, 1, 4)
        else:
            part = bad_partition_text(rng, n)
        if i % 40 == 0:
            game = bad_game_text(rng)
        if i % 50 == 1:
            bounds = rng.choice(BAD_BOUNDS)
        yield _case(["verify", "--concept", concept, "--bounds", bounds, "g.ashg", "p.part"],
                    **{"g.ashg": game, "p.part": part})


def _solve_cases(rng):
    # each solver's route, else any concept and bounds (mostly no algorithm)
    routes = [("cis", "1:2", "random"), ("cis", "1:3", "random"), ("cis", "1:4", "sparse"),
              ("cis*", "1:3", "random"), ("cis*", "2:3", "nonneg"), ("cis*", "2:4", "nonzero"),
              ("cis*", "3:4", "nonneg"), ("cis*", "2:2", "random"), ("cns", "1:2", "random"),
              ("cns*", "1:2", "sparse"), ("ns*", "1:3", "symmetric"), ("ns*", "2:3", "symmetric"),
              ("ns*", "2:4", "random")]
    for i in range(300):
        n = _size(rng)
        if rng.random() < 0.7:
            concept, bounds, kind = rng.choice(routes)
        else:
            concept, bounds = rng.choice(CONCEPTS), rng.choice(BOUNDS)
            kind = rng.choice(("random", "symmetric", "nonneg", "nonzero"))
        argv = ["solve", "--concept", concept, "--bounds", bounds]
        if concept == "cis*" and rng.random() < 0.5 or rng.random() < 0.05:
            argv += ["--k", str(rng.choice((1, 2, 3, 1, 2, 3, 0)))]
        game = bad_game_text(rng) if i % 60 == 0 else game_text(rng, n, kind)
        yield _case(argv + ["g.ashg"], **{"g.ashg": game})


def _exists_cases(rng):
    for i in range(280):
        n = _size(rng)
        concept, bounds = rng.choice(CONCEPTS), rng.choice(BOUNDS)
        kind = rng.choice(("random", "symmetric", "sparse", "nonneg"))
        game = family_text(rng) if rng.random() < 0.25 else game_text(rng, n, kind)
        argv = ["exists", "--concept", concept, "--bounds", bounds, "--exact"]
        if rng.random() < 0.15:
            argv += ["--max-n", rng.choice(("12", "8", str(max(1, n - 1)), "0", "x"))]
        if i % 50 == 0:
            argv.remove("--exact")
        yield _case(argv + ["g.ashg"], **{"g.ashg": game})


def _maxwelfare_cases(rng):
    for i in range(120):
        n = _size(rng)
        argv = ["maxwelfare", "--bounds", rng.choice(BOUNDS)]
        if rng.random() < 0.15:
            argv += ["--max-n", rng.choice(("12", "8", str(max(1, n - 1)), "0"))]
        game = bad_game_text(rng) if i % 40 == 0 else game_text(rng, n, rng.choice(("random", "nonneg")))
        yield _case(argv + ["g.ashg"], **{"g.ashg": game})


def _dynamics_cases(rng):
    for i in range(160):
        n = _size(rng)
        bounds = rng.choice(BOUNDS)
        lo, hi = map(int, bounds.split(":"))
        kind = "symmetric" if rng.random() < 0.85 else "random"
        files = {"g.ashg": game_text(rng, n, kind)}
        argv = ["dynamics", "--bounds", bounds]
        roll = rng.random()
        if roll < 0.4:
            files["init.part"] = partition_text(rng, n, lo, hi)
        elif roll < 0.5:
            files["init.part"] = partition_text(rng, n, 1, 4)
        elif roll < 0.6:
            files["init.part"] = bad_partition_text(rng, n)
        if "init.part" in files:
            argv += ["--init", "init.part"]
        yield _case(argv + ["g.ashg"], **files)


def _gen_cases(rng):
    params = {
        "intro_positive": ("k", range(0, 5)),
        "intro_negative": ("k", range(0, 5)),
        "star_no_cis": ("lower", range(1, 5)),
        "cycle_no_is_star": ("n", range(0, 9)),
        "pairs_triangle_no_cns_star": ("lower", range(1, 5)),
    }
    for family, (key, values) in params.items():
        for value in values:
            yield _case(["gen", "--family", family, "--param", f"{key}={value}"])
        yield _case(["gen", "--family", family])
        yield _case(["gen", "--family", family, "--param", f"{key}=x"])
        yield _case(["gen", "--family", family, "--param", key])
        yield _case(["gen", "--family", family, "--param", "size=3"])
    yield _case(["gen", "--family", "aziz_failure"])
    yield _case(["gen", "--family", "aziz_failure", "--param", "k=1"])
    yield _case(["gen", "--family", "no_such_family"])
    yield _case(["gen"])


def _reduce_x3c_cases(rng):
    grounds = (3, 3, 6, 6, 6, 9)
    for i in range(110):
        ground = rng.choice(grounds)
        planted = rng.random() < 0.75
        source, cover, listed = x3c_source(rng, ground, rng.randint(0, 5), planted)
        certs = bad_covers(rng, cover, listed)
        if cover:
            certs = [f"cover {' '.join(map(str, cover))}\n"] + certs
        mu = rng.choice((None, None, None, "3", "4", "4", "5", "5", "2"))
        argv5 = ["reduce", "--from", "x3c", "--theorem", "5"] + (["--mu", mu] if mu else [])
        bounds = rng.choice(("2:4", "2:4", "3:5", "3:5", "1:4", "2:6", "3:4", "5:6", "2:5",
                             "4:4", "2:3"))
        argv9 = ["reduce", "--from", "x3c", "--theorem", "9", "--bounds", bounds]
        for argv in (argv5, argv9):
            yield _case(argv + ["s.x3c"], **{"s.x3c": source})
            for cert in certs[:1] + rng.sample(certs[1:], 1):
                yield _case(argv + ["--witness", "c.txt", "s.x3c"],
                            **{"s.x3c": source, "c.txt": cert})


def _reduce_mmm_cases(rng):
    for i in range(60):
        n = rng.randint(1, 4)
        source, edges, matching = mmm_source(rng, n)
        mu = rng.choice((None, None, None, "2", "3", "4", "1"))
        argv = ["reduce", "--from", "mmm", "--theorem", "6"] + (["--mu", mu] if mu else [])
        yield _case(argv + ["s.mmm"], **{"s.mmm": source})
        texts = matching_texts(rng, n, edges, matching)
        for text in [texts[0]] + rng.sample(texts[1:], 1):
            yield _case(argv + ["--witness", "m.txt", "s.mmm"], **{"s.mmm": source, "m.txt": text})


def _reduce_misuse_cases(rng):
    x3c = "x3c 6\nset 1 2 3\nset 2 3 4\nset 4 5 6\n"
    mmm = "mmm 2 1\nedge 1 3\nedge 2 4\n"
    base = ["reduce", "--from"]
    for argv, files in [
        (base + ["mmm", "--theorem", "5", "s"], {"s": x3c}),
        (base + ["x3c", "--theorem", "6", "s"], {"s": x3c}),
        (base + ["mmm", "--theorem", "9", "--bounds", "2:4", "s"], {"s": mmm}),
        (base + ["x3c", "--theorem", "9", "s"], {"s": x3c}),
        (base + ["x3c", "--theorem", "9", "--mu", "4", "--bounds", "2:4", "s"], {"s": x3c}),
        (base + ["x3c", "--theorem", "5", "--bounds", "2:4", "s"], {"s": x3c}),
        (base + ["mmm", "--theorem", "6", "--bounds", "1:2", "s"], {"s": mmm}),
        (base + ["x3c", "--theorem", "5", "missing.x3c"], {}),
        (base + ["x3c", "--theorem", "5", "--witness", "missing.txt", "s"], {"s": x3c}),
        (base + ["x3c", "--theorem", "9", "--bounds", "2:4", "s"], {"s": "x3c 6\nset 1 2 3\n"}),
        (base + ["x3c", "--theorem", "5", "s"], {"s": "x3c 4\n"}),
        (base + ["x3c", "--theorem", "5", "s"], {"s": "x3c 3\nset 1 2 4\n"}),
        (base + ["x3c", "--theorem", "5", "s"], {"s": "x3c 3\nset 1 1 2\n"}),
        (base + ["x3c", "--theorem", "5", "s"], {"s": "x3c 6\nedge 1 2\n"}),
        (base + ["x3c", "--theorem", "5", "s"], {"s": ""}),
        (base + ["x3c", "--theorem", "5", "s"], {"s": "x3c 0\n"}),
        (base + ["x3c", "--theorem", "9", "--bounds", "2:4", "s"], {"s": "x3c 0\n"}),
        (base + ["mmm", "--theorem", "6", "s"], {"s": "mmm 2 3\n"}),
        (base + ["mmm", "--theorem", "6", "s"], {"s": "mmm 2 1\nedge 1 2\n"}),
        (base + ["mmm", "--theorem", "6", "s"], {"s": "mmm 2 1\nedge 1 3\nedge 1 3\n"}),
        (base + ["mmm", "--theorem", "6", "s"], {"s": "mmm 0 1\n"}),
        (base + ["mmm", "--theorem", "6", "s"], {"s": "mmm 2\n"}),
    ]:
        yield _case(argv, **files)


def _usage_cases(rng):
    game = "ashg 4\nv 1 2 1\nv 3 4 -1\n"
    part = "1 2\n3 4\n"
    for argv in [
        [],
        ["frobnicate"],
        ["verify", "--bounds", "1:2", "g", "p"],
        ["verify", "--concept", "zs", "--bounds", "1:2", "g", "p"],
        ["verify", "--concept", "ns", "g", "p"],
        ["verify", "--concept", "ns", "--bounds", "1:2", "g"],
        ["verify", "--concept", "ns", "--bounds", "1:2", "g", "missing.part"],
        ["verify", "--concept", "ns", "--bounds", "1:2", "missing.ashg", "p"],
        ["verify", "--concept", "ns", "--bounds", "1:2", "g", "p", "extra"],
        ["solve", "--concept", "cis", "--bounds", "1:4"],
        ["solve", "--concept", "cis*", "--bounds", "2:2", "--k", "x", "g"],
        ["solve", "--concept", "ns", "--bounds", "1:2", "--k", "2", "g"],
        ["exists", "--concept", "ns", "--bounds", "1:2", "g"],
        ["maxwelfare", "--concept", "ns", "--bounds", "1:2", "g"],
        ["dynamics", "--bounds", "1:2", "--init", "missing.part", "g"],
        ["gen", "--param", "k=3"],
        ["reduce", "--theorem", "5", "g"],
    ]:
        yield _case(argv, g=game, p=part)


def cases() -> list[Case]:
    """Every case of the corpus, in corpus order, drawn from ``SEED``."""
    rng = random.Random(SEED)
    groups = (_verify_cases, _solve_cases, _exists_cases, _maxwelfare_cases,
              _dynamics_cases, _gen_cases, _reduce_x3c_cases, _reduce_mmm_cases,
              _reduce_misuse_cases, _usage_cases)
    return [case for group in groups for case in group(rng)]


# --- running and recording ------------------------------------------------

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(case: Case, directory: Path) -> tuple[int, str, str]:
    """Run ``case`` in ``directory``: its exit code, stdout and stderr."""
    directory.mkdir()
    for name, body in case.files:
        (directory / name).write_text(body)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(list(case.argv))
    finally:
        os.chdir(cwd)
    token = str(directory)
    return code, out.getvalue().replace(token, "<case>"), err.getvalue().replace(token, "<case>")


def corpus_line(case: Case, directory: Path) -> str:
    code, out, err = run_case(case, directory)
    return "\t".join((" ".join(case.argv), str(code), _sha(out), _sha(err), case.inputs_digest()))


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        lines = [corpus_line(case, Path(root) / f"{i:04d}") for i, case in enumerate(cases())]
    CORPUS.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} cases to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
