import random
import subprocess
import sys
from pathlib import Path

import pytest

from sizedhedonic import (
    Concept,
    Partition,
    SizeBounds,
    aziz_failure,
    feasible_k_partition_exists,
    feasible_partition_exists,
    intro_negative,
    intro_positive,
    star_no_cis,
    verify,
)
from sizedhedonic.cli import run
from sizedhedonic.textio import parse_game, parse_partition, serialize_game, serialize_partition

PAIRS = "1 2\n3 4\n5 6\n"


@pytest.fixture
def files(tmp_path: Path) -> dict[str, str]:
    paths = {}
    for name, text in {
        "intro_pos": serialize_game(intro_positive(3)),
        "intro_neg": serialize_game(intro_negative(3)),
        "aziz": serialize_game(aziz_failure()),
        "star": serialize_game(star_no_cis(2)),
        "pairs": PAIRS,
    }.items():
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_example_matrix(self, capsys, files):
        code, out, _ = invoke(
            capsys, "verify", "--concept", "ns*", "--bounds", "2:3", files["intro_pos"], files["pairs"]
        )
        assert (code, out) == (0, "stable\n")
        code, out, _ = invoke(
            capsys, "verify", "--concept", "cis", "--bounds", "2:3", files["intro_pos"], files["pairs"]
        )
        assert (code, out) == (1, "unstable\ndeviation 1 join 3 4\n")
        code, out, _ = invoke(
            capsys, "verify", "--concept", "ns", "--bounds", "2:3", files["intro_neg"], files["pairs"]
        )
        assert (code, out) == (0, "stable\n")

    def test_infeasible_partition_is_exit_two(self, capsys, files):
        code, _, err = invoke(
            capsys, "verify", "--concept", "ns", "--bounds", "3:3", files["intro_pos"], files["pairs"]
        )
        assert code == 2 and "violate" in err

    def test_mismatched_inputs_are_exit_three(self, capsys, files, tmp_path):
        short = tmp_path / "short"
        short.write_text("1 2\n")
        code, _, err = invoke(
            capsys, "verify", "--concept", "ns", "--bounds", "1:2", files["intro_pos"], str(short)
        )
        assert code == 3

    def test_agreement_with_library_on_thousand_pairs(self, capsys, files, rng):
        from conftest import random_feasible_bounds, random_feasible_partition, random_game

        game_path = Path(files["pairs"]).parent / "fuzz_game"
        part_path = Path(files["pairs"]).parent / "fuzz_part"
        concepts = list(Concept)
        for _ in range(1000):
            n = rng.randint(2, 6)
            g = random_game(rng, n)
            b = random_feasible_bounds(rng, n)
            p = random_feasible_partition(rng, n, b)
            concept = rng.choice(concepts)
            game_path.write_text(serialize_game(g))
            part_path.write_text(serialize_partition(p))
            code, _, _ = invoke(
                capsys, "verify", "--concept", str(concept).lower(), "--bounds",
                str(b), str(game_path), str(part_path),
            )
            assert code == (0 if verify(g, p, b, concept).stable else 1)


class TestSolveCommand:
    def test_cis_on_reference_game(self, capsys, files):
        code, out, _ = invoke(
            capsys, "solve", "--concept", "cis", "--bounds", "1:4", files["aziz"]
        )
        assert code == 0
        partition = parse_partition(out)
        assert verify(aziz_failure(), partition, SizeBounds(1, 4), Concept.CIS).stable

    def test_cns_pairs_route(self, capsys, files):
        code, out, _ = invoke(
            capsys, "solve", "--concept", "cns", "--bounds", "1:2", files["aziz"]
        )
        assert code == 0 and parse_partition(out) == Partition([[1, 3], [2, 4]])

    def test_cis_star_nonneg_route(self, capsys, files):
        code, out, _ = invoke(
            capsys, "solve", "--concept", "cis*", "--bounds", "2:3", "--k", "2", files["star"]
        )
        assert code == 0
        partition = parse_partition(out)
        assert verify(star_no_cis(2), partition, SizeBounds(2, 3), Concept.CIS_STAR).stable

    def test_ns_star_dynamics_route(self, capsys, files):
        code, out, _ = invoke(
            capsys, "solve", "--concept", "ns*", "--bounds", "2:3", files["intro_pos"]
        )
        assert code == 0
        partition = parse_partition(out)
        assert verify(intro_positive(3), partition, SizeBounds(2, 3), Concept.NS_STAR).stable

    def test_unsupported_combinations_exit_two(self, capsys, files):
        for argv in (
            ("solve", "--concept", "ns", "--bounds", "1:2", files["aziz"]),
            ("solve", "--concept", "is", "--bounds", "1:3", files["aziz"]),
            ("solve", "--concept", "cns", "--bounds", "1:3", files["aziz"]),
            ("solve", "--concept", "cis", "--bounds", "2:3", files["intro_pos"]),
            ("solve", "--concept", "ns*", "--bounds", "1:2", files["aziz"]),
        ):
            code, out, _ = invoke(capsys, *argv)
            assert code == 2 and out == ""

    def test_infeasible_k_exits_two(self, capsys, files, tmp_path):
        from sizedhedonic import Game

        path = tmp_path / "allpos"
        path.write_text(
            serialize_game(
                Game(8, {(a, b): 1 for a in range(1, 9) for b in range(1, 9) if a != b})
            )
        )
        code, _, err = invoke(
            capsys, "solve", "--concept", "cis*", "--bounds", "5:7", "--k", "1", str(path)
        )
        assert code == 2

    def test_k_rejected_elsewhere(self, capsys, files):
        code, _, _ = invoke(
            capsys, "solve", "--concept", "cns", "--bounds", "1:2", "--k", "2", files["aziz"]
        )
        assert code == 3


class TestExistsCommand:
    def test_star_family(self, capsys, files):
        code, _, _ = invoke(
            capsys, "exists", "--concept", "cis", "--bounds", "2:3", "--exact", files["star"]
        )
        assert code == 1
        code, out, _ = invoke(
            capsys, "exists", "--concept", "cis*", "--bounds", "2:3", "--exact", files["star"]
        )
        assert code == 0 and parse_partition(out)

    def test_infeasible_bounds_exit_two(self, capsys, tmp_path):
        path = tmp_path / "eight"
        path.write_text("ashg 8\n")
        code, _, _ = invoke(
            capsys, "exists", "--concept", "ns", "--bounds", "5:7", "--exact", str(path)
        )
        assert code == 2

    def test_budget_violation_exit_three(self, capsys, tmp_path):
        path = tmp_path / "big"
        path.write_text("ashg 14\n")
        code, _, err = invoke(
            capsys, "exists", "--concept", "ns", "--bounds", "1:2", "--exact", str(path)
        )
        assert code == 3 and "budget" in err


class TestOtherCommands:
    def test_maxwelfare(self, capsys, files):
        code, out, err = invoke(capsys, "maxwelfare", "--bounds", "2:3", files["intro_pos"])
        assert code == 0 and "welfare: 12" in err
        assert parse_partition(out) == Partition([[1, 3, 5], [2, 4, 6]])

    def test_gen_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "gen", "--family", "intro_positive", "--param", "k=3")
        assert code == 0 and parse_game(out) == intro_positive(3)
        code, _, _ = invoke(capsys, "gen", "--family", "intro_positive", "--param", "k=oops")
        assert code == 3
        code, _, _ = invoke(capsys, "gen", "--family", "unknown")
        assert code == 3

    def test_dynamics(self, capsys, files):
        code, out, err = invoke(capsys, "dynamics", "--bounds", "2:3", files["intro_pos"])
        assert code == 0 and err.startswith("steps:")
        partition = parse_partition(out)
        assert verify(intro_positive(3), partition, SizeBounds(2, 3), Concept.NS_STAR).stable
        code, _, _ = invoke(capsys, "dynamics", "--bounds", "2:3", files["aziz"])
        assert code == 2

    def test_reduce_pipeline(self, capsys, tmp_path):
        inst = tmp_path / "fig2.x3c"
        inst.write_text("x3c 6\nset 1 2 3\nset 2 3 4\nset 4 5 6\n")
        cert = tmp_path / "cover"
        cert.write_text("cover 1 3\n")
        code, game_text, _ = invoke(
            capsys, "reduce", "--from", "x3c", "--theorem", "5", str(inst)
        )
        assert code == 0 and parse_game(game_text).n == 78
        code, witness_text, _ = invoke(
            capsys, "reduce", "--from", "x3c", "--theorem", "5", str(inst), "--witness", str(cert)
        )
        assert code == 0
        game, witness = parse_game(game_text), parse_partition(witness_text)
        assert verify(game, witness, SizeBounds(1, 3), Concept.CNS).stable

    def test_reduce_validation(self, capsys, tmp_path):
        inst = tmp_path / "i.x3c"
        inst.write_text("x3c 3\nset 1 2 3\n")
        code, _, _ = invoke(capsys, "reduce", "--from", "mmm", "--theorem", "5", str(inst))
        assert code == 3
        code, _, _ = invoke(capsys, "reduce", "--from", "x3c", "--theorem", "9", str(inst))
        assert code == 3  # missing --bounds
        bad_cert = tmp_path / "bad"
        bad_cert.write_text("cover 1 1\n")
        code, _, _ = invoke(
            capsys, "reduce", "--from", "x3c", "--theorem", "5", str(inst), "--witness", str(bad_cert)
        )
        assert code == 3

    def test_repeated_runs_share_no_state(self, capsys):
        code, out, _ = invoke(capsys, "gen", "--family", "intro_positive", "--param", "k=3")
        assert code == 0 and parse_game(out) == intro_positive(3)
        code, out, err = invoke(capsys, "solve", "--concept", "cis", "--bounds", "1:4")
        assert (code, out) == (3, "") and err.startswith("error: ")
        code, out, _ = invoke(capsys, "gen", "--family", "aziz_failure")
        assert (code, out) == (0, serialize_game(aziz_failure()))

    def test_usage_errors_exit_three(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 3
        assert invoke(capsys, "verify", "--concept", "zs", "--bounds", "1:2", "x", "y")[0] == 3
        assert invoke(capsys, "verify", "--concept", "ns", "--bounds", "12", "x", "y")[0] == 3
        assert invoke(capsys, "verify", "--concept", "ns", "--bounds", "1:2", "/no/such", "y")[0] == 3


class TestExitsPinned:
    """Exits of the CLI that no other test reaches, with their messages."""

    def test_dynamics_prints_its_step_count(self, capsys, tmp_path):
        game = tmp_path / "g"
        game.write_text("ashg 6 symmetric\nv 1 2 3\nv 3 4 2\n")
        init = tmp_path / "init"
        init.write_text("1\n2\n3\n4\n5\n6\n")
        code, out, err = invoke(capsys, "dynamics", "--bounds", "1:3", "--init", str(init), str(game))
        assert (code, out, err) == (0, "1 2\n3 4\n5\n6\n", "steps: 2\n")

    @pytest.mark.parametrize("command", ["maxwelfare", "dynamics"])
    def test_bounds_no_partition_fits_exit_two(self, capsys, files, command):
        code, out, err = invoke(capsys, command, "--bounds", "4:5", files["intro_pos"])
        assert (code, out, err) == (2, "", "no partition of 6 agents within 4:5\n")

    def test_param_without_a_value_exits_three(self, capsys):
        code, out, err = invoke(capsys, "gen", "--family", "star_no_cis", "--param", "k")
        assert (code, out, err) == (3, "", "error: --param expects key=value, got 'k'\n")

    def test_theorem_6_from_x3c_exits_three(self, capsys, tmp_path):
        inst = tmp_path / "i.x3c"
        inst.write_text("x3c 3\nset 1 2 3\n")
        code, out, err = invoke(capsys, "reduce", "--from", "x3c", "--theorem", "6", str(inst))
        assert (code, out, err) == (3, "", "error: theorem 6 reduces from mmm instances\n")

    def test_inverted_bounds_exit_three(self, capsys, files):
        code, out, err = invoke(
            capsys, "verify", "--concept", "ns", "--bounds", "3:2", files["intro_pos"], files["pairs"]
        )
        assert (code, out, err) == (3, "", "error: invalid size bounds (3, 2)\n")


def test_module_entry_point(tmp_path: Path):
    game = tmp_path / "g.ashg"
    game.write_text(serialize_game(aziz_failure()))
    result = subprocess.run(
        [sys.executable, "-m", "sizedhedonic", "solve", "--concept", "cis", "--bounds", "1:4", str(game)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert parse_partition(result.stdout) == Partition([[1], [2, 3, 4]])


class TestSolveDispatchPinned:
    """Each ``solve`` branch: its exit code, and nothing on stdout at exit 2.

    aziz_failure (4 agents) is not symmetric and has both zero and negative
    valuations; star_no_cis(2) (4 agents) is symmetric and nonnegative;
    intro_positive(3) (6 agents) is symmetric and nonzero.
    """

    @pytest.mark.parametrize(
        "key, concept, bounds, k, code",
        [
            ("aziz", "cis", "1:1", None, 2),
            ("intro_pos", "cis", "2:3", None, 2),
            ("aziz", "cis", "1:4", None, 0),
            ("aziz", "cis*", "1:1", None, 2),
            ("aziz", "cis*", "1:4", None, 0),
            ("aziz", "cis*", "1:4", "2", 2),
            ("aziz", "cis*", "2:2", None, 2),
            ("aziz", "cis*", "2:2", "2", 2),
            ("star", "cis*", "2:3", None, 0),
            ("intro_pos", "cis*", "2:3", None, 0),
            ("star", "cis*", "5:6", None, 2),
            ("star", "cis*", "2:3", "3", 2),
            ("aziz", "cns", "1:2", None, 0),
            ("aziz", "cns*", "1:3", None, 2),
            ("aziz", "ns*", "2:2", None, 2),
            ("aziz", "ns*", "3:3", None, 2),
            ("intro_pos", "ns*", "2:3", None, 0),
            ("intro_pos", "ns*", "4:5", None, 2),
            ("aziz", "is", "1:3", None, 2),
        ],
    )
    def test_exit_code(self, capsys, files, key, concept, bounds, k, code):
        argv = ["solve", "--concept", concept, "--bounds", bounds, files[key]]
        if k is not None:
            argv[1:1] = ["--k", k]
        got, out, err = invoke(capsys, *argv)
        assert got == code
        if code == 2:
            assert out == "" and err
        else:
            assert verify(
                parse_game(Path(files[key]).read_text()), parse_partition(out),
                SizeBounds(*map(int, bounds.split(":"))), Concept.parse(concept),
            ).stable

    @pytest.mark.parametrize("bounds", ["1:2", "1:3", "1:4"])
    def test_cis_and_cis_star_share_the_leader_construction_at_lower_bound_one(
        self, capsys, files, bounds
    ):
        for key in ("aziz", "star", "intro_pos"):
            plain = invoke(capsys, "solve", "--concept", "cis", "--bounds", bounds, files[key])
            star = invoke(capsys, "solve", "--concept", "cis*", "--bounds", bounds, files[key])
            assert plain[0] == star[0] == 0 and plain[1] == star[1]

    def test_omitted_k_below_the_lower_bound_is_no_partition(self, capsys, files):
        # 4 agents cannot fill one coalition of at least 5
        code, out, err = invoke(
            capsys, "solve", "--concept", "cis*", "--bounds", "5:6", files["star"]
        )
        assert (code, out) == (2, "") and "no partition of 4 agents" in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_explicit_k_below_one_is_an_input_error(self, capsys, files, k):
        # --k 2 solves this game; a count below 1 is no bound-related verdict
        assert invoke(
            capsys, "solve", "--concept", "cis*", "--bounds", "2:3", "--k", "2", files["star"]
        )[0] == 0
        code, out, err = invoke(
            capsys, "solve", "--concept", "cis*", "--bounds", "2:3", "--k", k, files["star"]
        )
        assert (code, out) == (3, "") and err.startswith("error: ")


class TestReadmeDispatchTable:
    """README's ``solve`` dispatch table against ``solve`` itself.

    Each cell text of the table has one meaning here, and a cell this test
    does not know fails it.  ``solve`` must exit 0 exactly when a row applies
    and a partition with the coalition count of that row's method fits;
    otherwise it must exit 2 with nothing on stdout.
    """

    # bounds / game class cell -> does the row apply to (game, lower, upper)
    APPLIES = {
        "`1:U`, `U>=2`": lambda game, lo, hi: lo == 1 and hi >= 2,
        "`1:2`": lambda game, lo, hi: (lo, hi) == (1, 2),
        "`L>=2`, nonzero valuations": lambda game, lo, hi: lo >= 2 and game.is_nonzero(),
        "`L>=2`, nonnegative valuations": lambda game, lo, hi: lo >= 2 and game.is_nonnegative(),
        "symmetric valuations": lambda game, lo, hi: game.has_symmetric_table(),
    }
    # method cell -> does a partition of the method's coalition count fit
    FITS = {
        "leader construction": feasible_partition_exists,
        "greedy pairing": feasible_partition_exists,
        "two-phase leader fill": lambda n, b: feasible_k_partition_exists(n, n // b.lower, b),
        "budgeted leader joining": lambda n, b: feasible_k_partition_exists(n, n // b.lower, b),
        "welfare dynamics": feasible_partition_exists,
    }

    def rows(self):
        lines = Path(__file__).resolve().parents[1].joinpath("README.md").read_text().splitlines()
        start = lines.index("`solve` only dispatches to algorithms with a correctness guarantee:")
        table = []
        for line in lines[start + 4:]:  # past the blank line, header and rule
            if not line.startswith("|"):
                break
            concepts, when, method = (cell.strip() for cell in line.strip("|").split("|"))
            names = [name.strip("`") for name in concepts.split(", ")]
            if concepts != ", ".join(f"`{name}`" for name in names):
                pytest.fail(f"unknown concept cell {concepts!r}")
            if when not in self.APPLIES or method not in self.FITS:
                pytest.fail(f"unknown cell in row {line!r}")
            concepts = {Concept.parse(name) for name in names}
            table.append((concepts, self.APPLIES[when], self.FITS[method]))
        assert table, "README has no dispatch table"
        return table

    def test_solve_exits_as_the_table_says(self, capsys, tmp_path):
        from conftest import random_game

        games = {
            "intro_pos": intro_positive(3),
            "star": star_no_cis(2),
            "aziz": aziz_failure(),
            "nonzero": random_game(random.Random(1), 5, nonzero=True),
            "nonneg": random_game(random.Random(2), 5, nonneg=True),
        }
        assert games["nonzero"].is_nonzero() and not games["nonzero"].has_symmetric_table()
        assert games["nonneg"].is_nonnegative() and not games["nonneg"].has_symmetric_table()
        table = self.rows()
        for key, game in games.items():
            path = tmp_path / key
            path.write_text(serialize_game(game))
            for concept in Concept:
                for hi in range(1, 5):
                    for lo in range(1, hi + 1):
                        bounds = SizeBounds(lo, hi)
                        solved = any(
                            concept in concepts and applies(game, lo, hi) and fits(game.n, bounds)
                            for concepts, applies, fits in table
                        )
                        argv = ("solve", "--concept", concept.value, "--bounds", f"{lo}:{hi}")
                        code, out, _ = invoke(capsys, *argv, str(path))
                        assert (code == 0) if solved else (code, out) == (2, ""), (key, argv)


class TestPartitionInputsPinned:
    def test_dynamics_on_a_non_symmetric_game_exits_two(self, capsys, files, tmp_path):
        code, out, _ = invoke(capsys, "dynamics", "--bounds", "1:4", files["aziz"])
        assert (code, out) == (2, "")
        init = tmp_path / "init"
        init.write_text("1 2\n3 4\n")
        code, out, _ = invoke(
            capsys, "dynamics", "--bounds", "1:4", "--init", str(init), files["aziz"]
        )
        assert (code, out) == (2, "")

    def test_dynamics_from_a_valid_init(self, capsys, files, tmp_path):
        init = tmp_path / "init"
        init.write_text("1 2 3\n4 5 6\n")
        code, out, err = invoke(
            capsys, "dynamics", "--bounds", "2:3", "--init", str(init), files["intro_pos"]
        )
        assert code == 0 and err.startswith("steps:")
        assert verify(
            intro_positive(3), parse_partition(out), SizeBounds(2, 3), Concept.NS_STAR
        ).stable

    def test_wrong_agent_count_is_exit_three(self, capsys, files, tmp_path):
        short = tmp_path / "short"
        short.write_text("1 2\n3 4\n")
        code, out, _ = invoke(
            capsys, "verify", "--concept", "ns", "--bounds", "1:2", files["intro_pos"], str(short)
        )
        assert (code, out) == (3, "")
        code, out, _ = invoke(
            capsys, "dynamics", "--bounds", "2:3", "--init", str(short), files["intro_pos"]
        )
        assert (code, out) == (3, "")

    def test_malformed_init_is_exit_three(self, capsys, files, tmp_path):
        # the file is read before the game's symmetry is checked
        bad = tmp_path / "bad"
        bad.write_text("1 2\n2 3\n")
        for key in ("intro_pos", "aziz"):
            code, out, _ = invoke(
                capsys, "dynamics", "--bounds", "1:4", "--init", str(bad), files[key]
            )
            assert (code, out) == (3, "")


class TestTheorem9Pipeline:
    # the smallest Theorem-9 games, 17 agents at 2:4; the exact search
    # decides them only because it tries interchangeable agents in one order
    @pytest.mark.parametrize(
        "sets, code",
        [("set 1 2 3\nset 4 5 6\n", 0), ("set 1 2 3\nset 3 4 5\n", 1)],
        ids=["cover", "no-cover"],
    )
    def test_reduced_game_feeds_exists(self, capsys, tmp_path, sets, code):
        inst = tmp_path / "inst.x3c"
        inst.write_text("x3c 6\n" + sets)
        status, game_text, _ = invoke(
            capsys, "reduce", "--from", "x3c", "--theorem", "9", "--bounds", "2:4", str(inst)
        )
        assert status == 0
        game_path = tmp_path / "game"
        game_path.write_text(game_text)
        argv = ["exists", "--concept", "ns", "--bounds", "2:4", "--exact", "--max-n", "17"]
        status, out, _ = invoke(capsys, *argv, str(game_path))
        assert status == code
        if code == 0:
            partition = parse_partition(out)
            assert verify(parse_game(game_text), partition, SizeBounds(2, 4), Concept.NS).stable


class TestReduceMu:
    @pytest.mark.parametrize("theorem, source, text, low", [
        ("5", "x3c", "x3c 6\nset 1 2 3\nset 2 3 4\nset 4 5 6\n", 2),
        ("6", "mmm", "mmm 3 2\nedge 1 4\nedge 2 4\nedge 3 5\n", 1),
    ])
    def test_mu_below_the_construction_minimum_is_exit_three(
        self, capsys, tmp_path, theorem, source, text, low
    ):
        inst = tmp_path / "inst"
        inst.write_text(text)
        for mu in (str(low), "0"):
            code, out, _ = invoke(
                capsys, "reduce", "--from", source, "--theorem", theorem, "--mu", mu, str(inst)
            )
            assert (code, out) == (3, "")


class TestReduceFlagsPerTheorem:
    X3C = "x3c 6\nset 1 2 3\nset 2 3 4\nset 4 5 6\n"
    MMM = "mmm 3 2\nedge 1 4\nedge 2 4\nedge 3 5\n"

    @pytest.mark.parametrize("source, theorem, flag", [
        ("x3c", "5", ["--bounds", "2:4"]),
        ("mmm", "6", ["--bounds", "1:3"]),
        ("x3c", "9", ["--mu", "7"]),
    ])
    def test_a_flag_the_theorem_does_not_take_is_exit_three(
        self, capsys, tmp_path, source, theorem, flag
    ):
        inst = tmp_path / "inst"
        inst.write_text(self.X3C if source == "x3c" else self.MMM)
        extra = ["--bounds", "2:4"] if theorem == "9" else []
        argv = ["reduce", "--from", source, "--theorem", theorem, *extra, str(inst)]
        assert invoke(capsys, *argv)[0] == 0
        code, out, err = invoke(capsys, *argv[:-1], *flag, str(inst))
        assert (code, out) == (3, "") and "only applies to" in err


class TestEmptyGame:
    """Zero agents have one partition, the empty one, under any bounds."""

    EMPTY = serialize_partition(Partition([]))

    @pytest.fixture
    def game(self, tmp_path):
        path = tmp_path / "empty.ashg"
        path.write_text("ashg 0\n")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("exists", "--concept", "ns", "--bounds", "2:3", "--exact"),
        ("exists", "--concept", "cis*", "--bounds", "1:3", "--exact"),
        ("maxwelfare", "--bounds", "2:3"),
        ("solve", "--concept", "cis", "--bounds", "1:3"),
        ("solve", "--concept", "cis*", "--bounds", "2:3"),
        ("solve", "--concept", "cns", "--bounds", "1:2"),
        ("solve", "--concept", "ns*", "--bounds", "2:3"),
        ("dynamics", "--bounds", "2:3"),
    ])
    def test_commands_print_the_empty_partition(self, capsys, game, argv):
        assert invoke(capsys, *argv, game)[:2] == (0, self.EMPTY)

    def test_maxwelfare_and_dynamics_report_zero(self, capsys, game):
        assert invoke(capsys, "maxwelfare", "--bounds", "2:3", game)[2] == "welfare: 0\n"
        assert invoke(capsys, "dynamics", "--bounds", "2:3", game)[2] == "steps: 0\n"

    @pytest.mark.parametrize("concept", ["ns", "cis*"])
    def test_verify_accepts_the_empty_partition_file(self, capsys, game, tmp_path, concept):
        part = tmp_path / "empty.part"
        part.write_text("")
        code, out, _ = invoke(capsys, "verify", "--concept", concept, "--bounds", "2:3", game,
                              str(part))
        assert (code, out) == (0, "stable\n")

    def test_a_coalition_count_is_still_checked(self, capsys, game):
        assert invoke(
            capsys, "solve", "--concept", "cis*", "--bounds", "2:3", "--k", "1", game
        )[:2] == (2, "")
        assert invoke(
            capsys, "solve", "--concept", "cis*", "--bounds", "2:3", "--k", "0", game
        )[:2] == (3, "")


class TestMaxNFlag:
    """``--max-n`` is checked as a flag, in the user's terms."""

    @pytest.mark.parametrize("argv, err", [
        (("exists", "--concept", "ns", "--bounds", "2:3", "--exact", "--max-n", "0"),
         "error: --max-n must be at least 1, got 0\n"),
        (("maxwelfare", "--bounds", "2:3", "--max-n", "-1"),
         "error: --max-n must be at least 1, got -1\n"),
        (("maxwelfare", "--bounds", "2:3", "--max-n", "six"),
         "error: --max-n must be an integer, got 'six'\n"),
    ])
    def test_bad_values_name_the_flag(self, capsys, files, argv, err):
        assert invoke(capsys, *argv, files["intro_pos"]) == (3, "", err)

    @pytest.mark.parametrize("argv", [
        ("exists", "--concept", "ns*", "--bounds", "2:3", "--exact"),
        ("maxwelfare", "--bounds", "2:3"),
    ])
    def test_a_budget_below_the_agent_count_is_still_exit_three(self, capsys, files, argv):
        code, out, err = invoke(capsys, *argv, "--max-n", "5", files["intro_pos"])
        assert (code, out) == (3, "") and "budget" in err
        assert invoke(capsys, *argv, "--max-n", "6", files["intro_pos"])[0] == 0


class TestFileArguments:
    """Every file argument is read and parsed the same way: a missing or
    malformed file is an input error that names the path or the line."""

    X3C = "x3c 6\nset 1 2 3\nset 2 3 4\nset 4 5 6\n"
    MMM = "mmm 3 2\nedge 1 4\nedge 2 4\nedge 3 5\n"

    # (argv with FILE in the place of the file under test, a malformed text
    # for that file, the error it gives)
    CASES = {
        "verify-game": (
            ("verify", "--concept", "ns", "--bounds", "2:3", "FILE", "PAIRS"),
            "ashg 6\nv 1 2 x\n", "line 2: valuation must be an integer, got 'x'",
        ),
        "verify-partition": (
            ("verify", "--concept", "ns", "--bounds", "2:3", "GAME", "FILE"),
            "1 2\n3 x\n", "line 2: agent id must be an integer, got 'x'",
        ),
        "dynamics-init": (
            ("dynamics", "--bounds", "2:3", "--init", "FILE", "GAME"),
            "1 2\n\n3 4 4\n", "line 0: repeated agent inside coalition (3, 4, 4)",
        ),
        "reduce-x3c": (
            ("reduce", "--from", "x3c", "--theorem", "5", "FILE"),
            "x3c 6\nset 1 2\n", "line 2: expected 'set <a> <b> <c>'",
        ),
        "reduce-mmm": (
            ("reduce", "--from", "mmm", "--theorem", "6", "FILE"),
            "mmm 3 2\nedge 1 4\nedge 1 x\n", "line 3: vertex must be an integer, got 'x'",
        ),
        "reduce-cover": (
            ("reduce", "--from", "x3c", "--theorem", "5", "--witness", "FILE", "X3C"),
            "cover 1\nset 3\n", "line 2: expected 'cover <s1> <s2> ...'",
        ),
        "reduce-matching": (
            ("reduce", "--from", "mmm", "--theorem", "6", "--witness", "FILE", "MMM"),
            "match 1 4\nmatch 3\n", "line 2: expected 'match <i> <j>'",
        ),
    }

    def argv(self, files, tmp_path, template, path):
        inputs = {"FILE": path, "PAIRS": files["pairs"], "GAME": files["intro_pos"]}
        for name, text in (("X3C", self.X3C), ("MMM", self.MMM)):
            (tmp_path / name).write_text(text)
            inputs[name] = str(tmp_path / name)
        return [inputs.get(arg, arg) for arg in template]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_missing_file_is_exit_three(self, capsys, files, tmp_path, case):
        missing = str(tmp_path / "missing")
        code, out, err = invoke(capsys, *self.argv(files, tmp_path, self.CASES[case][0], missing))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot read {missing}: ")

    @pytest.mark.parametrize("case", ["verify-game", "verify-partition"])
    def test_an_undecodable_file_is_exit_three_and_named(self, capsys, files, tmp_path, case):
        bad = tmp_path / "bad"
        bad.write_bytes(b"ashg 6\nv 1 2 \xff\n")
        code, out, err = invoke(capsys, *self.argv(files, tmp_path, self.CASES[case][0], str(bad)))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot read {bad}: ") and "0xff" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_malformed_file_is_exit_three(self, capsys, files, tmp_path, case):
        template, text, message = self.CASES[case]
        bad = tmp_path / "bad"
        bad.write_text(text)
        argv = self.argv(files, tmp_path, template, str(bad))
        assert invoke(capsys, *argv) == (3, "", f"error: {message}\n")

    def test_theorem_9_reads_its_instance_before_the_bounds_check(self, capsys, tmp_path):
        argv = ("reduce", "--from", "x3c", "--theorem", "9")
        missing = str(tmp_path / "missing")
        code, out, err = invoke(capsys, *argv, missing)
        assert (code, out) == (3, "") and err.startswith(f"error: cannot read {missing}: ")
        bad = tmp_path / "bad"
        bad.write_text("x3c 6\nset 1 2\n")
        assert invoke(capsys, *argv, str(bad)) == (3, "", "error: theorem 9 needs --bounds\n")
