"""Replay the CLI contract corpus, ``tests/golden/cli.tsv``.

Every case of ``tests/golden/make_cli_corpus.py`` runs through ``cli.run``
in process, and its exit code and the sha256 of its stdout and stderr must
match the corpus line recorded from the code when the corpus was last
generated.  See that script for what the cases cover and how to regenerate
the file after a change that means to alter an output.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden")


def _generator():
    spec = importlib.util.spec_from_file_location("make_cli_corpus", GOLDEN / "make_cli_corpus.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_matches_its_corpus_line(tmp_path):
    generator = _generator()
    recorded = generator.CORPUS.read_text().splitlines()
    cases = generator.cases()
    assert len(cases) == len(recorded)
    changed = [
        f"line {number}: {line}"
        for number, (case, line) in enumerate(zip(cases, recorded), start=1)
        if generator.corpus_line(case, tmp_path / str(number)) != line
    ]
    assert not changed, f"{len(changed)} of {len(cases)} cases changed:\n" + "\n".join(changed[:20])
