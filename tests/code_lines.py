"""Print the code lines of each Python module under a directory, and their total.

A line counts when it holds a ``tokenize`` token other than COMMENT, NL,
NEWLINE, INDENT or DEDENT, and is not part of a module, class or function
docstring.  Blank lines, comments and docstrings are not code.

Run as ``python tests/code_lines.py src/sizedhedonic``.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    # these two mark the stream's ends and hold no source text
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    with path.open("rb") as f:
        lines = {
            line
            for tok in tokenize.tokenize(f.readline)
            if tok.type not in _NOT_CODE
            for line in range(tok.start[0], tok.end[0] + 1)
        }
    return len(lines - docstrings)


def main(directory: str) -> None:
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name}\t{count}")
    print(f"total\t{total}")


if __name__ == "__main__":
    main(sys.argv[1])
