import ast
import sys
import types
from pathlib import Path

import sizedhedonic

SOURCES = sorted(Path(sizedhedonic.__file__).parent.glob("*.py"))


def test_every_exported_name_resolves():
    assert len(set(sizedhedonic.__all__)) == len(sizedhedonic.__all__)
    for name in sizedhedonic.__all__:
        assert not isinstance(getattr(sizedhedonic, name), types.ModuleType), name


def test_package_imports_only_the_standard_library():
    # relative imports (level > 0) stay inside the package
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.partition(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []
