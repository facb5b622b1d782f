import ast
import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import sizedhedonic

SOURCES = sorted(Path(sizedhedonic.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"

# the public surface, module by module, in the order of ``sizedhedonic.__all__``
SURFACE = {
    "algorithms": (
        "DynamicsCycleError",
        "NotSymmetricError",
        "TraceEntry",
        "aziz_reference",
        "cis_star_nonneg",
        "cis_star_nonzero",
        "cis_upper",
        "cns_pairs",
        "dynamics_steps",
        "symmetric_dynamics",
    ),
    "exact": (
        "BudgetExceededError",
        "EnumerationBudget",
        "enumerate_partitions",
        "exists_stable",
        "max_welfare_partition",
    ),
    "instances": (
        "FAMILIES",
        "aziz_failure",
        "cycle_no_is_star",
        "intro_negative",
        "intro_positive",
        "make_instance",
        "pairs_triangle_no_cns_star",
        "star_no_cis",
    ),
    "model": (
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
    ),
    "prefs": ("enemies", "friends", "social_welfare", "top_set", "utility"),
    "reductions": (
        "InvalidCertificateError",
        "MMMInstance",
        "ReducedGame",
        "X3CInstance",
        "mmm_to_ns_is",
        "witness_partition",
        "x3c_to_cns",
        "x3c_to_ns_bounded",
    ),
    "stability": (
        "ALL_CONCEPTS",
        "FEASIBLE",
        "IMPLICATIONS",
        "PERMISSIBLE",
        "Concept",
        "Deviation",
        "StabilityReport",
        "apply_deviation",
        "blocking_check",
        "candidate_deviations",
        "verify",
    ),
}


def test_every_exported_name_resolves():
    assert len(set(sizedhedonic.__all__)) == len(sizedhedonic.__all__)
    for name in sizedhedonic.__all__:
        assert not isinstance(getattr(sizedhedonic, name), types.ModuleType), name


def test_public_surface_is_pinned():
    names = [name for module in SURFACE.values() for name in module]
    assert len(names) == 57
    assert sizedhedonic.__all__ == names
    namespace: dict = {}
    exec("from sizedhedonic import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
    for module, module_names in SURFACE.items():
        source = importlib.import_module(f"sizedhedonic.{module}")
        for name in module_names:
            assert namespace[name] is getattr(source, name), name


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_each_module_lists_its_public_names(module):
    source = importlib.import_module(f"sizedhedonic.{module}")
    defined = {
        name
        for name, obj in vars(source).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == source.__name__
    }
    listed = getattr(source, "__all__", ())
    assert defined <= set(listed)
    assert all(hasattr(source, name) for name in listed)


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


def test_readme_library_quickstart_runs():
    # the python block under "Library quickstart", run as it is written
    section = README.read_text().split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], f"{README.name} quickstart", "exec"), namespace)
    game, bounds = namespace["game"], namespace["bounds"]
    assert isinstance(namespace["best"], sizedhedonic.Partition)
    assert sizedhedonic.verify(game, namespace["ns"], bounds, sizedhedonic.Concept.NS).stable
