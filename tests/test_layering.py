"""Module layering of the package, read from the source with ``ast``.

Model code never imports experiment code, and the statistics layer sits
below everything but the random streams.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chaoslab"
MODULES = sorted(PACKAGE.glob("*.py"))


def package_imports(path: Path) -> set[str]:
    """Names of the chaoslab modules that ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("chaoslab"):
                parts = node.module.split(".")
                if len(parts) > 1:
                    found.add(parts[1])
                else:
                    found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "chaoslab" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_package_imports_are_parsed():
    assert "experiments.py" in {p.name for p in MODULES}
    assert package_imports(PACKAGE / "experiments.py") >= {"stats", "rng"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_experiments_imports_experiments(path):
    if path.name != "experiments.py":
        assert "experiments" not in package_imports(path)


def test_stats_imports_only_rng():
    assert package_imports(PACKAGE / "stats.py") == {"rng"}


def unused_imports(path: Path) -> list[str]:
    """Names that ``path`` imports and never reads.

    An import line marked ``# noqa: F401`` is a deliberate re-export.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []
