"""Module layering of the package, read from the source with ``ast``.

Model code never imports experiment code, and the statistics layer sits
below everything but the random streams.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chaoslab"
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
    assert "clustering.py" in {p.name for p in MODULES}
    assert package_imports(PACKAGE / "clustering.py") >= {"rng", "geometry"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_experiments_imports_experiments(path):
    if path.name != "experiments.py":
        assert "experiments" not in package_imports(path)


def test_stats_imports_only_rng():
    assert package_imports(PACKAGE / "stats.py") == {"rng"}


def test_package_does_not_load_scipy_integrate():
    # scipy.integrate pulls in scipy.sparse, about a third of the package's
    # import time and a quarter of its resident memory, for no package route
    names = ", ".join(f"chaoslab.{p.stem}" for p in MODULES)
    code = f"import sys, {names}; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False"


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


# Parameters with a default plus dataclass fields with a default, over the
# whole package; a ``field(...)`` without ``default`` or ``default_factory``
# is a required field, not an option.  A change that adds an option raises
# this ceiling in the same diff and says why in CHANGES.md.
OPTION_CEILING = 71


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _field_default(value) -> bool:
    """Whether a dataclass field's right-hand side gives it a default."""
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name == "field":
            return any(kw.arg in ("default", "default_factory")
                       for kw in value.keywords)
    return value is not None


def option_count(source: str) -> int:
    """Options in ``source``: defaulted parameters and dataclass fields."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign)
                         and _field_default(stmt.value) for stmt in node.body)
    return count


def test_option_count_reads_defaults_and_fields():
    source = (
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "    v: list = field(repr=False)\n"
        "    u: int = field(default=3, repr=False)\n"
        "class B:\n"
        "    w: int = 0\n")
    assert option_count(source) == 5


def test_option_count_stays_under_ceiling():
    total = sum(option_count(path.read_text()) for path in MODULES)
    assert total <= OPTION_CEILING


# distribution name -> import name of every declared runtime dependency
IMPORT_NAMES = {"numpy": "numpy", "scipy": "scipy"}


def declared_dependencies(text: str) -> list[str]:
    """Distribution names in the [project] dependencies array of a
    pyproject.toml (read without tomllib, which Python 3.10 lacks)."""
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1),
                     re.M | re.S)
    return [re.match(r"[A-Za-z0-9._-]+", spec).group(0)
            for spec in re.findall(r"[\"']([^\"']+)[\"']", deps.group(1))]


def test_declared_dependencies_are_parsed():
    text = ('[project]\nname = "x"\ndependencies = [\n    "numpy>=2.0",\n'
            '    \'PyYAML >= 6\',\n]\n\n[project.optional-dependencies]\n'
            'test = ["pytest>=7.0"]\n')
    assert declared_dependencies(text) == ["numpy", "PyYAML"]


def test_every_declared_dependency_is_imported():
    imported = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    for dist in declared_dependencies((ROOT / "pyproject.toml").read_text()):
        assert dist in IMPORT_NAMES, f"add the import name of {dist}"
        assert IMPORT_NAMES[dist] in imported, f"{dist} is declared, never imported"
