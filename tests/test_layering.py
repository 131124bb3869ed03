"""Module layering of the package, read from the source with ``ast``.

Model code never imports experiment code, the statistics layer sits below
everything but the random streams, no module starts processes, and every
public name has a caller in the package or the benchmark unless it is a
named entry point.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chaoslab.nonlinearity import gaussian_mean, make_nonlinearity, mollify

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


# The studies run serially: every draw comes from its own counter substream,
# so no split of the work changes a number, and no workload runs a pool.
NO_PROCESS_MODULES = ("concurrent.futures", "multiprocessing", "subprocess")


def imported_modules(path: Path) -> set[str]:
    """Dotted names of the absolute imports of ``path``, each with its
    parents (``a.b`` gives ``a`` and ``a.b``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {".".join(n.split(".")[:i + 1]) for n in names
            for i in range(n.count(".") + 1)}


def test_imported_modules_are_parsed(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os.path\nfrom concurrent import futures\n"
                    "def f():\n    from multiprocessing import Pool\n")
    assert imported_modules(path) == {
        "os", "os.path", "concurrent", "concurrent.futures",
        "multiprocessing", "multiprocessing.Pool"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_starts_processes(path):
    assert imported_modules(path).isdisjoint(NO_PROCESS_MODULES)


def _run_with_package(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    the package from ``src/``."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    return out.stdout.strip()


IMPORT_ALL = "import " + ", ".join(f"chaoslab.{p.stem}" for p in MODULES)


def test_package_does_not_load_scipy_integrate():
    # scipy.integrate pulls in scipy.sparse, about a third of the package's
    # import time and a quarter of its resident memory, for no package route
    code = f"import sys; {IMPORT_ALL}; print('scipy.integrate' in sys.modules)"
    assert _run_with_package(code) == "False"


def test_study_modules_do_not_load_scipy():
    # importing scipy.fft alone takes about 0.19 s, more than an operator
    # study's whole set-up, and scipy.linalg and scipy.special took
    # 0.28-0.33 s, most of the model workloads' set-up; the package's Gauss
    # rules are numpy's, so no module at all, study or model, loads scipy
    code = (f"import sys; {IMPORT_ALL}; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    assert _run_with_package(code) == "[]"


def test_package_runs_without_scipy():
    # scipy is a test dependency only: with every scipy import blocked, the
    # package imports, and a Gaussian mean of a mollified power and an
    # ell = 3 mollified derivative inside the kink (every Gauss rule and a
    # kink table) give the numbers they give here
    code = f"""
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)

sys.meta_path.insert(0, NoScipy())
{IMPORT_ALL}
from chaoslab.nonlinearity import gaussian_mean, make_nonlinearity, mollify
md = mollify(make_nonlinearity("power_even", beta=0.5), 0.2)
print(repr(gaussian_mean(md, 1.0)), repr(md.deriv(3, 0.05)))
"""
    md = mollify(make_nonlinearity("power_even", beta=0.5), 0.2)
    want = (gaussian_mean(md, 1.0), md.deriv(3, 0.05))
    assert tuple(map(float, _run_with_package(code).split())) == want


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


# The experiments and lemma checks that are called from outside the
# repository only: every other public name needs a caller in ``src/`` or
# ``perfbench/``.
ENTRY_POINTS = {
    "field.verify_assumption1", "field.exact_lambda_hat",
    "isserlis.check_correlation_lemma", "isserlis.cluster_coeff",
    "clustering.volume_Sc", "clustering.volume_lemma_check",
    "clustering.partition_sum_check", "kernel.check_region_bounds",
    "experiments.second_moment_G", "experiments.second_moment_H",
    "models.mollification_gap", "models.holder_norm",
}
CALLERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (chaoslab module, name) of each name that ``tree``
    imports from a chaoslab module."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.level == 1:
            module = node.module.split(".")[0]
        elif node.level == 0 and node.module.startswith("chaoslab."):
            module = node.module.split(".")[1]
        else:
            continue
        for alias in node.names:
            found[alias.asname or alias.name] = (module, alias.name)
    return found


def _base_name(node: ast.Attribute):
    """The last identifier of an attribute's base: ``b`` in ``a.b.c``."""
    base = node.value
    return base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)


def _reads(node: ast.AST, module: str, qualname: str, own: bool,
           imported: dict) -> int:
    """How often ``node`` reads ``module.qualname``.  A method or property
    is read by any Attribute of its name.  A function or class is read by a
    Name that was imported from ``module`` (or any Name of it inside
    ``module`` itself, ``own``) and by an Attribute on a base that ends in
    ``module``, as in ``geometry.metric`` or ``self.geometry.metric``."""
    name = qualname.rpartition(".")[2]
    count = 0
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr == name:
            count += "." in qualname or _base_name(n) == module
        elif isinstance(n, ast.Name) and "." not in qualname:
            count += (own and n.id == name) or \
                imported.get(n.id) == (module, name)
    return count


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function or class and
    of each public method or property of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, defs[:2]) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def uncalled_names(package: dict, callers: list) -> list[str]:
    """'module.name' of each public definition of ``package`` (module name ->
    parsed source, itself among the ``callers``) that no tree of ``callers``
    reads (see :func:`_reads`) outside the definition's own body."""
    imported = [(tree, _imported(tree)) for tree in callers]
    out = []
    for module, mod_tree in package.items():
        own_names = _imported(mod_tree)
        for qualname, node in _public_definitions(mod_tree):
            total = sum(_reads(tree, module, qualname, tree is mod_tree, names)
                        for tree, names in imported)
            if total <= _reads(node, module, qualname, True, own_names):
                out.append(f"{module}.{qualname}")
    return out


def test_uncalled_names_are_found():
    lib = ast.parse(
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def _private(): pass\n"
        "def aliased(): pass\n"
        "def nested(): pass\n"
        "def same_named(): pass\n"
        "def other_base(): pass\n"
        "class Kept:\n"
        "    @property\n"
        "    def read(self): return 1\n"
        "    def unread(self): return self.unread\n"
        "    def shadowed(self): pass\n"
        "    def _hidden(self): pass\n")
    caller = ast.parse("import lib\nlib.used()\nx = lib.Kept().read\n"
                       "shadowed = 1\n"
                       "from chaoslab.lib import aliased as a\na()\n"
                       "self.lib.nested()\n")
    # a Name not imported from lib, and an Attribute on a base that is not
    # lib, read a name of their own
    other = ast.parse("def same_named(): pass\nsame_named()\n"
                      "import helpers\nhelpers.other_base()\n")
    assert uncalled_names({"lib": lib}, [lib, caller, other]) == \
        ["lib.recursive", "lib.same_named", "lib.other_base",
         "lib.Kept.unread", "lib.Kept.shadowed"]


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    package = {path.stem: trees[path] for path in MODULES}
    assert set(uncalled_names(package, list(trees.values()))) <= ENTRY_POINTS


def test_entry_points_exist():
    package = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    defined = {f"{module}.{name}" for module, tree in package.items()
               for name, _ in _public_definitions(tree)}
    assert ENTRY_POINTS <= defined


# Parameters with a default plus dataclass fields with a default, over the
# whole package; a ``field(...)`` without ``default`` or ``default_factory``
# is a required field, not an option.  The count is exact: a change that adds
# an option raises it in the same diff and says why in CHANGES.md, and a
# change that removes one lowers it.
OPTION_CEILING = 66


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
    assert total == OPTION_CEILING


# distribution name -> import name of every declared runtime dependency
IMPORT_NAMES = {"numpy": "numpy"}


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
