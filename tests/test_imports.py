"""Every name a src module imports at top level is read somewhere in that module, every
private module-level name is read somewhere in src, only _special imports scipy, and
only its owner reads the name of a decision that one module makes.

The first is ruff's unused-import rule, written with the standard library's ast module
so it runs without a linter installed. The package __init__ re-exports its imports and
is left out; `from __future__ import annotations` binds nothing that is read. The second
fails on a private helper, class or constant that only the tests still reach. The third
keeps out of every other module the scipy package imports that _special avoids. The
fourth keeps the cell key's width with counts._cell_keys and the tolerance of a sum of
masses with distributions.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "renydiv"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\nsep\n"
    assert unused_imports(source) == ["line 2: math", "line 3: path"]


def unread_private_names(sources: dict) -> list[str]:
    """The private module-level functions, classes and constants of sources (module name ->
    source) that no source reads as a name or an attribute outside their own definition.
    Names are matched across modules by spelling, as the imports between them carry it."""
    defined, read = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                names = set()
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module} line {node.lineno}"
            read |= {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                     or isinstance(sub, ast.Attribute)} - names
    return [f"{where}: {name}" for name, where in defined.items() if name not in read]


def test_no_unread_private_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_check_finds_an_unread_private_name():
    # _unused is never read, _loop only by itself and _imported only by an import
    a = ("_LIMIT = 3\n_unused = 1\ndef _loop(k):\n    return _loop(k - 1)\nclass _Row:\n"
         "    pass\ndef _helper():\n    return _LIMIT\ndef _imported():\n    pass\n")
    b = "from a import _helper, _imported\ndef run():\n    return _helper(), a._Row\n"
    assert unread_private_names({"a.py": a, "b.py": b}) == [
        "a.py line 2: _unused", "a.py line 3: _loop", "a.py line 9: _imported"]


def scipy_imports(source: str) -> list[str]:
    """The imports of scipy or of a scipy submodule in source, at top level or nested."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.partition(".")[0] == "scipy"]
    return found


@pytest.mark.parametrize("path", [path for path in sorted(SRC.glob("*.py"))
                                  if path.name != "_special.py"], ids=lambda path: path.name)
def test_only_special_imports_scipy(path):
    # `import scipy.special` costs about 0.24 s of every cold start that _special saves
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_a_scipy_import():
    source = ("import scipy\nimport os, scipy.stats as st\nfrom scipy.special import ndtr\n"
              "from .scipy import x\nimport scipyx\ndef f():\n    from scipy import special\n")
    assert scipy_imports(source) == [
        "line 1: scipy", "line 2: scipy.stats", "line 3: scipy.special", "line 7: scipy"]


# a name and the one src module that may read it: np.uint32 picks the m x m cell key's
# width, and PROB_SUM_TOL the distance from 1 that a sum of masses may take
OWNERS = {"uint32": "counts.py", "PROB_SUM_TOL": "distributions.py"}


def reads_of(source: str, name: str) -> list[int]:
    """The lines of source that read name: as a name, an attribute or an imported name."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, (ast.Import, ast.ImportFrom))
                and any(alias.name == name for alias in node.names)):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("name", sorted(OWNERS))
def test_only_the_owner_reads_a_decision(name):
    readers = {path.name: lines for path in sorted(SRC.glob("*.py"))
               if (lines := reads_of(path.read_text(encoding="utf-8"), name))}
    assert list(readers) == [OWNERS[name]], readers


def test_check_finds_the_reads_of_a_name():
    source = ("PROB_SUM_TOL = 1e-12\nimport numpy as np\nkey = np.uint32\n"
              "from .distributions import PROB_SUM_TOL\nif abs(t) > PROB_SUM_TOL:\n    pass\n"
              "uint32_keys = 'np.uint32'\n")
    assert reads_of(source, "uint32") == [3]
    assert reads_of(source, "PROB_SUM_TOL") == [4, 5]
