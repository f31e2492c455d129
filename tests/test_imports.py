"""Import hygiene: every name a module imports is read somewhere in it, and
every private top-level name is read somewhere in the package.

``__init__.py`` is left out of the import scan, because it imports names to
re-export them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rigdiff"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_the_scan_sees_reads_in_code_and_annotations():
    source = ("from __future__ import annotations\nimport os\nimport os.path as p\n"
              "from a import b, c as d, e\ndef g(x: b) -> None:\n    return d.y\n")
    assert unused_imports(source) == ["e (line 4)", "os (line 2)", "p (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> dict[str, int]:
    """Private top-level names (one leading underscore) -> defining line."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def names_read(source: str) -> set[str]:
    """Names loaded, plus attribute names (``module._name``)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    read = set().union(*map(names_read, sources.values()))
    return sorted(f"{module}:{name} (line {line})" for module, source in sources.items()
                  for name, line in private_definitions(source).items() if name not in read)


def test_the_private_scan_sees_definitions_and_reads():
    sources = {"a.py": "_K = 1\n_t: int = 2\ndef _f():\n    return _K\nclass _C:\n    pass\n",
               "b.py": "from . import a\ndef g():\n    return a._f() + _h\n_h, _j = 3, 4\n"}
    assert unread_private_names(sources) == [
        "a.py:_C (line 5)", "a.py:_t (line 2)", "b.py:_j (line 4)"]


def test_package_reads_every_private_name_it_defines():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert sum(map(len, map(private_definitions, sources.values()))) > 50
    assert unread_private_names(sources) == []


# The rendering helpers that text.py takes from normal.py: the one place a
# module shares its private names with a sibling.
SHARED_PRIVATE = {("text.py", "normal", name) for name in (
    "_APP_LETTERS", "_VAR_LETTERS", "_letter", "_render_memo", "_render_monomial",
    "_render_nf")}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> set[tuple[str, str]]:
    """(sibling module, private name) for each ``from .mod import _name``,
    and each ``mod._name`` read of a sibling bound by ``from . import mod``."""
    tree = ast.parse(source)
    siblings, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif is_private(alias.name):
                    found.add((node.module, alias.name))
    found.update((siblings[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in siblings and is_private(node.attr))
    return found


def test_the_private_import_scan_sees_both_forms():
    source = ("from .a import b, _c as d\nfrom . import e as f, g\nfrom x import _h\n"
              "def k():\n    return f._i + g.j + g.__doc__ + d._l\n")
    assert private_imports(source) == {("a", "_c"), ("e", "_i")}


def test_no_module_imports_a_private_name_of_a_sibling():
    found = {(path.name, *pair) for path in MODULES
             for pair in private_imports(path.read_text(encoding="utf-8"))}
    assert found == SHARED_PRIVATE
