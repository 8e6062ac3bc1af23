"""Every name a ``quantdist`` module imports is used in that module, and every private
name it defines is read somewhere in the package."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "quantdist").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads; a name in ``__all__`` is read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from .units import Quantity, UnitRegistry\nimport os.path\n\ndef f(r: UnitRegistry): pass\n"
    assert unused_imports(source) == ["Quantity (line 1)", "os (line 2)"]
    assert unused_imports("import os\n__all__ = ['os']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert SOURCES and unused_imports(path.read_text("utf-8")) == []


def _definitions(tree: ast.Module):
    """Yield ``(name, line)`` per module-level name and per method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from ((t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.lineno


def unreferenced_private_names(sources: dict) -> list[str]:
    """The private names (``_x``, not dunders) that ``_definitions`` finds in ``sources``,
    module name to text, and that no ``Name`` or ``Attribute`` node of any of them reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, name, line) for name, line in _definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    unread = []
    for module, name, line in defined:
        last = name.rpartition(".")[2]
        if last.startswith("_") and not last.endswith("__") and last not in read:
            unread.append(f"{module}: {name} (line {line})")
    return unread


def test_the_check_finds_an_unreferenced_private_name():
    sources = {
        "a": "_USED = 1\n_UNUSED = 2\n\ndef _helper(): pass\n\nclass C:\n"
        "    def __init__(self): self._m()\n    def _m(self): pass\n    def _n(self): pass\n",
        "b": "from .a import _helper\nx = _helper() + a._USED\n",
    }
    assert unreferenced_private_names(sources) == ["a: _UNUSED (line 2)", "a: C._n (line 9)"]
    # a name assigned, or only named in a string, is not read
    assert unreferenced_private_names({"a": "_x = 1\n_x = 2\ny = '_x'\n"}) == [
        "a: _x (line 1)",
        "a: _x (line 2)",
    ]


def test_every_private_name_is_read_in_the_package():
    sources = {path.stem: path.read_text("utf-8") for path in SOURCES}
    assert sources and unreferenced_private_names(sources) == []
