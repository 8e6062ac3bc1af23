"""Every name a ``quantdist`` module imports is used in that module, and every private
name it defines is read somewhere in the package. The package resolves its public names
on first access, and each CLI command loads only the layers it runs."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import quantdist
from quantdist.cli import main

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


def test_every_public_name_is_its_defining_module_object():
    for name in quantdist.__all__:
        value = getattr(quantdist, name)
        if name != "__version__":
            assert value is getattr(sys.modules[value.__module__], name), name
            namespace = {}
            exec(f"from quantdist import {name}", namespace)
            assert namespace[name] is value
    assert quantdist.units.Dimension is quantdist.Dimension is quantdist.kinds.Dimension
    assert quantdist.pipeline.Pos is quantdist.Pos is quantdist.table.Pos
    assert quantdist.evaluation.dimension_named is quantdist.kinds.dimension_named
    assert sorted([*quantdist._HOMES, "__version__"]) == sorted(quantdist.__all__)
    assert set(quantdist.__all__) <= set(dir(quantdist))


def test_an_unknown_name_is_an_attribute_error_and_a_failing_import_is_not(monkeypatch):
    for name in ("no_such_name", "no_such_module"):
        with pytest.raises(AttributeError, match=name):
            getattr(quantdist, name)
    assert not hasattr(quantdist, "no_such_name")
    # a submodule whose own import fails: re-import the scanner with the lexicon unloadable
    monkeypatch.delitem(sys.modules, "quantdist.parser")
    monkeypatch.delattr(quantdist, "parser")
    monkeypatch.setitem(sys.modules, "quantdist.units", None)
    for name in ("tokenize", "parser"):
        with pytest.raises(ModuleNotFoundError) as caught:
            getattr(quantdist, name)
        assert caught.value.name == "quantdist.units"


# run a command in a fresh interpreter; its last line is the exit code and every module loaded
_CHILD = "import sys\nfrom quantdist.cli import main\nprint(main(sys.argv[1:]), *sorted(sys.modules))"
_EXTRACTION = {"quantdist.parser", "quantdist.pipeline", "quantdist.units"}


def _run(*argv, child=_CHILD) -> tuple[str, set]:
    """What a command printed before that last line, and the modules it loaded."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                          encoding="utf-8", env=env, check=True)
    *printed, last = proc.stdout.splitlines()
    code, *modules = last.split()
    assert code == "0", (argv, proc.stderr)
    return "\n".join(printed), set(modules)


def _loaded(*argv, child=_CHILD) -> set:
    return _run(*argv, child=child)[1]


def test_a_command_loads_only_the_layers_it_runs(tmp_path):
    conll = tmp_path / "adj.tsv"
    conll.write_text("".join(
        f"0\tThe\tOTHER\t2\n1\t{adj}\tADJ\t2\n2\t{noun}\tNOUN\t3\n3\treached\tVERB\t-\n"
        f"4\t{value}\tOTHER\t-\n5\tmph\tOTHER\t-\n\n"
        for adj, noun, value in [("fast", "car", 120), ("slow", "car", 30), ("fast", "train", 200)]
    ), encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("car\ttrain\tspeed\t<\nbus\tcat\tspeed\t>\n", encoding="utf-8")
    records, part, table = (str(tmp_path / name) for name in ("r.tsv", "p.tsv", "t.tsv"))
    assert main(["extract", str(conll), "--annotated", "-o", records]) == 0
    assert main(["aggregate", records, "-o", part]) == 0
    assert main(["finalize", part, "--min-count", "1", "-o", table]) == 0
    fresh = _loaded(child="import sys, quantdist\nprint(0, *sys.modules)")
    assert {name for name in fresh if name.startswith("quantdist")} == {"quantdist"}
    query = ["query", "--table", table, "--object", "car", "--dim", "speed", "--pos", "noun"]
    for argv in (
        query,
        ["compare", "--table", table, "--noun", "car", "train", "--dim", "speed"],
        ["compare", "--table", table, "--adj", "fast", "slow", "--dim", "speed"],
    ):
        assert not _loaded(*argv) & (_EXTRACTION | {"quantdist.evaluation"}), argv[0]
    # the --tau default is read from kinds, so help prints it without the query layer
    for command in ("compare", "eval"):
        printed, loaded = _run(command, "--help")
        assert "1.1" in printed.partition("--tau TAU")[2], command
        assert "quantdist.inference" not in loaded, command
    # a build step loads neither the query layer nor evaluation
    queries = {"quantdist.inference", "quantdist.evaluation"}
    for argv in (
        ["merge", part, part, "-o", str(tmp_path / "m.tsv")],
        ["finalize", part, "--min-count", "1", "-o", str(tmp_path / "f.tsv")],
        ["aggregate", records, "-o", str(tmp_path / "a.tsv")],
    ):
        assert not _loaded(*argv) & (_EXTRACTION | queries), argv[0]
    assert not _loaded("extract", str(conll), "--annotated", "-o", records) & queries
    for argv in (["audit", str(pairs), str(pairs)],
                 ["split", str(pairs), "--output-prefix", str(tmp_path / "s")]):
        assert not _loaded(*argv) & _EXTRACTION, argv[0]
    assert "quantdist.units" in _loaded(*query, "--unit", "km/h")
