"""The runtime depends on numpy and the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "sadnet").glob("*.py"))


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert any(p.name == "tensor.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_numpy_or_stdlib(path):
    foreign = [name for name in _absolute_imports(path)
               if name.split(".")[0] != "numpy"
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def _unused_imports(path: Path):
    """Names the module imports but never reads; ``__all__`` re-exports and
    ``__future__`` features count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unused_imports(path) == []


def _private_definitions(tree: ast.Module):
    """(name, line) of every module-level private function, class and
    constant (``_x``, not ``__x__``)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno) for name in targets
                    if name.startswith("_") and not name.startswith("__"))


def _reads(tree: ast.Module):
    """Every name the module reads: loaded names and attributes (``T._node``),
    and the names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_name_is_read():
    """A private helper that no module of the package reads is dead code."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    read = {name for tree in trees.values() for name in _reads(tree)}
    defined = [(f"{module}:{line}", name) for module, tree in trees.items()
               for name, line in _private_definitions(tree)]
    assert len(defined) > 0
    assert [f"{at} {name}" for at, name in defined if name not in read] == []


def _tensor_reads(tree: ast.Module):
    """The names of ``tensor.py`` that a module reads: attributes of the
    names it binds to the module (``from . import tensor as T``) and the
    names it imports from ``.tensor``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "tensor":
                yield from (alias.name for alias in node.names)
            elif node.module is None:
                aliases.update(alias.asname or alias.name
                               for alias in node.names
                               if alias.name == "tensor")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield node.attr


def test_every_tensor_op_is_read():
    """Each public function of ``tensor.py`` serves another module of the
    package; an op only tests call does not belong in the core."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    public = [node.name for node in trees["tensor.py"].body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")]
    read = {name for module, tree in trees.items() if module != "tensor.py"
            for name in _tensor_reads(tree)}
    assert len(public) > 0
    assert [name for name in public if name not in read] == []
