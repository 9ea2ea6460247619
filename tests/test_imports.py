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
