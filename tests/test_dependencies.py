"""The package imports nothing beyond the standard library, numpy, scipy and
PyYAML, the dependencies declared in pyproject.toml."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "treetn").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "yaml"}


def top_level_imports(path):
    """The top-level module of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_declared_dependencies(path):
    assert sorted(set(top_level_imports(path)) - ALLOWED) == []
