"""The package's exported surface: `__all__` and the README's library tour."""

import ast
import re
from pathlib import Path

import nested_alloc

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_source() -> str:
    match = re.search(r"## Library quick tour\s*```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no python block under 'Library quick tour'"
    return match.group(1)


def test_every_exported_name_resolves():
    assert len(set(nested_alloc.__all__)) == len(nested_alloc.__all__)
    for name in nested_alloc.__all__:
        assert getattr(nested_alloc, name) is not None, name


def test_readme_tour_imports_only_exported_names_and_runs():
    source = _tour_source()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "nested_alloc"
        for alias in node.names
    ]
    assert imported, "the tour imports nothing from nested_alloc"
    assert set(imported) <= set(nested_alloc.__all__)
    exec(compile(source, str(README), "exec"), {})
