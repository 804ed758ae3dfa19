"""The README's Python examples run, and the package exports what its
documented and outside callers import from it."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import fractalmark

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
PROSE = re.sub(r"```.*?```", "", README, flags=re.DOTALL)


def names_imported_from_package(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "fractalmark" and node.level == 0
        for alias in node.names
    }


def test_readme_examples_run_in_one_namespace(capsys):
    assert PYTHON_BLOCKS
    namespace: dict = {}
    for block in PYTHON_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out


def test_every_exported_name_resolves():
    assert len(set(fractalmark.__all__)) == len(fractalmark.__all__)
    for name in fractalmark.__all__:
        assert hasattr(fractalmark, name), name


def test_documented_and_outside_imports_are_exported():
    sources = PYTHON_BLOCKS + [(ROOT / "bench" / "workloads.py").read_text(encoding="utf-8")]
    imported = set().union(*(names_imported_from_package(src) for src in sources))
    assert {"normalize_to_unit_square", "StreamedCloud", "estimate_dimension"} <= imported
    for name in imported:
        # a submodule such as ``fixtures`` is imported by path, not exported
        is_module = importlib.util.find_spec(f"fractalmark.{name}") is not None
        assert is_module or name in fractalmark.__all__, name


def test_names_in_prose_resolve():
    # `CamelCase` names and `module.Name` references outside the code blocks
    modules = [fractalmark] + [
        importlib.import_module(f"fractalmark.{info.name}")
        for info in pkgutil.iter_modules(fractalmark.__path__)
    ]
    camel = set(re.findall(r"`([A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+)`", PROSE))
    assert {"PriceSeries", "StreamedCloud"} <= camel
    for name in camel:
        assert any(hasattr(module, name) for module in modules), name
    dotted = set(re.findall(r"`([a-z_]+)\.([A-Z]\w*)`", PROSE))
    assert ("boxdim", "HeldBlocks") in dotted
    for module, name in dotted:
        assert importlib.util.find_spec(f"fractalmark.{module}") is not None, module
        assert hasattr(importlib.import_module(f"fractalmark.{module}"), name), f"{module}.{name}"
