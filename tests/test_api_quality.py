"""Release-hygiene checks on the public API.

* every public module, class and function in :mod:`repro` carries a
  docstring;
* every name in an ``__all__`` actually exists in its module;
* the top-level package re-exports what the README's quickstart uses;
* every name a module imports is read in that module.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            module.__name__
            for module in _walk_modules()
            if not (module.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_public_classes_and_functions_documented(self):
        missing = []
        for module in _walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented at home
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
        assert missing == []

    def test_public_methods_documented(self):
        missing = []
        for module in _walk_modules():
            for cls_name, cls in vars(module).items():
                if cls_name.startswith("_") or not inspect.isclass(cls):
                    continue
                if getattr(cls, "__module__", None) != module.__name__:
                    continue
                for name, member in vars(cls).items():
                    if name.startswith("_"):
                        continue
                    if not (
                        inspect.isfunction(member)
                        or isinstance(member, (staticmethod, classmethod, property))
                    ):
                        continue
                    target = (
                        member.fget
                        if isinstance(member, property)
                        else getattr(member, "__func__", member)
                    )
                    if not (getattr(target, "__doc__", "") or "").strip():
                        missing.append(f"{module.__name__}.{cls_name}.{name}")
        assert missing == []


class TestExports:
    def test_all_lists_resolve(self):
        for module in _walk_modules():
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_quickstart_symbols_at_top_level(self):
        for symbol in (
            "route_problem",
            "verify_routing",
            "layout_metrics",
            "MightyConfig",
            "ChannelSpec",
            "SwitchboxSpec",
            "RoutingProblem",
        ):
            assert hasattr(repro, symbol), symbol

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


def _unread_imports(source):
    """``(line, name)`` of every name ``source`` imports and never reads.

    A read is a loaded name (an attribute chain's root included), an
    ``__all__`` entry, or a name inside a quoted annotation.  Imports
    from ``__future__`` and lines marked ``# noqa: F401`` are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            span = lines[node.lineno - 1 : node.end_lineno]
            if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in span
            ):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant)
            )
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for item in ast.walk(annotation) if annotation else ():
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                quoted = ast.parse(item.value, mode="eval")
                read.update(
                    name.id
                    for name in ast.walk(quoted)
                    if isinstance(name, ast.Name)
                )
    return sorted(
        (line, name) for name, line in imported.items() if name not in read
    )


class TestImports:
    def test_every_import_is_read(self):
        """Every name a ``src/repro`` module imports is read in that
        module; the tracer bindings carry ``# noqa: F401``."""
        root = Path(repro.__file__).parent
        unread = [
            f"{path.relative_to(root)}:{line}: {name}"
            for path in sorted(root.rglob("*.py"))
            for line, name in _unread_imports(path.read_text())
        ]
        assert unread == []

    def test_the_check_sees_each_kind_of_read(self):
        source = """
from typing import TYPE_CHECKING, Optional
import numpy as np
import os.path
from a import b, c, d, e, f  # noqa: F401
from g import h
if TYPE_CHECKING:
    from i import J
__all__ = ["b"]
def run(x: Optional["J"]) -> None:
    return np.zeros(1), os.path.sep
"""
        assert _unread_imports(source) == [(6, "h")]
