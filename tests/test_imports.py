"""Every top-level import of an ``omclab`` module is used by that module, and
no module reads the environment.

The project depends on no linter, so this is the check: a name a module
imports at top level must appear in its code, or in ``__all__`` for the
package's re-exports.  A setting comes from a flag or a config key only, so
no module may touch ``os.environ`` or ``os.getenv``.  Only the standard
library's ``ast`` is used.
"""

import ast
from pathlib import Path

import pytest

import omclab

SOURCES = sorted(Path(omclab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of ``source`` that it never uses."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_detector_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport math\n"
              "from .core import replace, PulseSequence as PS\n"
              "__all__ = ['PS']\n\ndef f():\n    return math.pi\n")
    assert unused_imports(source) == ["os", "replace"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def environment_reads(source: str) -> list[str]:
    """``os.environ`` / ``os.getenv`` uses in ``source``, and those names
    imported from ``os``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{alias.name}" for alias in node.names
                      if alias.name in ("environ", "getenv")]
    return found


def test_detector_flags_an_environment_read():
    source = ("import os\nfrom os import getenv as g\n\ndef f():\n"
              "    return os.environ.get('X'), os.getenv('Y'), os.path.sep\n")
    assert sorted(environment_reads(source)) == ["os.environ", "os.getenv", "os.getenv"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    assert environment_reads(path.read_text()) == []
