"""Every top-level import of an ``omclab`` module is used by that module.

The project depends on no linter, so this is the check: a name a module
imports at top level must appear in its code, or in ``__all__`` for the
package's re-exports.  Only the standard library's ``ast`` is used.
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
