"""Every top-level import of an ``omclab`` module is used by that module, every
top-level function and public class is used somewhere, every dataclass field
is read somewhere, and no module reads the environment.

The project depends on no linter, so this is the check: a name a module
imports at top level must appear in its code, or in ``__all__`` for the
package's re-exports.  A top-level function, private or public, or a public
class must be referred to by some ``omclab`` module, by a ``perfbench`` script
or by an ``__all__``; one only the tests call is code nothing uses.  Likewise
a field of an ``omclab`` dataclass must be read as an attribute by some
``omclab`` module or ``perfbench`` script, unless its class is written out
whole.  A setting
comes from a flag or a config key only, so no module may touch ``os.environ``
or ``os.getenv``.  The package's only exception classes are ``ConfigError``
and ``UndefinedEstimateError`` in ``core``, and it raises nothing else but
builtin exceptions and argparse's ``ArgumentTypeError``.
Only the standard library's ``ast`` and ``builtins`` are used.
"""

import ast
import builtins
from pathlib import Path

import pytest

import omclab

SOURCES = sorted(Path(omclab.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def _all_names(tree: ast.Module) -> list[str]:
    """The entries of a top-level ``__all__ = [...]`` in ``tree``."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


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
    used.update(_all_names(tree))
    return sorted(imported - used)


def test_detector_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport math\n"
              "from .core import replace, PulseSequence as PS\n"
              "__all__ = ['PS']\n\ndef f():\n    return math.pi\n")
    assert unused_imports(source) == ["os", "replace"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each top-level function or public class of ``modules``
    (module name -> source) that nothing refers to.

    A reference is that name used as a name or an attribute anywhere in
    ``modules`` or ``readers``, or listed in an ``__all__``; a name's own
    definition does not refer to it.  Matching is by name alone, so a name
    shared by two modules counts as used when either is.
    """
    trees = {module: ast.parse(source) for module, source in modules.items()}
    referenced = set()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
        referenced.update(_all_names(tree))
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      or isinstance(node, ast.ClassDef) and not node.name.startswith("_"))
                  and node.name not in referenced)


def test_detector_flags_an_unreferenced_name():
    modules = {
        "a": ("__all__ = ['Exported']\n\nclass Exported:\n    pass\n\n"
              "def helper():\n    return _private()\n\ndef _private():\n    return 2\n\n"
              "def called_by_reader():\n    return helper()\n\ndef orphan():\n    return 3\n\n"
              "def _dead():\n    return 4\n\nclass _Hidden:\n    pass\n"),
        "b": "from .a import Exported\n\nclass Lonely(Exported):\n    pass\n",
    }
    readers = ["import a\n\na.called_by_reader()\n"]
    assert unreferenced_names(modules, readers) == ["a._dead", "a.orphan", "b.Lonely"]


def test_every_public_name_is_referenced():
    assert PERFBENCH, "perfbench scripts not found beside the tests"
    modules = {path.stem: path.read_text() for path in SOURCES}
    readers = [path.read_text() for path in PERFBENCH]
    assert unreferenced_names(modules, readers) == []


def _is_dataclass_decorator(node: ast.expr) -> bool:
    """Whether a decorator is ``dataclass`` or ``dataclass(...)``, bare or as an
    attribute (``dataclasses.dataclass``)."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def unread_fields(modules: dict[str, str], readers: list[str],
                  exempt=frozenset()) -> list[str]:
    """``module.Class.field`` for each field of a ``@dataclass`` class of
    ``modules`` (module name -> source), other than the ``exempt`` classes,
    that nothing reads.

    A read is the field's name loaded as an attribute anywhere in ``modules``
    or ``readers``; setting it by keyword or assigning it is not one.
    Matching is by name alone, as in ``unreferenced_names``.
    """
    trees = {module: ast.parse(source) for module, source in modules.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, readers)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}.{cls.name}.{stmt.target.id}"
                  for module, tree in trees.items() for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name not in exempt
                  and any(map(_is_dataclass_decorator, cls.decorator_list))
                  for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in read)


# dataclasses written out whole, whose every field reaches an output without
# being read by name
_SERIALISED_WHOLE = {
    "FitResult": "`fit` prints and writes it through dataclasses.asdict",
    "SimReport": "`simulate` writes it as its report JSON through dataclasses.asdict",
    "CalibrationPoint": "serialize_config writes each heating.calib.N row whole, and "
                        "HeatingParams._lookup reads amplitude and n_instant through getattr",
}


def test_detector_flags_an_unread_field():
    modules = {
        "a": ("from dataclasses import dataclass\nimport dataclasses\n\n"
              "@dataclass(frozen=True)\nclass Point:\n    x: float\n    y: float\n"
              "    z: float = 0.0\n\n    def norm(self):\n        return self.x\n\n"
              "@dataclasses.dataclass\nclass Box:\n    side: float\n    label: str\n\n"
              "@dataclass\nclass Whole:\n    unread: int\n\n"
              "class Plain:\n    note: str\n\n"
              "def make(box):\n    box.label = 'b'\n    return Point(x=1.0, y=2.0)\n"),
    }
    readers = ["import a\n\nprint(a.make(None).side)\n"]
    assert unread_fields(modules, readers, {"Whole"}) == [
        "a.Box.label", "a.Point.y", "a.Point.z"]


def test_every_dataclass_field_is_read():
    modules = {path.stem: path.read_text() for path in SOURCES}
    readers = [path.read_text() for path in PERFBENCH]
    assert unread_fields(modules, readers, _SERIALISED_WHOLE) == []


# the package's own exception classes, each in core: exit 2 and exit 3 of the CLI
_EXCEPTIONS = {"ConfigError": "core", "UndefinedEstimateError": "core"}
# argparse reports the message of this one as the flag's error
_STDLIB_RAISES = {"ArgumentTypeError"}


def _exception_name(node: ast.expr) -> str | None:
    """The class name ``raise`` names in ``X``, ``X(...)``, ``m.X`` or ``m.X(...)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def exception_faults(modules: dict[str, str]) -> list[str]:
    """``module.name`` for each exception class of ``modules`` (module name ->
    source) other than ``_EXCEPTIONS`` in its module, and for each ``raise``
    of a class that is neither one of those nor a builtin exception (nor in
    ``_STDLIB_RAISES``).  A bare ``raise`` re-raises and is not counted."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    builtin = {name for name, value in vars(builtins).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    classes = [(module, node) for module, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    exceptions = set(builtin)
    while new := {node.name for _, node in classes if node.name not in exceptions
                  and any(_exception_name(base) in exceptions for base in node.bases)}:
        exceptions |= new  # a subclass of an exception class found so far
    faults = [f"{module}.{node.name}" for module, node in classes
              if node.name in exceptions - builtin and _EXCEPTIONS.get(node.name) != module]
    faults += [f"{module}.raise {name}" for module, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc
               and (name := _exception_name(node.exc)) not in
               builtin | _EXCEPTIONS.keys() | _STDLIB_RAISES]
    return sorted(faults)


def test_detector_flags_a_new_exception_class():
    modules = {
        "core": ("class ConfigError(ValueError):\n    pass\n\n"
                 "class UndefinedEstimateError(ValueError):\n    pass\n\n"
                 "class Narrower(ConfigError):\n    pass\n\n"
                 "def f(x):\n    if x:\n        raise ConfigError('a')\n"
                 "    raise KeyError\n"),
        "fock": ("import argparse\nfrom .core import UndefinedEstimateError\n\n"
                 "class HeraldingError(ArithmeticError):\n    pass\n\n"
                 "class ConfigError(Exception):\n    pass\n\n"
                 "class Plain:\n    pass\n\n"
                 "def g():\n    try:\n        raise core.UndefinedEstimateError('b')\n"
                 "    except ValueError:\n        raise\n"
                 "    raise argparse.ArgumentTypeError('c')\n\n"
                 "def h(exc):\n    raise stats.Undefined('d') from exc\n"),
    }
    assert exception_faults(modules) == [
        "core.Narrower", "fock.ConfigError", "fock.HeraldingError", "fock.raise Undefined"]


def test_the_package_defines_two_exception_classes():
    modules = {path.stem: path.read_text() for path in SOURCES}
    assert exception_faults(modules) == []


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


def test_pyproject_version_is_the_package_version():
    # every artifact header carries omclab.__version__
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["version"] == omclab.__version__
