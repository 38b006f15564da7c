"""The package namespace and its module structure."""

import ast
import types
from pathlib import Path

import srskit


def test_star_import_binds_the_public_attributes_that_are_not_modules():
    namespace = {}
    exec("from srskit import *", namespace)
    del namespace["__builtins__"]
    public = {name for name, value in vars(srskit).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(namespace) == public
    assert "load_csv" in namespace and "SrskitError" in namespace
    # srskit.io is a submodule; bound, it would shadow the standard io
    assert isinstance(srskit.io, types.ModuleType) and "io" not in namespace


# ---------------------------------------------------------------------------
# the module structure, read from the sources with ast

SRC = Path(srskit.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}
# what forks, starts threads or reads the thread, CPU and BLAS counts:
# modules, attributes (``os.fork``), names and string constants
PARALLEL_ONLY = {"threading", "signal", "fork", "sched_getaffinity", "cpu_count",
                 "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "/proc/self/task"}
# what keeps threads between calls, or state a forked child must forget
NOWHERE = {"concurrent.futures", "ThreadPoolExecutor", "register_at_fork"}


def srskit_module_names(tree):
    """The names ``tree`` binds to srskit modules (``from . import x``)."""
    return {alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
            for alias in node.names if alias.name in TREES}


def private_reads(tree):
    """Each leading-underscore name of another srskit module that ``tree``
    imports (``from .m import _x``) or reads (``m._x``), with its line."""
    modules = srskit_module_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [(node.lineno, f"{node.module or ''}.{alias.name}")
                      for alias in node.names
                      if alias.name.startswith("_") and alias.name not in TREES]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def parallel_uses(tree):
    """Each use in ``tree`` of a name in PARALLEL_ONLY or NOWHERE, with its
    line; docstrings do not count."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node) is not None}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Constant) and id(node) not in docstrings:
            names = [node.value]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name in PARALLEL_ONLY | NOWHERE]
    return found


def test_no_module_reads_the_private_names_of_another():
    # private modules (``_kernels``, ``_parallel``) may be imported: the
    # names in them without a leading underscore are their interface
    found = {name: private_reads(tree) for name, tree in TREES.items()}
    assert {name: reads for name, reads in found.items() if reads} == {}


# what a ``raise`` may construct: an srskit error, the CLI's usage error or
# argparse's type error, which argparse turns into a usage error
RAISABLE = ({node.name for node in TREES["errors"].body
             if isinstance(node, ast.ClassDef)}
            | {"UsageError", "argparse.ArgumentTypeError"})


def untyped_raises(tree):
    """Each ``raise`` in ``tree`` of an exception it makes but whose class is
    not in RAISABLE, with its line.  A bare ``raise`` and a raise of a
    caught exception (a name bound by ``except``, or an item) make none."""
    caught = {node.name for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise):
            continue
        if isinstance(node.exc, ast.Call):
            name = ast.unparse(node.exc.func)
        elif isinstance(node.exc, ast.Name) and node.exc.id not in caught:
            name = node.exc.id
        else:
            continue
        if name not in RAISABLE:
            found.append((node.lineno, name))
    return found


def test_every_raise_makes_a_typed_error():
    found = {name: untyped_raises(tree) for name, tree in TREES.items()}
    assert {name: raises for name, raises in found.items() if raises} == {}
    assert "ArgumentError" in RAISABLE


def test_only_the_parallel_module_forks_or_starts_threads():
    found = {name: parallel_uses(tree) for name, tree in TREES.items()}
    here = {use for _, use in found.pop("_parallel", [])}
    assert {name: uses for name, uses in found.items() if uses} == {}
    # the guard sees each of them where they belong, and NOWHERE nowhere
    assert here == PARALLEL_ONLY
