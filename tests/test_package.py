"""The package namespace and its module structure."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import srskit


def perfbench_layers():
    """The ``LAYERS`` table of ``perfbench/layers.py``: layer -> its
    ``module:attribute`` targets."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def resolves(target):
    """Whether ``module:attr.path`` names an attribute; nothing is wrapped."""
    modname, attr = target.split(":")
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return True


def test_every_benchmark_layer_resolves_a_target():
    # a layer none of whose targets resolves is reported absent, and its
    # metrics change shape; renaming a traced name breaks the benchmark
    absent = [layer for layer, targets in perfbench_layers().items()
              if not any(map(resolves, targets))]
    assert absent == []


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


# each numeric rule in one home, read from the sources with ast

def attribute_lines(node, attr):
    """The lines of each ``….attr`` read in ``node``, ``np.einsum`` say."""
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr == attr]


def definition(module, name):
    """The ``def`` or ``class`` named ``name`` in srskit module ``module``."""
    return next(node for node in ast.walk(TREES[module])
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name)


def homes(attr):
    """Module -> the lines where it reads ``….attr``, for modules that do."""
    found = {name: attribute_lines(tree, attr) for name, tree in TREES.items()}
    return {name: lines for name, lines in found.items() if lines}


def test_binders_take_the_sums_of_squares_of_the_checked_pass():
    # a second pass over D for them rounded the same sums again
    for binder in ("_bind_norm", "_bind_volume"):
        assert attribute_lines(definition("samplers", binder), "einsum") == []


def test_the_candidate_cut_has_one_home():
    cut = attribute_lines(definition("_kernels", "candidate_cut"), "nextafter")
    assert len(cut) == 1
    assert homes("nextafter") == {"_kernels": cut}


def test_per_cluster_counts_come_from_cluster_labels():
    counts = attribute_lines(definition("matrix", "ClusterLabels"), "bincount")
    assert len(counts) == 1
    assert homes("bincount") == {"matrix": counts}


def test_float64_range_has_one_home():
    # three hand-written power-of-two rescales tested the range two ways
    helper = definition("matrix", "pow2_scaled")
    for attr in ("frexp", "ldexp"):
        lines = attribute_lines(helper, attr)
        assert len(lines) == 1
        assert homes(attr) == {"matrix": lines}


def string_lines(node, part):
    """The lines of each string constant in ``node`` that holds ``part``."""
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Constant)
            and isinstance(n.value, str) and part in n.value]


def test_each_svg_element_kind_has_one_writer():
    # ten hand-written <text> and <line> f-strings spelled the same elements
    for part, writer in (("<text ", "_text"), ("<line ", "_line")):
        lines = string_lines(definition("plots", writer), part)
        assert len(lines) == 1
        found = {name: string_lines(tree, part) for name, tree in TREES.items()}
        assert {name: at for name, at in found.items() if at} == {"plots": lines}


def test_the_version_has_one_home():
    # pyproject.toml reads the version from srskit.__version__
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = tomllib.loads(path.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    version = config["tool"]["setuptools"]["dynamic"]["version"]
    assert version == {"attr": "srskit.__version__"}
