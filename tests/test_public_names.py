import ast
import importlib
import inspect
import os
import pkgutil

import pytest

import clag

MODULES = ["clag"] + [f"clag.{m.name}"
                      for m in pkgutil.iter_modules(clag.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # the benchmark's tracer picks its spans from __all__
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", [])
               if not hasattr(mod, attr)]
    assert not missing


def test_names_the_benchmark_reaches_into_exist(monkeypatch):
    # the tracer patches these methods on their class, and the worker
    # records _kernels.USING_NUMBA; a missing one crashes every run
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "clagbench")
    monkeypatch.syspath_prepend(bench)
    tracer = importlib.import_module("tracer")
    for short, clsname, meth in tracer.TRACED_METHODS.values():
        cls = getattr(importlib.import_module(f"clag.{short}"), clsname)
        assert inspect.isfunction(cls.__dict__.get(meth)), (clsname, meth)
    assert hasattr(importlib.import_module("clag._kernels"), "USING_NUMBA")


def test_size_guard_is_raised_in_one_place():
    # the size policy lives in geometry.check_size: every table the
    # library guards calls it rather than constructing SizeGuard
    def constructs(node):
        return (isinstance(node, ast.Call) and "SizeGuard" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)))

    package = os.path.dirname(os.path.abspath(clag.__file__))
    everywhere = in_helper = 0
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(package, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            everywhere += constructs(node)
            if (fname == "geometry.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "check_size"):
                in_helper += sum(map(constructs, ast.walk(node)))
    assert everywhere == in_helper == 1


def _names(tree) -> list[str]:
    """Every name, attribute and definition of a parsed module."""
    return [getattr(node, attr) for node in ast.walk(tree)
            for attr in ("id", "attr", "name") if isinstance(
                getattr(node, attr, None), str)]


def test_points_are_numbered_in_geometry_alone():
    # the closed form of `_index_form` is the one point numbering: no
    # other module indexes points, and none lists the 0-spaces
    package = os.path.dirname(os.path.abspath(clag.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    for folder in (package, tests):
        for fname in sorted(os.listdir(folder)):
            if not fname.endswith(".py"):
                continue
            with open(os.path.join(folder, fname)) as fh:
                tree = ast.parse(fh.read())
            names = _names(tree)
            assert "point_index" not in names, fname
            if folder != package or fname == "geometry.py":
                continue
            assert "_index_form" not in names, fname
            args = [arg for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "spaces"
                    for arg in node.args]
            assert not any(isinstance(arg, ast.Constant) and arg.value == 0
                           for arg in args), fname


def _library_uses(module: str) -> set[str]:
    """The names of clag.<module> that the other library modules read,
    as `module.name` or through `from .module import name`."""
    package = os.path.dirname(os.path.abspath(clag.__file__))
    used = set()
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py") or fname == f"{module}.py":
            continue
        with open(os.path.join(package, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == module):
                used.add(node.attr)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module in (module, f"clag.{module}")):
                used.update(alias.name for alias in node.names)
    return used


def test_every_exact_name_has_a_library_caller():
    # clag.exact keeps only what the rest of the library runs; a name
    # that only tests call belongs in tests/oracle.py
    from clag import exact
    assert not set(exact.__all__) - _library_uses("exact")


def test_every_galois_name_has_a_library_caller():
    # clag.galois keeps one field model, the table field; scalar
    # arithmetic that only tests call lives in tests/oracle.py
    from clag import galois
    assert not set(galois.__all__) - _library_uses("galois")
