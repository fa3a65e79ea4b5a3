"""The benchmark's traced run can find and restore every function it times.

perfbench/tracer.py names graphcurvature functions by module and attribute
and fails a traced run when one of them records no calls. These tests read
that catalog, without changing it, so a renamed or deleted function shows
up here and not only in a traced benchmark run.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

import graphcurvature
from graphcurvature import cli, verify  # noqa: F401  (the catalog names both)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner_and_attr(module, path):
    mod = sys.modules[f"graphcurvature.{module}"]
    owner_name, _, attr = path.rpartition(".")
    return (getattr(mod, owner_name) if owner_name else mod), attr


def _bindings(tracer):
    """Every name the tracer may patch: package module globals and catalogued classes' attributes."""
    owners = [m for name, m in sys.modules.items()
              if name == "graphcurvature" or name.startswith("graphcurvature.")]
    owners += [_owner_and_attr(module, path)[0] for _, module, path, _ in tracer.CATALOG if "." in path]
    return {(id(o), key): value for o in owners for key, value in vars(o).items()}


def test_catalog_entries_resolve(tracer):
    for name, module, path, _ in tracer.CATALOG:
        owner, attr = _owner_and_attr(module, path)
        value = vars(owner).get(attr)
        assert callable(value) or isinstance(value, functools.cached_property), name


def test_install_then_uninstall_restores_every_original(tracer):
    before = _bindings(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        for name, module, path, _ in tracer.CATALOG:
            owner, attr = _owner_and_attr(module, path)
            assert vars(owner)[attr] is not before[(id(owner), attr)], name
        # the wrapped functions still compute, and record their calls
        assert graphcurvature.graph_euler_characteristic(graphcurvature.icosahedron()) == 2
        assert t.totals()[0]["cliques.count_cliques"][0] == 1
    finally:
        t.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
