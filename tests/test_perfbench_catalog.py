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

import graphcurvature.cli  # noqa: F401  (the catalog names cli and verify)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package():
    """graphcurvature and its CLI as ``sys.modules`` holds them now.

    perfbench's run.py imports the package afresh, and the tracer patches
    the modules it finds there, so a test that ran after it must not call
    the modules this file imported first.
    """
    return sys.modules["graphcurvature"], sys.modules["graphcurvature.cli"]


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
        gc, _ = _package()
        assert gc.graph_euler_characteristic(gc.icosahedron()) == 2
        assert t.totals()[0]["cliques.count_cliques"][0] == 1
    finally:
        t.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported with its sibling modules, then unloaded."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("inputs", "tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("workloads")
    for name in ("inputs", "tracer", "workloads"):
        sys.modules.pop(name, None)


def _run_traced(tracer, wl, ctx):
    """The op's result, and the expected layers, less the benchmark's own
    ``tracer.SPANS``, on which the traced op recorded no call."""
    t = tracer.Tracer()
    t.install()
    try:
        result = wl.op(ctx)
    finally:
        t.uninstall()
    by_name = t.totals()[0]
    return result, [name for name in wl.expected_layers
                    if name not in tracer.SPANS and not by_name.get(name, [0])[0]]


def test_chi_geometric_op_records_every_expected_layer(tracer, workloads, tmp_path):
    wl = workloads.WORKLOADS["chi_geometric"]
    gc, cli = _package()
    ctx = workloads.Context(gc=gc, cli=cli, seed=3, workers=1, workdir=tmp_path,
                            text=workloads.inputs.geometric_torus_text(400, 8, 3))
    (G, *chis), missing = _run_traced(tracer, wl, ctx)
    assert missing == []
    assert len(set(chis)) == 1 and G.n == 400


def test_exact_dense_op_records_every_expected_layer(tracer, workloads, tmp_path):
    """The verify layers, the stability walk's index evaluations among them."""
    wl = workloads.WORKLOADS["exact_dense"]
    gc, cli = _package()
    ctx = workloads.Context(gc=gc, cli=cli, seed=3, workers=1, workdir=tmp_path)
    workloads.dense_inputs(ctx)
    result, missing = _run_traced(tracer, wl, ctx)
    assert missing == []
    assert {"morse.verify_index_stability", "morse.index", "morse.IndexCalculator.init"} <= set(wl.expected_layers)
    assert wl.check(ctx, result) == []


def test_monte_carlo_op_records_every_expected_layer(tracer, workloads, tmp_path, monkeypatch):
    """The op at 2,000 samples, under its own check."""
    monkeypatch.setattr(workloads, "MC_SAMPLES", 2_000)
    wl = workloads.WORKLOADS["monte_carlo"]
    gc, cli = _package()
    ctx = workloads.Context(gc=gc, cli=cli, seed=3, workers=1, workdir=tmp_path)
    ctx.expected["fingerprint"] = workloads.inputs.fingerprint(wl.make_inputs(ctx))
    result, missing = _run_traced(tracer, wl, ctx)
    assert missing == []
    assert wl.check(ctx, result) == []


def test_verify_corpus_op_records_every_expected_layer(tracer, workloads, tmp_path):
    """`graphcurv verify` on the built-in corpus, under its own check of the rows per suite."""
    wl = workloads.WORKLOADS["verify_corpus"]
    gc, cli = _package()
    ctx = workloads.Context(gc=gc, cli=cli, seed=3, workers=1, workdir=tmp_path)
    wl.make_inputs(ctx)
    result, missing = _run_traced(tracer, wl, ctx)
    assert missing == []
    assert wl.check(ctx, result) == []
