"""Tests of the benchmark harness itself, on small inputs.

    python3 -m pytest perfbench
"""
import argparse
import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import inputs
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
RECORDED = run.FINGERPRINTS
SEED = 1_000_003


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "FINGERPRINTS", tmp_path / "fingerprints.json")
    monkeypatch.setattr(workloads, "GEOMETRIC_N", 400)
    monkeypatch.setattr(workloads, "MC_SAMPLES", 300)
    monkeypatch.setattr(workloads, "DENSE_DEGREE_CAP", 13)


def record_inputs(name, tmp_path, seed):
    """Record the small inputs as the fingerprint the run compares against."""
    ctx = workloads.Context(gc=None, cli=None, seed=seed, workers=1, workdir=tmp_path)
    ctx.gc, ctx.cli = run.fresh_import()
    fp = inputs.fingerprint(workloads.WORKLOADS[name].make_inputs(ctx))
    run.FINGERPRINTS.write_text(json.dumps({name: {str(inputs.input_seed(seed)): fp.to_json()}}))


def measure(name, tmp_path, trace=0, seed=SEED):
    if not run.FINGERPRINTS.exists():
        record_inputs(name, tmp_path, seed)
    args = argparse.Namespace(workload=name, seed=seed, seconds=0, trace=trace)
    details, result = run.measure(workloads.WORKLOADS[name], args, tmp_path)
    json.dumps(result)
    return details, result


def patch_program(monkeypatch, module, attr, make):
    """Replace ``module.attr`` in every fresh import the harness makes."""
    fresh_import = run.fresh_import

    def patched():
        pkg, cli = fresh_import()
        owner = sys.modules[f"graphcurvature.{module}"] if module else pkg
        monkeypatch.setattr(owner, attr, make(getattr(owner, attr)))
        return pkg, cli

    monkeypatch.setattr(run, "fresh_import", patched)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_checks(name, tmp_path):
    details, result = measure(name, tmp_path)
    assert details["problems"] == []
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert result["metrics"]["ok_ops_ratio"]["value"] == 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_reaches_its_layers_when_traced(name, tmp_path):
    details, result = measure(name, tmp_path, trace=1)
    assert details["problems"] == []
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)


def test_wrong_chi_route_is_a_failed_op(tmp_path, monkeypatch):
    patch_program(monkeypatch, None, "poincare_hopf_chi",
                  lambda f: lambda G, order: f(G, order) + 1)
    details, result = measure("chi_geometric", tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert result["metrics"]["ok_ops_ratio"]["value"] == 0.0
    assert any("chi by index" in p for p in details["problems"])


def test_raising_op_is_a_failed_op(tmp_path, monkeypatch):
    def broken(f):
        def curvature_field(G):
            raise RuntimeError("boom")
        return curvature_field

    patch_program(monkeypatch, None, "curvature_field", broken)
    details, result = measure("chi_geometric", tmp_path)
    assert result["failed"] == 1
    assert details["problems"] == ["op raised RuntimeError: boom"]


def test_verify_that_drops_a_suite_fails(tmp_path, monkeypatch):
    patch_program(monkeypatch, "cli", "SUITES", lambda suites: suites[:-1])
    details, result = measure("exact_dense", tmp_path)
    assert result["failed"] == 1
    assert any(p.startswith("PASS rows") for p in details["problems"])


def test_inputs_that_differ_from_the_recorded_fingerprint_fail_every_op(tmp_path, monkeypatch):
    recorded = tmp_path / "fingerprints.json"
    recorded.write_text(json.dumps({"exact_dense": {str(inputs.input_seed(SEED)): {"n": 35}}}))
    details, result = measure("exact_dense", tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert result["metrics"]["ok_ops_ratio"]["value"] == 0.0
    assert details["fingerprint_status"].startswith("mismatch")


def test_inputs_without_a_recorded_fingerprint_fail_every_op(tmp_path):
    run.FINGERPRINTS.write_text(json.dumps({"exact_dense": {}}))
    details, result = measure("exact_dense", tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert details["problems"] == [f"no fingerprint recorded for input seed {inputs.input_seed(SEED)}"]


def test_every_seed_maps_to_a_recorded_input_seed():
    recorded = json.loads(RECORDED.read_text())
    for name, per_seed in recorded.items():
        assert "*" in per_seed or set(per_seed) == {str(s) for s in range(inputs.INPUT_SEEDS)}
    assert inputs.input_seed(SEED) == SEED % inputs.INPUT_SEEDS


def test_traced_run_sees_every_expected_layer(tmp_path):
    details, result = measure("monte_carlo", tmp_path, trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"], details["problems"]
    assert set(metrics) == {name for name, _, _ in tracer.per_layer_metrics()}
    samples = workloads.MC_SAMPLES
    assert metrics["trials.trial_rng.calls"] == 3 * samples
    assert metrics["morse.index.calls"] == 12 * samples
    assert metrics["percolation.draws"] == samples * (12 + 1) + samples * (30 + 1)
    assert metrics["morse.chi_memo.hit_ratio"] > 0.5
    assert 0 <= metrics["trials.map_reduce.self_s"] < metrics["trials.map_reduce.s"]
    # The untraced op comes first; both op timings are calibrated ones.
    assert len(details["op_samples"]) == len(details["op_scaled_samples"]) == 2
    assert metrics["trace.untraced_op_s"] == details["op_scaled_samples"][0]
    assert metrics["trace.op_s"] == details["op_scaled_samples"][1]


def test_bypassed_layer_fails_the_traced_run(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "monte_carlo", dataclasses.replace(
        workloads.WORKLOADS["monte_carlo"], expected_layers=("verify.stability",)))
    details, result = measure("monte_carlo", tmp_path, trace=1)
    assert not result["correct"]
    assert details["problems"] == ["no calls recorded for verify.stability"]


def test_tracer_restores_the_program(tmp_path):
    pkg, cli = run.fresh_import()
    before = (pkg.count_cliques, pkg.IndexCalculator.__dict__["index"],
              pkg.Graph.__dict__["adjacency_masks"])
    tr = tracer.Tracer()
    tr.install()
    assert pkg.count_cliques is not before[0]
    assert sys.modules["graphcurvature.curvature"].count_cliques is pkg.count_cliques
    tr.uninstall()
    assert (pkg.count_cliques, pkg.IndexCalculator.__dict__["index"],
            pkg.Graph.__dict__["adjacency_masks"]) == before


def test_recorded_fingerprints_reproduce(tmp_path):
    recorded = json.loads(RECORDED.read_text())
    ctx = workloads.Context(gc=None, cli=None, seed=0, workers=1, workdir=tmp_path)
    ctx.gc, ctx.cli = run.fresh_import()
    assert inputs.fingerprint(workloads.corpus_inputs(ctx)).to_json() == \
        recorded["verify_corpus"]["*"]
    assert inputs.fingerprint([inputs.icosahedron_text()]).to_json() == \
        recorded["monte_carlo"]["*"]
    for seed in ("0", "7"):
        assert inputs.fingerprint([inputs.dense_text(int(seed))]).to_json() == \
            recorded["exact_dense"][seed]


def test_end_to_end_times_are_calibrated(tmp_path):
    details, result = measure("exact_dense", tmp_path)
    bursts = details["calibration_samples"]
    assert len(bursts) == (run.SETUP_REPS + 1) + (len(details["op_samples"]) + 1)
    assert result["metrics"]["op_s"]["value"] == calibration.Calibration.scale(
        details["op_samples"][0], bursts[-2], bursts[-1])
    assert result["metrics"]["setup_s"]["value"] == \
        statistics.median(details["setup_scaled_samples"])
    assert calibration.Calibration.scale(2.0, 0.3, 0.1) == 2.0 * calibration.REFERENCE_S / 0.2


def test_set_up_runs_in_new_processes():
    cal = calibration.Calibration()
    times, scaled = run.timed_set_ups(workloads.WORKLOADS["verify_corpus"], cal)
    assert len(times) == len(scaled) == run.SETUP_REPS and min(times) > 0
    failing = dataclasses.replace(workloads.WORKLOADS["verify_corpus"], prepare="sys.exit(3)")
    with pytest.raises(RuntimeError, match="exited with 3"):
        run.timed_set_ups(failing, cal)


def test_fvector_matches_a_known_graph():
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert inputs.fvector(5, k5) == (5, 10, 10, 5, 1)
    assert inputs.fingerprint([inputs.icosahedron_text()]).fvector == (12, 30, 20)


def test_geometric_graph_has_the_requested_mean_degree():
    n, edges = inputs.parse_edges(inputs.geometric_torus_text(4000, 8, seed=3))
    assert n == 4000
    assert 7.5 < 2 * len(edges) / n < 8.5
    assert len(set(edges)) == len(edges) and all(u < v for u, v in edges)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer.per_layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"op_s", "setup_s", "peak_rss_mb", "ok_ops_ratio"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout
