"""CLI subcommands, formats, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphcurvature
from graphcurvature.cli import main
from graphcurvature.graphs import cycle_graph, to_edge_list, to_json


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGenerate:
    def test_edge_list(self, capsys):
        code, out = run_cli(capsys, "generate", "cycle:n=4")
        assert code == 0 and out == to_edge_list(cycle_graph(4))

    def test_json(self, capsys):
        code, out = run_cli(capsys, "generate", "cycle:n=4", "--format", "json")
        assert code == 0 and out == to_json(cycle_graph(4)) + "\n"

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "generate", "path:n=3", "--format", "csv")
        assert code == 0 and out == "u,v\n0,1\n1,2\n"

    def test_output_file_round_trips(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        code, _ = run_cli(
            capsys, "generate", "erdos_renyi:n=12,q=0.4,seed=6", "--format", "json", "--output", str(path)
        )
        assert code == 0
        code, out = run_cli(capsys, "chi", str(path), "--format", "json")
        assert code == 0
        code2, out2 = run_cli(capsys, "chi", "erdos_renyi:n=12,q=0.4,seed=6", "--format", "json")
        assert json.loads(out)["chi"] == json.loads(out2)["chi"]

    def test_bad_spec(self, capsys):
        assert run_cli(capsys, "generate", "cycle:n=two")[0] == 2
        assert run_cli(capsys, "generate", "cycle:m=4")[0] == 2
        assert run_cli(capsys, "generate", "no/such/file.txt")[0] == 2


class TestChi:
    def test_three_methods_agree_on_icosahedron(self, capsys):
        values = []
        for method in ("cliques", "curvature", "index"):
            code, out = run_cli(capsys, "chi", "icosahedron", "--method", method, "--format", "json")
            assert code == 0
            values.append(json.loads(out)["chi"])
        assert values == [2, 2, 2]

    def test_c4_cliques(self, capsys):
        code, out = run_cli(capsys, "chi", "cycle:n=4", "--format", "json")
        assert code == 0 and json.loads(out)["chi"] == 0

    def test_human_output_has_timing(self, capsys):
        code, out = run_cli(capsys, "chi", "cycle:n=5")
        assert code == 0 and "chi = 0" in out and "ms" in out

    @pytest.mark.parametrize("text", ['{"n": 3.7, "edges": [[0, 1.9]]}', '{"n": 3, "edges": 5}'])
    def test_bad_json_graph_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "g.json"
        path.write_text(text)
        assert main(["chi", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: graph JSON")


class TestCurvature:
    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "curvature", "complete:n=3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"0": "1/3", "1": "1/3", "2": "1/3", "total": "1"}

    def test_human_prints_rationals(self, capsys):
        code, out = run_cli(capsys, "curvature", "icosahedron")
        assert code == 0 and "1/6" in out and "total = 2" in out


class TestIndex:
    def test_function_file(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 0.5\n1 -2\n2 3/4\n3 10\n")
        code, out = run_cli(capsys, "index", "cycle:n=4", "--function", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == [1, 0, 2, 3]
        assert sum(payload["indices"]) == 0

    def test_tie_is_error(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 1\n1 1\n2 2\n3 3\n")
        assert run_cli(capsys, "index", "cycle:n=4", "--function", str(path))[0] == 2

    def test_incomplete_function_is_error(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 1\n1 2\n")
        assert run_cli(capsys, "index", "cycle:n=4", "--function", str(path))[0] == 2

    def test_seeded_random_order_deterministic(self, capsys):
        _, a = run_cli(capsys, "index", "cycle:n=6", "--seed", "9", "--format", "json")
        _, b = run_cli(capsys, "index", "cycle:n=6", "--seed", "9", "--format", "json")
        assert a == b


class TestExpectation:
    def test_json_rows(self, capsys):
        code, out = run_cli(
            capsys, "expectation", "path:n=3", "--samples", "200", "--seed", "4",
            "--exact", "--permutation-oracle", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["exact"] for r in rows] == ["1/2", "0", "1/2"]
        assert [r["permutation_oracle"] for r in rows] == ["1/2", "0", "1/2"]
        assert all(r["samples"] == 200 for r in rows)

    def test_thread_count_invariance(self, capsys):
        outs = []
        for threads in ("1", "6"):
            code, out = run_cli(
                capsys, "expectation", "icosahedron", "--samples", "2000",
                "--seed", "3", "--threads", threads, "--format", "json",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_permutation_oracle_size_limit(self, capsys):
        code, _ = run_cli(capsys, "expectation", "cycle:n=10", "--samples", "5", "--permutation-oracle")
        assert code == 2

    def test_negative_degree_cap_is_usage_error(self, capsys):
        code = main(["expectation", "icosahedron", "--samples", "5", "--exact", "--degree-cap", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error: --degree-cap must be at least 0, got -1" in captured.err


class TestPercolation:
    def test_summary_json(self, capsys):
        code, out = run_cli(
            capsys, "percolation", "icosahedron", "--k", "1", "--trials", "3000",
            "--seed", "8", "--format", "json",
        )
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["exact"] == "1/3" and summary["host_count"] == 30
        assert abs(summary["estimate"] - 1 / 3) <= 4 * summary["stderr"]

    def test_thread_count_invariance(self, capsys):
        outs = []
        for threads in ("1", "5"):
            code, out = run_cli(
                capsys, "percolation", "octahedron", "--k", "2", "--trials", "2000",
                "--seed", "6", "--mode", "bond", "--threads", threads, "--format", "json",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_rows_csv(self, capsys):
        code, out = run_cli(
            capsys, "percolation", "complete:n=4", "--k", "2", "--trials", "20",
            "--seed", "2", "--rows", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,p,ratio" and len(lines) == 7
        assert lines[-1].startswith("# summary")

    def test_grid(self, capsys):
        code, out = run_cli(
            capsys, "percolation", "complete:n=5", "--k", "1", "--trials", "500",
            "--seed", "3", "--grid", "4", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["p"] for r in rows] == [0.125, 0.375, 0.625, 0.875]

    @pytest.mark.parametrize("extra, message", [
        (["--grid", "0"], "--grid must be at least 1, got 0"),
        (["--grid", "-2"], "--grid must be at least 1, got -2"),
        (["--grid", "4", "--fixed-p", "0.5"], "drop --fixed-p and --rows"),
        (["--grid", "4", "--rows", "3"], "drop --fixed-p and --rows"),
    ])
    def test_bad_grid_is_usage_error(self, capsys, extra, message):
        code = main(["percolation", "complete:n=5", "--k", "1", "--trials", "50", *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_no_hosts(self, capsys):
        assert run_cli(capsys, "percolation", "cycle:n=5", "--k", "2", "--trials", "10")[0] == 2


class TestVerify:
    def test_octahedron_all_pass(self, capsys):
        code, out = run_cli(capsys, "verify", "octahedron")
        assert code == 0
        assert "FAIL" not in out and "0 failed" in out

    def test_high_degree_vertex_skipped(self, capsys):
        code, out = run_cli(capsys, "verify", "star:n=31", "--suite", "expectation", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        skips = [r for r in payload["results"] if r["status"] == "SKIP"]
        assert skips and "degree 30" in skips[0]["detail"]
        assert payload["summary"]["ok"]

    def test_negative_degree_cap_is_usage_error(self, capsys):
        code = main(["verify", "icosahedron", "--suite", "expectation", "--degree-cap", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error: --degree-cap must be at least 0, got -1" in captured.err

    def test_single_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "icosahedron", "--suite", "gauss_bonnet", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "suite,name,status,detail" and "PASS" in lines[1]


class TestBench:
    def test_csv_table(self, capsys):
        code, out = run_cli(capsys, "bench", "--n", "30", "--q", "0.3", "--seeds", "0,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,n,q,seed,millis"
        assert len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            method, n, q, seed, millis = line.split(",")
            assert method in ("cliques", "curvature", "index")
            assert millis == "timeout" or float(millis) >= 0

    def test_index_route_honours_budget(self, capsys):
        # The deadline is checked once per vertex on the index and curvature
        # routes; a zero budget stops each before its first vertex.
        code, out = run_cli(capsys, "bench", "--n", "30", "--q", "0.3", "--budget-ms", "0")
        assert code == 0
        millis = {line.split(",")[0]: line.split(",")[-1] for line in out.strip().splitlines()[1:]}
        assert millis["index"] == "timeout"
        assert millis["curvature"] == "timeout"

    @pytest.mark.parametrize("repetitions", ["0", "-3"])
    def test_repetitions_below_one_is_usage_error(self, capsys, repetitions):
        code = main(["bench", "--n", "5", "--repetitions", repetitions])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: --repetitions must be at least 1, got {repetitions}" in captured.err

    def test_empty_graph_rows(self, capsys):
        code, out = run_cli(capsys, "bench", "--n", "0", "--q", "0.5")
        assert code == 0 and len(out.strip().splitlines()) == 4


class TestSeedEnv:
    def test_env_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv("DISCRETE_GB_SEED", "12345")
        _, env_out = run_cli(capsys, "index", "cycle:n=7", "--format", "json")
        monkeypatch.delenv("DISCRETE_GB_SEED")
        _, flag_out = run_cli(capsys, "index", "cycle:n=7", "--seed", "12345", "--format", "json")
        _, default_out = run_cli(capsys, "index", "cycle:n=7", "--format", "json")
        assert env_out == flag_out
        assert env_out != default_out


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The child process must import the same graphcurvature the in-process tests
# check, whether or not the caller exported PYTHONPATH, and ahead of any
# installed copy.
PACKAGE_ROOT = str(Path(graphcurvature.__file__).resolve().parents[1])
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


def run_child(argv) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, env=CHILD_ENV)


def run_graphcurv(*args) -> subprocess.CompletedProcess:
    """Run the [project.scripts] graphcurv target as its console-script wrapper does.

    A source checkout has no installed `graphcurv` script, so the target is
    read from pyproject.toml and called the way the wrapper calls it: argv
    from sys.argv, return value as the exit code.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["graphcurv"]
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return run_child([sys.executable, "-c", code, *args])


class TestEntryPoint:
    def test_installed_script(self):
        proc = run_graphcurv("chi", "icosahedron", "--method", "curvature", "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["chi"] == 2

    def test_usage_error_exit_code(self):
        proc = run_graphcurv("chi")
        assert proc.returncode == 2
        assert "usage: graphcurv" in proc.stderr

    def test_module_invocation(self):
        proc = run_child(
            [sys.executable, "-m", "graphcurvature.cli", "curvature", "complete:n=4", "--format", "csv"]
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "0,1/4"
