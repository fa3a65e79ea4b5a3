"""CLI subcommands, formats, exit codes, and determinism."""

import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import graphcurvature
from graphcurvature import expectation, morse, percolation, verify
from graphcurvature.cli import dumps, main, parse_function_file
from graphcurvature.cliques import MAX_CLIQUE_ENTRIES
from graphcurvature.expectation import ExpectationRow
from graphcurvature.graphs import MAX_PAIRS, MAX_VERTICES, cycle_graph, to_edge_list, to_json
from graphcurvature.percolation import SurvivalEstimate, SurvivalReport


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDumps:
    def test_nested_report_is_field_ordered_with_rationals_as_strings(self):
        estimate = SurvivalEstimate("site", 1, 4, 30, 0.25, None, Fraction(1, 3), 7)
        report = SurvivalReport(estimate, ({"trial": 0, "p": 0.5, "ratio": 0.25},))
        text = dumps({"report": report, "rows": [ExpectationRow(2, 10, 0.5, 0.1, Fraction(-1, 6))]})
        payload = json.loads(text)
        assert list(payload["report"]) == ["summary", "rows"]
        assert list(payload["report"]["summary"].items()) == [
            ("mode", "site"), ("k", 1), ("trials", 4), ("host_count", 30),
            ("estimate", 0.25), ("stderr", None), ("exact", "1/3"), ("master_seed", 7),
        ]
        assert payload["report"]["rows"] == [{"trial": 0, "p": 0.5, "ratio": 0.25}]
        assert list(payload["rows"][0].items()) == [
            ("vertex", 2), ("samples", 10), ("estimate", 0.5), ("stderr", 0.1), ("curvature", "-1/6"),
        ]
        assert text.endswith("}\n") and '\n  "report": {' in text

    @pytest.mark.parametrize("value", [{1, 2}, np.int64(3), SurvivalReport])
    def test_anything_else_is_a_type_error(self, value):
        # Never stringified: a stray numpy scalar or set is a bug to see.
        with pytest.raises(TypeError):
            dumps({"rows": [value]})


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

    @pytest.mark.parametrize("spec, kind, key", [
        ("icosahedron:n=7", "icosahedron", "n"),
        ("octahedron:q=0.5", "octahedron", "q"),
        ("cycle:n=5,q=0.3", "cycle", "q"),
        ("cycle:n=5,seed=3", "cycle", "seed"),
        ("tree_random:n=5,q=0.3", "tree_random", "q"),
        ("complete:n=4,m=2", "complete", "m"),
    ])
    def test_parameter_the_kind_does_not_read_is_usage_error(self, capsys, monkeypatch, spec, kind, key):
        monkeypatch.setattr("graphcurvature.cli.generate", lambda *args, **kwargs: pytest.fail("a graph was built"))
        code = main(["generate", spec])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: generator {kind!r} does not read parameter {key}\n"

    @pytest.mark.parametrize("spec, item", [("cycle:n", "n"), ("erdos_renyi:n=5,0.3", "0.3")])
    def test_parameter_without_a_value_is_usage_error(self, capsys, spec, item):
        code = main(["generate", spec])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: bad generator parameter {item!r}, expected key=value\n"

    def test_repeated_parameter_is_usage_error(self, capsys):
        code = main(["generate", "cycle:n=3,n=4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: generator parameter n given twice in 'cycle:n=3,n=4'\n"


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

    def test_negative_json_vertex_count_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": -1, "edges": []}')
        assert main(["chi", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: vertex count must be >= 0, got -1\n"

    def test_bad_generator_parameter_names_it(self, capsys):
        code = main(["chi", "erdos_renyi:n=abc"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: generator parameter n must be an integer, got 'abc'\n"


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

    def test_huge_exponent_is_error(self, capsys, tmp_path):
        """Refused before Fraction builds 10^5000; 1e4300 is still a value."""
        path = tmp_path / "f.txt"
        path.write_text("0 1e5000\n1 2\n2 3\n")
        assert run_cli(capsys, "index", "cycle:n=3", "--function", str(path))[0] == 2
        path.write_text("0 1e4300\n1 2\n2 3\n")
        assert run_cli(capsys, "index", "cycle:n=3", "--function", str(path))[0] == 0

    def test_incomplete_function_is_error(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 1\n1 2\n")
        assert run_cli(capsys, "index", "cycle:n=4", "--function", str(path))[0] == 2

    @pytest.mark.parametrize("text, message", [
        ("0 1\n1\n2 3", "line 2: expected 'vertex value', got '1'"),
        ("0 1\n1 2 3", "line 2: expected 'vertex value', got '1 2 3'"),
        ("x 1", "line 1: non-integer vertex 'x'"),
        ("0 1\n1 x", "line 2: value 'x' is not an integer, decimal or fraction p/q"),
        ("# values\n\n0 1\n1 x", "line 4: value 'x' is not an integer, decimal or fraction p/q"),
        ("0 1  # c\n1 1/0", "line 2: value '1/0' has a zero denominator"),
        ("0 1\n0 2", "line 2: vertex 0 assigned twice"),
        ("0 1\n1 1e5000", "line 2: value '1e5000' has a decimal exponent over 4300 in magnitude"),
        ("0 1E-4_301", "line 1: value '1E-4_301' has a decimal exponent over 4300 in magnitude"),
        ("0 1\n1 2", "function must cover vertices 0..2: missing [2], extra []"),
        ("0 1\n1 2\n5 3", "function must cover vertices 0..2: missing [2], extra [5]"),
    ])
    def test_function_file_error_text(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_function_file(text, 3)
        assert str(exc.value) == message

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

    def test_degree_cap_above_limit_is_usage_error(self, capsys):
        # The limit is 24: tables at degree 25 would take about 440 MB.
        code = main(["expectation", "icosahedron", "--samples", "5", "--exact", "--degree-cap", "25"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error: --degree-cap must be at most 24, got 25" in captured.err
        assert main(["expectation", "icosahedron", "--samples", "5", "--exact", "--degree-cap", "24"]) == 0


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
        (["--grid", "10001"], "--grid must be at most 10000 (MAX_GRID_POINTS), got 10001"),
    ])
    def test_bad_grid_is_usage_error(self, capsys, extra, message):
        code = main(["percolation", "complete:n=5", "--k", "1", "--trials", "50", *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_no_hosts(self, capsys):
        assert run_cli(capsys, "percolation", "cycle:n=5", "--k", "2", "--trials", "10")[0] == 2

    @pytest.mark.parametrize("extra, message", [
        (["--k", "1", "--rows", "-5"], "error: row limit must be nonnegative, got -5"),
        (["--k", "-1"], "error: k must be nonnegative, got -1"),
    ])
    def test_bad_rows_or_k_is_usage_error(self, capsys, extra, message):
        code = main(["percolation", "icosahedron", "--trials", "10", *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_zero_trials_names_trials(self, capsys):
        code = main(["percolation", "icosahedron", "--k", "1", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: trials must be positive, got 0\n"


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

    def test_degree_cap_above_limit_is_usage_error(self, capsys):
        code = main(["verify", "icosahedron", "--suite", "expectation", "--degree-cap", "25"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error: --degree-cap must be at most 24, got 25" in captured.err
        assert main(["verify", "icosahedron", "--suite", "expectation", "--degree-cap", "24"]) == 0

    def test_single_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "icosahedron", "--suite", "gauss_bonnet", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "suite,name,status,detail" and "PASS" in lines[1]


def _off_by_one(fn, k):
    """``fn`` returning f-vectors whose entry k is one too large."""
    def wrong(*args, **kwargs):
        fvec = list(fn(*args, **kwargs))
        fvec[k] += 1
        return tuple(fvec)
    return wrong


def _curvature_off_at_vertex_2(fn):
    return lambda G, x: fn(G, x) + (x == 2)


def _table_off_at_vertex_3(fn):
    """Subset tables whose 1-subset vertex count is one too large at vertex 3."""
    def wrong(G, x, **tables):
        table = [list(row) for row in fn(G, x, **tables)]
        if x == 3:
            table[1][0] += 1
        return tuple(tuple(row) for row in table)
    return wrong


def _no_swaps(fn):
    """A walk that never leaves its start order, so it does not end at the reversal."""
    return lambda adj, start: iter(())


def _skip_last_swap(fn):
    """A walk that leaves out its last swap of two neighbours."""
    return lambda adj, start: iter(list(fn(adj, start))[:-1])


def _index_reads_antipode(fn):
    """Vertex 0's index also reads the rank of its non-neighbour 1."""
    return lambda self, order, x: fn(self, order, x) + (x == 0 and order[1] < order[0])


def _drop_first_host(fn):
    """Clique event lists without their first host clique."""
    return lambda G, k, mode, *hosts: fn(G, k, mode, *hosts)[1:]


def _repeat_first_event(fn):
    """Clique event lists whose first host needs its first event twice."""
    def wrong(G, k, mode, *hosts):
        events = fn(G, k, mode, *hosts).copy()
        if events.shape[1] > 1:
            events[0, 1] = events[0, 0]
        return events
    return wrong


# suite -> (module, attribute, fault, failing row, detail pattern). Each fault
# breaks one input of one check on the octahedron (f = (6, 12, 8), chi = 2).
# verify counts each graph's f-vector once, through its own count_cliques.
FAULTS = {
    "gauss_bonnet": ("verify", "count_cliques", lambda fn: _off_by_one(fn, 0),
                     "octahedron", r"sum K = 2, chi = 3$"),
    "poincare_hopf": ("verify", "count_cliques", lambda fn: _off_by_one(fn, 0),
                      "octahedron", r"chi = 3, index sums over 20 orders = \[2\]$"),
    "transfer": ("verify", "count_cliques", lambda fn: _off_by_one(fn, 1),
                 "octahedron", r"failed at k = \[1\]$"),
    "intermediate": ("verify", "count_cliques", lambda fn: _off_by_one(fn, 2),
                     "octahedron", r"failed rows: \[\w+\(k=1, lhs=8, rhs=9, equal=False\), "),
    "stability": ("morse", "_edge_swaps", _no_swaps,
                  "octahedron", r"50 orders \+ walk$"),
    "expectation": ("verify", "curvature", _curvature_off_at_vertex_2,
                    "octahedron", r"mismatch at vertices \[2\]$"),
    "averaging": ("verify", "clique_counts_by_subset_size", _table_off_at_vertex_3,
                  "octahedron", r"mismatch at \(vertex, k\) \[\(3, 0\)\]$"),
    "percolation": ("verify", "count_cliques", lambda fn: _off_by_one(fn, 1),
                    "octahedron:exact", r"failed: \[\(1, 'site'\), \(1, 'bond'\)\]$"),
}


class TestVerifyFailures:
    @pytest.mark.parametrize("suite", sorted(FAULTS))
    def test_failed_check_is_reported(self, capsys, monkeypatch, suite):
        module, attr, fault, name, detail = FAULTS[suite]
        owner = importlib.import_module(f"graphcurvature.{module}")
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        code, out = run_cli(capsys, "verify", "octahedron", "--suite", suite, "--format", "json")
        assert code == 1
        payload = json.loads(out)
        failed = [r for r in payload["results"] if r["status"] == "FAIL"]
        assert [(r["suite"], r["name"]) for r in failed] == [(suite, name)]
        assert re.match(detail, failed[0]["detail"]), failed[0]["detail"]
        assert payload["summary"] == {**payload["summary"], "failed": 1, "ok": False}

    @pytest.mark.parametrize("owner, attr, fault", [
        (morse, "_edge_swaps", _skip_last_swap),
        (morse.IndexCalculator, "index", _index_reads_antipode),
    ], ids=["skipped_swap", "non_neighbour_rank"])
    def test_stability_walk_faults_are_reported(self, capsys, monkeypatch, owner, attr, fault):
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        code, out = run_cli(capsys, "verify", "octahedron", "--suite", "stability", "--format", "json")
        assert code == 1
        failed = [r for r in json.loads(out)["results"] if r["status"] == "FAIL"]
        assert [(r["name"], r["detail"]) for r in failed] == [("octahedron", "50 orders + walk")]

    @pytest.mark.parametrize("fault, detail", [
        (_drop_first_host, r"failed: \[\(0, 'site'\), \(0, 'bond'\), \(1, 'site'\), \(1, 'bond'\)\]$"),
        (_repeat_first_event, r"failed: \[\(1, 'site'\), \(2, 'site'\), \(2, 'bond'\)\]$"),
    ], ids=["drop_host", "repeat_event"])
    def test_exact_row_checks_the_engine_events(self, capsys, monkeypatch, fault, detail):
        """The :exact row counts the engine's own event lists against count_cliques."""
        monkeypatch.setattr(percolation, "_clique_events", fault(percolation._clique_events))
        code, out = run_cli(capsys, "verify", "octahedron", "--suite", "percolation", "--format", "json")
        assert code == 1
        failed = [r for r in json.loads(out)["results"] if r["status"] == "FAIL"]
        assert [r["name"] for r in failed] == ["octahedron:exact"]
        assert re.match(detail, failed[0]["detail"]), failed[0]["detail"]

    @pytest.mark.parametrize("k, failing", [
        (1, ["gauss_bonnet", "poincare_hopf", "transfer", "percolation"]),
        (2, ["gauss_bonnet", "poincare_hopf", "transfer", "intermediate", "percolation"]),
    ], ids=["v1", "v2"])
    def test_shared_fvec_fault_fails_every_row_that_reads_it(self, capsys, monkeypatch, k, failing):
        """All suites read one f-vector per graph, and only ever as a right-hand
        side, so one wrong entry fails every row whose right-hand side holds it."""
        monkeypatch.setattr(verify, "count_cliques", _off_by_one(verify.count_cliques, k))
        code, out = run_cli(capsys, "verify", "octahedron", "--format", "json")
        assert code == 1
        failed = [(r["suite"], r["name"]) for r in json.loads(out)["results"] if r["status"] == "FAIL"]
        assert failed == [(s, "octahedron:exact" if s == "percolation" else "octahedron") for s in failing]

    def test_order_dependent_index_fault_fails_both_index_rows(self, capsys, monkeypatch):
        """An index one too large at vertex 0 whenever its rank is even moves the
        sum between orders, so both suites that sum indices fail: poincare_hopf
        against the clique chi, stability against its identity-order sum."""
        fn = morse.IndexCalculator.index
        monkeypatch.setattr(morse.IndexCalculator, "index",
                            lambda self, order, x: fn(self, order, x) + (x == 0 and order[0] % 2 == 0))
        code, out = run_cli(capsys, "verify", "octahedron", "--format", "json")
        assert code == 1
        failed = [(r["suite"], r["name"]) for r in json.loads(out)["results"] if r["status"] == "FAIL"]
        assert failed == [("poincare_hopf", "octahedron"), ("stability", "octahedron")]

    @pytest.mark.parametrize("owner, attr, fault, failing", [
        (morse.IndexCalculator, "sphere_fvec", lambda fn: _off_by_one(fn, 0),
         ["transfer", "intermediate", "expectation", "averaging"]),
        (importlib.import_module("graphcurvature.curvature"), "vertex_clique_degrees",
         lambda fn: _off_by_one(fn, 0),
         ["gauss_bonnet", "expectation"]),
    ], ids=["calculator_spheres", "curvature_spheres"])
    def test_sphere_routes_stay_apart(self, capsys, monkeypatch, owner, attr, fault, failing):
        """Gauss-Bonnet reads the spheres through ``curvature``, transfer through
        the calculator, so a wrong sphere count on one route fails one of them
        and leaves the other passing."""
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        code, out = run_cli(capsys, "verify", "octahedron", "--format", "json")
        assert code == 1
        failed = [r["suite"] for r in json.loads(out)["results"] if r["status"] == "FAIL"]
        assert failed == failing

    @pytest.mark.parametrize("attr, fault, failing", [
        ("chi_by_subset_size", lambda fn: lambda *a, **kw: fn(*a, **kw)[::-1], {"expectation"}),
        ("_sums_by_size", lambda fn: lambda *a: (lambda s: s[:1] + s[-2:0:-1] + s[-1:])(fn(*a)),
         {"expectation", "averaging"}),
    ], ids=["chi_sums_reversed", "interior_sizes_reversed"])
    def test_size_reversed_tables_are_reported(self, capsys, monkeypatch, attr, fault, failing):
        """Reversing a table's size axis keeps every uniform-rank mean, as the
        weights 1/C(d, m) are symmetric; the entries' closed forms catch it."""
        owner = verify if attr == "chi_by_subset_size" else expectation
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        code, out = run_cli(capsys, "verify", "--format", "json")
        assert code == 1
        failed = {r["suite"] for r in json.loads(out)["results"] if r["status"] == "FAIL"}
        assert failed == failing

    def test_human_output_names_the_failure(self, capsys, monkeypatch):
        module, attr, fault, _, _ = FAULTS["transfer"]
        owner = importlib.import_module(f"graphcurvature.{module}")
        monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
        code, out = run_cli(capsys, "verify", "octahedron", "--suite", "transfer")
        assert code == 1
        assert out == "FAIL  transfer      octahedron  failed at k = [1]\n0 passed, 1 failed, 0 skipped\n"


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

    def test_negative_budget_is_usage_error(self, capsys):
        code = main(["bench", "--n", "10", "--budget-ms", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error: --budget-ms must be at least 0, got -1" in captured.err

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_is_usage_error(self, capsys, budget):
        code = main(["bench", "--n", "10", "--budget-ms", budget])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --budget-ms must be finite, got {budget}\n"

    def test_non_integer_seed_names_the_option(self, capsys):
        code = main(["bench", "--n", "5", "--seeds", "1,x"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --seeds entry must be an integer, got 'x'\n"

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

    def test_non_integer_env_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("DISCRETE_GB_SEED", "abc")
        code = main(["index", "cycle:n=4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: DISCRETE_GB_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("argv", [
        ("expectation", "icosahedron", "--samples", "10"),
        ("percolation", "icosahedron", "--k", "1", "--trials", "10"),
        ("verify", "icosahedron"),
        ("verify", "icosahedron", "--suite", "percolation"),
        ("verify", "icosahedron", "--suite", "gauss_bonnet"),
        ("chi", "octahedron"),
    ], ids=["expectation", "percolation", "verify", "verify_percolation", "verify_gauss_bonnet", "chi"])
    def test_negative_seed_is_usage_error(self, capsys, argv):
        code = main([*argv, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --seed must be at least 0, got -1\n"

    @pytest.mark.parametrize("argv", [
        ("chi", "octahedron"),
        ("index", "octahedron"),
        ("verify", "icosahedron", "--suite", "gauss_bonnet"),
    ], ids=["chi", "index", "verify_gauss_bonnet"])
    def test_negative_env_seed_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("DISCRETE_GB_SEED", "-1")
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: DISCRETE_GB_SEED must be at least 0, got -1\n"


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


# Lowers the child's own address-space limit, then runs the CLI in it. One
# BLAS thread keeps numpy's import well inside the limit on any core count.
LIMITED_MAIN = """
import resource, sys
limit = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from graphcurvature.cli import main
sys.exit(main(sys.argv[1:]))
"""


# LIMITED_MAIN that also prints how long main() took, after its output.
TIMED_LIMITED_MAIN = LIMITED_MAIN.replace(
    "sys.exit(main(sys.argv[1:]))",
    "import time\nstart = time.perf_counter()\ncode = main(sys.argv[1:])\n"
    "print(time.perf_counter() - start)\nsys.exit(code)",
)


class TestOversizedInput:
    def test_out_of_memory_is_usage_error(self, tmp_path):
        """A header at the vertex limit asks for about 0.64 GB, which exhausts a
        512 MiB address space.

        The input is never run without the limit.
        """
        pytest.importorskip("resource")
        path = tmp_path / "huge.txt"
        path.write_text(f"n {MAX_VERTICES}\n0 1\n")
        env = {**CHILD_ENV, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", LIMITED_MAIN, str(1 << 29), "chi", str(path)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"error: {path} is too large for memory\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("text", ["n 200000000\n0 1\n", '{"n": 200000000, "edges": [[0, 1]]}'],
                             ids=["edge_list", "json"])
    def test_vertex_count_over_the_limit_fails_fast(self, tmp_path, text):
        """A declared count over MAX_VERTICES exits 2 before allocating per vertex.

        The child runs under the same 512 MiB address-space limit, in case
        the count is not checked.
        """
        pytest.importorskip("resource")
        path = tmp_path / "huge.txt"
        path.write_text(text)
        env = {**CHILD_ENV, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", TIMED_LIMITED_MAIN, str(1 << 29), "chi", str(path)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"error: vertex count 200000000 exceeds the limit MAX_VERTICES = {MAX_VERTICES}\n"
        assert float(proc.stdout) < 1.0

    def test_generator_spec_over_the_limit_fails_fast(self):
        """A generator's n over MAX_VERTICES exits 2 before any edge is listed.

        Same 512 MiB address-space limit, in case n is not checked first.
        """
        pytest.importorskip("resource")
        env = {**CHILD_ENV, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", TIMED_LIMITED_MAIN, str(1 << 29), "chi", "path:n=300000000"],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"error: vertex count 300000000 exceeds the limit MAX_VERTICES = {MAX_VERTICES}\n"
        assert float(proc.stdout) < 1.0

    def test_percolation_hosts_fit_in_linear_memory(self):
        """A 200000-vertex path's 199999 edges are listed as host cliques in the
        same 512 MiB address space; whole-graph n-bit masks would need about 2.5 GB."""
        pytest.importorskip("resource")
        env = {**CHILD_ENV, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", LIMITED_MAIN, str(1 << 29), "percolation", "path:n=200000",
                               "--k", "1", "--trials", "3", "--format", "json"],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["summary"]["host_count"] == 199999

    def test_percolation_past_the_clique_number_fails_fast(self):
        """K_26 has no 31-clique; the lister stops before descending, instead of
        listing all 2^26 cliques of K_26 first.

        Same 512 MiB address-space limit.
        """
        pytest.importorskip("resource")
        env = {**CHILD_ENV, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", TIMED_LIMITED_MAIN, str(1 << 29), "percolation",
                               "complete:n=26", "--k", "30"],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: host graph has no 30-simplices to decimate\n"
        assert float(proc.stdout) < 1.0

    def test_percolation_hosts_over_the_row_limit_fail_fast(self):
        """K_26 has 10,400,600 13-cliques; the lister stops after 250,000 of
        them, MAX_CLIQUE_ENTRIES vertex ids, instead of listing them all first.

        Same 512 MiB address-space limit.
        """
        pytest.importorskip("resource")
        env = {**CHILD_ENV, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", TIMED_LIMITED_MAIN, str(1 << 29), "percolation",
                               "complete:n=26", "--k", "12", "--trials", "1"],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("error: more than 250000 cliques on 13 vertices to list "
                               f"(MAX_CLIQUE_ENTRIES = {MAX_CLIQUE_ENTRIES} vertex ids)\n")
        assert float(proc.stdout) < 1.0

    def test_erdos_renyi_pair_count_over_the_limit_fails_fast(self):
        """n=200000 would draw 2e10 uniforms to place no edge; it exits 2 before the first.

        Same 512 MiB address-space limit; unchecked, the run takes minutes
        and the timeout fails the test.
        """
        pytest.importorskip("resource")
        env = {**CHILD_ENV, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", TIMED_LIMITED_MAIN, str(1 << 29), "chi",
                               "erdos_renyi:n=200000,q=0"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("error: erdos_renyi on 200000 vertices draws 19999900000 vertex pairs, "
                               f"above the limit MAX_PAIRS = {MAX_PAIRS}\n")
        assert float(proc.stdout) < 1.0
