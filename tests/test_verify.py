"""run_suites computes each graph's shared facts once per run."""

import sys
from collections import Counter

from graphcurvature import cliques, morse
from graphcurvature.graphs import complete_graph, cycle_graph, erdos_renyi, octahedron, path_graph
from graphcurvature.verify import run_suites, summarize

GRAPHS = [
    ("octahedron", octahedron()),
    ("cycle5", cycle_graph(5)),
    ("k4", complete_graph(4)),
    ("path3", path_graph(3)),
    ("er9", erdos_renyi(9, 0.5, seed=4)),
]


def _count_calls_per_graph(monkeypatch, fn, calls: Counter):
    """Replace ``fn`` under every graphcurvature module name bound to it by a
    wrapper that counts its calls in ``calls``, keyed by the id of the graph."""
    def counted(G, *args, **kwargs):
        calls[id(G)] += 1
        return fn(G, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "graphcurvature" or name.startswith("graphcurvature."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)


def test_one_clique_count_and_one_index_calculator_per_graph(monkeypatch):
    fvecs, calculators = Counter(), Counter()
    _count_calls_per_graph(monkeypatch, cliques.count_cliques, fvecs)
    init = morse.IndexCalculator.__init__

    def counted_init(self, G):
        calculators[id(G)] += 1
        init(self, G)

    monkeypatch.setattr(morse.IndexCalculator, "__init__", counted_init)
    results = run_suites(GRAPHS, seed=3)
    assert summarize(results)["failed"] == 0
    assert {name: fvecs[id(G)] for name, G in GRAPHS} == {name: 1 for name, _ in GRAPHS}
    assert {name: calculators[id(G)] for name, G in GRAPHS} == {name: 1 for name, _ in GRAPHS}
