"""run_suites computes each graph's shared facts once per run."""

import sys
from collections import Counter

from graphcurvature import cliques, expectation, morse, trials, verify
from graphcurvature.corpus import base_corpus, er_corpus
from graphcurvature.graphs import complete_graph, cycle_graph, erdos_renyi, octahedron, path_graph
from graphcurvature.verify import run_suites, summarize

GRAPHS = [
    ("octahedron", octahedron()),
    ("cycle5", cycle_graph(5)),
    ("k4", complete_graph(4)),
    ("path3", path_graph(3)),
    ("er9", erdos_renyi(9, 0.5, seed=4)),
]


def _count_calls_per_graph(monkeypatch, fn, calls: Counter, key=lambda G, *args: id(G)):
    """Replace ``fn`` under every graphcurvature module name bound to it by a
    wrapper that counts its calls in ``calls``, keyed by ``key`` of its
    positional arguments (by default, the id of the graph)."""
    def counted(G, *args, **kwargs):
        calls[key(G, *args)] += 1
        return fn(G, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "graphcurvature" or name.startswith("graphcurvature."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


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


def test_one_subset_table_build_per_vertex_under_the_cap(monkeypatch):
    """Both table suites read the size sums of one ``_subset_tables`` build."""
    builds = Counter()
    _count_calls_per_graph(monkeypatch, expectation._subset_tables, builds, key=lambda G, x: (id(G), x))
    results = run_suites(GRAPHS, suites=("expectation", "averaging"), degree_cap=3)
    assert summarize(results)["failed"] == 0
    assert builds == Counter({(id(G), x): 1 for _, G in GRAPHS for x in range(G.n) if G.degree(x) <= 3})


def test_expectation_alone_counts_no_subset_cliques(monkeypatch):
    tables, counts = Counter(), Counter()
    _count_calls_per_graph(monkeypatch, expectation.chi_by_subset_size, tables)
    _count_calls_per_graph(monkeypatch, expectation.clique_counts_by_subset_size, counts)
    results = run_suites(GRAPHS, suites=("expectation",))
    assert summarize(results) == {"passed": len(GRAPHS), "failed": 0, "skipped": 0, "ok": True}
    assert sum(tables.values()) == sum(G.n for _, G in GRAPHS)
    assert counts == Counter()


def test_one_sphere_enumeration_per_vertex(monkeypatch):
    """``curvature`` counts each sphere by ``vertex_clique_degrees``; ``transfer``
    reads the calculator's counts instead of counting it again."""
    spheres = Counter()
    _count_calls_per_graph(monkeypatch, cliques.vertex_clique_degrees, spheres, key=lambda G, x: (id(G), x))
    results = run_suites(GRAPHS, seed=3)
    assert summarize(results)["failed"] == 0
    assert spheres == Counter({(id(G), x): 1 for _, G in GRAPHS for x in range(G.n)})


def test_one_host_listing_per_clique_size_in_the_exact_percolation_row(monkeypatch):
    """Site and bond share each size's listing; the :mc row (k = 1, site)
    lists the edges once more."""
    listings = Counter()
    _count_calls_per_graph(monkeypatch, cliques.cliques_of_size, listings, key=lambda G, size: (id(G), size))
    results = run_suites(GRAPHS, suites=("percolation",), seed=3)
    assert summarize(results)["failed"] == 0
    expected = Counter()
    for _, G in GRAPHS:
        fvec = cliques.count_cliques(G)
        for size in range(1, min(5, len(fvec) + 1)):
            expected[id(G), size] = 1 + (size == 2)
    assert listings == expected


def test_percolation_draws_each_trial_once_per_run(monkeypatch):
    """Every graph's Monte Carlo row reads the same trials' uniforms, drawn
    once a run: the corpus's rows widen once, from 16 to 32 columns, so the
    2000 trials are drawn twice, not once per graph with edges (65)."""
    seen = []
    trial_rng = trials.TrialPlan.trial_rng

    def counted(plan, t):
        seen.append(t)
        return trial_rng(plan, t)

    monkeypatch.setattr(trials.TrialPlan, "trial_rng", counted)
    corpus = base_corpus() + er_corpus(20)
    run_suites(corpus, suites=("percolation",), seed=3)
    first = len(seen)
    assert first <= 2 * verify.PERCOLATION_TRIALS
    run_suites(corpus, suites=("percolation",), seed=3)
    assert len(seen) == 2 * first


def test_index_suites_check_pairwise_distinct_orders(monkeypatch):
    """``poincare_hopf``, ``intermediate`` and ``stability`` read disjoint
    slices of one order stream per graph, so on a 12-vertex graph no order
    is checked by two of them (``stability`` adds the identity and the
    reversal of its walk's start)."""
    drawn = {"poincare_hopf": [], "intermediate": [], "stability": []}
    running = []
    for name in drawn:
        run = getattr(verify, f"{name}_suite")
        monkeypatch.setattr(verify, f"{name}_suite", lambda graphs, run=run, name=name, **options:
                            running.append(name) or run(graphs, **options))
    calc = morse.IndexCalculator
    index_sum, checks = calc.index_sum, calc.intermediate_checks
    monkeypatch.setattr(calc, "index_sum", lambda self, order:
                        drawn[running[-1]].append(tuple(order)) or index_sum(self, order))
    monkeypatch.setattr(calc, "intermediate_checks", lambda self, order, fvec:
                        drawn[running[-1]].append(tuple(order)) or checks(self, order, fvec))
    results = run_suites([("er12", erdos_renyi(12, 0.4, seed=1))], suites=tuple(drawn), seed=3)
    assert summarize(results)["failed"] == 0
    assert [len(orders) for orders in drawn.values()] == [20, 5, 52]
    every = [order for orders in drawn.values() for order in orders]
    assert len(set(every)) == len(every)
