"""run_suites computes each graph's shared facts once per run."""

import sys
import tracemalloc
from collections import Counter
from math import comb

import numpy as np
import pytest

from graphcurvature import cliques, expectation, morse, trials, verify
from graphcurvature.corpus import ER_SEEDS_PER_CELL, ER_SIZES, base_corpus, er_corpus
from graphcurvature.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    loads,
    octahedron,
    path_graph,
    sphere_masks,
)
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
    once a run: the corpus's rows, 3 to 31 uniforms, all fit one drawing of
    32 columns, so the 2000 trials are drawn once, not once per graph with
    edges (65)."""
    seen = []
    trial_rng = trials.TrialPlan.trial_rng

    def counted(plan, t):
        seen.append(t)
        return trial_rng(plan, t)

    monkeypatch.setattr(trials.TrialPlan, "trial_rng", counted)
    corpus = base_corpus() + er_corpus(20)
    run_suites(corpus, suites=("percolation",), seed=3)
    assert seen == list(range(verify.PERCOLATION_TRIALS))
    run_suites(corpus, suites=("percolation",), seed=3)
    assert seen == list(range(verify.PERCOLATION_TRIALS)) * 2


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


@pytest.mark.parametrize("n", [0, 1, 2, 12, 30])
def test_orders_are_the_draws_of_random_order(n):
    """The one ``permuted`` call gives the rows that 76 ``random_order`` draws
    from one ``default_rng(seed)`` give, in the same order."""
    count = verify.POINCARE_HOPF_ORDERS + verify.INTERMEDIATE_ORDERS + verify.STABILITY_ORDERS + 1
    rng = np.random.default_rng(11)
    expected = tuple(morse.random_order(n, rng) for _ in range(count))
    orders = verify.GraphFacts(Graph.from_edges(n, []), verify.SUITES, 11, 16, {}).orders
    assert tuple(map(tuple, orders.tolist())) == expected
    assert count == 76 and (n < 2 or len(set(expected)) > 1)


def test_orders_of_20000_vertices_stay_one_array():
    """The 76 orders are one int64 array permuted in place, 11.6 MiB at
    n = 20,000, held and at their peak; as tuples of Python ints they held
    60 MB."""
    F = verify.GraphFacts(Graph.from_edges(20_000, []), verify.SUITES, 11, 16, {})
    tracemalloc.start()
    try:
        orders = F.orders
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert orders.shape == (76, 20_000)
    assert held < 16 * 2**20 and peak < 16 * 2**20, (held, peak)


def test_stability_suite_on_20000_vertices_reads_one_order_at_a_time():
    """The suite converts, checks and sums one order row at a time, so on
    n = 20,000, with the orders and the calculator built, it peaks under
    8 MiB; all 51 rows as lists and 50 as tuples at once peaked at 50.7 MiB."""
    F = verify.GraphFacts(Graph.from_edges(20_000, []), verify.SUITES, 11, 16, {})
    F.orders, F.calc
    tracemalloc.start()
    try:
        rows = verify.stability_suite(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == [("", True, f"{verify.STABILITY_ORDERS} orders + walk")]
    assert peak < 8 * 2**20, peak


def _facts_of_run(monkeypatch) -> list:
    """The GraphFacts of the runs made while ``monkeypatch`` holds, kept past their run."""
    facts = []
    init = verify.GraphFacts.__init__
    monkeypatch.setattr(verify.GraphFacts, "__init__", lambda self, *args: facts.append(self) or init(self, *args))
    return facts


def test_closed_forms_built_once_per_sphere_fvector_and_degree(monkeypatch):
    """701 corpus vertices under the cap, read by two suites, share 167
    tables, one per distinct (V(x), deg x), each equal to the formula at
    every vertex that reads it."""
    facts = _facts_of_run(monkeypatch)
    reads = []
    closed = verify.GraphFacts.closed_form_counts
    monkeypatch.setattr(verify.GraphFacts, "closed_form_counts", lambda self, x: reads.append(x) or closed(self, x))
    results = run_suites(base_corpus() + er_corpus(20), suites=("expectation", "averaging"))
    assert summarize(results)["failed"] == 0
    assert len(reads) == 1402 and len(facts) == 66
    assert len({id(F.closed_forms) for F in facts}) == 1 and len(facts[0].closed_forms) == 167
    for F in facts:
        for x in range(F.G.n):
            if F.G.degree(x) <= 16:
                V, d = cliques.vertex_clique_degrees(F.G, x), F.G.degree(x)
                assert closed(F, x) == tuple(tuple(v * comb(d - k - 1, m - k - 1) if m > k else 0
                                                   for k, v in enumerate(V)) for m in range(d + 1))


def test_side_counts_once_per_vertex_and_side_mask(monkeypatch):
    """``intermediate`` counts each whole sphere once and each side mask of a
    vertex once over its 5 orders: 3,914 side counts on the corpus, where
    two per split would be 7,010."""
    facts = _facts_of_run(monkeypatch)
    counted = []
    count = morse.count_cliques_in_mask
    monkeypatch.setattr(morse, "count_cliques_in_mask", lambda masks, mask: counted.append(mask) or count(masks, mask))
    results = run_suites(base_corpus() + er_corpus(20), suites=("intermediate",), seed=3)
    assert summarize(results)["failed"] == 0
    orders = verify.POINCARE_HOPF_ORDERS, verify.POINCARE_HOPF_ORDERS + verify.INTERMEDIATE_ORDERS
    sides = {(id(F), x, side) for F in facts for f in F.orders[slice(*orders)] for x in range(F.G.n)
             for side in (F.calc.exit_mask(f, x), (1 << F.G.degree(x)) - 1 ^ F.calc.exit_mask(f, x))}
    vertices = sum(F.G.n for F in facts)
    assert len(counted) == vertices + len(sides) and len(sides) == 3914
    assert 2 * verify.INTERMEDIATE_ORDERS * vertices == 7010


def test_every_memo_entry_after_a_dense_verify_run_is_exact(monkeypatch):
    """After the index suites on the dense benchmark graph, every chi memo
    entry, links included, and every side count equal the clique counts of
    their set, on sphere masks built apart from the calculator's; the chi
    recursion ran 7,291 times (19,337 with no link memo)."""
    from test_curvature import perfbench_inputs
    from test_morse import assert_chi_memo_exact

    facts = _facts_of_run(monkeypatch)
    calls = []
    chi = cliques.chi_in_mask
    monkeypatch.setattr(cliques, "chi_in_mask", lambda masks, mask, memo: calls.append(mask) or chi(masks, mask, memo))
    monkeypatch.setattr(morse, "chi_in_mask", cliques.chi_in_mask)
    G = loads(perfbench_inputs().dense_text(3))
    results = run_suites([("dense", G)], suites=("poincare_hopf", "intermediate", "stability"), seed=3)
    assert summarize(results) == {"passed": 3, "failed": 0, "skipped": 0, "ok": True}
    calc = facts[0].calc
    assert len(calls) == 7291 == sum(map(len, calc._chi_cache))
    assert_chi_memo_exact(calc)
    for x, memo in enumerate(calc._side_counts):
        masks, total = sphere_masks(G, x), calc.sphere_fvec(x)
        for side, counts in memo.items():
            assert counts == (cliques.count_cliques_in_mask(masks, side) + (0,) * len(total))[:len(total)], (x, side)


def test_unknown_suite_is_named(monkeypatch):
    """Every suite name is checked before the first suite runs."""
    called = []
    for suite in verify.SUITES:
        monkeypatch.setattr(verify, f"{suite}_suite", lambda F, suite=suite: called.append(suite) or [])
    with pytest.raises(ValueError) as excinfo:
        run_suites(GRAPHS[:1], suites=("gauss_bonnet", "curvature"))
    assert str(excinfo.value) == f"unknown suite 'curvature', expected one of {verify.SUITES + ('all',)}"
    assert called == []


def test_er_corpus_past_its_size_is_refused():
    size = len(ER_SIZES) * 2 * ER_SEEDS_PER_CELL
    assert len(er_corpus(size)) == size
    with pytest.raises(ValueError) as excinfo:
        er_corpus(size + 1)
    assert str(excinfo.value) == f"corpus holds {size} ER graphs, requested {size + 1}"
