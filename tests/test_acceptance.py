"""Acceptance gate: the eleven criteria, one test per criterion.

Each test is named test_c<NN>_<slug>; conftest.py renders their outcomes
as one PASS/FAIL line per criterion in the terminal summary. Statistical
criteria use fixed seeds so runs are reproducible; timed criteria assert
their wall-clock budgets.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

import graphcurvature as gc
from graphcurvature.cli import main
from graphcurvature.corpus import er_corpus, full_corpus
from graphcurvature.verify import STABILITY_ORDERS, averaging_suite, stability_suite, transfer_suite


def elapsed_since(t0: float) -> float:
    return time.perf_counter() - t0


def test_c01_three_route_chi_agreement(corpus):
    """chi via cliques = sum K(x) = sum i_f(x) for 50 random orders, corpus-wide, < 2 min."""
    # the corpus itself must span the required families
    names = [name for name, _ in corpus]
    assert sum(1 for n in names if n.startswith("er_n")) >= 100
    assert {f"cycle_{n}" for n in range(3, 13)} <= set(names)
    assert {f"complete_{n}" for n in range(2, 9)} <= set(names)
    assert "octahedron" in names and "icosahedron" in names
    assert any(n.startswith("tree_") for n in names) and any(n.startswith("path_") for n in names)
    assert all(G.n <= 30 for n, G in corpus if n.startswith("er_n"))

    t0 = time.perf_counter()
    for name, G in corpus:
        chi = gc.graph_euler_characteristic(G)
        assert gc.curvature_field(G).total == chi, name
        calc = gc.IndexCalculator(G)
        rng = np.random.default_rng(101)
        for _ in range(50):
            assert calc.index_sum(gc.random_order(G.n, rng)) == chi, name
    assert elapsed_since(t0) < 120.0


def test_c02_main_theorem_exact(corpus):
    """exact_index_expectation(G,x) == curvature(G,x) for every vertex with deg <= 16, < 5 min."""
    t0 = time.perf_counter()
    checked = 0
    for name, G in corpus:
        for x in range(G.n):
            if G.degree(x) <= 16:
                assert gc.exact_index_expectation(G, x, degree_cap=16) == gc.curvature(G, x), (name, x)
                checked += 1
    assert checked > 2000
    assert elapsed_since(t0) < 300.0


def test_c03_oracle_triangulation(corpus):
    """n!-permutation oracle equals the 2^d order-statistics oracle on all n <= 7 graphs."""
    covered = 0
    for name, G in corpus:
        if G.n > 7:
            continue
        covered += 1
        perm = gc.exact_expectation_by_permutations(G)
        for x in range(G.n):
            assert perm[x] == gc.exact_index_expectation(G, x), (name, x)
    assert covered >= 20


def test_c04_known_values(corpus):
    """Icosahedron 1/6; trees 1 - deg/2 totaling 1; cycles 0; K_n 1/n up to n=10."""
    ico = gc.icosahedron()
    assert all(gc.curvature(ico, x) == Fraction(1, 6) for x in range(12))
    for name, G in corpus:
        if name.startswith(("tree_", "path_", "star_")):
            for x in range(G.n):
                assert gc.curvature(G, x) == 1 - Fraction(G.degree(x), 2), (name, x)
            assert gc.curvature_field(G).total == 1, name
        if name.startswith("cycle_") and G.n >= 4:
            # C_3 is the complete graph K_3, covered by the 1/n case below
            assert all(gc.curvature(G, x) == 0 for x in range(G.n)), name
    for n in range(1, 11):
        K = gc.complete_graph(n)
        assert all(gc.curvature(K, x) == Fraction(1, n) for x in range(n))


def assert_one_passing_row_per_graph(rows, corpus):
    """Every graph of the corpus has one checked row, and none failed."""
    checked = [r for r in rows if r.status != "SKIP"]
    assert [r.name for r in checked] == [name for name, _ in corpus]
    failed = [(r.name, r.detail) for r in rows if r.status == "FAIL"]
    assert not failed, failed[:3]


def test_c05_appendix_identities(corpus):
    """Transfer and intermediate equations on the corpus; index stability with a transposition walk."""
    assert_one_passing_row_per_graph(transfer_suite(corpus), corpus)
    for name, G in corpus:
        rng = np.random.default_rng(202)
        for _ in range(20):
            f = gc.random_order(G.n, rng)
            assert all(r.equal for r in gc.verify_intermediate_equations(G, f)), name
    # 50 random orders everywhere; the walk always runs and is required for n <= 10
    assert STABILITY_ORDERS == 50
    assert_one_passing_row_per_graph(stability_suite(corpus, seed=303), corpus)


def test_c06_averaging_equation(corpus):
    """E[V_k^-(x)] = V_k(x)/(k+2) exactly for every corpus vertex with deg <= 16."""
    assert_one_passing_row_per_graph(averaging_suite(corpus, 16), corpus)


def test_c07_percolation_statistical():
    """10^5 trials within 4*stderr: site k in 0..3 on three hosts, bond k in 1..2; < 2 min."""
    t0 = time.perf_counter()
    ico = gc.icosahedron()
    k6 = gc.complete_graph(6)
    er_dense = gc.erdos_renyi(12, 0.9, seed=0)
    er_mid = gc.erdos_renyi(10, 0.8, seed=1)
    site_hosts = {
        0: [ico, k6, er_dense],
        1: [ico, k6, er_dense],
        2: [ico, k6, er_dense],
        3: [k6, er_dense, er_mid],  # the polyhedra have no tetrahedra
    }
    for k, hosts in site_hosts.items():
        for i, G in enumerate(hosts):
            rep = gc.clique_survival_integral(G, k, 100_000, seed=404 + 10 * k + i, mode="site", workers=4)
            s = rep.summary
            assert s.exact == Fraction(1, k + 2)
            assert abs(s.estimate - (1 / (k + 2))) <= 4 * s.stderr, (k, i, s)
    for k in (1, 2):
        target = Fraction(1, (k * (k + 1)) // 2 + 1)
        rep = gc.clique_survival_integral(ico, k, 100_000, seed=505 + k, mode="bond", workers=4)
        s = rep.summary
        assert s.exact == target
        assert abs(s.estimate - float(target)) <= 4 * s.stderr, (k, s)
    assert elapsed_since(t0) < 120.0


def test_c08_percolation_exact_route(corpus):
    """Survival polynomial integral over [0,1] equals v_k/(k+2) on every host with v_k > 0.

    The polynomial counts the Monte Carlo engine's host event lists, so this
    also checks them, in both modes, against the clique enumeration.
    """
    for name, G in corpus:
        fvec = gc.count_cliques(G)
        for k, vk in enumerate(fvec):
            poly = gc.exact_survival_polynomial(G, k, "site")
            assert poly.integral() == Fraction(vk, k + 2), (name, k)
            assert Fraction(poly.integral(), vk) == Fraction(1, k + 2), (name, k)
            assert gc.exact_survival_polynomial(G, k, "bond").coefficient == vk, (name, k)


def test_c09_mc_expectation_statistical():
    """Icosahedron at 10^5 samples within 4*stderr of 1/6 per vertex; C6 of 0."""
    rep = gc.mc_index_expectation(
        gc.icosahedron(), gc.TrialPlan(samples=100_000, master_seed=606, workers=4)
    )
    for row in rep.rows:
        assert abs(row.estimate - 1 / 6) <= 4 * row.stderr, row
    rep = gc.mc_index_expectation(
        gc.cycle_graph(6), gc.TrialPlan(samples=100_000, master_seed=707, workers=4)
    )
    for row in rep.rows:
        assert abs(row.estimate - 0.0) <= 4 * row.stderr, row


def test_c10_determinism_across_thread_counts(capsys):
    """Same seed, different --threads: byte-identical JSON (timing fields excluded)."""

    def run(*argv) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    pairs = [
        ("expectation", "icosahedron", "--samples", "5000", "--seed", "11", "--format", "json"),
        ("percolation", "icosahedron", "--k", "2", "--trials", "5000", "--seed", "12",
         "--rows", "3", "--format", "json"),
        ("percolation", "complete:n=6", "--k", "1", "--trials", "4000", "--seed", "13",
         "--mode", "bond", "--grid", "3", "--format", "json"),
    ]
    for argv in pairs:
        a = run(*argv, "--threads", "1")
        b = run(*argv, "--threads", "8")
        assert a == b, argv[0]
    # chi carries a timing field; everything else must match exactly
    a = json.loads(run("chi", "icosahedron", "--method", "index", "--seed", "3", "--format", "json"))
    b = json.loads(run("chi", "icosahedron", "--method", "index", "--seed", "3", "--format", "json"))
    a.pop("millis"), b.pop("millis")
    assert a == b


def test_c11_desk_scale_performance():
    """Index-route chi on ER(200, 0.1) under 10 s, agreeing with the clique route."""
    G = gc.erdos_renyi(200, 0.1, seed=3)
    t0 = time.perf_counter()
    by_index = gc.poincare_hopf_chi(G, gc.random_order(G.n, 3))
    assert elapsed_since(t0) < 10.0
    by_cliques = gc.graph_euler_characteristic(G)
    assert by_index == by_cliques
