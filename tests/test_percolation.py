"""Percolation decimation and the clique-survival law."""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from graphcurvature import percolation, trials, verify
from graphcurvature.cliques import cliques_of_size, count_cliques
from graphcurvature.corpus import base_corpus, er_corpus
from graphcurvature.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    icosahedron,
    induced_subgraph,
    octahedron,
    path_graph,
)
from graphcurvature.percolation import (
    MODES,
    clique_survival_integral,
    exact_survival_polynomial,
    shared_draws,
    survival_exponent,
    survival_grid,
)
from graphcurvature.trials import TrialPlan, mean_and_stderr
from test_trials import reference_trial_rng


def vk(G: Graph, k: int) -> int:
    fvec = count_cliques(G)
    return fvec[k] if k < len(fvec) else 0


def site_integral_brute_force(G: Graph, k: int) -> Fraction:
    """E over p~U(0,1) of surviving (k+1)-cliques, by summing all vertex subsets.

    A size-m kept set has probability weight integral p^m (1-p)^(n-m) dp
    = m! (n-m)! / (n+1)!.
    """
    n = G.n
    total = Fraction(0)
    for m in range(n + 1):
        weight = Fraction(factorial(m) * factorial(n - m), factorial(n + 1))
        for kept in combinations(range(n), m):
            total += weight * vk(induced_subgraph(G, kept), k)
    return total


def bond_integral_brute_force(G: Graph, k: int) -> Fraction:
    """Same as above over edge subsets; vertices always survive."""
    edges = G.edges
    M = len(edges)
    total = Fraction(0)
    for m in range(M + 1):
        weight = Fraction(factorial(m) * factorial(M - m), factorial(M + 1))
        for kept in combinations(edges, m):
            total += weight * vk(Graph.from_edges(G.n, kept), k)
    return total


class TestDecimation:
    """Edge cases of the decimation inside clique_survival_integral."""

    def test_p_one_keeps_everything(self):
        G = erdos_renyi(12, 0.4, seed=3)
        for mode in MODES:
            s = clique_survival_integral(G, 1, 50, seed=0, mode=mode, fixed_p=1.0).summary
            assert (s.estimate, s.stderr, s.exact) == (1.0, 0.0, 1.0)

    def test_p_zero_removes_everything(self):
        G = complete_graph(5)
        for mode in MODES:
            s = clique_survival_integral(G, 2, 50, seed=0, mode=mode, fixed_p=0.0).summary
            assert (s.estimate, s.stderr, s.exact) == (0.0, 0.0, 0.0)

    def test_seeded_determinism(self):
        G = complete_graph(5)
        for mode in MODES:
            a, b = (clique_survival_integral(G, 1, 200, seed=42, mode=mode, row_limit=20)
                    for _ in range(2))
            assert a == b
        c = clique_survival_integral(G, 1, 200, seed=43, mode="site", row_limit=20)
        assert c.rows != a.rows

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="keep probability"):
            clique_survival_integral(cycle_graph(3), 1, 10, fixed_p=1.5)
        with pytest.raises(ValueError, match="keep probability"):
            clique_survival_integral(cycle_graph(3), 1, 10, mode="bond", fixed_p=-0.1)

    @pytest.mark.parametrize("trials", [0, -4])
    def test_trials_below_one(self, trials):
        with pytest.raises(ValueError, match=f"trials must be positive, got {trials}"):
            clique_survival_integral(cycle_graph(3), 1, trials)


class TestExactPolynomial:
    def test_k4_triangles(self):
        poly = exact_survival_polynomial(complete_graph(4), 2, "site")
        assert (poly.coefficient, poly.exponent) == (4, 3)
        assert poly.integral() == 1

    def test_site_edges(self):
        G = erdos_renyi(14, 0.5, seed=8)
        poly = exact_survival_polynomial(G, 1, "site")
        assert poly.coefficient == vk(G, 1) and poly.exponent == 2
        assert poly.integral() == Fraction(vk(G, 1), 3)

    def test_bond_k0_keeps_vertices(self):
        G = cycle_graph(9)
        poly = exact_survival_polynomial(G, 0, "bond")
        assert (poly.coefficient, poly.exponent) == (9, 0)
        assert poly.integral() == 9

    def test_exponents(self):
        assert survival_exponent(3, "site") == 4
        assert survival_exponent(3, "bond") == 6
        with pytest.raises(ValueError):
            survival_exponent(-1, "site")
        with pytest.raises(ValueError):
            survival_exponent(1, "node")


def bond_events_oracle(G: Graph, k: int) -> list[list[int]]:
    """Edge ids of each host clique's pairs, through a dict of G.edges."""
    edge_index = {e: i for i, e in enumerate(G.edges)}
    return [[edge_index[e] for e in combinations(c, 2)] for c in cliques_of_size(G, k + 1)]


class TestBondEvents:
    """Bond event ids equal a per-pair dict lookup, row for row."""

    def check(self, G: Graph, k: int):
        events = percolation._clique_events(G, k, "bond")
        expected = bond_events_oracle(G, k)
        assert events.shape == (len(expected), comb(k + 1, 2))
        assert events.tolist() == expected

    @pytest.mark.parametrize("k", range(4))
    def test_corpus(self, corpus, k):
        for _, G in corpus:
            self.check(G, k)

    def test_complete_graph_at_k7(self):
        self.check(complete_graph(12), 7)

    @pytest.mark.parametrize("k", range(3))
    def test_edgeless_graph(self, k):
        self.check(Graph.from_edges(5, []), k)


class TestBruteForceOracle:
    def test_site_matches_linearity_polynomial(self):
        hosts = [complete_graph(4), cycle_graph(5), erdos_renyi(6, 0.7, seed=1)]
        for G in hosts:
            fvec = count_cliques(G)
            for k in range(len(fvec)):
                expected = exact_survival_polynomial(G, k, "site").integral()
                assert site_integral_brute_force(G, k) == expected, (G.n, k)

    def test_bond_matches_linearity_polynomial(self):
        hosts = [complete_graph(4), cycle_graph(5), erdos_renyi(6, 0.5, seed=2)]
        for G in hosts:
            fvec = count_cliques(G)
            for k in range(1, len(fvec)):
                expected = exact_survival_polynomial(G, k, "bond").integral()
                assert bond_integral_brute_force(G, k) == expected, (G.n, k)

    def test_ratio_is_host_independent(self):
        for G in (complete_graph(5), octahedron(), icosahedron(), erdos_renyi(10, 0.6, seed=4)):
            fvec = count_cliques(G)
            for k in range(len(fvec)):
                poly = exact_survival_polynomial(G, k, "site")
                assert Fraction(poly.integral(), fvec[k]) == Fraction(1, k + 2)


class TestMonteCarlo:
    def test_site_integral_within_four_stderr(self):
        rep = clique_survival_integral(icosahedron(), 2, 30_000, seed=23, mode="site", workers=4)
        s = rep.summary
        assert s.exact == Fraction(1, 4)
        assert abs(s.estimate - 0.25) <= 4 * s.stderr

    def test_bond_integral_within_four_stderr(self):
        rep = clique_survival_integral(complete_graph(6), 1, 30_000, seed=29, mode="bond", workers=4)
        s = rep.summary
        assert s.exact == Fraction(1, 2)
        assert abs(s.estimate - 0.5) <= 4 * s.stderr

    def test_fixed_p_sanity(self):
        G = octahedron()
        for p in (0.25, 0.5, 0.75):
            rep = clique_survival_integral(G, 1, 20_000, seed=31, mode="site", fixed_p=p)
            s = rep.summary
            assert s.exact == pytest.approx(p**2)
            assert abs(s.estimate - p**2) <= 4 * s.stderr, p

    def test_no_hosts_error(self):
        with pytest.raises(ValueError, match="no 2-simplices"):
            clique_survival_integral(cycle_graph(6), 2, 10)

    def test_rows(self):
        rep = clique_survival_integral(octahedron(), 1, 50, seed=5, row_limit=10)
        assert len(rep.rows) == 10
        for t, row in enumerate(rep.rows):
            assert row["trial"] == t and 0.0 <= row["p"] <= 1.0
            assert 0.0 <= row["ratio"] <= 1.0

    def test_worker_count_invariance(self):
        args = dict(k=1, trials=4000, seed=7, mode="site")
        base = clique_survival_integral(icosahedron(), workers=1, **args).summary
        for w in (3, 8):
            s = clique_survival_integral(icosahedron(), workers=w, **args).summary
            assert (s.estimate, s.stderr) == (base.estimate, base.stderr)

    def test_grid(self):
        rows = survival_grid(complete_graph(5), 1, 2000, seed=9, grid=(0.25, 0.75))
        assert [r["p"] for r in rows] == [0.25, 0.75]
        for r in rows:
            assert abs(r["ratio"] - r["exact"]) <= 4 * r["stderr"]

    def test_empty_grid_is_rejected_before_any_draw(self, monkeypatch):
        def no_draw(plan, t):
            raise AssertionError(f"trial {t} drawn")

        monkeypatch.setattr(TrialPlan, "trial_rng", no_draw)
        with pytest.raises(ValueError, match="at least one keep probability"):
            survival_grid(icosahedron(), 1, 50_000, seed=9, grid=())

    @pytest.mark.parametrize("mode", MODES)
    def test_grid_rows_equal_fixed_p_summaries(self, mode):
        """One pass over every grid point gives each point's own fixed-p run."""
        grid = (0.0, 0.2, 0.55, 1.0)
        rows = survival_grid(icosahedron(), 1, 700, seed=19, mode=mode, grid=grid)
        assert len(rows) == len(grid)
        for p, row in zip(grid, rows):
            s = clique_survival_integral(icosahedron(), 1, 700, seed=19, mode=mode, fixed_p=p).summary
            assert (row["p"], row["ratio"], row["stderr"], row["exact"]) == (p, s.estimate, s.stderr, s.exact)


def reference_survival(G: Graph, k: int, n_trials: int, seed: int, mode: str, fixed_p):
    """Summary (estimate, stderr) and every trial's row, one trial at a time.

    An independent copy of the per-trial engine: trial t draws from
    ``reference_trial_rng(seed, t)`` its p (unless fixed), then one uniform
    per vertex (site) or edge (bond); a host clique survives iff every event
    in its bitmask is kept.
    """
    cliques = [c for c in combinations(range(G.n), k + 1)
               if all(v in G.adj[u] for u, v in combinations(c, 2))]
    if mode == "site":
        masks, n_events = [sum(1 << v for v in c) for c in cliques], G.n
    else:
        edge_id = {e: i for i, e in enumerate(G.edges)}
        masks = [sum(1 << edge_id[e] for e in combinations(c, 2)) for c in cliques]
        n_events = len(G.edges)
    total = total_sq = 0
    rows = []
    for t in range(n_trials):
        rng = reference_trial_rng(seed, t)
        p = fixed_p if fixed_p is not None else float(rng.random())
        kept = sum(1 << int(i) for i, r in enumerate(rng.random(n_events)) if r < p)
        s = sum(1 for m in masks if m & kept == m)
        total += s
        total_sq += s * s
        row = {"trial": t, "ratio": s / len(masks)}
        if fixed_p is None:
            row["p"] = p
        rows.append(row)
    mean, se = mean_and_stderr(total, total_sq, n_trials)
    return mean / len(masks), None if se is None else se / len(masks), rows


def row_items(rows):
    return [list(r.items()) for r in rows]


ENGINE_HOSTS = {
    "icosahedron": (icosahedron(), 1000),
    "K6": (complete_graph(6), 300),
    "path5": (path_graph(5), 300),
    # vertex 9 is isolated
    "er_isolated": (Graph.from_edges(10, erdos_renyi(9, 0.55, seed=6).edges), 300),
}


class TestEngineAgainstReference:
    """clique_survival_integral equals the per-trial reference exactly."""

    @pytest.mark.parametrize("fixed_p", [None, 0.0, 0.37, 1.0])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("host", sorted(ENGINE_HOSTS))
    def test_summary_and_rows(self, host, mode, fixed_p):
        G, n_trials = ENGINE_HOSTS[host]
        ks = [k for k in range(4) if vk(G, k) > 0]
        assert 0 in ks  # bond k=0: a clique that needs no event
        for k in ks:
            estimate, stderr, rows = reference_survival(G, k, n_trials, 17 + k, mode, fixed_p)
            for row_limit in (0, 7, n_trials):
                rep = clique_survival_integral(G, k, n_trials, seed=17 + k, mode=mode,
                                               fixed_p=fixed_p, row_limit=row_limit)
                s = rep.summary
                assert (s.estimate, s.stderr, s.host_count) == (estimate, stderr, vk(G, k)), (k, row_limit)
                assert row_items(rep.rows) == row_items(rows[:row_limit]), (k, row_limit)

    @pytest.mark.parametrize("mode,k", [("site", 2), ("bond", 1)])
    def test_benchmark_cases(self, mode, k):
        """The benchmark's icosahedron runs, long enough to span several blocks."""
        estimate, stderr, _ = reference_survival(icosahedron(), k, 4000, 3, mode, None)
        s = clique_survival_integral(icosahedron(), k, 4000, seed=3, mode=mode).summary
        assert (s.estimate, s.stderr) == (estimate, stderr)

    def test_block_and_chunk_size_invariance(self, monkeypatch):
        cases = [(name, mode, k, fixed_p)
                 for name in sorted(ENGINE_HOSTS) for mode in MODES for k in (0, 1, 2)
                 for fixed_p in (None, 0.37) if vk(ENGINE_HOSTS[name][0], k) > 0]

        def run_all():
            out = []
            for name, mode, k, fixed_p in cases:
                G, _ = ENGINE_HOSTS[name]
                rep = clique_survival_integral(G, k, 60, seed=5, mode=mode, fixed_p=fixed_p,
                                               row_limit=20)
                out.append((rep.summary, row_items(rep.rows)))
            return out

        base = run_all()
        monkeypatch.setattr(trials, "CHUNK_TRIALS", 7)
        # A budget of one byte makes every block a single trial.
        monkeypatch.setattr(percolation, "_BLOCK_BYTES", 1, raising=False)
        assert run_all() == base


@pytest.fixture(scope="module")
def verify_mc_summaries():
    """Graph name -> the :mc row's summary of ``percolation_suite`` at seed 3,
    on the corpus of ``graphcurv verify``, whose runs share one drawing of
    every trial's row."""
    corpus = base_corpus() + er_corpus(20)
    names = {id(G): name for name, G in corpus}
    summaries = {}
    run = verify.clique_survival_integral

    def recorded(G, *args, **kwargs):
        report = run(G, *args, **kwargs)
        summaries[names[id(G)]] = (args, kwargs, report.summary)
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "clique_survival_integral", recorded)
        verify.run_suites(corpus, suites=("percolation",), seed=3)
    return corpus, summaries


class TestSharedDraws:
    """Passes in one shared_draws block return what each returns alone."""

    def test_corpus_summaries_equal_standalone_calls(self, verify_mc_summaries):
        corpus, summaries = verify_mc_summaries
        assert sorted(summaries) == sorted(name for name, G in corpus if G.edges)
        for name, G in corpus:
            if name in summaries:
                args, kwargs, summary = summaries[name]
                assert clique_survival_integral(G, *args, **kwargs).summary == summary, name

    @pytest.mark.parametrize("name", ["cycle_3", "tree_n13_s0", "tree_n20_s0", "er_n30_q0.2_s0"])
    def test_corpus_summaries_equal_the_reference(self, verify_mc_summaries, name):
        """Rows of 4, 14, 21 and 31 uniforms: the pass that draws the run's
        rows at 32 columns and three later, wider readers of that drawing."""
        corpus, summaries = verify_mc_summaries
        G = dict(corpus)[name]
        args, kwargs, s = summaries[name]
        assert (args, kwargs) == ((1, verify.PERCOLATION_TRIALS), {"seed": 3, "mode": "site"})
        estimate, stderr, _ = reference_survival(G, 1, verify.PERCOLATION_TRIALS, 3, "site", None)
        assert (s.estimate, s.stderr) == (estimate, stderr)

    def test_passes_in_one_scope_equal_standalone_calls(self):
        passes = [
            (cycle_graph(5), 3, 2000, "site", None),
            (icosahedron(), 3, 2000, "bond", None),  # 31 columns read from the drawing for 6
            (icosahedron(), 4, 2000, "site", None),
            (octahedron(), 3, 2000, "site", 0.4),
            (cycle_graph(5), 3, 1000, "site", None),
            (icosahedron(), 3, 2000, "site", None),
        ]

        def run(G, seed, n_trials, mode, fixed_p):
            rep = clique_survival_integral(G, 1, n_trials, seed=seed, mode=mode, fixed_p=fixed_p,
                                           row_limit=40)
            return rep.summary, row_items(rep.rows)

        with shared_draws():
            shared = [run(*args) for args in passes]
        for args, got in zip(passes, shared):
            assert got == run(*args), args[1:]
