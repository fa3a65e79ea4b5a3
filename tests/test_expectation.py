"""The index-expectation theorem and its oracles."""

import json
import time
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurvature.cliques import (
    count_cliques_in_mask,
    euler_characteristic,
    vertex_clique_degrees,
)
from graphcurvature import expectation, trials
from graphcurvature.cli import main
from graphcurvature.corpus import base_corpus
from graphcurvature.curvature import curvature
from graphcurvature.expectation import (
    MAX_SUBSET_DEGREE,
    DegreeCapError,
    averaging_checks,
    chi_by_subset_size,
    clique_counts_by_subset_size,
    exact_expectation_by_permutations,
    exact_index_expectation,
    mc_index_expectation,
)
from graphcurvature.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    icosahedron,
    path_graph,
    sphere_masks,
    star_graph,
)
from graphcurvature.morse import IndexCalculator
from graphcurvature.trials import TrialPlan, mean_and_stderr
from test_morse import reference_index
from test_trials import reference_trial_rng


class TestExactOracle:
    def test_tree_leaf(self):
        G = star_graph(5)
        assert exact_index_expectation(G, 1) == Fraction(1, 2)

    def test_cycle_vertex(self):
        G = cycle_graph(6)
        # d=2, edgeless sphere: chi sums by below-count are 0, 1, 2
        assert exact_index_expectation(G, 0) == 0

    def test_icosahedron_sixth(self):
        G = icosahedron()
        for x in range(12):
            assert exact_index_expectation(G, x) == Fraction(1, 6)

    def test_matches_curvature_on_assorted_graphs(self):
        for G in (
            complete_graph(7),
            path_graph(6),
            erdos_renyi(13, 0.4, seed=5),
            erdos_renyi(10, 0.8, seed=2),
        ):
            for x in range(G.n):
                assert exact_index_expectation(G, x) == curvature(G, x), x

    def test_degree_cap(self):
        G = star_graph(25)
        with pytest.raises(DegreeCapError, match="degree 24"):
            exact_index_expectation(G, 0)
        assert exact_index_expectation(G, 0, degree_cap=24) == 1 - Fraction(24, 2)

    def test_isolated_vertex(self):
        from graphcurvature.graphs import Graph

        G = Graph.from_edges(2, [])
        assert exact_index_expectation(G, 0) == 1 == curvature(G, 0)


class TestPermutationOracle:
    def test_k3(self):
        assert exact_expectation_by_permutations(complete_graph(3)) == (
            Fraction(1, 3),
        ) * 3

    def test_p3(self):
        got = exact_expectation_by_permutations(path_graph(3))
        assert got == (Fraction(1, 2), Fraction(0), Fraction(1, 2))

    def test_c4(self):
        assert exact_expectation_by_permutations(cycle_graph(4)) == (Fraction(0),) * 4

    def test_n_limit(self):
        with pytest.raises(ValueError, match="n! enumeration"):
            exact_expectation_by_permutations(cycle_graph(9))

    def test_agrees_with_subset_oracle_small_corpus(self):
        for name, G in base_corpus():
            if G.n > 6:
                continue
            perm = exact_expectation_by_permutations(G)
            for x in range(G.n):
                assert perm[x] == exact_index_expectation(G, x) == curvature(G, x), (name, x)


class TestChiSubsetSums:
    def test_cycle_sphere(self):
        # two isolated sphere vertices: chi sums 0, 2, 2 by subset size
        assert chi_by_subset_size(cycle_graph(5), 0) == (0, 2, 2)

    def test_total_subsets(self):
        G = erdos_renyi(10, 0.5, seed=1)
        for x in range(G.n):
            sums = chi_by_subset_size(G, x)
            assert len(sums) == G.degree(x) + 1


def brute_force_subset_tables(G, x):
    """Both subset tables by recounting the cliques of every sphere subset."""
    masks = sphere_masks(G, x)
    d = len(masks)
    chi = [0] * (d + 1)
    cliques = [[] for _ in range(d + 1)]
    for subset in range(1 << d):
        fvec = count_cliques_in_mask(masks, subset)
        m = subset.bit_count()
        chi[m] += euler_characteristic(fvec)
        row = cliques[m]
        row.extend([0] * (len(fvec) - len(row)))
        for k, c in enumerate(fvec):
            row[k] += c
    # Every row of the table has as many entries as the whole sphere's f-vector.
    width = len(cliques[d])
    return tuple(chi), tuple(tuple(row + [0] * (width - len(row))) for row in cliques)


def assert_tables_match_brute_force(G, x):
    chi = chi_by_subset_size(G, x)
    cliques = clique_counts_by_subset_size(G, x)
    assert (chi, cliques) == brute_force_subset_tables(G, x), x
    assert all(type(v) is int for v in chi)
    assert all(type(v) is int for row in cliques for v in row)


class TestSubsetTablesBruteForce:
    @pytest.mark.parametrize("n, q, seeds", [(12, 0.5, (0, 1, 2)), (13, 0.7, (3, 4))])
    def test_erdos_renyi(self, n, q, seeds):
        for seed in seeds:
            G = erdos_renyi(n, q, seed=seed)
            for x in range(G.n):
                assert_tables_match_brute_force(G, x)

    def test_isolated_vertex(self):
        G = Graph.from_edges(2, [])
        assert chi_by_subset_size(G, 0) == (0,)
        assert clique_counts_by_subset_size(G, 0) == ((),)
        assert_tables_match_brute_force(G, 0)

    def test_complete_graph_vertex(self):
        assert_tables_match_brute_force(complete_graph(12), 0)

    def test_edgeless_sphere(self):
        assert_tables_match_brute_force(star_graph(10), 0)

    def test_complete_sphere_past_one_chunk(self):
        # Degree 18: the top block of 2^17 subsets spans two numpy chunks.
        # Every m-subset of a complete sphere is a clique with chi 1 and
        # C(m, k+1) cliques on k+1 vertices.
        d = 18
        chi = chi_by_subset_size(complete_graph(d + 1), 0)
        cliques = clique_counts_by_subset_size(complete_graph(d + 1), 0)
        assert chi == tuple(comb(d, m) if m else 0 for m in range(d + 1))
        assert cliques == tuple(tuple(comb(d, m) * comb(m, k + 1) for k in range(d))
                                for m in range(d + 1))

    def test_dense_sphere_past_one_chunk(self):
        # Degrees 18-20, checked against the curvature and the sphere's own
        # f-vector, which are counted without the subset tables.
        G = erdos_renyi(26, 0.72, seed=0)
        for x in range(G.n):
            if G.degree(x) >= 18:
                assert exact_index_expectation(G, x) == curvature(G, x), x
                assert clique_counts_by_subset_size(G, x)[-1] == vertex_clique_degrees(G, x)
                assert all(c.equal for c in averaging_checks(clique_counts_by_subset_size(G, x))), x

    def test_degree_limit_fails_fast(self):
        G = star_graph(26)  # centre degree 25, one above the limit
        for table in (chi_by_subset_size, clique_counts_by_subset_size):
            t0 = time.perf_counter()
            with pytest.raises(DegreeCapError, match=f"above the {MAX_SUBSET_DEGREE} limit"):
                table(G, 0)
            assert time.perf_counter() - t0 < 1.0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=11),
    q=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=5000),
)
def test_subset_tables_against_brute_force(n, q, seed):
    G = erdos_renyi(n, q, seed=seed)
    for x in range(G.n):
        assert_tables_match_brute_force(G, x)


class TestSizeSums:
    def test_extreme_int32_tables_sum_exactly(self):
        # Degree 18: four chunks of subsets, each value +-(2^31 - 1).
        d = 18
        pop = expectation._popcounts(d)
        signs = np.random.default_rng(5).choice([-1, 1], size=1 << d)
        for table in (np.full(1 << d, 2**31 - 1), signs * (2**31 - 1), -np.full(1 << d, 2**31 - 1)):
            table = table.astype(np.int32)
            exact = [0] * (d + 1)
            for m, v in zip(pop.tolist(), table.tolist()):
                exact[m] += v
            sums = expectation._sums_by_size(pop, table)
            assert sums == tuple(exact)
            assert all(type(v) is int for v in sums)

    def test_popcounts_are_read_only_slices_of_one_array(self):
        big = expectation._popcounts(10)
        small = expectation._popcounts(3)
        assert small.tolist() == [bin(i).count("1") for i in range(8)]
        assert big.tolist() == [bin(i).count("1") for i in range(1 << 10)]
        assert np.shares_memory(small, expectation._popcounts(10))
        with pytest.raises(ValueError):
            small[0] = 1
        with pytest.raises(ValueError):
            expectation._subset_tables(icosahedron(), 0)[1][1] = 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-10**12, max_value=10**12), min_size=1, max_size=26))
def test_uniform_rank_mean_is_the_fraction_sum(sums):
    """The one integer sum over (d+1)! equals (1/(d+1)) sum_m s_m / C(d, m) term by term."""
    d = len(sums) - 1
    definition = sum((Fraction(s, comb(d, m)) for m, s in enumerate(sums)), Fraction(0)) / (d + 1)
    assert expectation._uniform_rank_mean(sums) == definition


class TestSymmetryInvolution:
    def test_exit_and_entrance_chi_expectations_equal(self):
        # E over all orders of chi(S^-) equals that of chi(S^+), computed
        # by two independent enumerations
        for G in (path_graph(4), cycle_graph(5), erdos_renyi(6, 0.6, seed=3)):
            calc = IndexCalculator(G)
            for x in range(G.n):
                full = (1 << G.degree(x)) - 1
                lo_total = 0
                hi_total = 0
                for f in permutations(range(G.n)):
                    em = calc.exit_mask(f, x)
                    lo_total += calc.chi_of_exit_mask(x, em)
                    hi_total += calc.chi_of_exit_mask(x, full ^ em)
                assert lo_total == hi_total, (G.n, x)


class TestAveragingEquation:
    def test_icosahedron_values(self):
        G = icosahedron()
        checks = averaging_checks(clique_counts_by_subset_size(G, 0))
        by_k = {c.k: c for c in checks}
        assert by_k[0].lhs == Fraction(5, 2)  # deg/2
        assert by_k[1].lhs == Fraction(5, 3)  # V_1/3
        assert all(c.equal for c in checks)

    def test_triangle_free_sphere(self):
        G = cycle_graph(7)
        checks = averaging_checks(clique_counts_by_subset_size(G, 3))
        assert len(checks) == 1  # only k=0: sphere has no edges
        assert checks[0].equal

    def test_random_graphs(self):
        for seed in range(4):
            G = erdos_renyi(11, 0.6, seed=seed)
            for x in range(G.n):
                assert all(c.equal for c in averaging_checks(clique_counts_by_subset_size(G, x))), (seed, x)


class TestMonteCarlo:
    def test_single_sample_is_integer(self):
        G = cycle_graph(5)
        rep = mc_index_expectation(G, TrialPlan(samples=1, master_seed=3))
        for row in rep.rows:
            assert row.estimate == int(row.estimate)
            assert row.stderr is None

    def test_icosahedron_within_four_stderr(self):
        rep = mc_index_expectation(icosahedron(), TrialPlan(samples=20_000, master_seed=17, workers=4))
        for row in rep.rows:
            assert row.curvature == Fraction(1, 6)
            assert abs(row.estimate - 1 / 6) <= 4 * row.stderr, row

    def test_exact_column(self, capsys):
        rows = expectation_cli_rows(capsys, "cycle:n=4", "--samples", "50", "--seed", "2", "--exact")
        assert [row["exact"] for row in rows] == ["0"] * 4

    def test_worker_count_invariance(self):
        G = erdos_renyi(9, 0.5, seed=4)
        reports = [
            mc_index_expectation(G, TrialPlan(samples=3000, master_seed=5, workers=w))
            for w in (1, 2, 7)
        ]
        base = [(r.vertex, r.estimate, r.stderr) for r in reports[0].rows]
        for rep in reports[1:]:
            assert [(r.vertex, r.estimate, r.stderr) for r in rep.rows] == base

    def test_json_dict_shape(self, capsys):
        row = expectation_cli_rows(capsys, "path:n=3", "--samples", "10", "--seed", "8", "--exact")[0]
        assert set(row) == {"vertex", "samples", "estimate", "stderr", "exact", "curvature"}
        assert row["exact"] == "1/2" and row["curvature"] == "1/2"


def expectation_cli_rows(capsys, *argv):
    """The JSON rows of ``graphcurv expectation *argv``, run in process."""
    assert main(["expectation", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["rows"]


def reference_expectation(G, samples, seed):
    """(estimate, stderr) per vertex, one trial and one vertex at a time.

    An independent copy of the engine: trial t ranks the vertices by
    ``reference_trial_rng(seed, t).permutation(n)`` and each index
    comes from ``reference_index``, which rebuilds the exit subgraph and
    counts its cliques afresh.
    """
    sums = [0] * G.n
    squares = [0] * G.n
    for t in range(samples):
        order = reference_trial_rng(seed, t).permutation(G.n).tolist()
        for x in range(G.n):
            i = reference_index(G, order, x)
            sums[x] += i
            squares[x] += i * i
    return [mean_and_stderr(s, q, samples) for s, q in zip(sums, squares)]


ENGINE_HOSTS = {
    "icosahedron": icosahedron(),
    "C6": cycle_graph(6),
    "P5": path_graph(5),
    # vertex 9 is isolated
    "er_isolated": Graph.from_edges(10, erdos_renyi(9, 0.55, seed=6).edges),
    # no vertex, so no row
    "empty": Graph.from_edges(0, []),
}


def estimates(G, samples, seed):
    rep = mc_index_expectation(G, TrialPlan(samples=samples, master_seed=seed))
    return [(r.estimate, r.stderr) for r in rep.rows]


class TestEngineAgainstReference:
    """mc_index_expectation equals the per-trial reference exactly."""

    @pytest.mark.parametrize("samples", [1, 2, 150])
    @pytest.mark.parametrize("host", sorted(ENGINE_HOSTS))
    def test_estimate_and_stderr(self, host, samples):
        G = ENGINE_HOSTS[host]
        assert estimates(G, samples, 29) == reference_expectation(G, samples, 29)

    # A budget of 1 index value holds one trial per block. A budget of 25
    # holds 2 trials of 12 or 10 vertices, 4 of 6, 5 of 5 and 25 of none:
    # no block size divides the chunk of 7.
    @pytest.mark.parametrize("budget", [1, 25])
    def test_chunk_and_block_invariance(self, monkeypatch, budget):
        monkeypatch.setattr(trials, "CHUNK_TRIALS", 7)
        monkeypatch.setattr(expectation, "_BLOCK_INDICES", budget, raising=False)
        for host, G in sorted(ENGINE_HOSTS.items()):
            assert estimates(G, 40, 8) == reference_expectation(G, 40, 8), host

    @pytest.mark.parametrize("n", [1, 2, 12, 100, 1000])
    def test_list_shuffle_equals_permutation(self, n):
        """Shuffling a list draws the same Fisher-Yates swaps as permutation(n)."""
        for seed in range(5):
            shuffled = list(range(n))
            np.random.default_rng(seed).shuffle(shuffled)
            assert shuffled == np.random.default_rng(seed).permutation(n).tolist(), seed
