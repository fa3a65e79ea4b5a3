"""Clique counting against brute-force oracles."""

import warnings
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurvature.cliques import (
    DEFAULT_WORK_BUDGET,
    cliques_by_size_in_mask,
    cliques_of_size,
    count_cliques,
    count_cliques_in_mask,
    euler_characteristic,
    graph_euler_characteristic,
    vertex_clique_degrees,
)
from graphcurvature.graphs import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    icosahedron,
    octahedron,
    path_graph,
    star_graph,
)


def brute_force_fvector(G, max_size=None):
    """Count complete vertex subsets by direct enumeration."""
    cap = max_size if max_size is not None else G.n
    counts = []
    for size in range(1, cap + 1):
        c = sum(
            1
            for sub in combinations(range(G.n), size)
            if all(G.has_edge(u, v) for u, v in combinations(sub, 2))
        )
        if c == 0:
            break
        counts.append(c)
    return tuple(counts)


class TestCountCliques:
    def test_brute_force_oracle_er_graphs(self):
        # subset sizes <= 5 checked for completeness on every n <= 12 instance
        for n in (4, 8, 12):
            for q in (0.2, 0.5, 0.8):
                for seed in range(3):
                    G = erdos_renyi(n, q, seed=seed)
                    fvec = count_cliques(G)
                    oracle = brute_force_fvector(G, max_size=5)
                    assert fvec[: len(oracle)] == oracle, (n, q, seed)
                    assert all(c == 0 for c in fvec[5:]) or len(fvec) <= 5 or fvec[5:] == brute_force_fvector(G)[5:]

    def test_complete_graph_binomials(self):
        for n in range(1, 9):
            fvec = count_cliques(complete_graph(n))
            assert fvec == tuple(comb(n, k + 1) for k in range(n))

    def test_known_fvectors(self):
        assert count_cliques(cycle_graph(4)) == (4, 4)
        assert count_cliques(cycle_graph(3)) == (3, 3, 1)
        assert count_cliques(path_graph(1)) == (1,)
        assert count_cliques(path_graph(5)) == (5, 4)
        assert count_cliques(octahedron()) == (6, 12, 8)
        assert count_cliques(icosahedron()) == (12, 30, 20)
        assert count_cliques(star_graph(7)) == (7, 6)

    def test_empty_graph(self):
        from graphcurvature.graphs import Graph

        assert count_cliques(Graph.from_edges(0, [])) == ()

    def test_trailing_entries_nonzero(self):
        for seed in range(5):
            fvec = count_cliques(erdos_renyi(12, 0.6, seed=seed))
            assert all(c > 0 for c in fvec)

    def test_max_k_cap(self):
        G = complete_graph(7)
        assert count_cliques(G, max_k=2) == (7, 21, 35)
        assert count_cliques(G, max_k=0) == (7,)

    def test_work_budget_warning(self):
        G = complete_graph(12)
        with pytest.warns(RuntimeWarning, match="budget"):
            count_cliques(G, work_budget=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count_cliques(G, work_budget=DEFAULT_WORK_BUDGET)

    def test_progress_callback_can_abort(self):
        class Stop(Exception):
            pass

        def cb(visits):
            raise Stop

        with pytest.raises(Stop):
            count_cliques(complete_graph(14), progress=cb, progress_interval=10)


class TestMaskEnumeration:
    def test_count_in_mask_matches_subgraph(self):
        from graphcurvature.graphs import induced_subgraph

        G = erdos_renyi(10, 0.5, seed=6)
        masks = G.adjacency_masks
        for subset_mask in (0b1011001, 0b11111, 0b1000000011):
            vertices = tuple(v for v in range(G.n) if subset_mask >> v & 1)
            got = count_cliques_in_mask(masks, subset_mask)
            assert got == count_cliques(induced_subgraph(G, vertices))

    def test_cliques_by_size_groups(self):
        G = complete_graph(4)
        groups = cliques_by_size_in_mask(G.adjacency_masks, 0b1111)
        assert tuple(len(g) for g in groups) == (4, 6, 4, 1)
        # each recorded mask really is a clique of the right size
        for k, masks in enumerate(groups):
            for m in masks:
                vs = [v for v in range(4) if m >> v & 1]
                assert len(vs) == k + 1
        # a cap lists the same cliques up to that size, in the same order
        for cap in (1, 2, 3):
            assert cliques_by_size_in_mask(G.adjacency_masks, 0b1111, cap) == groups[:cap]
        assert cliques_by_size_in_mask(G.adjacency_masks, 0b1111, 0) == ()

    def test_cliques_of_size(self):
        G = octahedron()
        triangles = cliques_of_size(G, 3)
        assert len(triangles) == 8
        assert cliques_of_size(G, 4) == ()
        assert len(cliques_of_size(G, 1)) == 6
        G = erdos_renyi(12, 0.5, seed=3)
        for size in range(1, 7):
            oracle = [
                sum(1 << v for v in sub)
                for sub in combinations(range(G.n), size)
                if all(G.has_edge(u, v) for u, v in combinations(sub, 2))
            ]
            assert sorted(cliques_of_size(G, size)) == sorted(oracle)
        with pytest.raises(ValueError):
            cliques_of_size(G, 0)


class TestEuler:
    def test_alternating_sum(self):
        assert euler_characteristic(()) == 0
        assert euler_characteristic((5,)) == 5
        assert euler_characteristic((4, 4)) == 0
        assert euler_characteristic((12, 30, 20)) == 2
        assert euler_characteristic((3, 3, 1)) == 1

    def test_graph_euler_characteristic(self):
        assert graph_euler_characteristic(cycle_graph(9)) == 0
        assert graph_euler_characteristic(path_graph(9)) == 1
        assert graph_euler_characteristic(complete_graph(6)) == 1
        assert graph_euler_characteristic(octahedron()) == 2

    def test_graph_euler_characteristic_progress(self):
        # K_17 has 2^17 - 1 cliques: the hook runs once, the first time the
        # visit count is checked past 100_000.
        seen = []
        assert graph_euler_characteristic(complete_graph(17), progress=seen.append) == 1
        assert len(seen) == 1 and 100_000 <= seen[0] < 2**17

        class Stop(Exception):
            pass

        def stop(visits):
            raise Stop

        with pytest.raises(Stop):
            graph_euler_characteristic(complete_graph(17), progress=stop)


class TestVertexCliqueDegrees:
    def test_matches_sphere_counts(self):
        from graphcurvature.cliques import count_cliques as cc
        from graphcurvature.graphs import unit_sphere

        for G in (icosahedron(), octahedron(), erdos_renyi(12, 0.5, seed=1)):
            for x in range(G.n):
                V = vertex_clique_degrees(G, x)
                S, _ = unit_sphere(G, x)
                assert V == cc(S)

    def test_icosahedron(self):
        G = icosahedron()
        for x in range(G.n):
            assert vertex_clique_degrees(G, x) == (5, 5)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    q=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=5000),
)
def test_fvector_against_brute_force(n, q, seed):
    G = erdos_renyi(n, q, seed=seed)
    assert count_cliques(G) == brute_force_fvector(G)
