"""Indices, Poincare-Hopf, intermediate equations, and index stability."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from graphcurvature.cliques import count_cliques, euler_characteristic
from graphcurvature.corpus import base_corpus
from graphcurvature.graphs import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    icosahedron,
    path_graph,
    random_tree,
)
from graphcurvature.morse import (
    IndexCalculator,
    all_orders,
    entrance_set,
    exit_set,
    index,
    index_report,
    order_from_values,
    poincare_hopf_chi,
    random_order,
    reverse_order,
    symmetric_index,
    transposition_path,
    validate_order,
    verify_index_stability,
    verify_intermediate_equations,
)


class TestOrders:
    def test_validate(self):
        assert validate_order([2, 0, 1], 3) == (2, 0, 1)
        with pytest.raises(ValueError):
            validate_order([0, 0, 1], 3)
        with pytest.raises(ValueError):
            validate_order([0, 1], 3)

    def test_random_order_uniform_support(self):
        seen = {random_order(3, s) for s in range(200)}
        assert len(seen) == 6

    def test_reverse(self):
        assert reverse_order((0, 3, 1, 2)) == (3, 0, 2, 1)
        f = random_order(8, 1)
        assert reverse_order(reverse_order(f)) == f

    def test_order_from_values(self):
        assert order_from_values([Fraction(1, 2), Fraction(-2), Fraction(3, 4), 10]) == (1, 0, 2, 3)
        assert order_from_values([0.5, -2.0, 0.75, 10.0]) == (1, 0, 2, 3)

    def test_ties_rejected(self):
        with pytest.raises(ValueError, match="injective"):
            order_from_values([1, 2, 1])


class TestExitSets:
    def test_global_extremes(self):
        G = cycle_graph(5)
        f = (0, 1, 2, 3, 4)
        assert exit_set(G, f, 0) == ()
        assert exit_set(G, f, 4) == G.adj[4]
        assert entrance_set(G, f, 0) == G.adj[0]

    def test_c4_worked_example(self):
        G = cycle_graph(4)
        f = (0, 1, 2, 3)  # increasing around the cycle
        assert exit_set(G, f, 3) == (0, 2)
        assert tuple(index(G, f, x) for x in range(4)) == (1, 0, 0, -1)

    def test_exit_entrance_partition_sphere(self):
        G = erdos_renyi(10, 0.5, seed=4)
        f = random_order(10, 7)
        for x in range(G.n):
            lo, hi = exit_set(G, f, x), entrance_set(G, f, x)
            assert tuple(sorted(lo + hi)) == G.adj[x]

    def test_reversed_order_swaps_exit_and_entrance(self):
        G = erdos_renyi(9, 0.6, seed=2)
        f = random_order(9, 3)
        rev = reverse_order(f)
        for x in range(G.n):
            assert exit_set(G, rev, x) == entrance_set(G, f, x)


class TestIndex:
    def test_local_minimum_is_one(self):
        G = erdos_renyi(8, 0.6, seed=5)
        f = random_order(8, 9)
        for x in range(8):
            if all(f[y] > f[x] for y in G.adj[x]):
                assert index(G, f, x) == 1

    def test_icosahedron_sign_formula(self):
        # cyclic sphere: i = 1 - |S^-| + (edges within S^-)
        G = icosahedron()
        from graphcurvature.graphs import induced_subgraph

        for seed in range(5):
            f = random_order(12, seed)
            for x in range(12):
                lo = exit_set(G, f, x)
                edges = len(induced_subgraph(G, lo).edges)
                assert index(G, f, x) == 1 - len(lo) + edges

    def test_symmetric_index_cycles_zero(self):
        for n in (4, 6, 9):
            G = cycle_graph(n)
            f = random_order(n, n)
            assert all(symmetric_index(G, f, x) == 0 for x in range(n))

    def test_symmetric_index_trees(self):
        T = random_tree(11, seed=6)
        f = random_order(11, 2)
        for x in range(11):
            assert symmetric_index(T, f, x) == 1 - Fraction(T.degree(x), 2)

    def test_symmetric_equals_index_on_icosahedron(self):
        G = icosahedron()
        for seed in range(4):
            f = random_order(12, seed)
            for x in range(12):
                assert symmetric_index(G, f, x) == index(G, f, x)

    def test_calculator_matches_plain_index(self):
        for q in (0.3, 0.7):
            G = erdos_renyi(11, q, seed=8)
            calc = IndexCalculator(G)
            for seed in range(6):
                f = random_order(11, seed)
                for x in range(11):
                    assert calc.index(f, x) == index(G, f, x)


class TestPoincareHopf:
    def test_equals_chi_everywhere(self):
        for G in (
            icosahedron(),
            cycle_graph(8),
            complete_graph(6),
            random_tree(14, seed=0),
            erdos_renyi(16, 0.4, seed=3),
        ):
            chi = euler_characteristic(count_cliques(G))
            for seed in range(10):
                assert poincare_hopf_chi(G, random_order(G.n, seed)) == chi

    def test_connected_tree_sums_to_one(self):
        T = random_tree(12, seed=4)
        assert poincare_hopf_chi(T, random_order(12, 11)) == 1

    def test_exhaustive_small_graphs(self):
        # every order of every corpus graph with n <= 5 here; n <= 7 in acceptance
        for name, G in base_corpus():
            if G.n > 5:
                continue
            chi = euler_characteristic(count_cliques(G))
            calc = IndexCalculator(G)
            for f in all_orders(G.n):
                assert calc.index_sum(f) == chi, (name, f)

    def test_path_p3_all_orders(self):
        G = path_graph(3)
        sums = {poincare_hopf_chi(G, f) for f in all_orders(3)}
        assert sums == {1}

    def test_single_edge(self):
        G = path_graph(2)
        assert poincare_hopf_chi(G, (0, 1)) == 1
        assert poincare_hopf_chi(G, (1, 0)) == 1

    def test_progress_once_per_vertex(self):
        G = icosahedron()
        seen = []
        assert poincare_hopf_chi(G, random_order(G.n, 2), progress=seen.append) == 2
        assert seen == list(range(G.n))

        class Stop(Exception):
            pass

        def stop(x):
            if x == 3:
                raise Stop

        with pytest.raises(Stop):
            poincare_hopf_chi(G, random_order(G.n, 2), progress=stop)


class TestIndexReport:
    def test_sums_and_symmetry(self):
        G = erdos_renyi(10, 0.45, seed=12)
        chi = euler_characteristic(count_cliques(G))
        rep = index_report(G, random_order(10, 5))
        assert rep.index_sum == chi
        assert rep.symmetric_sum == chi
        assert sum(rep.reverse_indices) == chi
        assert rep.symmetric == tuple(
            Fraction(a + b, 2) for a, b in zip(rep.indices, rep.reverse_indices)
        )

    def test_json_round_trip(self):
        import json

        rep = index_report(cycle_graph(4), (0, 1, 2, 3))
        payload = json.loads(json.dumps(rep.to_json_dict()))
        assert payload["indices"] == [1, 0, 0, -1]
        assert payload["symmetric"] == ["0", "0", "0", "0"]
        assert payload["index_sum"] == 0


class TestCliqueSplit:
    def test_partition_of_sphere_cliques(self):
        G = erdos_renyi(12, 0.55, seed=7)
        calc = IndexCalculator(G)
        from graphcurvature.cliques import vertex_clique_degrees

        f = random_order(12, 3)
        for x in range(12):
            minus, plus, mixed = calc.clique_split(f, x)
            V = vertex_clique_degrees(G, x)
            for k, vk in enumerate(V):
                m = minus[k] if k < len(minus) else 0
                p = plus[k] if k < len(plus) else 0
                w = mixed[k] if k < len(mixed) else 0
                assert vk == m + p + w, (x, k)

    def test_w0_identically_zero(self):
        G = complete_graph(5)
        calc = IndexCalculator(G)
        for f in (random_order(5, s) for s in range(6)):
            for x in range(5):
                _, _, mixed = calc.clique_split(f, x)
                assert mixed[0] == 0


class TestIntermediateEquations:
    def test_k4_value(self):
        G = complete_graph(4)
        for f in all_orders(4):
            rows = verify_intermediate_equations(G, f)
            by_k = {r.k: r for r in rows}
            assert by_k[1].lhs == 4 and by_k[1].rhs == 4
            assert all(r.equal for r in rows)

    def test_triangle_free_trivial(self):
        G = cycle_graph(8)
        rows = verify_intermediate_equations(G, random_order(8, 1))
        assert all(r.equal for r in rows)
        assert all(r.rhs == 0 for r in rows if r.k >= 1)

    def test_k0_always_zero(self):
        G = erdos_renyi(9, 0.7, seed=1)
        rows = verify_intermediate_equations(G, random_order(9, 2))
        assert rows[0].k == 0 and rows[0].lhs == 0 and rows[0].rhs == 0

    def test_random_graphs_random_orders(self):
        for seed in range(5):
            G = erdos_renyi(12, 0.5, seed=seed)
            f = random_order(12, seed + 100)
            assert all(r.equal for r in verify_intermediate_equations(G, f))


class TestTranspositionPath:
    def test_endpoints_and_length(self):
        start = (2, 0, 3, 1)
        path = list(transposition_path(start))
        n = 4
        assert path[0] == start
        assert path[-1] == reverse_order(start)
        assert len(path) == 1 + n * (n - 1) // 2

    def test_each_step_is_adjacent_rank_swap(self):
        start = random_order(6, 5)
        path = list(transposition_path(start))
        for a, b in zip(path, path[1:]):
            moved = [v for v in range(6) if a[v] != b[v]]
            assert len(moved) == 2
            u, w = moved
            assert {a[u], a[w]} == {b[u], b[w]} and abs(a[u] - a[w]) == 1

    def test_stability(self):
        for G in (cycle_graph(7), complete_graph(5), erdos_renyi(10, 0.5, seed=6)):
            assert verify_index_stability(G, trials=25, seed=3)
