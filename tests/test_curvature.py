"""Curvature values, Gauss-Bonnet, and the transfer equations."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurvature.cliques import graph_euler_characteristic
from graphcurvature.curvature import (
    curvature,
    curvature_field,
    curvature_from_degrees,
    verify_gauss_bonnet,
    verify_transfer_equations,
)
from graphcurvature.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    icosahedron,
    octahedron,
    path_graph,
    random_tree,
    star_graph,
)


class TestKnownValues:
    def test_icosahedron_sixths(self):
        G = icosahedron()
        assert all(curvature(G, x) == Fraction(1, 6) for x in range(G.n))
        assert curvature_field(G).total == 2

    def test_octahedron_thirds(self):
        G = octahedron()
        # V = (4, 4) per sphere: 1 - 4/2 + 4/3 = 1/3
        assert all(curvature(G, x) == Fraction(1, 3) for x in range(G.n))
        assert curvature_field(G).total == 2

    def test_cycles_flat(self):
        for n in range(4, 12):
            G = cycle_graph(n)
            assert all(curvature(G, x) == 0 for x in range(n))

    def test_trees_one_minus_half_degree(self):
        for n, seed in ((2, 0), (9, 1), (17, 5)):
            T = random_tree(n, seed=seed)
            for x in range(n):
                assert curvature(T, x) == 1 - Fraction(T.degree(x), 2)
            assert curvature_field(T).total == 1
        S = star_graph(8)
        assert curvature(S, 0) == 1 - Fraction(7, 2)
        assert curvature(S, 3) == Fraction(1, 2)

    def test_complete_graphs_one_over_n(self):
        for n in range(1, 11):
            G = complete_graph(n)
            assert all(curvature(G, x) == Fraction(1, n) for x in range(n))

    def test_isolated_vertex(self):
        G = Graph.from_edges(3, [(0, 1)])
        assert curvature(G, 2) == 1

    def test_curvature_from_degrees(self):
        assert curvature_from_degrees(()) == 1
        assert curvature_from_degrees((2,)) == 0
        assert curvature_from_degrees((5, 5)) == Fraction(1, 6)
        assert curvature_from_degrees((4, 4)) == Fraction(1, 3)


class TestGaussBonnet:
    def test_exact_on_er_sweep(self):
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            for seed in range(4):
                G = erdos_renyi(14, q, seed=seed)
                rep = verify_gauss_bonnet(G)
                assert rep.equal and rep.lhs == rep.rhs == graph_euler_characteristic(G)

    def test_field_consistent_with_pointwise(self):
        G = erdos_renyi(12, 0.4, seed=9)
        field = curvature_field(G)
        assert field.values == tuple(curvature(G, x) for x in range(G.n))
        assert field.total == sum(field.values, Fraction(0))

    def test_field_progress_once_per_vertex(self):
        G = icosahedron()
        seen = []
        assert curvature_field(G, progress=seen.append).total == 2
        assert seen == list(range(G.n))

        class Stop(Exception):
            pass

        def stop(x):
            if x == 3:
                raise Stop

        with pytest.raises(Stop):
            curvature_field(G, progress=stop)

    def test_json_shape(self):
        field = curvature_field(cycle_graph(3))
        payload = field.to_json_dict()
        assert payload == {"0": "1/3", "1": "1/3", "2": "1/3", "total": "1"}
        json.dumps(payload)  # must be serializable as-is


class TestTransferEquations:
    def test_hold_on_assorted_graphs(self):
        for G in (
            icosahedron(),
            octahedron(),
            complete_graph(7),
            path_graph(6),
            erdos_renyi(13, 0.5, seed=2),
        ):
            checks = verify_transfer_equations(G)
            assert checks and all(c.equal for c in checks)

    def test_k0_counts_vertices(self):
        checks = verify_transfer_equations(cycle_graph(6))
        assert checks[0].k == 0 and checks[0].lhs == 6 and checks[0].rhs == 6

    def test_k1_counts_edge_endpoints(self):
        # sum of degrees = 2 * v_1
        checks = verify_transfer_equations(erdos_renyi(10, 0.5, seed=3))
        assert checks[1].lhs == checks[1].rhs


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    q=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=5000),
)
def test_gauss_bonnet_property(n, q, seed):
    G = erdos_renyi(n, q, seed=seed)
    assert curvature_field(G).total == graph_euler_characteristic(G)
