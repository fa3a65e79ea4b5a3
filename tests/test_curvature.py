"""Curvature values, Gauss-Bonnet, and the transfer equations."""

import importlib.util
import json
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurvature.cli import main
from graphcurvature.cliques import (
    count_cliques,
    count_cliques_in_mask,
    euler_characteristic,
    graph_euler_characteristic,
)
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
    loads,
    octahedron,
    path_graph,
    random_tree,
    sphere_masks,
    star_graph,
)


def series_curvature(V):
    """K = sum_k (-1)^k V_{k-1} / (k+1), V_{-1} = 1, term by term in Fractions."""
    return sum((Fraction((-1) ** k * c, k + 1) for k, c in enumerate((1, *V))), Fraction(0))


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

    @settings(max_examples=200, deadline=None)
    @given(V=st.lists(st.integers(min_value=0, max_value=10**12), max_size=30))
    def test_curvature_from_degrees_matches_series(self, V):
        K = curvature_from_degrees(tuple(V))
        assert isinstance(K, Fraction) and K == series_curvature(V)


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

    def test_field_unchanged_on_corpus(self, corpus):
        # Reference: each sphere counted on its own masks, the series in
        # Fractions, and chi from the whole graph's n-bit masks.
        for name, G in corpus:
            field = curvature_field(G)
            ref = tuple(series_curvature(count_cliques_in_mask(sphere_masks(G, x), (1 << G.degree(x)) - 1))
                        for x in range(G.n))
            assert field.values == ref, name
            chi = euler_characteristic(count_cliques_in_mask(G.adjacency_masks, (1 << G.n) - 1))
            assert field.total == sum(ref, Fraction(0)) == chi, name

    def test_total_is_the_fraction_sum(self, corpus):
        graphs = [G for _, G in corpus]
        graphs += [Graph.from_edges(0, [])]
        graphs += [erdos_renyi(n, q, seed=s) for n, q, s in ((20, 0.3, 1), (30, 0.5, 2), (40, 0.15, 3), (16, 0.8, 4))]
        for G in graphs:
            field = curvature_field(G)
            total = sum(field.values, Fraction(0))
            assert isinstance(field.total, Fraction) and field.total == total, G
            assert str(field.total) == str(total)

    def test_json_shape(self, capsys):
        assert main(["curvature", "cycle:n=3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)  # the output parses as JSON as-is
        assert payload == {"0": "1/3", "1": "1/3", "2": "1/3", "total": "1"}


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


def relabel(G: Graph, perm: list[int]) -> Graph:
    """G with vertex v renamed perm[v]."""
    return Graph.from_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each shifted past the ones before it."""
    edges, offset = [], 0
    for G in graphs:
        edges.extend((u + offset, v + offset) for u, v in G.edges)
        offset += G.n
    return Graph.from_edges(offset, edges)


def perfbench_inputs():
    """perfbench/inputs.py, the benchmark's seeded input generators."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class TestRelabelAndUnion:
    """Exact relations on a 1500-vertex graph, with no oracle of their own."""

    @pytest.fixture(scope="class")
    def base(self):
        # A random geometric graph on the torus: many triangles and 4-cliques.
        G = loads(perfbench_inputs().geometric_torus_text(1500, 8, seed=5))
        return G, count_cliques(G), curvature_field(G)

    def test_base_has_higher_cliques(self, base):
        G, fvector, _ = base
        assert G.n == 1500 and len(fvector) >= 4 and fvector[2] > 1000

    @pytest.mark.parametrize("seed", [11, 12])
    def test_relabelling_keeps_fvector_and_permutes_curvature(self, base, seed):
        G, fvector, field = base
        perm = np.random.default_rng(seed).permutation(G.n).tolist()
        H = relabel(G, perm)
        assert H != G and H.edge_count == G.edge_count
        assert count_cliques(H) == fvector
        relabelled = curvature_field(H)
        assert all(relabelled.values[perm[x]] == field.values[x] for x in range(G.n))
        assert relabelled.total == field.total == euler_characteristic(fvector)

    def test_disjoint_union_fvectors_add(self, base):
        G, fvector, field = base
        parts = (icosahedron(), G, Graph.from_edges(1, []), complete_graph(5), relabel(G, list(range(G.n))[::-1]))
        U = disjoint_union(*parts)
        vectors = [count_cliques(P) for P in parts]
        assert count_cliques(U) == tuple(map(sum, zip_longest(*vectors, fillvalue=0)))
        values = curvature_field(U).values
        assert values == sum((curvature_field(P).values for P in parts), ())
        assert values[12:12 + G.n] == field.values
