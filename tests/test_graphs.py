"""Graph construction, parsing, generators, and round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurvature.graphs import (
    EdgeListParseError,
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    from_edge_list,
    from_json,
    generate,
    icosahedron,
    induced_subgraph,
    loads,
    octahedron,
    path_graph,
    random_tree,
    sphere_masks,
    star_graph,
    to_edge_list,
    to_json,
    unit_sphere,
)


def random_graph(n: int, q: float, seed: int) -> Graph:
    return erdos_renyi(n, q, seed=seed)


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(n=2, adj=((1,), ()))

    def test_unsorted_adjacency_rejected(self):
        with pytest.raises(ValueError):
            Graph(n=3, adj=((2, 1), (0, 2), (0, 1)))

    def test_duplicate_edges_deduplicated(self):
        G = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert G.edges == ((0, 1),)


class TestEdgeList:
    def test_triangle(self):
        G = from_edge_list("0 1\n1 2\n2 0")
        assert G.n == 3 and G.edges == ((0, 1), (0, 2), (1, 2))

    def test_header_forces_n(self):
        G = from_edge_list("n 4\n0 1")
        assert G.n == 4 and G.edges == ((0, 1),)
        assert G.degree(2) == 0 and G.degree(3) == 0

    def test_comments_and_blanks(self):
        G = from_edge_list("# a triangle\n\n0 1  # first\n1 2\n2 0\n")
        assert G.n == 3 and len(G.edges) == 3

    def test_self_loop_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 1") as exc:
            from_edge_list("0 0")
        assert exc.value.line_no == 1

    def test_non_integer_token_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            from_edge_list("0 1\n1 2\n2 x")

    def test_wrong_token_count(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            from_edge_list("0 1\n0 1 2")

    def test_round_trip_bit_exact(self):
        for seed in range(5):
            G = random_graph(12, 0.4, seed)
            assert from_edge_list(to_edge_list(G)) == G
            assert to_edge_list(from_edge_list(to_edge_list(G))) == to_edge_list(G)


class TestJson:
    def test_round_trip_bit_exact(self):
        for seed in range(5):
            G = random_graph(10, 0.5, seed)
            assert from_json(to_json(G)) == G
            assert to_json(from_json(to_json(G))) == to_json(G)

    def test_shape(self):
        payload = json.loads(to_json(cycle_graph(3)))
        assert payload == {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}

    @pytest.mark.parametrize("text", [
        '{"n": 3.7, "edges": [[0, 1.9]]}',
        '{"n": 3, "edges": [[0, 1.9]]}',
        '{"n": true, "edges": []}',
        '{"n": null, "edges": []}',
        '{"n": "3", "edges": []}',
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": [0, 1]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [[0, false]]}',
    ])
    def test_rejects_non_integers_and_malformed_edges(self, text):
        with pytest.raises(ValueError, match="graph JSON"):
            from_json(text)

    def test_loads_sniffs_format(self):
        G = cycle_graph(5)
        assert loads(to_json(G)) == G
        assert loads(to_edge_list(G)) == G


class TestInducedSubgraph:
    def test_clique_restriction(self):
        assert induced_subgraph(complete_graph(4), (0, 1, 2)) == complete_graph(3)

    def test_non_adjacent_pair(self):
        G = induced_subgraph(cycle_graph(4), (0, 2))
        assert G.n == 2 and G.edges == ()

    def test_empty_set(self):
        assert induced_subgraph(cycle_graph(4), ()).n == 0

    def test_full_set_is_identity(self):
        G = random_graph(9, 0.4, 3)
        assert induced_subgraph(G, tuple(range(G.n))) == G

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(cycle_graph(4), (0, 9))

    def test_relabeling_ascending(self):
        G = path_graph(5)
        sub = induced_subgraph(G, (1, 3, 4))
        # original edge (3,4) maps to local (1,2); (1,3) not an edge
        assert sub.edges == ((1, 2),)


class TestUnitSphere:
    def test_icosahedron_spheres_are_c5(self):
        G = icosahedron()
        for x in range(G.n):
            S, members = unit_sphere(G, x)
            assert S.n == 5 and len(S.edges) == 5
            assert all(d == 2 for d in (len(S.adj[v]) for v in range(5)))
            assert members == G.adj[x]

    def test_leaf_sphere(self):
        S, members = unit_sphere(star_graph(4), 1)
        assert S.n == 1 and S.edges == () and members == (0,)

    def test_clique_sphere(self):
        S, _ = unit_sphere(complete_graph(5), 2)
        assert S == complete_graph(4)

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            unit_sphere(cycle_graph(3), 3)
        for x in (3, -1):
            with pytest.raises(ValueError):
                sphere_masks(cycle_graph(3), x)

    def test_sphere_masks_match_unit_sphere(self):
        for G in (icosahedron(), star_graph(5), complete_graph(5), random_graph(14, 0.4, 2)):
            for x in range(G.n):
                S, _ = unit_sphere(G, x)
                assert sphere_masks(G, x) == S.adjacency_masks


class TestGenerators:
    def test_cycle(self):
        G = cycle_graph(4)
        assert G.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_path(self):
        assert path_graph(1).n == 1 and path_graph(1).edges == ()
        assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))

    def test_complete(self):
        G = complete_graph(5)
        assert len(G.edges) == 10 and all(G.degree(x) == 4 for x in range(5))

    def test_star(self):
        G = star_graph(6)
        assert G.degree(0) == 5 and all(G.degree(x) == 1 for x in range(1, 6))

    def test_octahedron(self):
        G = octahedron()
        assert G.n == 6 and len(G.edges) == 12
        assert all(G.degree(x) == 4 for x in range(6))

    def test_icosahedron(self):
        G = icosahedron()
        assert G.n == 12 and len(G.edges) == 30
        assert all(G.degree(x) == 5 for x in range(12))

    def test_tree_properties(self):
        for n in (1, 2, 7, 20):
            T = random_tree(n, seed=3)
            assert T.n == n and len(T.edges) == n - 1
            # connectivity: breadth-first reach from 0
            seen = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for u in T.adj[v]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            assert len(seen) == n

    def test_erdos_renyi_extremes(self):
        assert erdos_renyi(10, 0.0, seed=7).edges == ()
        assert erdos_renyi(10, 1.0, seed=7) == complete_graph(10)

    def test_erdos_renyi_reproducible(self):
        assert erdos_renyi(15, 0.3, seed=9) == erdos_renyi(15, 0.3, seed=9)
        assert erdos_renyi(15, 0.3, seed=9) != erdos_renyi(15, 0.3, seed=10)

    def test_generate_dispatch(self):
        assert generate("cycle", n=4) == cycle_graph(4)
        assert generate("icosahedron") == icosahedron()
        assert generate("erdos_renyi", n=8, q=0.5, seed=1) == erdos_renyi(8, 0.5, seed=1)
        with pytest.raises(ValueError):
            generate("moebius")
        with pytest.raises(ValueError):
            generate("cycle")  # missing n

    def test_generate_tree_random_seeded(self):
        assert generate("tree_random", n=9, seed=2) == generate("tree_random", n=9, seed=2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_generated_graphs_valid_and_round_trip(n, seed, q):
    G = erdos_renyi(n, q, seed=seed)
    # invariants re-checked explicitly, independent of the constructor
    for v in range(G.n):
        assert v not in G.adj[v]
        for u in G.adj[v]:
            assert 0 <= u < G.n and v in G.adj[u]
        assert list(G.adj[v]) == sorted(set(G.adj[v]))
    assert from_json(to_json(G)) == G
    assert from_edge_list(to_edge_list(G)) == G


def test_adjacency_masks_match_adj():
    G = random_graph(12, 0.5, 4)
    for v in range(G.n):
        mask = G.adjacency_masks[v]
        assert tuple(u for u in range(G.n) if mask >> u & 1) == G.adj[v]


def test_degree_and_edge_count():
    G = random_graph(14, 0.35, 8)
    assert sum(G.degree(x) for x in range(G.n)) == 2 * G.edge_count
    assert G.edge_count == len(G.edges)


def test_has_edge():
    G = cycle_graph(5)
    assert G.has_edge(0, 1) and G.has_edge(1, 0)
    assert not G.has_edge(0, 2)
