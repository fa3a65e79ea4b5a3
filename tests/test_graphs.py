"""Graph construction, parsing, generators, and round-trips."""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurvature import graphs
from graphcurvature.graphs import (
    GENERATORS,
    MAX_PAIRS,
    MAX_VERTICES,
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

    @pytest.mark.parametrize("n, adj, message", [
        (2, ((1,), ()), "asymmetric edge 0-1"),
        (3, ((), (0, 2), (1,)), "asymmetric edge 1-0"),
        # 0-2, 0-3, 1-2 and 2-3 are all one-sided; the first in row order is named
        (4, ((1, 2, 3), (0, 2), (3,), ()), "asymmetric edge 0-2"),
        (3, ([1, 2], [0], []), "asymmetric edge 0-2"),
        (3, [[1], [0, 2], []], "asymmetric edge 1-2"),
        # an earlier per-entry check wins over an asymmetry in an earlier row
        (3, ((1,), (), (2,)), "self-loop at vertex 2"),
        (3, ((1,), (), (5,)), "neighbor 5 of vertex 2 out of range"),
        (3, ((1,), (), (-1,)), "neighbor -1 of vertex 2 out of range"),
        (3, ((1,), (), (1, 0)), "adjacency of vertex 2 not strictly sorted"),
        (3, ((1,), (), (1, 1)), "adjacency of vertex 2 not strictly sorted"),
    ])
    def test_rejection_names_the_first_fault(self, n, adj, message):
        with pytest.raises(ValueError) as excinfo:
            Graph(n, adj)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: Graph.from_edges(-1, []), "vertex count must be >= 0, got -1"),
        (lambda: Graph.from_edges(-1, [(0, 1)]), "edge (0,1) out of range for n=-1"),
        (lambda: from_json('{"n": -1, "edges": []}'), "vertex count must be >= 0, got -1"),
        (lambda: Graph(-1, ()), "vertex count must be >= 0, got -1"),
        (lambda: erdos_renyi(-1, 0.5, seed=0), "n must be >= 0, got -1"),
    ], ids=["from_edges", "from_edges_with_edge", "from_json", "Graph", "erdos_renyi"])
    def test_negative_vertex_count_rejected(self, build, message):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("adj", [([1], [0, 2], [1]), [(1,), (0, 2), (1,)], [[1], [0, 2], [1]]])
    def test_symmetric_rows_as_lists_accepted(self, adj):
        G = Graph(3, adj)
        assert G.edges == ((0, 1), (1, 2)) and G.has_edge(2, 1) and not G.has_edge(0, 2)
        assert G == Graph.from_edges(3, [(0, 1), (1, 2)])
        assert hash(G) == hash(Graph.from_edges(3, [(0, 1), (1, 2)]))

    def test_duplicate_edges_deduplicated(self):
        G = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert G.edges == ((0, 1),)

    def test_vertex_count_over_the_cap_rejected(self):
        # Raised before any per-vertex allocation, so the count costs nothing.
        with pytest.raises(ValueError, match=f"vertex count {MAX_VERTICES + 1} exceeds the limit"):
            Graph.from_edges(MAX_VERTICES + 1, [(0, 1)])

    @pytest.mark.parametrize("kind", ["cycle", "path", "complete", "star", "tree_random", "erdos_renyi"])
    def test_generator_vertex_count_over_the_cap_rejected(self, kind, monkeypatch):
        # Checked before the generator lists any edge or draws any number.
        for name in ("cycle_graph", "path_graph", "complete_graph", "star_graph", "random_tree", "erdos_renyi"):
            monkeypatch.setattr(graphs, name, lambda *args: pytest.fail("the generator ran"))
        with pytest.raises(ValueError, match=f"vertex count {MAX_VERTICES + 1} exceeds the limit"):
            generate(kind, n=MAX_VERTICES + 1, q=0.5)

    def test_erdos_renyi_pair_count_over_the_cap_rejected(self, monkeypatch):
        # 44722 vertices make 1,000,006,281 pairs, just over the cap. The
        # check comes before the generator's first draw.
        monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("erdos_renyi drew"))
        pairs = 44722 * 44721 // 2
        assert pairs > MAX_PAIRS >= 44721 * 44720 // 2
        with pytest.raises(ValueError, match=f"draws {pairs} vertex pairs, above the limit MAX_PAIRS = {MAX_PAIRS}"):
            erdos_renyi(44722, 0.0, seed=1)
        with pytest.raises(ValueError, match="MAX_PAIRS"):
            generate("erdos_renyi", n=200_000, q=0.0)


def assert_revalidates(G: Graph) -> None:
    """G's rows are tuples and pass the public constructor's checks unchanged."""
    assert type(G.adj) is tuple and all(type(row) is tuple for row in G.adj)
    again = Graph(G.n, G.adj)
    assert again == G and hash(again) == hash(G)


class TestTrustedConstruction:
    """Every graph built without re-validation passes validation as it is."""

    @pytest.mark.parametrize("n, edges", [
        (0, []),
        (1, []),
        (5, []),
        (3, [(0, 1), (1, 0), (0, 1), (1, 2), (2, 1)]),
        (6, [(5, 0), (3, 1), (4, 2), (2, 0), (1, 0)]),
        (7, [(6, 2), (2, 6), (0, 6), (6, 0), (3, 6)]),
        (4, [[1, 3], (3, 1), [0, 1]]),
    ], ids=["empty", "one_vertex", "edgeless", "duplicates", "reversed", "isolated_vertices", "list_pairs"])
    def test_from_edges(self, n, edges):
        G = Graph.from_edges(n, edges)
        assert_revalidates(G)
        assert G.edges == tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))

    @pytest.mark.parametrize("kind", tuple(GENERATORS))
    def test_every_generator(self, kind):
        for n, seed in ((7, 3), (16, 5)):
            G = generate(kind, n=n, q=0.4, seed=seed)
            assert_revalidates(G)
            assert_revalidates(from_edge_list(to_edge_list(G)))
            assert_revalidates(from_json(to_json(G)))

    @pytest.mark.parametrize("text", [
        "n 6\n4 1\n1 4\n0 3\n",
        "2 0\n0 1\n1 2\n2 1\n",
        '{"n": 5, "edges": [[3, 0], [0, 3], [4, 1]]}',
        '{"n": 3, "edges": []}',
    ])
    def test_parsed_text(self, text):
        assert_revalidates(loads(text))

    @pytest.mark.parametrize("vertices", [
        (), (4,), (8, 1, 5, 1, 8), (3, 3, 3), tuple(range(11, -1, -1)), [10, 0, 7, 7, 2, 9],
    ])
    def test_induced_subgraph(self, vertices):
        G = random_graph(12, 0.5, 7)
        sub = induced_subgraph(G, vertices)
        assert_revalidates(sub)
        assert sub.n == len(set(vertices))

    def test_unit_spheres(self):
        for G in (icosahedron(), star_graph(6), complete_graph(5), random_graph(20, 0.3, 2)):
            for x in range(G.n):
                S, members = unit_sphere(G, x)
                assert_revalidates(S)
                assert S.n == len(members) == G.degree(x)


def test_edgeless_graph_needs_under_100_bytes_a_vertex():
    """One empty row per isolated vertex; MAX_VERTICES is sized partly on this peak."""
    n = 200_000
    tracemalloc.start()
    try:
        G = from_edge_list(f"n {n}\n0 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.n == n and G.edges == ((0, 1),)
    assert peak < 100 * n


def test_large_header_parses_without_collections():
    """The collector is paused while the rows are built, and left as it was."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        G = from_edge_list("n 1000000\n0 1\n")
    finally:
        gc.callbacks.remove(count)
    assert G.n == 1_000_000 and G.edges == ((0, 1),)
    assert len(starts) < 10
    assert gc.isenabled()
    gc.disable()
    try:
        Graph.from_edges(3, [(0, 1)])
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_collector_resumes_after_a_bad_edge():
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(0, 1), (0, 5)])
    assert gc.isenabled()


class TestEdgeList:
    def test_triangle(self):
        G = from_edge_list("0 1\n1 2\n2 0")
        assert G.n == 3 and G.edges == ((0, 1), (0, 2), (1, 2))

    def test_header_forces_n(self):
        G = from_edge_list("n 4\n0 1")
        assert G.n == 4 and G.edges == ((0, 1),)
        assert G.degree(2) == 0 and G.degree(3) == 0
        assert from_edge_list("0 1\nn 4") == G  # a header after the edges too

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

    # The full text of every parse error. Where a line breaks two rules, the
    # first check in from_edge_list names it: "n x y" is a bad header, not a
    # bad count; "-2 -2" is a self-loop, not a negative id.
    @pytest.mark.parametrize("text, message", [
        ("n", "line 1: header must be 'n <count>'"),
        ("0 1\nn 3 4", "line 2: header must be 'n <count>'"),
        ("n x y", "line 1: header must be 'n <count>'"),
        ("0 1\nn x", "line 2: non-integer count 'x'"),
        ("n -1", "line 1: vertex count must be >= 0"),
        ("0 1\n-1 2", "line 2: negative vertex id in '-1 2'"),
        ("-2 -2", "line 1: self-loop at vertex -2"),
        ("0 1\n1", "line 2: expected 'u v', got '1'"),
        ("x y z", "line 1: expected 'u v', got 'x y z'"),
        ("0 1\n2 x  # note", "line 2: non-integer token in '2 x'"),
        ("n 3\n0 5", "edge endpoint 5 exceeds declared n=3"),
        ("0 5\nn 3", "edge endpoint 5 exceeds declared n=3"),
    ])
    def test_parse_error_text(self, text, message):
        with pytest.raises(ValueError) as exc:
            from_edge_list(text)
        assert str(exc.value) == message
        # Only the end-of-input check has no line to name.
        assert isinstance(exc.value, EdgeListParseError) == message.startswith("line ")

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
        '[{"n": 3, "edges": []}]',
        '"n"',
        '{"edges": []}',
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

    @pytest.mark.parametrize("vertices, bad", [
        ((-1,), -1), ((0, 4), 4), ((5, 2, 4), 4), ((7, -2, 1, 9), -2), ((3, -5, -1), -5),
    ])
    def test_out_of_range_names_the_lowest_bad_vertex(self, vertices, bad):
        with pytest.raises(ValueError) as excinfo:
            induced_subgraph(cycle_graph(4), vertices)
        assert str(excinfo.value) == f"vertex {bad} out of range for n=4"

    @pytest.mark.parametrize("vertices", [
        (5, 1, 3), (3, 3, 1, 1), (7, 0, 4, 2, 6, 0, 4), (8, 8, 8), tuple(range(8, -1, -1)),
    ])
    def test_matches_reference_relabel(self, vertices):
        G = random_graph(9, 0.5, 4)
        members = sorted(set(vertices))
        ref = Graph.from_edges(len(members), [
            (i, j) for i, u in enumerate(members) for j, v in enumerate(members)
            if i < j and G.has_edge(u, v)])
        assert induced_subgraph(G, vertices) == ref

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

    @pytest.mark.parametrize("build, message", [
        (lambda: path_graph(0), "path needs n >= 1, got 0"),
        (lambda: complete_graph(0), "complete graph needs n >= 1, got 0"),
        (lambda: star_graph(1), "star needs n >= 2, got 1"),
        (lambda: erdos_renyi(5, -0.1, seed=0), "edge probability must be in [0, 1], got -0.1"),
        (lambda: erdos_renyi(5, 1.5, seed=0), "edge probability must be in [0, 1], got 1.5"),
        (lambda: erdos_renyi(5, float("nan"), seed=0), "edge probability must be in [0, 1], got nan"),
    ], ids=["path", "complete", "star", "er_q_below", "er_q_above", "er_q_nan"])
    def test_parameter_below_its_bound_error_text(self, build, message):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_erdos_renyi_extremes(self):
        assert erdos_renyi(10, 0.0, seed=7).edges == ()
        assert erdos_renyi(10, 1.0, seed=7) == complete_graph(10)

    @pytest.mark.parametrize("n,q,seed", [
        (0, 0.5, 1), (1, 0.5, 1), (2, 0.5, 3), (30, 0.3, 4), (200, 0.1, 3), (57, 0.9, 11),
    ])
    def test_erdos_renyi_matches_pair_list(self, n, q, seed):
        # The construction before row-wise draws: one draw per pair, row-major.
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        draws = np.random.default_rng(seed).random(len(pairs))
        expected = Graph.from_edges(n, [p for p, d in zip(pairs, draws) if d < q])
        assert erdos_renyi(n, q, seed=seed) == expected

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


def test_neighbor_sets_built_on_demand():
    G = Graph.from_edges(4, [(0, 1), (1, 2), (3, 1)])
    assert "neighbor_sets" not in vars(G)
    assert G.has_edge(1, 3) and G.has_edge(3, 1) and not G.has_edge(0, 2)
    assert G.neighbor_sets == (frozenset({1}), frozenset({0, 2, 3}), frozenset({1}), frozenset({1}))
