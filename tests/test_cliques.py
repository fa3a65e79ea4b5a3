"""Clique counting against brute-force oracles."""

import random
import warnings
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcurvature import cliques
from graphcurvature.cliques import (
    PROGRESS_INTERVAL,
    cliques_of_size,
    count_cliques,
    chi_in_mask,
    count_cliques_in_mask,
    euler_characteristic,
    graph_euler_characteristic,
    vertex_clique_degrees,
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
    star_graph,
)
from test_curvature import perfbench_inputs


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

    def test_work_budget_warning(self, monkeypatch):
        G = complete_graph(12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count_cliques(G)
        monkeypatch.setattr(cliques, "DEFAULT_WORK_BUDGET", 100)
        # K_12's 4095 visits warn from the final check; K_13's warn from
        # inside the recursion, at visit 4096. Both name this caller.
        for H in (G, complete_graph(13)):
            with pytest.warns(RuntimeWarning, match="budget 100") as records:
                count_cliques(H)
            assert [r.filename for r in records] == [__file__]

    # 40 disjoint K_8: 10,200 cliques in all, at most 255 per component and
    # 127 from any one vertex, so only the running total passes 1000.
    DISJOINT_K8 = Graph.from_edges(320, [(8 * c + i, 8 * c + j)
                                         for c in range(40) for i in range(8) for j in range(i + 1, 8)])

    def test_work_budget_meters_the_running_total(self, monkeypatch):
        monkeypatch.setattr(cliques, "DEFAULT_WORK_BUDGET", 1000)
        with pytest.warns(RuntimeWarning, match="budget 1000") as records:
            assert count_cliques(self.DISJOINT_K8) == (320, 1120, 2240, 2800, 2240, 1120, 320, 40)
        assert [r.filename for r in records] == [__file__]

    def test_progress_sees_the_running_total(self, monkeypatch):
        monkeypatch.setattr(cliques, "PROGRESS_INTERVAL", 1000)
        seen = []
        count_cliques(self.DISJOINT_K8, progress=seen.append)
        # one call each time the total passes a multiple of 1000, at most one
        # vertex's 127 visits late
        assert len(seen) == 10 and all(k * 1000 <= v < k * 1000 + 128 for k, v in enumerate(seen, 1))

    def test_dense_sphere_warns_naming_its_caller(self, monkeypatch):
        monkeypatch.setattr(cliques, "DEFAULT_WORK_BUDGET", 100)
        with pytest.warns(RuntimeWarning, match="budget 100") as records:
            assert vertex_clique_degrees(complete_graph(14), 0) == tuple(comb(13, k + 1) for k in range(13))
        assert [r.filename for r in records] == [__file__]

    def test_whole_graph_masks_are_not_built(self):
        # n-bit masks for this path would take about 2.5 GB; the forward
        # neighbourhoods take O(n + m).
        G = path_graph(200_000)
        assert count_cliques(G) == (200_000, 199_999)
        assert "adjacency_masks" not in vars(G)

    def test_progress_from_inside_one_vertex(self, monkeypatch):
        # Vertex 0 of K_15 has 14 forward neighbours: 16383 visits in one
        # count_cliques_in_mask call, several _METER_STRIDE past the 15 it
        # starts from.
        monkeypatch.setattr(cliques, "PROGRESS_INTERVAL", 1000)
        first_call_ends = 15 + 2**14 - 1
        assert first_call_ends > 15 + 2 * cliques._METER_STRIDE
        seen = []
        assert count_cliques(complete_graph(15)) == tuple(comb(15, k + 1) for k in range(15))
        count_cliques(complete_graph(15), progress=seen.append)
        assert seen == sorted(seen) and seen[-1] <= 2**15 - 1
        assert sum(v < first_call_ends for v in seen) >= 2

        class Stop(Exception):
            pass

        def stop(visits):
            raise Stop(visits)

        with pytest.raises(Stop) as excinfo:
            count_cliques(complete_graph(15), progress=stop)
        assert excinfo.value.args[0] < first_call_ends
        assert "grow" in [entry.name for entry in excinfo.traceback]

    def test_progress_callback_can_abort(self):
        # K_17 has 2^17 - 1 = 131071 cliques, past one PROGRESS_INTERVAL.
        assert PROGRESS_INTERVAL < 2**17 - 1

        class Stop(Exception):
            pass

        def cb(visits):
            raise Stop

        with pytest.raises(Stop):
            count_cliques(complete_graph(17), progress=cb)

    @pytest.mark.parametrize("G", [
        Graph.from_edges(0, []),
        path_graph(1),
        Graph.from_edges(6, [(1, 4)]),  # isolated vertices around one edge
        Graph.from_edges(4, []),
        star_graph(9),
        complete_graph(12),
        Graph.from_edges(9, [(v, 8) for v in range(8)] + [(0, 1), (1, 2)]),  # a star on the top vertex, plus two triangles
        Graph.from_edges(9, [(v, 8) for v in range(8)]),  # top vertex holds every edge
        *(erdos_renyi(n, q, seed=s) for n, q, s in ((30, 0.3, 1), (40, 0.5, 2), (25, 0.9, 3),
                                                    (60, 0.1, 4), (18, 0.7, 5))),
    ], ids=repr)
    def test_matches_whole_graph_mask_route(self, G):
        assert count_cliques(G) == count_cliques_in_mask(G.adjacency_masks, (1 << G.n) - 1)

    def test_matches_networkx_on_corpus(self, corpus):
        nx = pytest.importorskip("networkx")
        for name, G in corpus:
            H = nx.Graph()
            H.add_nodes_from(range(G.n))
            H.add_edges_from(G.edges)
            fvec = []
            for clique in nx.enumerate_all_cliques(H):  # in order of size
                if len(clique) > len(fvec):
                    fvec.append(0)
                fvec[-1] += 1
            assert count_cliques(G) == tuple(fvec), name


def brute_force_mask_fvector(masks, candidates):
    """f-vector of the candidate bits by testing every subset's pairs."""
    bits = [v for v in range(candidates.bit_length()) if candidates >> v & 1]
    counts = []
    for size in range(1, len(bits) + 1):
        c = sum(1 for sub in combinations(bits, size)
                if all(masks[u] >> w & 1 for u, w in combinations(sub, 2)))
        if c == 0:
            break
        counts.append(c)
    return tuple(counts)


def random_masks(rng, width, q):
    masks = [0] * width
    for u, w in combinations(range(width), 2):
        if rng.random() < q:
            masks[u] |= 1 << w
            masks[w] |= 1 << u
    return masks


class TestMaskKernel:
    def test_matches_brute_force_on_random_masks(self):
        rng = random.Random(15)
        for _ in range(60):
            width = rng.randint(0, 14)
            masks = random_masks(rng, width, rng.random())
            full = (1 << width) - 1
            subsets = [0, full, rng.getrandbits(width) if width else 0, rng.getrandbits(width) & full]
            subsets += [1 << v for v in range(width)]
            for cand in subsets:
                assert count_cliques_in_mask(masks, cand) == brute_force_mask_fvector(masks, cand), (masks, cand)

    def test_complete_masks_give_binomials(self):
        rng = random.Random(7)
        for n in range(1, 15):
            masks = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
            for cand in ((1 << n) - 1, 1 << (n - 1), rng.getrandbits(n), 0):
                k = cand.bit_count()
                assert count_cliques_in_mask(masks, cand) == tuple(comb(k, j + 1) for j in range(k))
        assert count_cliques_in_mask([0b1110, 0b1101, 0b1011, 0b0111], 0b1111) == (4, 6, 4, 1)

    @pytest.mark.parametrize("done", [0, 1, 4095, 123_456])
    def test_meter_ends_at_done_plus_visits(self, done):
        rng = random.Random(done)
        meter = cliques._WorkMeter(None, done)
        total = done
        for width, q in ((12, 0.6), (0, 0.0), (14, 0.9), (5, 0.0), (13, 1.0)):
            masks = random_masks(rng, width, q)
            fvec = count_cliques_in_mask(masks, (1 << width) - 1, meter)
            total += sum(fvec)
            assert meter.visits == total and fvec == brute_force_mask_fvector(masks, (1 << width) - 1)


def brute_force_mask_chi(masks, candidates):
    """chi of the candidate bits from every subset: a subset is a clique when
    its lowest member is adjacent to all its others and those form a clique."""
    bits = [v for v in range(candidates.bit_length()) if candidates >> v & 1]
    local = [sum(1 << j for j, w in enumerate(bits) if masks[u] >> w & 1) for u in bits]
    clique = [True] * (1 << len(bits))
    chi = 0
    for s in range(1, 1 << len(bits)):
        rest = s & (s - 1)
        clique[s] = clique[rest] and not rest & ~local[(s & -s).bit_length() - 1]
        if clique[s]:
            chi += 1 if s.bit_count() % 2 else -1
    return chi


def cone_over(masks):
    """Masks of ``masks`` plus one top vertex adjacent to all of them."""
    apex = 1 << len(masks)
    return [m | apex for m in masks] + [apex - 1]


class TestChiInMask:
    """``chi_in_mask`` against the clique counts and a subset-by-subset oracle."""

    def test_matches_clique_counts_and_brute_force_on_random_masks(self):
        """Each set with a memo of its own and with one memo shared by all sets
        of its masks; every link the shared memo keeps is checked too."""
        rng = random.Random(27)
        for _ in range(80):
            width = rng.randint(0, 14)
            masks = random_masks(rng, width, rng.random())
            full = (1 << width) - 1
            subsets = [0, full, rng.getrandbits(width) if width else 0, rng.getrandbits(width) & full]
            subsets += [1 << v for v in range(width)]
            shared = {}
            for cand in subsets:
                chi = chi_in_mask(masks, cand, {})
                assert chi == euler_characteristic(count_cliques_in_mask(masks, cand)), (masks, cand)
                assert chi == brute_force_mask_chi(masks, cand), (masks, cand)
                assert chi_in_mask(masks, cand, shared) == chi, (masks, cand)
            for link, chi in shared.items():
                assert chi == brute_force_mask_chi(masks, link), (masks, link)

    def test_cones_and_edgeless_sets(self):
        rng = random.Random(4)
        for width in range(15):
            edgeless = [0] * width
            assert chi_in_mask(edgeless, (1 << width) - 1, {}) == width
            for q in (0.0, 0.3, 0.8):
                masks = cone_over(random_masks(rng, width, q))
                assert chi_in_mask(masks, (1 << (width + 1)) - 1, {}) == 1
                # the same cone with its apex lowest
                flipped = [int(f"{m:0{width + 1}b}"[::-1], 2) for m in reversed(masks)]
                assert chi_in_mask(flipped, (1 << (width + 1)) - 1, {}) == 1

    def test_octahedron_has_no_cone_point(self):
        masks = octahedron().adjacency_masks
        full = (1 << 6) - 1
        assert all(full & ~m != 1 << v for v, m in enumerate(masks))
        assert chi_in_mask(masks, full, {}) == 2 == brute_force_mask_chi(masks, full)
        # its cone and its suspension
        assert chi_in_mask(cone_over(masks), (1 << 7) - 1, {}) == 1
        suspension = [m | 0b11 << 6 for m in masks] + [full, full]
        assert chi_in_mask(suspension, (1 << 8) - 1, {}) == 0 == brute_force_mask_chi(suspension, (1 << 8) - 1)

    def test_every_exit_mask_of_verify_at_seed_3(self, monkeypatch):
        from graphcurvature import morse
        from graphcurvature.corpus import base_corpus, er_corpus
        from graphcurvature.verify import run_suites, summarize

        seen = []
        monkeypatch.setattr(morse, "chi_in_mask",
                            lambda masks, mask, memo: seen.append((masks, mask)) or chi_in_mask(masks, mask, memo))
        results = run_suites(list(base_corpus() + er_corpus(20)), suites=("poincare_hopf", "stability"), seed=3)
        assert summarize(results)["failed"] == 0 and len(seen) > 10_000
        for masks, mask in seen:
            assert chi_in_mask(masks, mask, {}) == euler_characteristic(count_cliques_in_mask(masks, mask)), (masks, mask)

    def test_wheel_hub_exit_set_is_walked_not_recursed(self):
        from graphcurvature.graphs import sphere_masks
        from graphcurvature.morse import IndexCalculator

        rim = 3000
        G = Graph.from_edges(rim + 1, [(0, v) for v in range(1, rim + 1)]
                             + [(v, v % rim + 1) for v in range(1, rim + 1)])
        masks = sphere_masks(G, 0)
        full = (1 << rim) - 1
        assert chi_in_mask(masks, full, {}) == 0  # a cycle
        assert chi_in_mask(masks, full ^ 1 << 1500, {}) == 1  # a path
        assert chi_in_mask(masks, full & 0x5555 << 8, {}) == 8  # isolated rim vertices
        hub_last = (rim,) + tuple(range(rim))
        assert IndexCalculator(G).index(hub_last, 0) == 1


class TestMaskEnumeration:
    def test_count_in_mask_matches_subgraph(self):
        from graphcurvature.graphs import induced_subgraph

        G = erdos_renyi(10, 0.5, seed=6)
        masks = G.adjacency_masks
        for subset_mask in (0b1011001, 0b11111, 0b1000000011):
            vertices = tuple(v for v in range(G.n) if subset_mask >> v & 1)
            got = count_cliques_in_mask(masks, subset_mask)
            assert got == count_cliques(induced_subgraph(G, vertices))

    def test_cliques_of_size(self):
        G = octahedron()
        triangles = cliques_of_size(G, 3)
        assert len(triangles) == 8
        assert cliques_of_size(G, 4) == ()
        assert cliques_of_size(G, 1) == tuple((v,) for v in range(6))
        assert [len(cliques_of_size(complete_graph(4), s)) for s in range(1, 6)] == [4, 6, 4, 1, 0]
        G = erdos_renyi(12, 0.5, seed=3)
        for size in range(1, 7):
            oracle = [
                sub
                for sub in combinations(range(G.n), size)
                if all(G.has_edge(u, v) for u, v in combinations(sub, 2))
            ]
            rows = cliques_of_size(G, size)
            assert all(list(row) == sorted(set(row)) for row in rows)
            assert sorted(rows) == sorted(oracle)
        with pytest.raises(ValueError):
            cliques_of_size(G, 0)

    def test_limit_counts_vertex_ids_not_rows(self):
        """K_116's 253,460 triangles are more rows than 250,000 13-cliques,
        but 760,380 vertex ids, under MAX_CLIQUE_ENTRIES."""
        rows = cliques_of_size(complete_graph(116), 3)
        assert len(rows) == comb(116, 3) == 253_460
        assert rows[0] == (0, 1, 2) and rows[-1] == (113, 114, 115)

    def test_limit_is_rows_times_size(self, monkeypatch):
        monkeypatch.setattr(cliques, "MAX_CLIQUE_ENTRIES", 60)
        assert len(cliques_of_size(complete_graph(6), 3)) == 20  # 60 ids: at the limit
        with pytest.raises(ValueError, match=r"^more than 15 cliques on 4 vertices to list "
                                             r"\(MAX_CLIQUE_ENTRIES = 60 vertex ids\)$"):
            cliques_of_size(complete_graph(7), 4)  # 35 rows, 140 ids

    def test_listing_builds_no_whole_graph_masks(self):
        G = erdos_renyi(40, 0.3, seed=2)
        assert len(cliques_of_size(G, 3)) == count_cliques(G)[2]
        assert "adjacency_masks" not in vars(G)


class TestListingAtScale:
    """``cliques_of_size`` on the 1500-vertex geometric graph of
    ``tests/test_curvature.py::TestRelabelAndUnion``, against the benchmark's
    own clique counter, which shares no code with the package."""

    @pytest.fixture(scope="class")
    def base(self):
        inputs = perfbench_inputs()
        text = inputs.geometric_torus_text(1500, 8, seed=5)
        return loads(text), inputs.fvector(*inputs.parse_edges(text))

    def test_every_size_matches_the_independent_count(self, base):
        G, fvector = base
        assert len(fvector) >= 4
        for size in range(1, len(fvector) + 2):
            rows = cliques_of_size(G, size)
            assert len(rows) == (fvector[size - 1] if size <= len(fvector) else 0)
            assert list(rows) == sorted(set(rows))  # distinct, in lexicographic order
            assert all(len(row) == size and list(row) == sorted(set(row)) for row in rows)
        assert cliques_of_size(G, len(fvector) + 1) == ()

    def test_sampled_rows_are_cliques(self, base):
        G, fvector = base
        rng = random.Random(1500)
        for size in range(2, len(fvector) + 1):
            rows = cliques_of_size(G, size)
            for row in rng.sample(rows, min(200, len(rows))):
                assert all(G.has_edge(u, v) for u, v in combinations(row, 2)), row


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


@st.composite
def edge_sets(draw):
    n = draw(st.integers(min_value=0, max_value=16))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(G=edge_sets())
def test_fvector_against_whole_graph_masks(G):
    assert count_cliques(G) == count_cliques_in_mask(G.adjacency_masks, (1 << G.n) - 1)
