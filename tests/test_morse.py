"""Indices, Poincare-Hopf, intermediate equations, and index stability."""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from graphcurvature import TrialPlan, cliques, mc_index_expectation, morse
from graphcurvature.cliques import count_cliques, count_cliques_in_mask, euler_characteristic
from graphcurvature.corpus import base_corpus
from graphcurvature.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    icosahedron,
    induced_subgraph,
    loads,
    octahedron,
    path_graph,
    random_tree,
    sphere_masks,
)
from graphcurvature.morse import (
    IndexCalculator,
    index_report,
    order_from_values,
    poincare_hopf_chi,
    random_order,
    reverse_order,
    validate_order,
    verify_index_stability,
    walk_index_sums,
)


def exit_set(G, order, x):
    """Neighbors of x with smaller function value (S_f^-(x))."""
    rx = order[x]
    return tuple(y for y in G.adj[x] if order[y] < rx)


def stability(calc, trials, seed):
    """``verify_index_stability`` on ``trials`` random orders and then a walk
    start, all drawn from one ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    orders = [random_order(calc.G.n, rng) for _ in range(trials)]
    return verify_index_stability(calc, orders, random_order(calc.G.n, rng))


def reference_index(G, order, x):
    """i_f(x) = 1 - chi(S_f^-(x)) from the induced exit subgraph's cliques.

    The reference for ``IndexCalculator.index``: it builds the exit
    subgraph afresh and shares no code with the calculator's per-vertex
    masks and memo.
    """
    return 1 - euler_characteristic(count_cliques(induced_subgraph(G, exit_set(G, order, x))))


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

    @pytest.mark.parametrize("n", [0, 1, 30])
    def test_random_order_is_the_permutation_as_python_ints(self, n):
        order = random_order(n, 7)
        assert type(order) is tuple and all(type(r) is int for r in order)
        assert order == tuple(np.random.default_rng(7).permutation(n))

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
        assert exit_set(G, reverse_order(f), 0) == G.adj[0]

    def test_c4_worked_example(self):
        G = cycle_graph(4)
        f = (0, 1, 2, 3)  # increasing around the cycle
        assert exit_set(G, f, 3) == (0, 2)
        assert tuple(reference_index(G, f, x) for x in range(4)) == (1, 0, 0, -1)

    def test_exit_entrance_partition_sphere(self):
        # the exit sets of f and -f split the sphere into disjoint halves
        G = erdos_renyi(10, 0.5, seed=4)
        f = random_order(10, 7)
        rev = reverse_order(f)
        for x in range(G.n):
            lo, hi = exit_set(G, f, x), exit_set(G, rev, x)
            assert not set(lo) & set(hi)
            assert tuple(sorted(lo + hi)) == G.adj[x]

    def test_reversed_order_swaps_exit_and_entrance(self):
        G = erdos_renyi(9, 0.6, seed=2)
        f = random_order(9, 3)
        rev = reverse_order(f)
        for x in range(G.n):
            below = set(exit_set(G, f, x))
            assert exit_set(G, rev, x) == tuple(y for y in G.adj[x] if y not in below)


class TestIndex:
    def test_local_minimum_is_one(self):
        G = erdos_renyi(8, 0.6, seed=5)
        f = random_order(8, 9)
        for x in range(8):
            if all(f[y] > f[x] for y in G.adj[x]):
                assert reference_index(G, f, x) == 1

    def test_icosahedron_sign_formula(self):
        # cyclic sphere: i = 1 - |S^-| + (edges within S^-)
        G = icosahedron()
        for seed in range(5):
            f = random_order(12, seed)
            for x in range(12):
                lo = exit_set(G, f, x)
                edges = len(induced_subgraph(G, lo).edges)
                assert reference_index(G, f, x) == 1 - len(lo) + edges

    def test_symmetric_index_cycles_zero(self):
        for n in (4, 6, 9):
            G = cycle_graph(n)
            f = random_order(n, n)
            assert all(j == 0 for j in index_report(G, f).symmetric)

    def test_symmetric_index_trees(self):
        T = random_tree(11, seed=6)
        f = random_order(11, 2)
        symmetric = index_report(T, f).symmetric
        for x in range(11):
            assert symmetric[x] == 1 - Fraction(T.degree(x), 2)

    def test_symmetric_equals_index_on_icosahedron(self):
        G = icosahedron()
        for seed in range(4):
            f = random_order(12, seed)
            symmetric = index_report(G, f).symmetric
            for x in range(12):
                assert symmetric[x] == reference_index(G, f, x)

    def test_calculator_matches_plain_index(self):
        for q in (0.3, 0.7):
            G = erdos_renyi(11, q, seed=8)
            calc = IndexCalculator(G)
            for seed in range(6):
                f = random_order(11, seed)
                for x in range(11):
                    assert calc.index(f, x) == reference_index(G, f, x)


class TestChiMemo:
    """Memo work on fixed inputs. The calculator calls ``chi_in_mask`` once
    per nonempty exit set its memo lacks (a miss), and ``chi_in_mask``
    recurses once per link the memo lacks; every call adds its set to the
    memo, so the memo holds exactly one entry per call, each equal to the
    chi of the set's clique counts."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(misses, every call): the calculator's calls and all calls, recursion included."""
        misses, every = [], []
        real = cliques.chi_in_mask

        def counted(masks, mask, memo):
            every.append(mask)
            return real(masks, mask, memo)

        monkeypatch.setattr(cliques, "chi_in_mask", counted)
        monkeypatch.setattr(morse, "chi_in_mask",
                            lambda masks, mask, memo: misses.append(mask) or counted(masks, mask, memo))
        return misses, every

    def test_dense_benchmark_graph(self, calls):
        from test_curvature import perfbench_inputs

        G = loads(perfbench_inputs().dense_text(3))
        calc = IndexCalculator(G)
        rng = np.random.default_rng(3)
        sums = {calc.index_sum(random_order(G.n, rng)) for _ in range(50)}
        assert sums == {euler_characteristic(count_cliques(G))}
        misses, every = calls
        assert (len(misses), len(every)) == (1582, 5033) and sum(map(len, calc._chi_cache)) == len(every)
        assert_chi_memo_exact(calc)

    def test_icosahedron_at_2000_samples(self, calls):
        made = []
        init = IndexCalculator.__init__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(IndexCalculator, "__init__", lambda self, G: made.append(self) or init(self, G))
            report = mc_index_expectation(icosahedron(), TrialPlan(samples=2000, master_seed=3))
        assert len(report.rows) == 12
        misses, every = calls
        # every nonempty exit set of all 12 vertices, 2^5 - 1 each, once; 11 of them first met as links
        assert (len(misses), len(every)) == (361, 372) == (len(misses), sum(map(len, made[0]._chi_cache)))
        assert_chi_memo_exact(made[0])

    def test_empty_exit_sets_are_not_kept(self, calls):
        """Every exit set of an edgeless graph is empty, chi 0: one index sum
        over 20,000 vertices calls ``chi_in_mask`` never and keeps nothing."""
        calc = IndexCalculator(Graph.from_edges(20_000, []))
        assert calc.index_sum(range(20_000)) == 20_000
        assert calc.chi_of_exit_mask(0, 0) == 0
        assert calls == ([], []) and sum(map(len, calc._chi_cache)) == 0


def assert_chi_memo_exact(calc):
    """Every chi memo entry of ``calc``, links included, equals the alternating
    sum of its set's clique counts, on masks built apart from the calculator's."""
    for x, memo in enumerate(calc._chi_cache):
        masks = sphere_masks(calc.G, x)
        for key, chi in memo.items():
            assert chi == euler_characteristic(count_cliques_in_mask(masks, key)), (x, key)


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
            for f in permutations(range(G.n)):
                assert calc.index_sum(f) == chi, (name, f)

    def test_path_p3_all_orders(self):
        G = path_graph(3)
        sums = {poincare_hopf_chi(G, f) for f in permutations(range(3))}
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

        from graphcurvature.cli import dumps

        rep = index_report(cycle_graph(4), (0, 1, 2, 3))
        payload = json.loads(dumps(rep))
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

    @staticmethod
    def listed_split(G, order, x):
        """(V^-, V^+, W) by classifying every sphere clique, listed by brute force
        over subsets of the sphere with pairwise mask checks."""
        masks = sphere_masks(G, x)
        below = {i for i, u in enumerate(G.adj[x]) if order[u] < order[x]}
        split = ([], [], [])
        for size in range(1, len(masks) + 1):
            counts = [0, 0, 0]
            for sub in combinations(range(len(masks)), size):
                if all(masks[a] >> b & 1 for a, b in combinations(sub, 2)):
                    inside = len(below.intersection(sub))
                    counts[0 if inside == size else 1 if inside == 0 else 2] += 1
            if not any(counts):
                break  # no clique of this size, so none larger
            for side, c in zip(split, counts):
                side.append(c)
        return tuple(tuple(counts) for counts in split)

    def test_counts_match_listed_cliques(self):
        """The counted split agrees with classifying every listed sphere clique,
        at every vertex: the lowest and highest of each order (below empty or
        full) and an isolated one included."""
        for seed, q in ((1, 0.3), (2, 0.5), (3, 0.7), (4, 0.9)):
            G = Graph.from_edges(13, erdos_renyi(12, q, seed=seed).edges)  # vertex 12 is isolated
            calc = IndexCalculator(G)
            for f in (random_order(13, 10 * seed + s) for s in range(3)):
                for x in range(13):
                    assert calc.clique_split(f, x) == self.listed_split(G, f, x), (seed, f, x)
                lowest, highest = f.index(0), f.index(12)
                assert calc.exit_mask(f, lowest) == 0
                assert calc.exit_mask(f, highest) == (1 << G.degree(highest)) - 1
            assert calc.clique_split(f, 12) == ((), (), ())

    def test_whole_sphere_counted_once_per_calculator(self, monkeypatch):
        """Each split counts the sides it has not met at its vertex; the whole
        sphere is counted on a vertex's first split only, since it does not
        depend on the order."""
        G = erdos_renyi(10, 0.6, seed=5)
        calls = []
        count = morse.count_cliques_in_mask
        monkeypatch.setattr(morse, "count_cliques_in_mask", lambda *args: calls.append(1) or count(*args))
        calc = IndexCalculator(G)
        orders = [random_order(10, s) for s in range(4)]
        splits = [calc.clique_split(f, x) for f in orders for x in range(10)]
        sides = {(x, side) for f in orders for x in range(10)
                 for side in (calc.exit_mask(f, x), (1 << G.degree(x)) - 1 ^ calc.exit_mask(f, x))}
        assert len(calls) == 10 + len(sides) < 10 + 2 * len(splits)
        assert splits == [IndexCalculator(G).clique_split(f, x) for f in orders for x in range(10)]

    def test_memoized_splits_equal_fresh_calculators_and_listed_cliques(self):
        """One calculator over many orders, its side counts memoized, splits as
        a new calculator per split does and as listing the cliques does;
        below and above share one memo per vertex, so a side met first as
        one is read back as the other."""
        for G in (erdos_renyi(11, 0.6, seed=2), octahedron(), complete_graph(6)):
            calc = IndexCalculator(G)
            for f in (random_order(G.n, s) for s in range(20)):
                for x in range(G.n):
                    split = calc.clique_split(f, x)
                    assert split == IndexCalculator(G).clique_split(f, x) == self.listed_split(G, f, x), (f, x)

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
        for f in permutations(range(4)):
            rows = IndexCalculator(G).intermediate_checks(f, count_cliques(G))
            by_k = {r.k: r for r in rows}
            assert by_k[1].lhs == 4 and by_k[1].rhs == 4
            assert all(r.equal for r in rows)

    def test_triangle_free_trivial(self):
        G = cycle_graph(8)
        rows = IndexCalculator(G).intermediate_checks(random_order(8, 1), count_cliques(G))
        assert all(r.equal for r in rows)
        assert all(r.rhs == 0 for r in rows if r.k >= 1)

    def test_k0_always_zero(self):
        G = erdos_renyi(9, 0.7, seed=1)
        rows = IndexCalculator(G).intermediate_checks(random_order(9, 2), count_cliques(G))
        assert rows[0].k == 0 and rows[0].lhs == 0 and rows[0].rhs == 0

    def test_random_graphs_random_orders(self):
        for seed in range(5):
            G = erdos_renyi(12, 0.5, seed=seed)
            f = random_order(12, seed + 100)
            assert all(r.equal for r in IndexCalculator(G).intermediate_checks(f, count_cliques(G)))


def _bubble_reversal_orders(start):
    """The start order, then the order after each bubble swap to its reversal.

    Pass i carries the vertex at rank 0 up to rank n - 1 - i, one swap of
    consecutive ranks at a time.
    """
    ranks = list(start)
    yield tuple(ranks)
    for i in range(len(ranks)):
        for j in range(len(ranks) - 1 - i):
            a = ranks.index(j)
            b = ranks.index(j + 1)
            ranks[a], ranks[b] = j + 1, j
            yield tuple(ranks)


def _edge_step_orders(G, start):
    """The start order, then the order after each bubble swap of two neighbours."""
    orders = list(_bubble_reversal_orders(start))
    steps = zip(orders, orders[1:])
    return orders[:1] + [after for before, after in steps
                         if G.has_edge(*(v for v in range(G.n) if before[v] != after[v]))]


class TestWalkSumsAgainstReference:
    """The stability walk's index sum after every swap of two neighbours, against ``reference_index``.

    The reference applies the bubble reversal itself and sums
    ``reference_index``, which counts cliques of an induced subgraph and
    shares no code with the calculator's per-vertex masks and memo. A swap
    of two non-neighbours changes no index, so the replay yields no sum for it.
    """

    GRAPHS = [(name, G) for name, G in base_corpus() if G.n <= 10] + [
        (f"er12_{seed}", erdos_renyi(12, 0.4, seed=seed)) for seed in range(4)
    ]

    @pytest.mark.parametrize("name, G", GRAPHS, ids=[name for name, _ in GRAPHS])
    def test_every_step(self, name, G):
        start = random_order(G.n, 11)
        expected = [sum(reference_index(G, order, x) for x in range(G.n)) for order in _edge_step_orders(G, start)]
        assert len(expected) == 1 + G.edge_count
        assert list(walk_index_sums(IndexCalculator(G), start)) == expected


class TestStabilityWalk:
    """The walk's own checks: its length, the end masks, the end sums."""

    def test_stability(self):
        for G in (cycle_graph(7), complete_graph(5), erdos_renyi(10, 0.5, seed=6)):
            assert stability(IndexCalculator(G), trials=25, seed=3)

    def test_one_sum_per_edge(self):
        """1 + m sums, not one per transposition of the n(n-1)/2."""
        G = erdos_renyi(30, 0.2, seed=4)
        assert 0 < G.edge_count < G.n * (G.n - 1) // 2
        assert len(list(walk_index_sums(IndexCalculator(G), random_order(G.n, 2)))) == 1 + G.edge_count

    @pytest.mark.parametrize("G", [octahedron(), icosahedron(), erdos_renyi(12, 0.4, seed=1)],
                             ids=["octahedron", "icosahedron", "er12"])
    def test_running_sum_follows_a_local_fault(self, monkeypatch, G):
        """A per-mask chi that is wrong but still local: the running sum tracks its every change."""
        original = morse.chi_in_mask
        monkeypatch.setattr(morse, "chi_in_mask",
                            lambda masks, mask, memo: original(masks, mask, memo) + (mask.bit_count() == 2))
        calc = IndexCalculator(G)
        start = random_order(G.n, 5)
        expected = [calc.index_sum(order) for order in _edge_step_orders(G, start)]
        assert len(set(expected)) > 1
        assert list(walk_index_sums(calc, start)) == expected

    def test_index_calls_linear_in_n_plus_m(self, monkeypatch):
        """(trials + 3) n + 2m evaluations: chi, the random orders, both ends, 2 per edge.

        An evaluation is an ``index`` call or a per-mask chi taken outside
        one; ``index`` itself takes the per-mask chi on a memo miss.
        """
        G = erdos_renyi(400, 0.02, seed=8)
        calls, depth = [0, 0], [0]
        index, chi = IndexCalculator.index, IndexCalculator.chi_of_exit_mask

        def counted_index(self, order, x):
            calls[0] += 1
            depth[0] += 1
            try:
                return index(self, order, x)
            finally:
                depth[0] -= 1

        def counted_chi(self, x, mask):
            calls[1] += not depth[0]
            return chi(self, x, mask)

        monkeypatch.setattr(IndexCalculator, "index", counted_index)
        monkeypatch.setattr(IndexCalculator, "chi_of_exit_mask", counted_chi)
        trials = 5
        assert stability(IndexCalculator(G), trials=trials, seed=3)
        assert calls[1] == 2 * G.edge_count
        assert 0 < sum(calls) <= (trials + 3) * G.n + 2 * G.edge_count

    @pytest.mark.parametrize("fault", [
        lambda swaps: iter(()),
        lambda swaps: iter(list(swaps)[:-1]),
    ], ids=["no_swaps", "last_swap_skipped"])
    def test_walk_not_ending_at_the_reversal_fails(self, monkeypatch, fault):
        """A replay that leaves out edge swaps ends at the wrong exit masks."""
        start = random_order(6, 4)
        real = morse._edge_swaps
        monkeypatch.setattr(morse, "_edge_swaps", lambda adj, s: fault(real(adj, s)))
        with pytest.raises(ValueError, match="do not end at the reversal"):
            list(walk_index_sums(IndexCalculator(octahedron()), start))
        assert not stability(IndexCalculator(octahedron()), trials=0, seed=1)

    def test_orders_must_be_permutations(self):
        calc = IndexCalculator(octahedron())
        with pytest.raises(ValueError, match="permutation"):
            verify_index_stability(calc, [(0, 0, 1, 2, 3, 4)], tuple(range(6)))
        with pytest.raises(ValueError, match="permutation"):
            verify_index_stability(calc, [], (0, 1, 2))

    def test_index_reading_a_non_neighbour_fails_without_random_orders(self, monkeypatch):
        """Vertex 0's index also reads its antipode 1: only a from-scratch end sum sees it."""
        original = IndexCalculator.index
        monkeypatch.setattr(IndexCalculator, "index", lambda self, order, x:
                            original(self, order, x) + (x == 0 and order[1] < order[0]))
        G = octahedron()
        assert not G.has_edge(0, 1)
        for seed in range(6):
            assert not stability(IndexCalculator(G), trials=0, seed=seed)
