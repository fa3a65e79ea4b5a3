"""Poincare-Hopf indices of injective functions on a graph.

An injective function is represented by its rank permutation: ``order[v]``
is the rank of vertex v, with lower rank meaning smaller function value.
The index of f at x is ``1 - chi(S_f^-(x))`` where ``S_f^-(x)`` is the
subgraph induced on the neighbors of x with smaller function value, and
the indices always sum to the Euler characteristic of the graph.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .cliques import FVector, IdentityCheck, chi_in_mask, count_cliques_in_mask
from .graphs import Graph, sphere_masks

if TYPE_CHECKING:
    import numpy as np

VertexOrder = tuple[int, ...]


def validate_order(order: Sequence[int], n: int) -> VertexOrder:
    """Check that ``order`` is a permutation of 0..n-1 and return it as a tuple."""
    ranks = tuple(order)
    if len(ranks) != n or sorted(ranks) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}, got {ranks!r}")
    return ranks


def random_order(n: int, rng: np.random.Generator | int | None = None) -> VertexOrder:
    """Uniform random rank permutation on n vertices."""
    import numpy as np
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return tuple(rng.permutation(n).tolist())


def reverse_order(order: Sequence[int]) -> VertexOrder:
    """Rank permutation of -f given the one of f."""
    n = len(order)
    return tuple(n - 1 - r for r in order)


def order_from_values(values: Sequence) -> VertexOrder:
    """Rank permutation of an explicit injective value assignment.

    Values may be ints, Fractions, or floats; ties are rejected because the
    index is only defined for injective functions.
    """
    n = len(values)
    by_value = sorted(range(n), key=lambda v: values[v])
    for a, b in zip(by_value, by_value[1:]):
        if values[a] == values[b]:
            raise ValueError(f"function values must be injective: vertices {a} and {b} both map to {values[a]}")
    order = [0] * n
    for rank, v in enumerate(by_value):
        order[v] = rank
    return tuple(order)


def all_orders(n: int) -> Iterator[VertexOrder]:
    """All n! rank permutations, for exhaustive checks on small graphs."""
    import itertools

    return itertools.permutations(range(n))


def poincare_hopf_chi(G: Graph, order: Sequence[int],
                      progress: Callable[[int], None] | None = None) -> int:
    """Euler characteristic computed as the sum of indices of one function.

    ``progress`` is called with each vertex before its index is evaluated,
    and may raise to abort.
    """
    ranks = validate_order(order, G.n)
    calc = IndexCalculator(G)
    total = 0
    for x in range(G.n):
        if progress is not None:
            progress(x)
        total += calc.index(ranks, x)
    return total


@dataclass(frozen=True)
class IndexReport:
    """Per-vertex indices of a function and of its negation."""

    order: VertexOrder
    indices: tuple[int, ...]
    reverse_indices: tuple[int, ...]
    symmetric: tuple[Fraction, ...]
    index_sum: int
    symmetric_sum: Fraction


def index_report(G: Graph, order: Sequence[int]) -> IndexReport:
    """Indices of f and -f at every vertex, with their sums."""
    ranks = validate_order(order, G.n)
    calc = IndexCalculator(G)
    fwd = tuple(calc.index(ranks, x) for x in range(G.n))
    rev_ranks = reverse_order(ranks)
    rev = tuple(calc.index(rev_ranks, x) for x in range(G.n))
    sym = tuple(Fraction(a + b, 2) for a, b in zip(fwd, rev))
    return IndexReport(
        order=ranks,
        indices=fwd,
        reverse_indices=rev,
        symmetric=sym,
        index_sum=sum(fwd),
        symmetric_sum=sum(sym, Fraction(0)),
    )


class IndexCalculator:
    """Index engine that caches per-sphere structure across many orders.

    For each vertex the unit sphere is mapped onto bit positions once, and
    the Euler characteristic of each exit subset is memoized by its bitmask,
    so ``index``, i_f(x) = 1 - chi(S_f^-(x)), is cheap when evaluating
    thousands of orders on the same graph. A memo miss takes chi from
    ``chi_in_mask``, which lists no cliques: an exit set with a cone point
    has chi 1, and any other is summed over its vertices' links, whose chis
    it keeps in the same per-vertex memo, as each link is a sphere subset
    too. The f-vectors come from ``count_cliques_in_mask`` on the same
    masks: ``clique_split`` counts the cliques on each side of x, once per
    (x, side mask), and each whole sphere is counted once per calculator
    (``sphere_fvec``).
    """

    def __init__(self, G: Graph):
        self.G = G
        self._local_masks = [sphere_masks(G, x) for x in range(G.n)]
        self._chi_cache: list[dict[int, int]] = [{} for _ in range(G.n)]
        self._sphere_fvecs: list[FVector | None] = [None] * G.n
        # Per vertex, side mask -> its padded clique counts; made by the
        # first ``clique_split``, as only the intermediate checks read it.
        self._side_counts: list[dict[int, tuple[int, ...]]] | None = None

    def exit_mask(self, order: Sequence[int], x: int) -> int:
        """Bitmask of sphere positions whose vertex has smaller rank than x."""
        rx = order[x]
        m = 0
        bit = 1
        for u in self.G.adj[x]:
            if order[u] < rx:
                m |= bit
            bit <<= 1
        return m

    def chi_of_exit_mask(self, x: int, mask: int) -> int:
        cache = self._chi_cache[x]
        chi = cache.get(mask)
        if chi is None:
            chi = chi_in_mask(self._local_masks[x], mask, cache)
            cache[mask] = chi
        return chi

    def index(self, order: Sequence[int], x: int) -> int:
        # exit_mask and the memo lookup inlined: Monte Carlo runs this once
        # per target and trial, and the two method calls cost a fifth of it.
        rx = order[x]
        mask = 0
        bit = 1
        for u in self.G.adj[x]:
            if order[u] < rx:
                mask |= bit
            bit <<= 1
        chi = self._chi_cache[x].get(mask)
        if chi is None:
            chi = self.chi_of_exit_mask(x, mask)
        return 1 - chi

    def index_sum(self, order: Sequence[int]) -> int:
        return sum(self.index(order, x) for x in range(self.G.n))

    def sphere_fvec(self, x: int) -> FVector:
        """f-vector of the whole sphere of x, counted on its first request."""
        fvec = self._sphere_fvecs[x]
        if fvec is None:
            masks = self._local_masks[x]
            fvec = self._sphere_fvecs[x] = count_cliques_in_mask(masks, (1 << len(masks)) - 1)
        return fvec

    def clique_split(
        self, order: Sequence[int], x: int
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Counts (V^-, V^+, W) of sphere cliques below, above, and mixed.

        Entry k of each tuple counts (k+1)-vertex cliques of S(x) whose
        vertices lie entirely below x in the order, entirely above, or on
        both sides. The mixed count is all sphere cliques minus the other two.
        Each side's counts are memoized by its mask.
        """
        if self._side_counts is None:
            self._side_counts = [{} for _ in range(self.G.n)]
        memo = self._side_counts[x]
        masks = self._local_masks[x]
        below = self.exit_mask(order, x)
        total = self.sphere_fvec(x)
        sides = []
        for side in (below, ((1 << len(masks)) - 1) ^ below):
            counts = memo.get(side)
            if counts is None:
                counts = memo[side] = (count_cliques_in_mask(masks, side) + (0,) * len(total))[:len(total)]
            sides.append(counts)
        minus, plus = sides
        return minus, plus, tuple(t - m - p for t, m, p in zip(total, minus, plus))

    def intermediate_checks(self, order: Sequence[int], fvec: FVector) -> tuple[IdentityCheck, ...]:
        """Check sum_x W_k(x) = k * v_{k+1} for one order, all k.

        W_k(x) counts (k+1)-cliques in S(x) with vertices on both sides of x,
        and ``fvec`` is the graph's clique f-vector. W_0 is identically zero,
        matching the k=0 right-hand side.
        """
        ranks = validate_order(order, self.G.n)
        kmax = max(len(fvec) - 1, 1)
        lhs = [0] * kmax
        for x in range(self.G.n):
            for k, w in enumerate(self.clique_split(ranks, x)[2]):
                lhs[k] += w
        rhs = [k * (fvec[k + 1] if k + 1 < len(fvec) else 0) for k in range(kmax)]
        return tuple(IdentityCheck(k, lhs[k], rhs[k], lhs[k] == rhs[k]) for k in range(kmax))


def _edge_swaps(adj: Sequence[Sequence[int]], start: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Swaps of two neighbours on the bubble walk from ``start`` to its reversal, in walk order.

    Pass i carries the vertex of start rank i past every vertex above it in
    start-rank order, so the pairs ``(a, b)``, a below b at the start, come
    in the order of ``(start[a], start[b])``.
    """
    rank = start.__getitem__
    for a in sorted(range(len(adj)), key=rank):
        for b in sorted([b for b in adj[a] if start[b] > start[a]], key=rank):
            yield a, b


def walk_index_sums(calc: IndexCalculator, start: Sequence[int]) -> Iterator[int]:
    """Index sums along the bubble walk from ``start`` to its reversal.

    Yields the sum at ``start``, computed from scratch, then the sum after
    each swap of two neighbours (``_edge_swaps``): 1 + m sums. i(x) reads
    ranks only on the closed neighbourhood of x, so no other swap changes
    an index; at the swap of a below b, b joins a's exit set and a leaves
    b's. The replay flips those two mask bits and takes both indices from
    ``calc.chi_of_exit_mask``. Raises ValueError if the masks do not end at
    those of the reversal of ``start``.
    """
    adj = calc.G.adj
    n = len(adj)
    chi = calc.chi_of_exit_mask
    masks = [calc.exit_mask(start, x) for x in range(n)]
    indices = [calc.index(start, x) for x in range(n)]
    total = sum(indices)
    yield total
    for a, b in _edge_swaps(adj, start):
        masks[a] |= 1 << bisect_left(adj[a], b)
        masks[b] &= ~(1 << bisect_left(adj[b], a))
        ia, ib = 1 - chi(a, masks[a]), 1 - chi(b, masks[b])
        total += ia - indices[a] + ib - indices[b]
        indices[a], indices[b] = ia, ib
        yield total
    end = reverse_order(start)
    if any(masks[x] != calc.exit_mask(end, x) for x in range(n)):
        raise ValueError("the swaps do not end at the reversal of the start order")


def verify_index_stability(calc: IndexCalculator, orders: Sequence[Sequence[int]],
                           start: Sequence[int]) -> bool:
    """Index sums of ``calc.G`` agree across ``orders`` and along a transposition walk.

    Checks that sum_x i_f(x) is the same integer, chi, at the identity
    order, at every order of ``orders``, and after every step of the bubble
    walk from ``start`` to its reversal. Every index is computed from
    scratch in ``orders`` and at both ends of the walk; the walk replays
    only its m swaps of neighbours (``walk_index_sums``), so it costs
    O(n + m) index work. The check shares ``calc``'s chi memo with the
    caller. Raises ValueError if an order is not a permutation of the
    vertices.
    """
    n = calc.G.n
    orders = [validate_order(order, n) for order in orders]
    start = validate_order(start, n)
    chi = calc.index_sum(tuple(range(n)))
    if any(calc.index_sum(order) != chi for order in orders):
        return False
    try:
        if any(total != chi for total in walk_index_sums(calc, start)):
            return False
    except ValueError:
        return False
    return calc.index_sum(reverse_order(start)) == chi
