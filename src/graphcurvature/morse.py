"""Poincare-Hopf indices of injective functions on a graph.

An injective function is represented by its rank permutation: ``order[v]``
is the rank of vertex v, with lower rank meaning smaller function value.
The index of f at x is ``1 - chi(S_f^-(x))`` where ``S_f^-(x)`` is the
subgraph induced on the neighbors of x with smaller function value, and
the indices always sum to the Euler characteristic of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .cliques import (
    cliques_by_size_in_mask,
    count_cliques,
    count_cliques_in_mask,
    euler_characteristic,
)
from .graphs import Graph, induced_subgraph, sphere_masks

VertexOrder = tuple[int, ...]


def validate_order(order: Sequence[int], n: int) -> VertexOrder:
    """Check that ``order`` is a permutation of 0..n-1 and return it as a tuple."""
    ranks = tuple(order)
    if len(ranks) != n or sorted(ranks) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}, got {ranks!r}")
    return ranks


def random_order(n: int, rng: np.random.Generator | int | None = None) -> VertexOrder:
    """Uniform random rank permutation on n vertices."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return tuple(int(r) for r in rng.permutation(n))


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


def exit_set(G: Graph, order: Sequence[int], x: int) -> tuple[int, ...]:
    """Neighbors of x with smaller function value (S_f^-(x))."""
    rx = order[x]
    return tuple(y for y in G.adj[x] if order[y] < rx)


def entrance_set(G: Graph, order: Sequence[int], x: int) -> tuple[int, ...]:
    """Neighbors of x with larger function value (S_f^+(x))."""
    rx = order[x]
    return tuple(y for y in G.adj[x] if order[y] > rx)


def index(G: Graph, order: Sequence[int], x: int) -> int:
    """Poincare-Hopf index i_f(x) = 1 - chi(S_f^-(x))."""
    sub = induced_subgraph(G, exit_set(G, order, x))
    return 1 - euler_characteristic(count_cliques(sub))


def symmetric_index(G: Graph, order: Sequence[int], x: int) -> Fraction:
    """Average of the indices of f and -f at x, a half-integer in general."""
    return Fraction(index(G, order, x) + index(G, reverse_order(order), x), 2)


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

    def to_json_dict(self) -> dict:
        return {
            "order": list(self.order),
            "indices": list(self.indices),
            "reverse_indices": list(self.reverse_indices),
            "symmetric": [str(j) for j in self.symmetric],
            "index_sum": self.index_sum,
            "symmetric_sum": str(self.symmetric_sum),
        }


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
    the Euler characteristic of each exit subset is memoized by its bitmask.
    ``index`` matches the module-level function exactly; it is just cheaper
    when evaluating thousands of orders on the same graph.
    """

    def __init__(self, G: Graph):
        self.G = G
        self._local_masks = [sphere_masks(G, x) for x in range(G.n)]
        self._chi_cache: list[dict[int, int]] = [{} for _ in range(G.n)]
        self._sphere_cliques: list[tuple[tuple[int, ...], ...] | None] = [None] * G.n

    def exit_mask(self, order: Sequence[int], x: int) -> int:
        """Bitmask of sphere positions whose vertex has smaller rank than x."""
        rx = order[x]
        m = 0
        for i, u in enumerate(self.G.adj[x]):
            if order[u] < rx:
                m |= 1 << i
        return m

    def chi_of_exit_mask(self, x: int, mask: int) -> int:
        cache = self._chi_cache[x]
        chi = cache.get(mask)
        if chi is None:
            chi = euler_characteristic(count_cliques_in_mask(self._local_masks[x], mask))
            cache[mask] = chi
        return chi

    def index(self, order: Sequence[int], x: int) -> int:
        return 1 - self.chi_of_exit_mask(x, self.exit_mask(order, x))

    def index_sum(self, order: Sequence[int]) -> int:
        return sum(self.index(order, x) for x in range(self.G.n))

    def sphere_cliques(self, x: int) -> tuple[tuple[int, ...], ...]:
        """Cliques of S(x) grouped by dimension, as sphere-position bitmasks."""
        groups = self._sphere_cliques[x]
        if groups is None:
            full = (1 << len(self.G.adj[x])) - 1
            groups = cliques_by_size_in_mask(self._local_masks[x], full)
            self._sphere_cliques[x] = groups
        return groups

    def clique_split(
        self, order: Sequence[int], x: int
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Counts (V^-, V^+, W) of sphere cliques below, above, and mixed.

        Entry k of each tuple counts (k+1)-vertex cliques of S(x) whose
        vertices lie entirely below x in the order, entirely above, or on
        both sides.
        """
        below = self.exit_mask(order, x)
        groups = self.sphere_cliques(x)
        minus = [0] * len(groups)
        plus = [0] * len(groups)
        mixed = [0] * len(groups)
        for k, masks in enumerate(groups):
            for cm in masks:
                b = cm & below
                if b == cm:
                    minus[k] += 1
                elif b == 0:
                    plus[k] += 1
                else:
                    mixed[k] += 1
        return tuple(minus), tuple(plus), tuple(mixed)


@dataclass(frozen=True)
class IntermediateCheck:
    """One row of the mixed-clique identity: sum_x W_k(x) = k * v_{k+1}."""

    k: int
    lhs: int
    rhs: int
    equal: bool


def verify_intermediate_equations(G: Graph, order: Sequence[int]) -> tuple[IntermediateCheck, ...]:
    """Check sum_x W_k(x) = k * v_{k+1} for one fixed order, all k.

    W_k(x) counts (k+1)-cliques in S(x) with vertices on both sides of x.
    W_0 is identically zero, matching the k=0 right-hand side.
    """
    ranks = validate_order(order, G.n)
    calc = IndexCalculator(G)
    fvec = count_cliques(G)
    kmax = max(len(fvec) - 1, 1)
    lhs = [0] * kmax
    for x in range(G.n):
        _, _, mixed = calc.clique_split(ranks, x)
        for k, w in enumerate(mixed):
            lhs[k] += w
    checks = []
    for k in range(kmax):
        rhs = k * (fvec[k + 1] if k + 1 < len(fvec) else 0)
        checks.append(IntermediateCheck(k=k, lhs=lhs[k], rhs=rhs, equal=lhs[k] == rhs))
    return tuple(checks)


def transposition_path(start: Sequence[int]) -> Iterator[VertexOrder]:
    """Orders along an adjacent-rank transposition walk from f to -f.

    Yields the start order, then each order after one swap of consecutive
    ranks, ending at the reversal. Bubble passes realize the reversal in
    n(n-1)/2 swaps.
    """
    n = len(start)
    by_rank = [0] * n
    for v, r in enumerate(start):
        by_rank[r] = v
    ranks = list(start)
    yield tuple(ranks)
    for i in range(n):
        for j in range(n - 1 - i):
            a, b = by_rank[j], by_rank[j + 1]
            by_rank[j], by_rank[j + 1] = b, a
            ranks[a], ranks[b] = ranks[b], ranks[a]
            yield tuple(ranks)


def verify_index_stability(G: Graph, trials: int = 20, seed: int = 0) -> bool:
    """Index sums agree across random orders and along a transposition walk.

    Checks that sum_x i_f(x) is the same integer for ``trials`` random
    orders and for every step of an adjacent-transposition path from one
    order to its reversal.
    """
    calc = IndexCalculator(G)
    rng = np.random.default_rng(seed)
    chi = calc.index_sum(tuple(range(G.n)))
    for _ in range(trials):
        if calc.index_sum(random_order(G.n, rng)) != chi:
            return False
    for order in transposition_path(random_order(G.n, rng)):
        if calc.index_sum(order) != chi:
            return False
    return True
