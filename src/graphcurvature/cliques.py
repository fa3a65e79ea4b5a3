"""Complete-subgraph counting and the Euler characteristic.

The f-vector of a graph is the tuple (v_0, v_1, ...) where v_k is the
number of complete subgraphs on k+1 vertices; its alternating sum is the
Euler characteristic.  Enumeration is by ordered extension: a clique
{a < b < ... < z} is extended only by common neighbors greater than z,
so every clique is visited exactly once.
"""
from __future__ import annotations

import warnings
from typing import Callable, Sequence

from .graphs import Graph, unit_sphere

FVector = tuple[int, ...]

# Clique visits before a slow-enumeration warning is emitted.
DEFAULT_WORK_BUDGET = 50_000_000

# Budget/progress checks happen every _METER_STRIDE clique visits.
_METER_STRIDE = 4096


class _WorkMeter:
    __slots__ = ("visits", "budget", "warned", "progress", "next_progress", "interval")

    def __init__(self, budget, progress, interval):
        self.visits = 0
        self.budget = budget
        self.warned = False
        self.progress = progress
        self.interval = interval
        self.next_progress = interval

    def event(self, visits: int):
        self.visits = visits
        if self.budget is not None and not self.warned and visits > self.budget:
            self.warned = True
            warnings.warn(
                f"clique enumeration passed {visits} visits "
                f"(budget {self.budget}); this graph may be too dense",
                RuntimeWarning,
                stacklevel=4,
            )
        if self.progress is not None and visits >= self.next_progress:
            self.next_progress += self.interval
            self.progress(visits)


def count_cliques_in_mask(masks: Sequence[int], candidates: int,
                          max_size: int | None = None,
                          meter: _WorkMeter | None = None) -> FVector:
    """f-vector of the subgraph induced on the ``candidates`` bitmask.

    ``masks[v]`` is the neighbor bitmask of vertex v; candidate bits must
    index into ``masks``.  ``max_size`` caps the clique size visited.
    """
    counts: list[int] = []
    limit = max_size if max_size is not None else len(masks)
    visits = 0

    def grow(cand: int, size: int):
        nonlocal visits
        m = cand
        while m:
            b = m & -m
            m ^= b
            if size > len(counts):
                counts.append(0)
            counts[size - 1] += 1
            if meter is not None:
                visits += 1
                if not (visits & (_METER_STRIDE - 1)):
                    meter.event(visits)
            if size < limit:
                sub = m & masks[b.bit_length() - 1]
                if sub:
                    grow(sub, size + 1)

    if candidates and limit >= 1:
        grow(candidates, 1)
    if meter is not None and visits:
        meter.event(visits)  # final check so short runs still hit the budget
    return tuple(counts)


def count_cliques(G: Graph, max_k: int | None = None,
                  work_budget: int | None = DEFAULT_WORK_BUDGET,
                  progress: Callable[[int], None] | None = None,
                  progress_interval: int = 1_000_000) -> FVector:
    """Exact counts of all complete subgraphs of G, as the f-vector.

    ``max_k`` caps the counted dimension (v_0..v_max_k); correctness paths
    use the uncapped default.  Above ``work_budget`` clique visits a
    RuntimeWarning is emitted once; ``progress`` is called with the visit
    count every ``progress_interval`` visits and may raise to abort.
    """
    if G.n == 0:
        return ()
    meter = None
    if work_budget is not None or progress is not None:
        meter = _WorkMeter(work_budget, progress, progress_interval)
    max_size = None if max_k is None else max_k + 1
    return count_cliques_in_mask(G.adjacency_masks, (1 << G.n) - 1, max_size, meter)


def cliques_of_size(G: Graph, size: int) -> tuple[int, ...]:
    """All cliques on exactly ``size`` vertices, each as a vertex bitmask."""
    if size < 1:
        raise ValueError(f"clique size must be >= 1, got {size}")
    groups = cliques_by_size_in_mask(G.adjacency_masks, (1 << G.n) - 1, size)
    return groups[size - 1] if len(groups) >= size else ()


def cliques_by_size_in_mask(masks: Sequence[int], candidates: int,
                            max_size: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All cliques within the ``candidates`` bitmask, grouped by dimension.

    Entry k holds the vertex bitmasks of the (k+1)-vertex cliques, in
    enumeration order.  ``max_size`` caps the clique size listed.
    """
    groups: list[list[int]] = []
    limit = max_size if max_size is not None else len(masks)

    def grow(cand: int, cur: int, size: int):
        m = cand
        while m:
            b = m & -m
            m ^= b
            if size > len(groups):
                groups.append([])
            groups[size - 1].append(cur | b)
            if size < limit:
                sub = m & masks[b.bit_length() - 1]
                if sub:
                    grow(sub, cur | b, size + 1)

    if candidates and limit >= 1:
        grow(candidates, 0, 1)
    return tuple(tuple(g) for g in groups)


def euler_characteristic(fvector: Sequence[int]) -> int:
    """Alternating sum v_0 - v_1 + v_2 - ...; 0 for the empty f-vector."""
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(fvector))


def graph_euler_characteristic(G: Graph,
                               progress: Callable[[int], None] | None = None) -> int:
    """Euler characteristic from the f-vector of G.

    ``progress`` is passed to ``count_cliques``, which calls it about every
    100_000 clique visits; it may raise to abort.
    """
    return euler_characteristic(count_cliques(G, progress=progress, progress_interval=100_000))


def vertex_clique_degrees(G: Graph, x: int) -> FVector:
    """f-vector of the unit sphere at x: V_k(x) = #K_{k+1} in S(x)."""
    sphere, _ = unit_sphere(G, x)
    return count_cliques(sphere)
