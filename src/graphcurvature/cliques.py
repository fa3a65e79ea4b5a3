"""Complete-subgraph counting and the Euler characteristic.

The f-vector of a graph is the tuple (v_0, v_1, ...) where v_k is the
number of complete subgraphs on k+1 vertices; its alternating sum is the
Euler characteristic.  Enumeration is by ordered extension: a clique
{a < b < ... < z} is extended only by common neighbors greater than z,
so every clique is visited exactly once.  Those common neighbours are one
bitmask, and each of its bits is a clique one vertex larger, so a whole
level is counted by one popcount; the work meter is checked once per
such level, not once per clique.

``count_cliques`` runs that extension once per vertex v, over v's forward
neighbourhood (the neighbours above v) as bitmasks at most deg(v) bits
wide, so it needs O(n + m) memory and never builds the graph's n-bit
``adjacency_masks``.  One work meter spans all of those runs.
"""
from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from math import inf
from typing import Callable, Sequence

from .graphs import Graph, unit_sphere

FVector = tuple[int, ...]


@dataclass(frozen=True)
class IdentityCheck:
    """One row of an identity check: ``lhs == rhs`` at clique index ``k``.

    ``k`` is None for identities with one row per graph (Gauss-Bonnet).
    """

    k: int | None
    lhs: object
    rhs: object
    equal: bool

# Clique visits before a slow-enumeration warning is emitted.
DEFAULT_WORK_BUDGET = 50_000_000

# ``count_cliques`` calls its progress hook about every PROGRESS_INTERVAL
# clique visits; the budget and the hook are checked at the first level
# counted past each multiple of _METER_STRIDE, and at the end of each call.
PROGRESS_INTERVAL = 100_000
_METER_STRIDE = 4096


class _WorkMeter:
    """Clique visits over one or more ``count_cliques_in_mask`` calls.

    ``visits`` is the running total of the calls that have returned; the
    budget warning and ``progress`` see that total plus the cliques the
    current call has counted so far.
    """

    __slots__ = ("warned", "progress", "next_progress", "visits")

    def __init__(self, progress, visits: int = 0):
        self.warned = False
        self.progress = progress
        self.next_progress = PROGRESS_INTERVAL
        self.visits = visits

    def event(self, visits: int, depth: int):
        """``depth`` is the number of ``grow`` frames between this call and
        ``count_cliques_in_mask``, so the warning names the line that called
        ``count_cliques`` or ``vertex_clique_degrees``."""
        if not self.warned and visits > DEFAULT_WORK_BUDGET:
            self.warned = True
            warnings.warn(
                f"clique enumeration passed {visits} visits "
                f"(budget {DEFAULT_WORK_BUDGET}); this graph may be too dense",
                RuntimeWarning,
                stacklevel=4 + depth,
            )
        if self.progress is not None and visits >= self.next_progress:
            self.next_progress += PROGRESS_INTERVAL
            self.progress(visits)


def count_cliques_in_mask(masks: Sequence[int], candidates: int,
                          meter: _WorkMeter | None = None) -> FVector:
    """f-vector of the subgraph induced on the ``candidates`` bitmask.

    ``masks[v]`` is the neighbor bitmask of vertex v; candidate bits must
    index into ``masks``.  The visits are added to ``meter``'s running total.

    Each ``grow`` frame counts a whole level at once: every bit of ``cand``
    extends the current clique by one vertex, so ``counts[depth]`` gains
    ``cand.bit_count()``.  A one-bit extension set is counted in place
    rather than by a frame of its own.  The meter is checked once per frame,
    when the frames' candidates pass the next multiple of ``_METER_STRIDE``,
    and once more at the end of the call.
    """
    if not candidates:
        return ()
    counts = [0] * candidates.bit_count()
    done = meter.visits if meter is not None else 0
    framed = 0  # visits counted by frames: all but the one-bit extensions, so at least half
    check = _METER_STRIDE if meter is not None else inf

    def grow(cand: int, depth: int):
        nonlocal framed, check
        c = cand.bit_count()
        counts[depth] += c
        framed += c
        if framed >= check:
            check = framed - framed % _METER_STRIDE + _METER_STRIDE
            meter.event(done + sum(counts), depth + 1)
        m = cand
        while m:
            b = m & -m
            m ^= b
            sub = m & masks[b.bit_length() - 1]
            if sub:
                if sub & (sub - 1):
                    grow(sub, depth + 1)
                else:
                    counts[depth + 1] += 1

    grow(candidates, 0)
    while not counts[-1]:
        counts.pop()
    if meter is not None:
        meter.visits = done + sum(counts)
        meter.event(meter.visits, 0)  # final check so short runs still hit the budget
    return tuple(counts)


def count_cliques(G: Graph, progress: Callable[[int], None] | None = None) -> FVector:
    """Exact counts of all complete subgraphs of G, as the f-vector.

    Each clique is counted once, from its lowest vertex v: v plus a clique
    of F(v), v's neighbours above v.  Bit i of local mask j is set when
    F(v)[i] is a neighbour of F(v)[j] above it, so the masks are at most
    deg(v) bits wide and memory stays O(n + m).

    Above ``DEFAULT_WORK_BUDGET`` clique visits a RuntimeWarning is emitted
    once; ``progress`` is called with the running visit count about every
    ``PROGRESS_INTERVAL`` visits and may raise to abort.  Both see the total
    over all vertices so far, each vertex counting as one visit.
    """
    if G.n == 0:
        return ()
    forward = [nbrs[bisect_right(nbrs, v):] for v, nbrs in enumerate(G.adj)]
    counts = [G.n]
    meter = _WorkMeter(progress, G.n)
    for F in forward:
        if not F:
            continue
        bit = {u: 1 << i for i, u in enumerate(F)}
        masks = []
        for u in F:
            m = 0
            for w in forward[u]:
                b = bit.get(w)
                if b:
                    m |= b
            masks.append(m)
        fvec = count_cliques_in_mask(masks, (1 << len(F)) - 1, meter)
        counts += [0] * (len(fvec) + 1 - len(counts))
        for k, c in enumerate(fvec, 1):
            counts[k] += c
    return tuple(counts)


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
    ``PROGRESS_INTERVAL`` clique visits; it may raise to abort.
    """
    return euler_characteristic(count_cliques(G, progress=progress))


def vertex_clique_degrees(G: Graph, x: int) -> FVector:
    """f-vector of the unit sphere at x: V_k(x) = #K_{k+1} in S(x).

    The sphere is counted on its own adjacency masks, an enumeration apart
    from ``count_cliques``'s, so the transfer and Gauss-Bonnet checks compare
    two routes.
    """
    sphere, _ = unit_sphere(G, x)
    return count_cliques_in_mask(sphere.adjacency_masks, (1 << sphere.n) - 1, _WorkMeter(None))
