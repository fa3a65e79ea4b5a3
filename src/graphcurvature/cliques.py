"""Complete-subgraph counting and the Euler characteristic.

The f-vector of a graph is the tuple (v_0, v_1, ...) where v_k is the
number of complete subgraphs on k+1 vertices; its alternating sum is the
Euler characteristic.  Enumeration is by ordered extension: a clique
{a < b < ... < z} is extended only by common neighbors greater than z,
so every clique is visited exactly once.  Those common neighbours are one
bitmask, and each of its bits is a clique one vertex larger, so a whole
level is counted by one popcount; the work meter is checked once per
such level, not once per clique.

One walk, ``_forward_walk``, serves the whole graph: per vertex v it gives
v's forward neighbourhood F(v) (the neighbours above v) and F(v)'s
adjacency as bitmasks at most deg(v) bits wide, so it needs O(n + m)
memory and never builds the graph's n-bit ``adjacency_masks``.
``count_cliques`` counts on it, under one work meter for all vertices;
``cliques_of_size`` lists one size on it as ascending vertex-id tuples.

``chi_in_mask`` gives the Euler characteristic of a masked subgraph
without listing its cliques: a set with a cone point is contractible, so
only sets without one are split into their vertices' links, each link's
chi kept in a memo the caller owns.
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

# Vertex ids, rows times size, ``cliques_of_size`` lists before it gives up:
# 250,000 rows of 13 vertices take about 40 MB as tuples and 26 MB as
# percolation's event array, and 1,072,445 triangles peak near 83 MiB.
MAX_CLIQUE_ENTRIES = 3_250_000


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
    ``cand.bit_count()``.  An extension set of one, two or three bits is
    counted in place, from its members' masks, rather than by a frame of
    its own: its vertices, the edges among them and, when all three edges
    are there, its triangle.  The meter is checked once per frame, when the
    candidates of the frames and of the two- and three-bit sets pass the
    next multiple of ``_METER_STRIDE``, and once more at the end of the call.
    """
    if not candidates:
        return ()
    counts = [0] * candidates.bit_count()
    done = meter.visits if meter is not None else 0
    # Visits at the level of a frame or of a two- or three-bit extension set:
    # all but the one-bit extensions (at most one per frame bit) and the edges
    # and triangles inside a set (at most 4 per 3 of its bits), so at least
    # 3/7 of all visits.
    framed = 0
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
                k = sub.bit_count()
                if k == 1:
                    counts[depth + 1] += 1
                elif k > 3:
                    grow(sub, depth + 1)
                else:
                    counts[depth + 1] += k
                    framed += k
                    lo = sub & -sub
                    hi = sub ^ lo
                    e = (masks[lo.bit_length() - 1] & hi).bit_count()  # edges at lo
                    if k == 3:
                        mid = hi & -hi
                        if masks[mid.bit_length() - 1] & (hi ^ mid):
                            e += 1
                            if e == 3:
                                counts[depth + 3] += 1
                    counts[depth + 2] += e

    grow(candidates, 0)
    while not counts[-1]:
        counts.pop()
    if meter is not None:
        meter.visits = done + sum(counts)
        meter.event(meter.visits, 0)  # final check so short runs still hit the budget
    return tuple(counts)


def chi_in_mask(masks: Sequence[int], candidates: int, memo: dict[int, int]) -> int:
    """Euler characteristic of the subgraph induced on the ``candidates`` bitmask.

    ``masks`` must be symmetric: bit j of ``masks[i]`` is set exactly when
    bit i of ``masks[j]`` is.  The cliques whose lowest vertex is v are v
    alone and v plus a clique of B_v, v's neighbours above v in A, so
    chi(A) = sum over v in A of (1 - chi(B_v)).  A set with a cone point, a
    vertex adjacent to every other vertex of the set, is contractible, so
    its chi is 1 and nothing under it is enumerated.  A itself is walked
    lowest first, so the work on it stays linear in |A|; only the B_v
    recurse, so the depth is at most the clique number.  A one-bit B_v
    adds 0 and is not descended into.

    ``memo`` maps a candidates mask of ``masks`` to its chi: each B_v is
    looked up there before it is recursed into, and its chi is stored
    there after, so a link shared by several sets is evaluated once.
    ``candidates`` itself is neither read nor stored.
    """
    m = candidates
    while m:
        b = m & -m
        m ^= b
        if candidates & ~masks[b.bit_length() - 1] == b:
            return 1
    chi = 0
    while candidates:
        b = candidates & -candidates
        candidates ^= b
        link = candidates & masks[b.bit_length() - 1]
        if not link:
            chi += 1
        elif link & (link - 1):
            link_chi = memo.get(link)
            if link_chi is None:
                link_chi = chi_in_mask(masks, link, memo)
                memo[link] = link_chi
            chi += 1 - link_chi
    return chi


def _forward_walk(G: Graph, least: int):
    """``(v, F, masks)`` for each vertex v with at least ``least`` neighbours above it.

    F ascends over those neighbours, and bit i of ``masks[j]`` is set when
    F[i] is a neighbour of F[j] above it.
    """
    forward = [nbrs[bisect_right(nbrs, v):] for v, nbrs in enumerate(G.adj)]
    for v, F in enumerate(forward):
        if len(F) < least:
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
        yield v, F, masks


def count_cliques(G: Graph, progress: Callable[[int], None] | None = None) -> FVector:
    """Exact counts of all complete subgraphs of G, as the f-vector.

    Each clique is counted once, from its lowest vertex v: v plus a clique
    of F(v), v's neighbours above v, counted on ``_forward_walk``'s masks.

    Above ``DEFAULT_WORK_BUDGET`` clique visits a RuntimeWarning is emitted
    once; ``progress`` is called with the running visit count about every
    ``PROGRESS_INTERVAL`` visits and may raise to abort.  Both see the total
    over all vertices so far, each vertex counting as one visit.
    """
    if G.n == 0:
        return ()
    counts = [G.n]
    meter = _WorkMeter(progress, G.n)
    for _, F, masks in _forward_walk(G, 1):
        fvec = count_cliques_in_mask(masks, (1 << len(F)) - 1, meter)
        counts += [0] * (len(fvec) + 1 - len(counts))
        for k, c in enumerate(fvec, 1):
            counts[k] += c
    return tuple(counts)


def cliques_of_size(G: Graph, size: int) -> tuple[tuple[int, ...], ...]:
    """All cliques on exactly ``size`` vertices, each as an ascending vertex-id tuple.

    Rows come in lexicographic order, each listed from its lowest vertex v
    over ``_forward_walk``'s masks, the walk ``count_cliques`` counts on, so
    memory is O(n + m) besides the rows. The search stops at depth
    ``size - 1`` below v and skips any branch with too few candidates left
    to reach it. It raises ValueError once the rows would hold more than
    MAX_CLIQUE_ENTRIES vertex ids.
    """
    if size < 1:
        raise ValueError(f"clique size must be >= 1, got {size}")
    max_rows = MAX_CLIQUE_ENTRIES // size
    rows = []

    # F and masks are those of the vertex the loop below is at.
    def grow(row: tuple[int, ...], cand: int, depth: int):
        if not depth:
            if len(rows) == max_rows:
                raise ValueError(f"more than {max_rows} cliques on {size} vertices to list "
                                 f"(MAX_CLIQUE_ENTRIES = {MAX_CLIQUE_ENTRIES} vertex ids)")
            rows.append(row)
            return
        while cand:
            b = cand & -cand
            cand ^= b
            i = b.bit_length() - 1
            sub = cand & masks[i]
            if sub.bit_count() >= depth - 1:
                grow(row + (F[i],), sub, depth - 1)

    for v, F, masks in _forward_walk(G, size - 1):
        grow((v,), (1 << len(F)) - 1, size - 1)
    return tuple(rows)


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
