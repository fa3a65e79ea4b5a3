"""Finite simple graphs: representation, parsing, subgraphs and generators.

Vertices are dense integer ids 0..n-1. Graphs are immutable and always
well formed, so every downstream computation may assume a valid adjacency
structure. ``Graph(n, adj)`` validates the rows it is given.
``Graph.from_edges``, and so every parser and generator, checks each edge
and builds rows that are valid by construction; ``induced_subgraph``, and
so ``unit_sphere``, derives rows from a graph that is already valid.
Neither checks its rows again.
"""
from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

VertexSet = tuple[int, ...]

# A declared count above this cap fails before anything is allocated. Peak
# bytes per vertex (tracemalloc at n = 1,000,000): 64 for an edgeless header,
# 225 to 252 for the path, cycle, star and tree_random generators; at the cap
# that is 0.64 GB and up to 2.5 GB.
MAX_VERTICES = 10_000_000

# erdos_renyi draws one uniform per vertex pair, about 7 ns a pair, so a
# graph at this cap takes about 7 s; a larger one fails before any draw.
MAX_PAIRS = 1_000_000_000


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit MAX_VERTICES = {MAX_VERTICES}")


class EdgeListParseError(ValueError):
    """Raised for malformed edge-list text, with the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``n`` vertices, sorted adjacency tuples.

    Invariants: no self-loops, symmetric adjacency, all neighbor ids in
    ``[0, n)``, each adjacency tuple strictly increasing.  ``Graph(n, adj)``
    checks them all; symmetry is checked by transposition: the rows
    rebuilt from every entry ``u in adj[v]`` must equal ``adj``.  Rows
    given as lists are stored as tuples once they pass.  ``from_edges``
    and ``induced_subgraph`` build rows that hold the invariants by
    construction and skip these checks.
    ``neighbor_sets`` is built only when first needed, by ``has_edge`` or
    the stability walk.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        # rows is the transpose: v joins rows[u] for each u in adj[v], in
        # ascending v, so the adjacency is symmetric iff rows equals adj.
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for v, nbrs in enumerate(self.adj):
            prev = -1
            for u in nbrs:
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
                if u <= prev:
                    raise ValueError(f"adjacency of vertex {v} not strictly sorted")
                prev = u
                rows[u].append(v)
        if list(map(tuple, rows)) == list(self.adj):
            # A tuple never equals a list, so every row is already a tuple.
            if not isinstance(self.adj, tuple):
                object.__setattr__(self, "adj", tuple(self.adj))
            return
        # Not equal as tuples: find the first one-sided edge in row order
        # (rows given as lists may still be symmetric).
        for v, nbrs in enumerate(self.adj):
            for u in nbrs:
                if v not in self.neighbor_sets[u]:
                    raise ValueError(f"asymmetric edge {v}-{u}")
        # Symmetric rows given as lists: store tuples, so the graph stays
        # immutable, hashable and equal to the same graph built from edges.
        object.__setattr__(self, "adj", tuple(map(tuple, self.adj)))

    @classmethod
    def _valid(cls, n: int, adj: tuple[tuple[int, ...], ...]) -> "Graph":
        """A graph on rows that are valid by construction, stored unchecked.

        The caller guarantees every invariant ``__post_init__`` checks, with
        ``adj`` and each of its rows a tuple.
        """
        G = object.__new__(cls)
        object.__setattr__(G, "n", n)
        object.__setattr__(G, "adj", adj)
        return G

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from undirected edges; duplicates are merged.

        Each edge is checked here, so the rows need no further validation.
        """
        _check_vertex_count(n)
        # The collector tracks every row, so at a large n it would run again
        # and again over rows that hold no cycle; it is paused while they are built.
        collecting = gc.isenabled()
        gc.disable()
        try:
            rows: list = [[] for _ in range(n)]
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                rows[u].append(v)
                rows[v].append(u)
            # With n < 0 every edge is out of range, so a given edge is named
            # before the count.
            if n < 0:
                raise ValueError(f"vertex count must be >= 0, got {n}")
            # Every edge is in both rows; sorting and merging repeats makes
            # each row strictly increasing. Rows are replaced one at a time,
            # so the lists are freed as the tuples are built.
            for v, row in enumerate(rows):
                if len(row) > 1:
                    unique = set(row)
                    if len(unique) < len(row):
                        row = list(unique)
                    row.sort()
                rows[v] = tuple(row)
        finally:
            if collecting:
                gc.enable()
        return cls._valid(n, tuple(rows))

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nbrs) for nbrs in self.adj)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor sets as bitmasks (bit u set iff u adjacent)."""
        masks = []
        for nbrs in self.adj:
            m = 0
            for u in nbrs:
                m |= 1 << u
            masks.append(m)
        return tuple(masks)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted (u, v) pairs with u < v, lexicographic."""
        return tuple((v, u) for v in range(self.n) for u in self.adj[v] if u > v)

    def degree(self, x: int) -> int:
        return len(self.adj[self._check_vertex(x)])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets[self._check_vertex(u)]

    def _check_vertex(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise ValueError(f"vertex {x} out of range for n={self.n}")
        return x

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


def induced_subgraph(G: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabeled 0..|S|-1 in ascending id order."""
    members = sorted(set(vertices))
    if members and not 0 <= members[0] <= members[-1] < G.n:
        for v in members:
            G._check_vertex(v)
    local = {v: i for i, v in enumerate(members)}
    # G is valid, so each row is symmetric, loop-free and in range; G.adj[v]
    # ascends and local ids keep the order, so each row is strictly sorted.
    adj = tuple([tuple([local[u] for u in G.adj[v] if u in local]) for v in members])
    return Graph._valid(len(members), adj)


def unit_sphere(G: Graph, x: int) -> tuple[Graph, VertexSet]:
    """Subgraph induced on the neighbors of ``x``, plus local-id -> original-id map."""
    G._check_vertex(x)
    members = G.adj[x]
    return induced_subgraph(G, members), members


def sphere_masks(G: Graph, x: int) -> tuple[int, ...]:
    """Adjacency of S(x) as bitmasks over the neighbor positions of x.

    Position i is the i-th neighbor of x in ascending id order, which is
    local id i of ``unit_sphere(G, x)``.
    """
    nbrs = G.adj[G._check_vertex(x)]
    pos = {u: i for i, u in enumerate(nbrs)}
    masks = []
    for u in nbrs:
        m = 0
        for w in G.adj[u]:
            j = pos.get(w)
            if j is not None:
                m |= 1 << j
        masks.append(m)
    return tuple(masks)


# ---------------------------------------------------------------------------
# Text formats.  Edge list: lines "u v", optional "n <count>" header, '#'
# comments and blank lines allowed.  JSON: {"n": int, "edges": [[u, v], ...]}.
# Both emitters sort edges so emit(parse(emit(G))) round-trips bit-exactly.
# ---------------------------------------------------------------------------

def from_edge_list(text: str) -> Graph:
    """Parse edge-list text; vertex count is 1 + max id unless a header sets it."""
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if len(tokens) != 2:
                raise EdgeListParseError(line_no, "header must be 'n <count>'")
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise EdgeListParseError(line_no, f"non-integer count {tokens[1]!r}") from None
            if declared_n < 0:
                raise EdgeListParseError(line_no, "vertex count must be >= 0")
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer token in {line!r}") from None
        if u == v:
            raise EdgeListParseError(line_no, f"self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise EdgeListParseError(line_no, f"negative vertex id in {line!r}")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    if max_id >= n:
        raise ValueError(f"edge endpoint {max_id} exceeds declared n={n}")
    return Graph.from_edges(n, edges)


def to_edge_list(G: Graph) -> str:
    lines = [f"n {G.n}"]
    lines.extend(f"{u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"


def _json_int(value, what: str) -> int:
    # bool is an int subclass; a JSON true/false is not a vertex count or id.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"graph JSON: {what} must be an integer, got {value!r}")
    return value


def from_json(text: str) -> Graph:
    """Parse {"n": int, "edges": [[u, v], ...]}; anything else is a ValueError."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError('graph JSON must be {"n": int, "edges": [[u, v], ...]}')
    n = _json_int(obj["n"], "n")
    if not isinstance(obj["edges"], list):
        raise ValueError(f'graph JSON: "edges" must be a list of [u, v] pairs, got {obj["edges"]!r}')
    edges = []
    for i, edge in enumerate(obj["edges"]):
        if not isinstance(edge, list) or len(edge) != 2:
            raise ValueError(f"graph JSON: edge {i} must be a [u, v] pair, got {edge!r}")
        u, v = (_json_int(end, f"edge {i} endpoint") for end in edge)
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def to_json(G: Graph) -> str:
    return json.dumps({"n": G.n, "edges": [list(e) for e in G.edges]})


def loads(text: str) -> Graph:
    """Parse either format; JSON is recognized by a leading '{'."""
    if text.lstrip().startswith("{"):
        return from_json(text)
    return from_edge_list(text)


def load(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# Generators.  All deterministic given (kind, params, seed).
# ---------------------------------------------------------------------------

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to 1..n-1."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def octahedron() -> Graph:
    # K_{2,2,2}: all pairs except the three antipodal ones.
    non_edges = {(0, 1), (2, 3), (4, 5)}
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) not in non_edges]
    return Graph.from_edges(6, edges)


_ICOSAHEDRON_EDGES = (
    # north pole 0, upper ring 1-5, lower ring 6-10, south pole 11
    [(0, i) for i in range(1, 6)]
    + [(1 + i, 1 + (i + 1) % 5) for i in range(5)]
    + [(6 + i, 6 + (i + 1) % 5) for i in range(5)]
    + [(1 + i, 6 + i) for i in range(5)]
    + [(1 + i, 6 + (i + 1) % 5) for i in range(5)]
    + [(11, 6 + i) for i in range(5)]
)


def icosahedron() -> Graph:
    return Graph.from_edges(12, _ICOSAHEDRON_EDGES)


def random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex v >= 1 attaches to a uniform earlier vertex."""
    if n < 1:
        raise ValueError(f"tree needs n >= 1, got {n}")
    import numpy as np
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    return Graph.from_edges(n, edges)


def erdos_renyi(n: int, q: float, seed: int) -> Graph:
    """G(n, q): each unordered pair is an edge independently with probability q."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {q}")
    if n * (n - 1) // 2 > MAX_PAIRS:
        raise ValueError(f"erdos_renyi on {n} vertices draws {n * (n - 1) // 2} vertex pairs, "
                         f"above the limit MAX_PAIRS = {MAX_PAIRS}")
    import numpy as np
    rng = np.random.default_rng(seed)
    # Row i draws for the pairs (i, i+1), ..., (i, n-1): the same stream, in
    # the same order, as one draw for all n(n-1)/2 pairs, in O(n + m) memory.
    edges = []
    for i in range(n - 1):
        edges.extend((i, j) for j in (np.flatnonzero(rng.random(n - 1 - i) < q) + i + 1).tolist())
    return Graph.from_edges(n, edges)


# kind -> builder(need, seed); ``need(name)`` returns parameter n or q, or
# raises when the caller did not give it.
_GENERATORS = {
    "cycle": lambda need, seed: cycle_graph(need("n")),
    "path": lambda need, seed: path_graph(need("n")),
    "tree_random": lambda need, seed: random_tree(need("n"), seed),
    "complete": lambda need, seed: complete_graph(need("n")),
    "star": lambda need, seed: star_graph(need("n")),
    "octahedron": lambda need, seed: octahedron(),
    "icosahedron": lambda need, seed: icosahedron(),
    "erdos_renyi": lambda need, seed: erdos_renyi(need("n"), need("q"), seed),
}
GENERATOR_KINDS = tuple(_GENERATORS)


def generate(kind: str, n: int | None = None, q: float | None = None,
             seed: int = 0) -> Graph:
    """Dispatch to a named generator; deterministic given (kind, params, seed)."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}; known: {', '.join(GENERATOR_KINDS)}")
    params = {"n": n, "q": q}

    def need(name: str):
        if params[name] is None:
            raise ValueError(f"generator {kind!r} needs {name}")
        if name == "n":
            _check_vertex_count(n)  # before the generator builds O(n) edges
        return params[name]

    return _GENERATORS[kind](need, seed)
