"""Seeded input generators and fingerprints for the benchmark.

Everything here is the benchmark's own code: it never calls graphcurvature,
so the f-vector it computes is an independent reference for the chi checks.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np


# Generated inputs come from a pool of INPUT_SEEDS seeds, each of them
# fingerprinted in fingerprints.json, so that every --seed measures inputs
# recorded there. The program's own seeds (orders, trials) take --seed as is.
INPUT_SEEDS = 32


def input_seed(seed: int) -> int:
    """The generator seed for the benchmark seed ``seed``."""
    return seed % INPUT_SEEDS


@dataclass(frozen=True)
class Fingerprint:
    n: int
    m: int
    fvector: tuple[int, ...]
    max_degree: int
    sha256: str

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "fvector": list(self.fvector),
                "max_degree": self.max_degree, "sha256": self.sha256}


def edge_list_text(n: int, edges) -> str:
    """Edge-list text in the program's format: an 'n' header, then sorted 'u v' lines."""
    lines = [f"n {n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def parse_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of ``edge_list_text`` for the texts this module writes."""
    header, *rows = text.splitlines()
    n = int(header.split()[1])
    return n, [tuple(map(int, row.split())) for row in rows]


def fvector(n: int, edges) -> tuple[int, ...]:
    """Clique counts by size, enumerated over higher-neighbour sets."""
    higher: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        a, b = min(u, v), max(u, v)
        higher[a].add(b)
    counts = [n] if n else []

    def grow(cands: set[int], size: int):
        if len(counts) < size:
            counts.append(0)
        counts[size - 1] += len(cands)
        for u in cands:
            nxt = cands & higher[u]
            if nxt:
                grow(nxt, size + 1)

    for v in range(n):
        if higher[v]:
            grow(higher[v], 2)
    return tuple(counts)


def euler_characteristic(fvec) -> int:
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(fvec))


def fingerprint(texts) -> Fingerprint:
    """Fingerprint of one or more edge-list texts, summed over the graphs."""
    digest = hashlib.sha256()
    n_total = m_total = max_deg = 0
    fsum: list[int] = []
    for text in texts:
        digest.update(text.encode())
        n, edges = parse_edges(text)
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        n_total += n
        m_total += len(edges)
        max_deg = max([max_deg] + degree)
        for k, c in enumerate(fvector(n, edges)):
            if k == len(fsum):
                fsum.append(0)
            fsum[k] += c
    return Fingerprint(n_total, m_total, tuple(fsum), max_deg, digest.hexdigest())


def geometric_torus_text(n: int, mean_degree: float, seed: int) -> str:
    """Random geometric graph on the unit torus, vertices labelled in draw order.

    Points are uniform in [0,1)^2 and joined when their periodic distance is
    below r, with pi r^2 n = mean_degree. The labels are not spatially
    sorted, so the program's per-vertex bitmasks span the whole id range.
    """
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    r = sqrt(mean_degree / (pi * n))
    order = np.argsort(pts[:, 0], kind="stable")
    xs, ys = pts[order, 0], pts[order, 1]
    wrap = xs < r
    X = np.concatenate([xs, xs[wrap] + 1.0])
    Y = np.concatenate([ys, ys[wrap]])
    ids = np.concatenate([order, order[wrap]])
    hi = np.searchsorted(X, xs + r)
    us, vs = [], []
    for i in range(n):
        j = np.arange(i + 1, hi[i])
        dy = np.abs(Y[j] - ys[i])
        dy = np.minimum(dy, 1.0 - dy)
        dx = X[j] - xs[i]
        near = ids[j[dx * dx + dy * dy < r * r]]
        us.append(np.full(len(near), order[i]))
        vs.append(near)
    u = np.concatenate(us)
    v = np.concatenate(vs)
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    return edge_list_text(n, zip((keys // n).tolist(), (keys % n).tolist()))


def icosahedron_text() -> str:
    """The icosahedron from its coordinates: cyclic shifts of (0, +-1, +-phi)."""
    phi = (1 + sqrt(5)) / 2
    pts = []
    for a, b in itertools.product((-1.0, 1.0), repeat=2):
        base = (0.0, a, b * phi)
        pts.extend(base[k:] + base[:k] for k in range(3))
    edges = [(i, j) for i, j in itertools.combinations(range(len(pts)), 2)
             if abs(sum((p - q) ** 2 for p, q in zip(pts[i], pts[j])) - 4.0) < 1e-9]
    return edge_list_text(len(pts), edges)


# The dense workload keeps the degree sequence of one fixed G(36, 0.45) draw,
# so the 2^degree work of the subset dynamic program, and the number of
# vertices above the degree cap, are the same at every seed.
DENSE_N = 36
DENSE_Q = 0.45
DENSE_BASE_SEED = 229  # degrees 11-21, five vertices above 18
DENSE_SWAPS_PER_EDGE = 20


def dense_base_edges() -> list[tuple[int, int]]:
    rng = np.random.default_rng(DENSE_BASE_SEED)
    pairs = list(itertools.combinations(range(DENSE_N), 2))
    return [p for p, d in zip(pairs, rng.random(len(pairs))) if d < DENSE_Q]


def dense_text(seed: int) -> str:
    """Seeded degree-preserving double-edge swaps of the fixed dense base graph."""
    rng = np.random.default_rng(seed)
    edges = dense_base_edges()
    present = set(edges)
    for _ in range(DENSE_SWAPS_PER_EDGE * len(edges)):
        i, j = rng.integers(len(edges), size=2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        e1, e2 = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) < 4 or e1 in present or e2 in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {e1, e2}
        edges[i], edges[j] = e1, e2
    return edge_list_text(DENSE_N, edges)
