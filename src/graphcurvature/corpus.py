"""Deterministic graph corpus for verification suites and tests.

Every entry is (name, graph) so failing checks identify their instance.
Erdos-Renyi sizes shrink as density grows to keep clique counts, and with
them suite runtimes, roughly flat across the density sweep.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    icosahedron,
    octahedron,
    path_graph,
    random_tree,
    star_graph,
)

NamedGraph = tuple[str, Graph]

# density -> (small n, large n); denser cells stay small so v_k stays tame
ER_SIZES = {
    0.1: (20, 30),
    0.2: (20, 30),
    0.3: (15, 25),
    0.4: (15, 25),
    0.5: (12, 20),
    0.6: (12, 18),
    0.7: (10, 15),
    0.8: (10, 14),
    0.9: (8, 12),
}
ER_SEEDS_PER_CELL = 6


@lru_cache(maxsize=None)
def base_corpus() -> tuple[NamedGraph, ...]:
    """Structured graphs with known invariants: cycles, paths, trees, cliques, polyhedra."""
    entries: list[NamedGraph] = []
    entries.extend((f"cycle_{n}", cycle_graph(n)) for n in range(3, 13))
    entries.extend((f"path_{n}", path_graph(n)) for n in range(1, 13))
    entries.extend((f"star_{n}", star_graph(n)) for n in (2, 5, 9))
    for n in (8, 13, 20):
        for seed in (0, 1):
            entries.append((f"tree_n{n}_s{seed}", random_tree(n, seed=seed)))
    entries.extend((f"complete_{n}", complete_graph(n)) for n in range(2, 9))
    entries.append(("octahedron", octahedron()))
    entries.append(("icosahedron", icosahedron()))
    for n in (5, 6, 7):
        for seed in (0, 1):
            entries.append((f"er_tiny_n{n}_s{seed}", erdos_renyi(n, 0.5, seed=seed)))
    return tuple(entries)


@lru_cache(maxsize=None)
def er_corpus(count: int = 100) -> tuple[NamedGraph, ...]:
    """Erdos-Renyi instances spanning densities 0.1 through 0.9.

    Iteration is seed-major, so any prefix of at least 18 entries already
    covers every (density, size) cell.
    """
    entries: list[NamedGraph] = []
    for seed in range(ER_SEEDS_PER_CELL):
        for q in sorted(ER_SIZES):
            for n in ER_SIZES[q]:
                entries.append((f"er_n{n}_q{q}_s{seed}", erdos_renyi(n, q, seed=seed)))
    if count > len(entries):
        raise ValueError(f"corpus holds {len(entries)} ER graphs, requested {count}")
    return tuple(entries[:count])


@lru_cache(maxsize=None)
def full_corpus() -> tuple[NamedGraph, ...]:
    """Base corpus plus the full density sweep, for the test suites;
    ``graphcurv verify`` runs ``base_corpus() + er_corpus(20)``."""
    return base_corpus() + er_corpus(len(ER_SIZES) * 2 * ER_SEEDS_PER_CELL)

