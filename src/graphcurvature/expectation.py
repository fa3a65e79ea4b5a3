"""Expected Poincare-Hopf index over uniform random injective functions.

The central identity verified here: averaging i_f(x) over all injective
functions f (equivalently, uniform random rank permutations) gives the
curvature K(x). Three independent routes are implemented:

  exact_index_expectation            subset sums over the unit sphere, 2^deg work
  exact_expectation_by_permutations  brute force over all n! orders
  mc_index_expectation               seeded Monte Carlo with standard errors

Only the relative order of function values matters for every index, so
uniform random rank permutations realize the uniform measure on injective
functions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .cliques import IdentityCheck, count_cliques_in_mask
from .curvature import curvature
from .graphs import Graph, sphere_masks
from .morse import IndexCalculator
from .trials import TrialPlan, mean_and_stderr, sum_vectors

if TYPE_CHECKING:
    import numpy as np


class DegreeCapError(ValueError):
    """Raised when an exact 2^deg computation would exceed its degree cap."""


# Subset tables are int32, which is exact while d <= 30: then |chi(A)| < 2^d
# and f_k(A) <= C(d, k+1) < 2^31. Their int64 sums by size stay below 2^61.
# Memory sets the lower limit used: the tables take about 13 bytes per
# subset, so degree 24 needs about 220 MB and degree 30 would need 14 GB.
MAX_SUBSET_DEGREE = 24

# exact_expectation_by_permutations walks all n! orders: 40,320 at this cap.
MAX_PERMUTATION_VERTICES = 8

# Index values a Monte Carlo block holds before folding them into its moments,
# so the rows kept per block stay small however many targets there are.
_BLOCK_INDICES = 1 << 12

# Subsets per numpy call. Gathers and bincount widen their operands to 64
# bits first, and chunks keep those copies small beside the int32 tables.
# Gathers use mode="clip" (every index is in range) so np.take writes its
# output in place instead of through a buffer.
_CHUNK = 1 << 16


def _blocks(size: int):
    """(start, stop, lo) for each chunk of each block [lo, 2lo), in order.

    The subsets in block [lo, 2lo) have highest vertex log2(lo), and
    removing it maps start:stop onto start - lo:stop - lo, in an earlier
    block.
    """
    lo = 1
    while lo < size:
        for start in range(lo, 2 * lo, _CHUNK):
            yield start, min(start + _CHUNK, 2 * lo), lo
        lo <<= 1


def _check_degree(G: Graph, x: int, cap: int, what: str) -> int:
    """The degree d of x; DegreeCapError names ``what`` when d > cap."""
    d = G.degree(x)
    if d > cap:
        raise DegreeCapError(f"vertex {x} has degree {d}, above the {what}")
    return d


def _uniform_rank_mean(sums: Sequence[int]) -> Fraction:
    """(1/(d+1)) sum_m s_m / C(d, m) for ``sums`` = (s_0, ..., s_d).

    The rank of x within {x} union S(x) is uniform over d+1 slots, and given
    m neighbors below x they form a uniform m-subset of the sphere. So if
    s_m totals a quantity over the m-subsets of S(x), this is its expected
    value on the neighbors below x in a uniform random order. As
    1/((d+1) C(d, m)) = m! (d-m)! / (d+1)!, it is one integer sum over (d+1)!.
    """
    d = len(sums) - 1
    return Fraction(sum(s * factorial(m) * factorial(d - m) for m, s in enumerate(sums)), factorial(d + 1))


# Popcounts of 0 .. 2^d - 1 for the largest d seen so far; read-only, so a
# vertex's tables take theirs as a slice of it.
_POPCOUNTS = None


def _popcounts(d: int) -> np.ndarray:
    """Read-only uint8 popcounts of 0 .. 2^d - 1, a slice of one shared array."""
    import numpy as np
    global _POPCOUNTS
    pop = _POPCOUNTS
    if pop is None or len(pop) < 1 << d:
        pop = np.zeros(1 << d, dtype=np.uint8)
        for start, stop, lo in _blocks(1 << d):
            np.add(pop[start - lo:stop - lo], 1, out=pop[start:stop])
        pop.flags.writeable = False
        _POPCOUNTS = pop
    return pop[:1 << d]


def _subset_tables(G: Graph, x: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Sphere masks of x, subset sizes, and the split index of every subset.

    For a subset A of S(x) with highest vertex v, ``split[A]`` is
    N(v) & (A - v); ``split[0]`` is 0. The sizes are a read-only slice of
    ``_popcounts``.
    """
    import numpy as np
    d = _check_degree(G, x, MAX_SUBSET_DEGREE, f"{MAX_SUBSET_DEGREE} limit for subset tables")
    masks = sphere_masks(G, x)
    split = np.arange(1 << d, dtype=np.int32)
    for start, stop, lo in _blocks(1 << d):
        # A has highest bit v and N(v) lacks v, so A & N(v) = N(v) & (A - v).
        np.bitwise_and(split[start:stop], masks[lo.bit_length() - 1], out=split[start:stop])
    return masks, _popcounts(d), split


def _sums_by_size(pop: np.ndarray, table: np.ndarray) -> tuple[int, ...]:
    """Exact sums of ``table`` over the subsets of each size, as Python ints.

    Each chunk's float64 ``bincount`` is exact: 2^16 int32 values sum below
    2^47, under float64's 2^53.
    """
    import numpy as np
    out = np.zeros(int(pop[-1]) + 1, dtype=np.int64)  # pop[-1] = d
    for start in range(0, len(pop), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        out += np.bincount(pop[chunk], weights=table[chunk], minlength=len(out)).astype(np.int64)
    return tuple(int(v) for v in out)


def chi_by_subset_size(G: Graph, x: int, *, tables=None) -> tuple[int, ...]:
    """Entry m: sum of chi over all m-vertex subsets of the sphere of x.

    Built by one dynamic program over subset bitmasks. Removing the highest
    vertex v of a subset A gives chi(A) = chi(A-v) + 1 - chi(N(v) & (A-v)),
    since v contributes itself plus one (k+1)-clique per k-clique in its
    neighborhood within A. The subsets with highest vertex j depend only on
    those below 2^j, so the 2^d table is built in d vectorised steps. The
    int32 table is exact up to degree ``MAX_SUBSET_DEGREE``; above it
    DegreeCapError is raised before anything is allocated. ``tables`` is
    ``_subset_tables(G, x)`` when the caller has built it already.
    """
    import numpy as np
    _, pop, split = tables or _subset_tables(G, x)
    chi = np.zeros(len(pop), dtype=np.int32)
    below = np.empty(min(len(pop), _CHUNK), dtype=np.int32)
    for start, stop, lo in _blocks(len(pop)):
        block, gathered = chi[start:stop], below[:stop - start]
        np.take(chi, split[start:stop], out=gathered, mode="clip")
        np.subtract(chi[start - lo:stop - lo], gathered, out=block)
        np.add(block, 1, out=block)
    return _sums_by_size(pop, chi)


def exact_index_expectation(G: Graph, x: int, degree_cap: int = 20) -> Fraction:
    """E[i_f(x)] over uniform random injective f, as an exact rational.

    Since i_f(x) = 1 - chi(S_f^-(x)), it is one minus the uniform-rank mean
    of chi over sphere subsets:

        E[i_f(x)] = 1 - (1/(d+1)) * sum_m mean chi over m-subsets.

    Work and memory scale with 2^deg(x); ``degree_cap`` guards the blowup.
    """
    _check_degree(G, x, degree_cap, f"cap {degree_cap} for 2^degree subset enumeration")
    return expected_index(chi_by_subset_size(G, x))


def expected_index(chi_sums: Sequence[int]) -> Fraction:
    """E[i_f(x)] from the sums ``chi_by_subset_size(G, x)`` returns."""
    return 1 - _uniform_rank_mean(chi_sums)


def exact_expectation_by_permutations(G: Graph) -> tuple[Fraction, ...]:
    """E[i_f(x)] for every vertex by enumerating all n! rank permutations.

    Independent oracle for small graphs; shares no formula with
    exact_index_expectation beyond the definition of the index.
    """
    if G.n > MAX_PERMUTATION_VERTICES:
        raise ValueError(f"graph has {G.n} vertices, above the {MAX_PERMUTATION_VERTICES} limit for n! enumeration")
    calc = IndexCalculator(G)
    totals = [0] * G.n
    count = 0
    for order in permutations(range(G.n)):
        count += 1
        for x in range(G.n):
            totals[x] += calc.index(order, x)
    assert count == factorial(G.n)
    return tuple(Fraction(t, count) for t in totals)


def clique_counts_by_subset_size(G: Graph, x: int, *, tables=None) -> tuple[tuple[int, ...], ...]:
    """Entry [m][k]: total (k+1)-cliques summed over all m-subsets of S(x).

    One dynamic-programming pass per clique size over the 2^deg subset
    lattice, using the split at the highest subset vertex v:
    f_k(A) = f_k(A-v) + f_{k-1}(N(v) & (A-v)), with f_0(A) = |A|. As in
    ``chi_by_subset_size``, each pass takes d vectorised steps, one per
    highest vertex, and the int32 tables are exact up to degree
    ``MAX_SUBSET_DEGREE``; above it DegreeCapError is raised before
    anything is allocated. ``tables`` is as in ``chi_by_subset_size``.
    """
    import numpy as np
    masks, pop, split = tables or _subset_tables(G, x)
    d = len(masks)
    kmax = len(count_cliques_in_mask(masks, len(pop) - 1))
    if kmax == 0:
        return ((),) * (d + 1)
    prev = pop.astype(np.int32)
    cur = np.zeros_like(prev)
    columns = [_sums_by_size(pop, prev)]
    for _ in range(1, kmax):
        for start, stop, lo in _blocks(len(pop)):
            block = cur[start:stop]
            np.take(prev, split[start:stop], out=block, mode="clip")
            np.add(block, cur[start - lo:stop - lo], out=block)
        columns.append(_sums_by_size(pop, cur))
        prev, cur = cur, prev
    return tuple(zip(*columns))


def averaging_checks(counts: Sequence[Sequence[int]]) -> tuple[IdentityCheck, ...]:
    """Check E[V_k^-(x)] = V_k(x)/(k+2) for all k at one vertex, exactly.

    ``counts`` is the table ``clique_counts_by_subset_size(G, x)`` returns:
    cliques of each size counted in every sphere subset. The left side
    averages it over the uniform subset-size mixture that random orders
    induce. Only k with V_k(x) > 0 appear.
    """
    checks = []
    # The only d-subset of S(x) is S(x) itself, so a column's last entry is V_k(x).
    for k, sums in enumerate(zip(*counts)):
        lhs = _uniform_rank_mean(sums)
        rhs = Fraction(sums[-1], k + 2)
        checks.append(IdentityCheck(k, lhs, rhs, lhs == rhs))
    return tuple(checks)


@dataclass(frozen=True)
class ExpectationRow:
    """Monte Carlo estimate of E[i_f(x)] at one vertex."""

    vertex: int
    samples: int
    estimate: float
    stderr: float | None
    curvature: Fraction


@dataclass(frozen=True)
class ExpectationReport:
    master_seed: int
    rows: tuple[ExpectationRow, ...]


def mc_index_expectation(
    G: Graph,
    plan: TrialPlan,
    vertices: Sequence[int] | None = None,
) -> ExpectationReport:
    """Estimate E[i_f(x)] by sampling uniform rank permutations.

    Trial t shuffles the list 0..n-1 with its (master_seed, t) generator,
    which gives the ranks ``permutation(n)`` would, and evaluates one index
    per target. The indices of a block of trials, ``_BLOCK_INDICES`` values
    at most, are folded into exact integer sums and sums of squares, so the
    report is byte-identical for any worker count, chunk or block size.
    Each row carries the sample mean, its standard error, and the curvature
    it should match.
    """
    targets = tuple(range(G.n)) if vertices is None else tuple(vertices)
    for x in targets:
        G._check_vertex(x)
    index = IndexCalculator(G).index
    nt = len(targets)
    block = max(1, _BLOCK_INDICES // max(nt, 1))
    identity = list(range(G.n))

    def run_chunk(trials: range) -> tuple[int, ...]:
        acc = [0] * (2 * nt)
        for lo in range(trials.start, trials.stop, block):
            rows = []
            for t in range(lo, min(lo + block, trials.stop)):
                order = identity[:]
                plan.trial_rng(t).shuffle(order)
                rows.append([index(order, x) for x in targets])
            for j, col in enumerate(zip(*rows)):
                acc[2 * j] += sum(col)
                acc[2 * j + 1] += sum(map(mul, col, col))
        return tuple(acc)

    acc = plan.map_reduce(run_chunk, sum_vectors)
    rows = []
    for j, x in enumerate(targets):
        mean, se = mean_and_stderr(acc[2 * j], acc[2 * j + 1], plan.samples)
        rows.append(
            ExpectationRow(
                vertex=x,
                samples=plan.samples,
                estimate=mean,
                stderr=se,
                curvature=curvature(G, x),
            )
        )
    return ExpectationReport(master_seed=plan.master_seed, rows=tuple(rows))
