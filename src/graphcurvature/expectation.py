"""Expected Poincare-Hopf index over uniform random injective functions.

The central identity verified here: averaging i_f(x) over all injective
functions f (equivalently, uniform random rank permutations) gives the
curvature K(x). Three independent routes are implemented:

  exact_index_expectation      subset sums over the unit sphere, 2^deg work
  expectation_by_all_orders    brute force over all n! orders
  mc_index_expectation         seeded Monte Carlo with standard errors

Only the relative order of function values matters for every index, so
uniform random rank permutations realize the uniform measure on injective
functions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .cliques import count_cliques_in_mask
from .curvature import curvature
from .graphs import Graph, sphere_masks
from .morse import IndexCalculator, all_orders
from .trials import TrialPlan, mean_and_stderr, sum_vectors


class DegreeCapError(ValueError):
    """Raised when an exact 2^deg computation would exceed its degree cap."""


def chi_by_subset_size(G: Graph, x: int) -> tuple[int, ...]:
    """Entry m: sum of chi over all m-vertex subsets of the sphere of x.

    Built by one dynamic program over subset bitmasks. Removing the lowest
    vertex v of a subset A gives chi(A) = chi(A-v) + 1 - chi(N(v) & (A-v)),
    since v contributes itself plus one (k+1)-clique per k-clique in its
    neighborhood within A.
    """
    masks = sphere_masks(G, x)
    d = len(masks)
    chi = [0] * (1 << d)
    sums = [0] * (d + 1)
    for mask in range(1, 1 << d):
        low = mask & -mask
        rest = mask ^ low
        inter = rest & masks[low.bit_length() - 1]
        c = chi[rest] + 1 - chi[inter]
        chi[mask] = c
        sums[mask.bit_count()] += c
    return tuple(sums)


def exact_index_expectation(G: Graph, x: int, degree_cap: int = 20) -> Fraction:
    """E[i_f(x)] over uniform random injective f, as an exact rational.

    The rank of x within {x} union S(x) is uniform over deg(x)+1 slots, and
    given m neighbors below x they form a uniform m-subset of the sphere:

        E[i_f(x)] = 1 - (1/(d+1)) * sum_m mean chi over m-subsets.

    Work and memory scale with 2^deg(x); ``degree_cap`` guards the blowup.
    """
    d = G.degree(x)
    if d > degree_cap:
        raise DegreeCapError(
            f"vertex {x} has degree {d}, above the cap {degree_cap} for 2^degree subset enumeration"
        )
    sums = chi_by_subset_size(G, x)
    total = sum(Fraction(sums[m], comb(d, m)) for m in range(d + 1))
    return 1 - total / (d + 1)


def exact_expectation_by_permutations(G: Graph, max_n: int = 8) -> tuple[Fraction, ...]:
    """E[i_f(x)] for every vertex by enumerating all n! rank permutations.

    Independent oracle for small graphs; shares no formula with
    exact_index_expectation beyond the definition of the index.
    """
    if G.n > max_n:
        raise ValueError(f"graph has {G.n} vertices, above the {max_n} limit for n! enumeration")
    calc = IndexCalculator(G)
    totals = [0] * G.n
    count = 0
    for order in all_orders(G.n):
        count += 1
        for x in range(G.n):
            totals[x] += calc.index(order, x)
    assert count == factorial(G.n)
    return tuple(Fraction(t, count) for t in totals)


@dataclass(frozen=True)
class AveragingCheck:
    """One row of E[V_k^-(x)] = V_k(x) / (k+2)."""

    k: int
    lhs: Fraction
    rhs: Fraction
    equal: bool


def clique_counts_by_subset_size(G: Graph, x: int) -> tuple[tuple[int, ...], ...]:
    """Entry [m][k]: total (k+1)-cliques summed over all m-subsets of S(x).

    One dynamic-programming pass per clique size over the 2^deg subset
    lattice, using the split at the lowest subset vertex v:
    f_k(A) = f_k(A-v) + f_{k-1}(N(v) & (A-v)), with f_0(A) = |A|.
    """
    masks = sphere_masks(G, x)
    d = len(masks)
    size = 1 << d
    sphere_fvec = count_cliques_in_mask(masks, size - 1)
    kmax = len(sphere_fvec)
    sums = [[0] * kmax for _ in range(d + 1)]
    if kmax == 0:
        return tuple(tuple(row) for row in sums)
    prev = [m.bit_count() for m in range(size)]
    for m in range(size):
        sums[prev[m]][0] += prev[m]
    for k in range(1, kmax):
        cur = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            rest = mask ^ low
            c = cur[rest] + prev[rest & masks[low.bit_length() - 1]]
            cur[mask] = c
            sums[mask.bit_count()][k] += c
        prev = cur
    return tuple(tuple(row) for row in sums)


def verify_averaging_equation(G: Graph, x: int, degree_cap: int = 16) -> tuple[AveragingCheck, ...]:
    """Check E[V_k^-(x)] = V_k(x)/(k+2) for all k at one vertex, exactly.

    The left side is computed by enumeration: count cliques of each size
    in every sphere subset, then average over the uniform subset-size
    mixture that random orders induce. Only k with V_k(x) > 0 appear.
    """
    d = G.degree(x)
    if d > degree_cap:
        raise DegreeCapError(
            f"vertex {x} has degree {d}, above the cap {degree_cap} for subset clique enumeration"
        )
    sums_by_size = clique_counts_by_subset_size(G, x)
    checks = []
    # The only d-subset of S(x) is S(x) itself, so row d is its f-vector.
    for k, vk in enumerate(sums_by_size[d]):
        lhs = sum(
            (Fraction(sums_by_size[m][k], comb(d, m)) for m in range(d + 1)),
            Fraction(0),
        ) / (d + 1)
        rhs = Fraction(vk, k + 2)
        checks.append(AveragingCheck(k=k, lhs=lhs, rhs=rhs, equal=lhs == rhs))
    return tuple(checks)


@dataclass(frozen=True)
class ExpectationRow:
    """Monte Carlo estimate of E[i_f(x)] at one vertex."""

    vertex: int
    samples: int
    estimate: float
    stderr: float | None
    curvature: Fraction
    exact: Fraction | None

    def to_json_dict(self) -> dict:
        row = {
            "vertex": self.vertex,
            "samples": self.samples,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "curvature": str(self.curvature),
        }
        if self.exact is not None:
            row["exact"] = str(self.exact)
        return row


@dataclass(frozen=True)
class ExpectationReport:
    rows: tuple[ExpectationRow, ...]
    master_seed: int

    def to_json_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "rows": [r.to_json_dict() for r in self.rows],
        }


def mc_index_expectation(
    G: Graph,
    plan: TrialPlan,
    vertices: Sequence[int] | None = None,
    with_exact: bool = False,
    exact_degree_cap: int = 20,
) -> ExpectationReport:
    """Estimate E[i_f(x)] by sampling uniform rank permutations.

    Trial t draws its permutation from the (master_seed, t) stream, so the
    report is byte-identical for any worker count. Each row carries the
    sample mean, its standard error, and the curvature it should match.
    """
    targets = tuple(range(G.n)) if vertices is None else tuple(vertices)
    for x in targets:
        G._check_vertex(x)
    calc = IndexCalculator(G)
    nt = len(targets)

    def run_chunk(trials: range) -> tuple[int, ...]:
        acc = [0] * (2 * nt)
        for t in trials:
            order = tuple(int(r) for r in plan.trial_rng(t).permutation(G.n))
            for j, x in enumerate(targets):
                i = calc.index(order, x)
                acc[2 * j] += i
                acc[2 * j + 1] += i * i
        return tuple(acc)

    acc = plan.map_reduce(run_chunk, sum_vectors)
    rows = []
    for j, x in enumerate(targets):
        mean, se = mean_and_stderr(acc[2 * j], acc[2 * j + 1], plan.samples)
        exact = None
        if with_exact and G.degree(x) <= exact_degree_cap:
            exact = exact_index_expectation(G, x, degree_cap=exact_degree_cap)
        rows.append(
            ExpectationRow(
                vertex=x,
                samples=plan.samples,
                estimate=mean,
                stderr=se,
                curvature=curvature(G, x),
                exact=exact,
            )
        )
    return ExpectationReport(rows=tuple(rows), master_seed=plan.master_seed)
