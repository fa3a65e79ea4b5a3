"""Clique survival under random vertex or edge deletion.

Keep each vertex (site mode) or each edge (bond mode) independently with
probability p. A (k+1)-clique of the host survives iff all of its k+1
vertices, resp. all of its k(k+1)/2 edges, are kept, so by linearity

    E_p[v_k of decimated graph] = v_k * p^(k+1)          (site)
    E_p[v_k of decimated graph] = v_k * p^(k(k+1)/2)     (bond)

and averaging over p uniform in [0,1] gives survival ratios 1/(k+2) and
1/(k(k+1)/2 + 1) regardless of the host. The Monte Carlo route samples p
fresh per trial unless a fixed p is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from .cliques import cliques_of_size, count_cliques
from .graphs import Graph
from .trials import DEFAULT_SEED, TrialPlan, mean_and_stderr, sum_vectors

MODES = ("site", "bond")
_BLOCK_BYTES = 1 << 18  # budget for one block's uniforms, kept flags and gathered events


def survival_exponent(k: int, mode: str) -> int:
    """Number of independent keep events a (k+1)-clique needs."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return k + 1 if mode == "site" else comb(k + 1, 2)


@dataclass(frozen=True)
class SurvivalPolynomial:
    """E_p[number of surviving (k+1)-cliques] = coefficient * p^exponent."""

    k: int
    mode: str
    coefficient: int
    exponent: int

    def value(self, p):
        return self.coefficient * p**self.exponent

    def integral(self) -> Fraction:
        """Integral over p in [0,1], the expected survivor count at uniform p."""
        return Fraction(self.coefficient, self.exponent + 1)


def exact_survival_polynomial(G: Graph, k: int, mode: str = "site") -> SurvivalPolynomial:
    """Expected survivor count as an exact polynomial in p, by linearity."""
    exponent = survival_exponent(k, mode)
    fvec = count_cliques(G)
    vk = fvec[k] if k < len(fvec) else 0
    return SurvivalPolynomial(k=k, mode=mode, coefficient=vk, exponent=exponent)


def _clique_events(G: Graph, k: int, mode: str) -> np.ndarray:
    """The keep events each host (k+1)-clique needs, one row per clique.

    Site events are vertex ids; bond events are edge ids into G.edges. A
    host clique survives decimation iff all of its events are kept, which
    is exactly v_k of the decimated graph since decimation cannot create
    cliques.
    """
    cliques = []
    for m in cliques_of_size(G, k + 1):
        verts = []
        while m:
            verts.append((m & -m).bit_length() - 1)
            m &= m - 1
        cliques.append(verts)
    if mode == "bond":
        edge_index = {e: i for i, e in enumerate(G.edges)}
        cliques = [[edge_index[e] for e in combinations(c, 2)] for c in cliques]
    return np.array(cliques, dtype=np.intp).reshape(len(cliques), survival_exponent(k, mode))


@dataclass(frozen=True)
class SurvivalEstimate:
    """Monte Carlo estimate of the clique survival ratio for one (host, k)."""

    mode: str
    k: int
    trials: int
    host_count: int
    estimate: float
    stderr: float | None
    exact: Fraction | float
    master_seed: int

    def to_json_dict(self) -> dict:
        exact = self.exact
        return {
            "mode": self.mode,
            "k": self.k,
            "trials": self.trials,
            "host_count": self.host_count,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "exact": str(exact) if isinstance(exact, Fraction) else exact,
            "master_seed": self.master_seed,
        }


@dataclass(frozen=True)
class SurvivalReport:
    summary: SurvivalEstimate
    rows: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {"summary": self.summary.to_json_dict(), "rows": list(self.rows)}


def clique_survival_integral(
    G: Graph,
    k: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    mode: str = "site",
    workers: int = 1,
    fixed_p: float | None = None,
    row_limit: int = 0,
) -> SurvivalReport:
    """Monte Carlo survival ratio of (k+1)-cliques under random decimation.

    Each trial draws p uniformly in [0,1] (or uses ``fixed_p``), decimates,
    and counts the fraction of host cliques that survive. Trial t consumes
    only the (seed, t) stream: the p draw first when p is random, then one
    uniform per vertex or edge, into one row of a block of trials whose
    survivors numpy counts at once. Totals are exact integers, so the result
    is identical for any worker count, chunking or block size. The exact
    column is 1/(exponent+1) when p is random and p^exponent at a fixed p.

    ``row_limit`` includes per-trial rows for the first trials in the
    report, for inspection or CSV output; it must not be negative.
    """
    exponent = survival_exponent(k, mode)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if fixed_p is not None and not 0.0 <= fixed_p <= 1.0:
        raise ValueError(f"keep probability must lie in [0, 1], got {fixed_p}")
    if row_limit < 0:
        raise ValueError(f"row limit must be nonnegative, got {row_limit}")
    events = _clique_events(G, k, mode)
    vk = len(events)
    if vk == 0:
        raise ValueError(f"host graph has no {k}-simplices to decimate")
    plan = TrialPlan(samples=trials, master_seed=seed, workers=workers)
    n_events = G.n if mode == "site" else len(G.edges)
    block = max(1, min(trials, _BLOCK_BYTES // (9 * n_events + vk * (exponent + 1))))
    uniforms = np.empty((block, n_events))
    p = np.full(block, 0.0 if fixed_p is None else fixed_p)

    def blocks(ts: range):
        """(p, survivor counts) of each block of the trials ts, in order; the
        p array is a view that the next block overwrites."""
        for lo in range(ts.start, ts.stop, block):
            size = min(block, ts.stop - lo)
            for i in range(size):
                rng = plan.trial_rng(lo + i)
                if fixed_p is None:
                    p[i] = rng.random()
                rng.random(out=uniforms[i])
            kept = uniforms[:size] < p[:size, None]
            yield p[:size], kept[:, events].all(axis=2).sum(axis=1)

    def run_chunk(chunk: range) -> tuple[int, ...]:
        counts = np.concatenate([s for _, s in blocks(chunk)]).tolist()
        return (sum(counts), sum(s * s for s in counts))

    s_sum, s_sq = plan.map_reduce(run_chunk, sum_vectors)
    mean_count, se_count = mean_and_stderr(s_sum, s_sq, trials)
    exact: Fraction | float = Fraction(1, exponent + 1) if fixed_p is None else fixed_p**exponent
    summary = SurvivalEstimate(
        mode=mode, k=k, trials=trials, host_count=vk, estimate=mean_count / vk,
        stderr=None if se_count is None else se_count / vk, exact=exact, master_seed=seed,
    )
    rows = []
    for ps, s in blocks(range(min(row_limit, trials))):
        for pt, st in zip(ps.tolist(), s.tolist()):
            row: dict = {"trial": len(rows), "ratio": st / vk}
            if fixed_p is None:
                row["p"] = pt
            rows.append(row)
    return SurvivalReport(summary=summary, rows=tuple(rows))


def survival_grid(
    G: Graph,
    k: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    mode: str = "site",
    grid: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    workers: int = 1,
) -> tuple[dict, ...]:
    """Mean survival ratio at each p of a grid, one row per grid point.

    All points share the same trial streams (common random numbers), which
    keeps the sweep deterministic and smooths the sampled curve.
    """
    rows = []
    for p in grid:
        rep = clique_survival_integral(
            G, k, trials, seed=seed, mode=mode, workers=workers, fixed_p=float(p)
        )
        s = rep.summary
        rows.append({"p": float(p), "ratio": s.estimate, "stderr": s.stderr, "exact": s.exact})
    return tuple(rows)
