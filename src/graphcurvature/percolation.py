"""Clique survival under random vertex or edge deletion.

Keep each vertex (site mode) or each edge (bond mode) independently with
probability p. A (k+1)-clique of the host survives iff all of its k+1
vertices, resp. all of its k(k+1)/2 edges, are kept, so by linearity

    E_p[v_k of decimated graph] = v_k * p^(k+1)          (site)
    E_p[v_k of decimated graph] = v_k * p^(k(k+1)/2)     (bond)

and averaging over p uniform in [0,1] gives survival ratios 1/(k+2) and
1/(k(k+1)/2 + 1) regardless of the host. The Monte Carlo route samples p
fresh per trial unless a fixed p is requested. Passes inside one
``shared_draws()`` block read each trial's row of uniforms once.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .cliques import cliques_of_size
from .graphs import Graph
from .trials import DEFAULT_SEED, TrialPlan, mean_and_stderr, sum_vectors

if TYPE_CHECKING:
    from contextvars import ContextVar

    import numpy as np

MODES = ("site", "bond")
_BLOCK_BYTES = 1 << 18  # budget for one block's uniforms, gathered event uniforms and survival flags
_SHARED_CELLS = 1 << 16  # uniforms a whole run may keep drawn (512 KiB), rows padded to 16


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


def exact_survival_polynomial(G: Graph, k: int, mode: str = "site", *, hosts=None) -> SurvivalPolynomial:
    """Expected survivor count as an exact polynomial in p, by linearity.

    The coefficient counts the host cliques in the Monte Carlo engine's own
    event lists that need exactly ``exponent`` distinct keep events, so
    checking it against count_cliques checks those lists. ``hosts`` is
    ``cliques_of_size(G, k + 1)`` when the caller has listed it already.
    """
    exponent = survival_exponent(k, mode)
    count = sum(len(set(events)) == exponent for events in _clique_events(G, k, mode, hosts).tolist())
    return SurvivalPolynomial(k=k, mode=mode, coefficient=count, exponent=exponent)


def _clique_events(G: Graph, k: int, mode: str, hosts=None) -> np.ndarray:
    """The keep events each host (k+1)-clique needs, one row per clique.

    Site events are vertex ids; bond events are edge ids into G.edges. A
    host clique survives decimation iff all of its events are kept, which
    is exactly v_k of the decimated graph since decimation cannot create
    cliques. ``hosts`` is as in ``exact_survival_polynomial``.
    """
    import numpy as np
    cliques = cliques_of_size(G, k + 1) if hosts is None else hosts
    sites = np.array(cliques, dtype=np.intp).reshape(len(cliques), k + 1)
    if mode == "site":
        return sites
    # Edge (u, v) has key u * n + v. G.edges is sorted, so a binary search of
    # the keys finds each pair's id; chunks of rows keep the pair keys small.
    keys = np.array([u * G.n + v for u, v in G.edges], dtype=np.intp)
    i, j = np.triu_indices(k + 1, 1)  # the pairs of a row, in combinations order
    bonds = np.empty((len(sites), len(i)), dtype=np.intp)
    step = max(1, _BLOCK_BYTES // (8 * len(i) + 1))
    for lo in range(0, len(sites), step):
        rows = sites[lo:lo + step]
        bonds[lo:lo + step] = np.searchsorted(keys, rows[:, i] * G.n + rows[:, j])
    return bonds


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


@dataclass(frozen=True)
class SurvivalReport:
    summary: SurvivalEstimate
    rows: tuple[dict, ...]


def _survival_pass(G: Graph, k: int, trials: int, seed: int, mode: str, workers: int,
                   grid: Sequence[float] | None, row_limit: int) -> tuple[list[SurvivalEstimate], tuple]:
    """The summary at each fixed p of ``grid`` (at a p drawn per trial when grid
    is None) and the first ``row_limit`` trials' rows, all from one pass.

    Trial t fills one row of uniforms from its (seed, t) generator: p in
    column 0 when p is drawn, then one uniform per vertex (site) or edge
    (bond). A host clique survives at p iff the largest of its events'
    uniforms lies below p, so one gather scores every point of the grid.
    """
    import numpy as np
    exponent = survival_exponent(k, mode)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    for p in grid or ():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"keep probability must lie in [0, 1], got {p}")
    if row_limit < 0:
        raise ValueError(f"row limit must be nonnegative, got {row_limit}")
    drawn = grid is None
    events = _clique_events(G, k, mode) + drawn  # shifted past the p column when p is drawn
    vk = len(events)
    if vk == 0:
        raise ValueError(f"host graph has no {k}-simplices to decimate")
    plan = TrialPlan(samples=trials, master_seed=seed, workers=workers)
    points = 1 if drawn else len(grid)
    width = drawn + (G.n if mode == "site" else len(G.edges))
    block = max(1, min(trials, _BLOCK_BYTES // (8 * (width + vk * (exponent + 1)) + points * vk)))
    uniforms = _trial_rows(plan, width, block)
    fixed = None if drawn else np.array(grid, dtype=float)[:, None]

    # Survivor sums at each point, their sums of squares, then the chunk's
    # rows as one tuple, which sum_vectors concatenates in trial order.
    def run_chunk(chunk: range) -> tuple:
        moments = [0] * (2 * points)
        rows = []
        for lo in range(chunk.start, chunk.stop, block):
            size = min(block, chunk.stop - lo)
            u = uniforms(lo, size)
            top = u[:, events].max(axis=2, initial=-np.inf)
            counts = (top[:, None, :] < (u[:, :1, None] if drawn else fixed)).sum(axis=2)
            moments = sum_vectors(moments, np.hstack([counts, counts * counts]).sum(axis=0).tolist())
            for t in range(lo, min(lo + size, row_limit)):
                row = {"trial": t, "ratio": int(counts[t - lo, 0]) / vk}
                rows.append({**row, "p": float(u[t - lo, 0])} if drawn else row)
        return (*moments, tuple(rows))

    *moments, rows = plan.map_reduce(run_chunk, sum_vectors)
    summaries = []
    for j, exact in enumerate([Fraction(1, exponent + 1)] if drawn else [p**exponent for p in grid]):
        mean, se = mean_and_stderr(moments[j], moments[points + j], trials)
        summaries.append(SurvivalEstimate(
            mode=mode, k=k, trials=trials, host_count=vk, estimate=mean / vk,
            stderr=None if se is None else se / vk, exact=exact, master_seed=seed,
        ))
    return summaries, rows


@lru_cache(maxsize=None)
def _kept_rows() -> ContextVar:
    """The rows the current ``shared_draws`` block keeps, unset outside one.

    Made on first use, so that importing this module imports nothing more.
    """
    from contextvars import ContextVar
    return ContextVar("graphcurvature.percolation.kept_rows")


@contextmanager
def shared_draws() -> Iterator[None]:
    """A block in which survival passes draw each trial's uniforms once.

    Trial t's row depends only on (seed, t), and a pass reads the first
    ``width`` uniforms of it, so passes with the same seed and trial count
    can read one drawing of every row (common random numbers), and each
    still returns exactly what it returns alone. Only a run whose rows fit
    _SHARED_CELLS is kept, the latest one only, and nothing outlives the
    block.
    """
    kept = _kept_rows()
    token = kept.set({})
    try:
        yield
    finally:
        kept.reset(token)


def _trial_rows(plan: TrialPlan, width: int, block: int) -> Callable[[int, int], np.ndarray]:
    """``rows(lo, size)``: the uniforms of trials lo .. lo + size - 1, one row
    of ``width`` per trial, at most ``block`` trials a call.

    Trial t's row is the first ``width`` uniforms of ``plan.trial_rng(t)``.
    When every trial's row fits _SHARED_CELLS at ``width`` rounded up to a
    multiple of 16, all rows are drawn at that width up front and each call
    returns a read-only slice of them; in a ``shared_draws`` block a later
    pass with the same seed, the same trial count and no wider rows slices
    the same drawing. Otherwise each call refills one block buffer.
    """
    import numpy as np
    padded = -(-width // 16) * 16
    if plan.samples * padded > _SHARED_CELLS:
        buffer = np.empty((block, width))

        def fill(lo: int, size: int) -> np.ndarray:
            for i in range(size):
                plan.trial_rng(lo + i).random(out=buffer[i])
            return buffer[:size]
        return fill
    kept = _kept_rows().get({})  # outside a shared_draws block, kept for this pass only
    key = (plan.master_seed, plan.samples)
    drawn = kept.get(key)
    if drawn is None or drawn.shape[1] < width:
        drawn = np.empty((plan.samples, padded))
        for t in range(plan.samples):
            plan.trial_rng(t).random(out=drawn[t])
        drawn.flags.writeable = False
        kept.clear()
        kept[key] = drawn
    return lambda lo, size: drawn[lo:lo + size, :width]


def clique_survival_integral(
    G: Graph, k: int, trials: int, seed: int = DEFAULT_SEED, mode: str = "site",
    workers: int = 1, fixed_p: float | None = None, row_limit: int = 0,
) -> SurvivalReport:
    """Monte Carlo survival ratio of (k+1)-cliques under random decimation.

    Each trial draws p uniformly in [0,1] (or uses ``fixed_p``), decimates,
    and counts the fraction of host cliques that survive. Trial t draws one
    row of uniforms from its own (seed, t) generator, p first when p is
    random; the summary and the rows come from those same draws, and totals
    are exact integers, so nothing depends on worker count, chunking or
    block size. The exact column is 1/(exponent+1) at random p and
    p^exponent at a fixed p.

    ``row_limit`` includes per-trial rows for the first trials in the
    report, for inspection or CSV output; it must not be negative.
    """
    grid = None if fixed_p is None else [fixed_p]
    summaries, rows = _survival_pass(G, k, trials, seed, mode, workers, grid, row_limit)
    return SurvivalReport(summary=summaries[0], rows=rows)


def survival_grid(
    G: Graph, k: int, trials: int, seed: int = DEFAULT_SEED, mode: str = "site",
    grid: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9), workers: int = 1,
) -> tuple[dict, ...]:
    """Mean survival ratio at each p of a grid, one row per grid point.

    One pass draws each trial's uniforms once and scores every point on them
    (common random numbers), so each row equals the summary of
    ``clique_survival_integral(..., fixed_p=p)`` at that p.
    """
    points = [float(p) for p in grid]
    if not points:
        raise ValueError("grid must hold at least one keep probability")
    summaries, _ = _survival_pass(G, k, trials, seed, mode, workers, points, 0)
    return tuple(
        {"p": p, "ratio": s.estimate, "stderr": s.stderr, "exact": s.exact}
        for p, s in zip(points, summaries)
    )
