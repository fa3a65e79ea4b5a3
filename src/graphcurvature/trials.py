"""Deterministic, chunked Monte Carlo trial plans.

Every trial t of a plan draws from an RNG seeded by (master_seed, t), so
results are reproducible and independent of how trials are split into
chunks. Accumulation is left to integer-valued reducers supplied by the
caller, which keeps the totals exactly order-independent.

Chunks run one after another in the calling thread: the interpreter lock
serialises this Python work anyway, so ``workers`` starts no threads. It is
accepted and validated, and results do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

DEFAULT_SEED = 271828
CHUNK_TRIALS = 20_000

T = TypeVar("T")


@dataclass(frozen=True)
class TrialPlan:
    """A fixed number of independently seeded trials."""

    samples: int
    master_seed: int = DEFAULT_SEED
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")

    def trial_rng(self, t: int) -> np.random.Generator:
        """Generator for trial t; depends only on (master_seed, t)."""
        return np.random.default_rng(np.random.SeedSequence((self.master_seed, t)))

    def chunks(self) -> Iterator[range]:
        """Consecutive trial index ranges of at most CHUNK_TRIALS trials."""
        for lo in range(0, self.samples, CHUNK_TRIALS):
            yield range(lo, min(lo + CHUNK_TRIALS, self.samples))

    def map_reduce(
        self,
        run_chunk: Callable[[range], T],
        combine: Callable[[T, T], T],
    ) -> T:
        """Run every chunk in turn and fold the partial results together.

        ``run_chunk`` must derive all randomness from ``trial_rng`` so the
        combined result does not depend on how the trials are chunked.
        """
        return reduce(combine, map(run_chunk, self.chunks()))


def mean_and_stderr(total: int, total_sq: int, samples: int) -> tuple[float, float | None]:
    """Sample mean and standard error from exact integer moment sums.

    The standard error uses the unbiased sample variance; with fewer than
    two samples it is unavailable and reported as None.
    """
    mean = total / samples
    if samples < 2:
        return mean, None
    var = (total_sq - total * total / samples) / (samples - 1)
    return mean, (max(var, 0.0) / samples) ** 0.5


def sum_vectors(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Elementwise integer sum, used as a map_reduce combiner."""
    return tuple(x + y for x, y in zip(a, b))
