"""Deterministic, chunked Monte Carlo trial plans.

Every trial t of a plan draws from its own PCG64 generator, seeded by row
t of a counter-based Philox stream keyed by the master seed (Salmon et al.
2011, "Parallel random numbers: as easy as 1, 2, 3"). Row t depends only on
(master_seed, t), so results are reproducible and independent of how trials
are split into chunks. The rows of an aligned block of SEED_BLOCK trials
come from one Philox draw. Accumulation is left to integer-valued reducers
supplied by the caller, which keeps the totals exactly order-independent.

Chunks run one after another in the calling thread: the interpreter lock
serialises this Python work anyway, so ``workers`` starts no threads. It is
accepted and validated, and results do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TypeVar

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SEED = 271828
CHUNK_TRIALS = 20_000
SEED_BLOCK = 4096  # trials per Philox seed block

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
        """Generator for trial t; depends only on (master_seed, t).

        Its PCG64 is seeded with row ``t % SEED_BLOCK`` of the Philox draw
        keyed by master_seed that starts at counter ``(t // SEED_BLOCK) << 64``.
        """
        state = _seed_block(self.master_seed, t // SEED_BLOCK)[t % SEED_BLOCK]
        seed_row, pcg64, generator = _seed_row_class()
        return generator(pcg64(seed_row(state)))

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


@lru_cache(maxsize=2)
def _seed_block(master_seed: int, block: int) -> np.ndarray:
    """PCG64 seeds of trials ``block * SEED_BLOCK`` onwards, one uint64[4] row each.

    The rows are one Philox draw keyed by ``master_seed`` (through
    SeedSequence) from counter ``block << 64``, so blocks never share a
    counter and row i depends only on (master_seed, block * SEED_BLOCK + i).
    """
    if block < 0:
        raise ValueError("expected non-negative integer")
    from numpy.random import Philox
    philox = Philox(master_seed, counter=block << 64)
    seeds = philox.random_raw(4 * SEED_BLOCK).reshape(SEED_BLOCK, 4)
    seeds.flags.writeable = False  # the cache hands the same array to every caller
    return seeds


@lru_cache(maxsize=None)
def _seed_row_class() -> tuple[type, type, type]:
    """SeedRow, PCG64 and Generator, the classes ``trial_rng`` builds from.

    SeedRow is the seed sequence PCG64 is given: one row of a seed block.
    All three are made on first use, so that importing this module does not
    import numpy, and cached, so that a trial runs no import statement.
    """
    import numpy as np
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedRow(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.state  # PCG64 asks only for generate_state(4, np.uint64)

    return SeedRow, PCG64, Generator


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
