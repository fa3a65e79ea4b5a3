"""Deterministic, chunked Monte Carlo trial plans.

Every trial t of a plan draws from exactly
``np.random.default_rng(np.random.SeedSequence((master_seed, t)))``, so
results are reproducible and independent of how trials are split into
chunks. SeedSequence's hash is computed here in numpy for an aligned block
of SEED_BLOCK trials at a time, which gives the same generators at a
fraction of the cost of one SeedSequence per trial. Accumulation is left to
integer-valued reducers supplied by the caller, which keeps the totals
exactly order-independent.

Chunks run one after another in the calling thread: the interpreter lock
serialises this Python work anyway, so ``workers`` starts no threads. It is
accepted and validated, and results do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

DEFAULT_SEED = 271828
CHUNK_TRIALS = 20_000
SEED_BLOCK = 4096  # trials per hashed seed block; divides 2**32

# The constants of numpy's SeedSequence, O'Neill's seed_seq_fe hash.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in 32-bit words

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

        It is ``default_rng(SeedSequence((master_seed, t)))`` bit for bit:
        the PCG64 seed comes from t's row of a hashed block of trials.
        """
        state = _seed_block(self.master_seed, t // SEED_BLOCK)[t % SEED_BLOCK]
        return np.random.Generator(np.random.PCG64(_seed_row_class()(state)))

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


def _words(n: int) -> list[int]:
    """n's 32-bit words, least significant first, as SeedSequence splits an int."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The running hash constants init * mult**i mod 2**32 for i < count."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix(x, y), computed in place in x and y."""
    x *= _MIX_L
    y *= _MIX_R
    x -= y
    x ^= x >> 16
    return x


@lru_cache(maxsize=2)
def _seed_block(master_seed: int, block: int) -> np.ndarray:
    """PCG64 seeds of trials ``block * SEED_BLOCK`` onwards, one uint64[4] row each.

    Row i is ``SeedSequence((master_seed, t)).generate_state(4, np.uint64)``
    for t = block * SEED_BLOCK + i. Within an aligned block only t's lowest
    word varies, so each step of the hash runs once over a whole column of
    trials, in uint32 arithmetic that wraps as the C hash does.
    """
    lo = block * SEED_BLOCK
    seed_words = _words(master_seed)
    words = seed_words + _words(lo)
    entropy = np.repeat(np.array(words + [0] * (_POOL - len(words)), dtype=np.uint32)[:, None],
                        SEED_BLOCK, axis=1)
    entropy[len(seed_words)] += np.arange(SEED_BLOCK, dtype=np.uint32)  # t's lowest word
    mult = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy) + 1)[:, None]
    used = 0

    def hashmix(value: np.ndarray, count: int) -> np.ndarray:
        """``count`` successive hashmix calls of SeedSequence, one per row."""
        nonlocal used
        h = value ^ mult[used:used + count]
        h *= mult[used + 1:used + count + 1]
        h ^= h >> 16
        used += count
        return h

    # mix_entropy: hash the first words into the pool, mix every pool word
    # into every other, then fold in any words beyond the pool.
    pool = hashmix(entropy[:_POOL], _POOL)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for word in entropy[_POOL:]:
        pool = _mix(pool, hashmix(word, _POOL))
    # generate_state(4, uint64): eight hashed words per trial, one trial a
    # row, read as four little-endian uint64 words as numpy reads them.
    b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL + 1)
    out = np.empty((SEED_BLOCK, 2 * _POOL), dtype="<u4")
    for i in range(2 * _POOL):
        h = pool[i % _POOL] ^ b[i]
        h *= b[i + 1]
        h ^= h >> 16
        out[:, i] = h
    seeds = out.view("<u8").astype(np.uint64, copy=False)
    seeds.flags.writeable = False  # the cache hands the same array to every caller
    return seeds


@lru_cache(maxsize=None)
def _seed_row_class() -> type:
    """The seed sequence PCG64 is given: one row of a seed block.

    Built on first use, so that importing this module does not import
    numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedRow(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.state  # PCG64 asks only for generate_state(4, np.uint64)

    return SeedRow


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
