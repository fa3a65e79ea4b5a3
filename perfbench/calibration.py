"""Machine-speed calibration for the end-to-end timings.

On a shared machine the same Python code runs up to twice as fast or slow
from one stretch of seconds to the next. The benchmark therefore times a
fixed kernel, a bitmask clique enumeration of a fixed 3000-vertex
geometric graph, just before and just after each timed interval, and
scales the interval to a machine on which one kernel burst takes
REFERENCE_S. The kernel never calls the program, so a change to the
program does not move it.

An op that keeps several threads busy is scaled by a burst that runs the
kernel on as many threads at once, under the same interpreter lock: over
twelve Monte Carlo ops on two threads, the op times varied by 6.5%
(coefficient of variation), by 5.8% when each was scaled by two-thread
bursts and by 12% when scaled by one-thread bursts.

The kernel works on big-int neighbour masks, as the program's clique and
index loops do, rather than reusing the set-based ``inputs.fvector``: with
``inputs.fvector`` as the burst, ten Monte Carlo runs spread by 30% of
their median after scaling; with the bitmask kernel, by 9-22% (both with
one-thread bursts).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import inputs

REFERENCE_S = 0.1
PASSES = 3  # enumerations per burst, about 0.15 s on a 2-CPU Xeon VM
KERNEL_N = 3000


def _kernel_masks() -> list[int]:
    n, edges = inputs.parse_edges(inputs.geometric_torus_text(KERNEL_N, 8, seed=0))
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _enumerate_cliques(masks: list[int]):
    """Visit every nonempty clique of the graph with neighbour bitmasks ``masks``."""
    stack = [(1 << len(masks)) - 1]
    while stack:
        m = stack.pop()
        while m:
            b = m & -m
            m ^= b
            sub = m & masks[b.bit_length() - 1]
            if sub:
                stack.append(sub)


class Calibration:
    def __init__(self):
        self.masks = _kernel_masks()
        self.samples: list[float] = []

    def _passes(self):
        for _ in range(PASSES):
            _enumerate_cliques(self.masks)

    def burst(self, threads: int = 1) -> float:
        """Seconds one kernel burst on ``threads`` threads at once takes now;
        also kept in ``samples``."""
        t0 = perf_counter()
        if threads == 1:
            self._passes()
        else:
            with ThreadPoolExecutor(threads) as pool:
                for future in [pool.submit(self._passes) for _ in range(threads)]:
                    future.result()
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` as they would read where a burst takes REFERENCE_S."""
        return seconds * 2 * REFERENCE_S / (before + after)
