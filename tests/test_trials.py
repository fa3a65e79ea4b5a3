"""Trial plans: seed derivation, chunking, and order-independent reduction."""

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from graphcurvature.expectation import mc_index_expectation
from graphcurvature.graphs import icosahedron, octahedron
from graphcurvature.morse import IndexCalculator
from graphcurvature.percolation import clique_survival_integral, shared_draws, survival_grid
from graphcurvature.trials import DEFAULT_SEED, TrialPlan, mean_and_stderr, sum_vectors


class TestTrialRng:
    def test_depends_only_on_master_and_index(self):
        a = TrialPlan(samples=100, master_seed=5, workers=1)
        b = TrialPlan(samples=999, master_seed=5, workers=16)
        for t in (0, 7, 98):
            assert a.trial_rng(t).random() == b.trial_rng(t).random()

    def test_distinct_trials_differ(self):
        plan = TrialPlan(samples=10, master_seed=1)
        draws = {plan.trial_rng(t).random() for t in range(10)}
        assert len(draws) == 10

    def test_distinct_masters_differ(self):
        x = TrialPlan(samples=1, master_seed=1).trial_rng(0).random()
        y = TrialPlan(samples=1, master_seed=2).trial_rng(0).random()
        assert x != y


class _PhiloxRow(ISeedSequence):
    """Hands PCG64 the four Philox words it is seeded with."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.uint64)
        return self.words


def reference_trial_rng(seed, t):
    """Trial t's generator, from its own Philox counter.

    Trials come in blocks of 4096; trial t's PCG64 seed is the first four
    words that a Philox keyed by seed draws from counter
    ``(t // 4096 << 64) + t % 4096``: one trial at a time here, where the
    engine draws a whole block at once.
    """
    words = np.random.Philox(seed, counter=(t // 4096 << 64) + t % 4096).random_raw(4)
    return np.random.Generator(np.random.PCG64(_PhiloxRow(words)))


class TestSeedSequenceOracle:
    """trial_rng(t) equals reference_trial_rng(seed, t), bit for bit.

    The reference seeds PCG64 through its own seed sequence, _PhiloxRow.

    The seeds span one to five 32-bit words and the trial indices cross
    block edges and the 32-bit boundary.
    """

    SEEDS = (0, 1, DEFAULT_SEED, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3)
    TRIALS = (0, 1, 4095, 4096, 4097, 2**32 - 1, 2**32, 2**32 + 4097)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_and_draws_equal_seed_sequence(self, seed):
        plan = TrialPlan(samples=1, master_seed=seed)
        for t in self.TRIALS:
            got = plan.trial_rng(t)
            want = reference_trial_rng(seed, t)
            assert got.bit_generator.state == want.bit_generator.state, (seed, t)
            assert got.random(8).tolist() == want.random(8).tolist(), (seed, t)

    @pytest.mark.parametrize("seed,t", [(-1, 0), (0, -1), (-(2**40), 5), (3, -(2**40))])
    def test_negative_seed_or_trial_is_rejected(self, seed, t):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            TrialPlan(samples=1, master_seed=seed).trial_rng(t)


class TestChunks:
    def test_cover_every_trial_once(self):
        for samples, workers in ((1, 1), (7, 3), (100, 4), (100_000, 8)):
            plan = TrialPlan(samples=samples, master_seed=0, workers=workers)
            seen = [t for chunk in plan.chunks() for t in chunk]
            assert seen == list(range(samples))

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialPlan(samples=0)
        with pytest.raises(ValueError):
            TrialPlan(samples=5, workers=0)


class TestMapReduce:
    def test_sum_independent_of_workers(self):
        def run_chunk(chunk):
            # uses only per-trial rngs, as the contract requires
            total = 0
            for t in chunk:
                total += int(plan1.trial_rng(t).integers(0, 1000))
            return (total,)

        plan1 = TrialPlan(samples=5000, master_seed=11, workers=1)
        base = plan1.map_reduce(run_chunk, sum_vectors)
        for w in (2, 5, 13):
            plan = TrialPlan(samples=5000, master_seed=11, workers=w)
            assert plan.map_reduce(run_chunk, sum_vectors) == base


class TestOneStreamPerTrial:
    """Each Monte Carlo trial builds exactly one generator from its (seed, t)."""

    @pytest.fixture
    def seen(self, monkeypatch):
        calls = []
        trial_rng = TrialPlan.trial_rng

        def counted(plan, t):
            calls.append(t)
            return trial_rng(plan, t)

        monkeypatch.setattr(TrialPlan, "trial_rng", counted)
        return calls

    @pytest.mark.parametrize("row_limit", [0, 9, 300])
    @pytest.mark.parametrize("mode,fixed_p", [("site", None), ("bond", None), ("site", 0.5)])
    def test_clique_survival(self, seen, mode, fixed_p, row_limit):
        clique_survival_integral(icosahedron(), 1, 250, seed=4, mode=mode, fixed_p=fixed_p,
                                 row_limit=row_limit)
        assert seen == list(range(250))

    @pytest.mark.parametrize("grid", [(0.5,), (0.1, 0.4, 0.6, 0.9)])
    @pytest.mark.parametrize("mode", ["site", "bond"])
    def test_survival_grid(self, seen, mode, grid):
        survival_grid(icosahedron(), 1, 250, seed=4, mode=mode, grid=grid)
        assert seen == list(range(250))

    def test_passes_that_fit_draw_each_trial_once_per_block(self, seen):
        """250 rows of 31 (bond) and then 13 (site) uniforms fit the budget:
        the site pass reads the bond pass's rows. Nothing outlives the block."""
        with shared_draws():
            clique_survival_integral(icosahedron(), 1, 250, seed=4, mode="bond")
            clique_survival_integral(icosahedron(), 1, 250, seed=4, mode="site", row_limit=9)
        assert seen == list(range(250))
        clique_survival_integral(icosahedron(), 1, 250, seed=4, mode="site")
        assert seen == list(range(250)) * 2

    def test_passes_that_do_not_fit_draw_each_trial_each(self, seen):
        """6000 rows of 13 uniforms pass the budget."""
        with shared_draws():
            for mode in ("site", "site", "bond"):
                clique_survival_integral(icosahedron(), 1, 6000, seed=4, mode=mode)
        assert seen == list(range(6000)) * 3

    def test_index_expectation(self, seen, monkeypatch):
        """One generator per trial, in trial order, and one index call per vertex."""
        calls = []
        index = IndexCalculator.index

        def counted(calc, order, x):
            calls.append(x)
            return index(calc, order, x)

        monkeypatch.setattr(IndexCalculator, "index", counted)
        mc_index_expectation(octahedron(), TrialPlan(samples=333, master_seed=4))
        assert seen == list(range(333))
        assert calls == [0, 1, 2, 3, 4, 5] * 333


class TestMeanStderr:
    def test_known_values(self):
        # data: 1, 2, 3 -> mean 2, sample var 1, stderr 1/sqrt(3)
        mean, se = mean_and_stderr(6, 14, 3)
        assert mean == 2.0
        assert se == pytest.approx((1 / 3) ** 0.5)

    def test_single_sample_unavailable(self):
        mean, se = mean_and_stderr(5, 25, 1)
        assert mean == 5.0 and se is None

    def test_zero_variance(self):
        mean, se = mean_and_stderr(12, 48, 3)  # all values 4
        assert mean == 4.0 and se == 0.0


def test_default_seed_is_fixed():
    assert DEFAULT_SEED == 271828
