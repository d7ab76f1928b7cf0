"""Contrastive bound estimators: values, gradients and the paired experiment."""

import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import nce_oracles
import softmaxopt as so
from softmaxopt.exceptions import DomainError, NonFiniteInput


def random_batch(seed, p=6, q=5, k=4):
    rng = np.random.default_rng(seed)
    return so.NceBatch(
        anchor=rng.standard_normal(p),
        positive=rng.standard_normal(q),
        negatives=tuple(rng.standard_normal(q) for _ in range(k - 1)),
        weight=rng.standard_normal((p, q)),
    )


def gap_batch(gap):
    """Two candidates whose scores are exactly (gap, 0)."""
    return so.NceBatch(
        anchor=np.array([1.0]),
        positive=np.array([gap]),
        negatives=(np.array([0.0]),),
        weight=np.array([[1.0]]),
    )


class TestNceLoss:
    def test_single_candidate_is_zero(self):
        batch = so.NceBatch(
            anchor=np.ones(3), positive=np.ones(2), negatives=(), weight=np.ones((3, 2))
        )
        assert so.nce_loss(batch) == 0.0

    def test_equal_scores_give_log_k(self):
        k = 5
        common = np.array([0.7, -0.2])
        batch = so.NceBatch(
            anchor=np.array([1.0, 0.5]),
            positive=common,
            negatives=tuple(common.copy() for _ in range(k - 1)),
            weight=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        assert so.nce_loss(batch) == pytest.approx(-math.log(k), abs=1e-12)

    def test_monotone_in_score_gap(self):
        values = [so.nce_loss(gap_batch(g)) for g in (1.0, 2.0, 4.0)]
        assert values[0] < values[1] < values[2] < 0.0
        # direct-evaluation oracle: two-candidate loss is -log(1 + e^{-gap})
        for gap, val in zip((1.0, 2.0, 4.0), values):
            assert val == pytest.approx(-math.log1p(math.exp(-gap)), rel=1e-13)

    def test_never_positive(self):
        for s in range(200):
            assert so.nce_loss(random_batch(s)) <= 0.0

    def test_shift_invariance(self):
        batch = random_batch(7)
        # adding c * y with anchor^T W y = 1 shifts every score by c
        y = np.linalg.lstsq(
            (batch.anchor @ batch.weight)[None, :], np.array([1.0]), rcond=None
        )[0]
        c = 13.7
        shifted = so.NceBatch(
            anchor=batch.anchor,
            positive=batch.positive + c * y,
            negatives=tuple(v + c * y for v in batch.negatives),
            weight=batch.weight,
        )
        assert so.nce_loss(shifted) == pytest.approx(so.nce_loss(batch), abs=1e-12)

    def test_large_scores_stable(self):
        batch = gap_batch(5000.0)
        assert so.nce_loss(batch) == 0.0  # saturates instead of overflowing


class TestMiLowerBound:
    def test_equal_scores_representation_zero(self):
        common = np.ones(2)
        batch = so.NceBatch(
            anchor=np.ones(2),
            positive=common,
            negatives=(common.copy(), common.copy()),
            weight=np.eye(2),
        )
        assert so.nce_loss(batch) + math.log(batch.k) == pytest.approx(0.0, abs=1e-12)

    def test_single_candidate_zero(self):
        batch = so.NceBatch(
            anchor=np.ones(2), positive=np.ones(2), negatives=(), weight=np.eye(2)
        )
        assert so.nce_loss(batch) + math.log(batch.k) == 0.0

    def test_bounded_by_log_k(self):
        for s in range(100):
            batch = random_batch(s)
            assert so.nce_loss(batch) + math.log(batch.k) <= math.log(batch.k) + 1e-12


class TestNceGradients:
    def test_single_candidate_zero_gradients(self):
        batch = so.NceBatch(
            anchor=np.array([1.0, 2.0]),
            positive=np.array([0.5]),
            negatives=(),
            weight=np.ones((2, 1)),
        )
        gw, ga = so.nce_gradients(batch)
        np.testing.assert_array_equal(gw, np.zeros((2, 1)))
        np.testing.assert_array_equal(ga, np.zeros(2))

    def test_identical_candidates_zero_gradients(self):
        common = np.array([0.3, -0.8])
        batch = so.NceBatch(
            anchor=np.array([1.0, -1.0]),
            positive=common,
            negatives=(common.copy(), common.copy()),
            weight=np.ones((2, 2)),
        )
        gw, ga = so.nce_gradients(batch)
        np.testing.assert_allclose(gw, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(ga, np.zeros(2), atol=1e-15)

    def test_matches_finite_differences(self):
        h = 1e-6
        for s in range(20):
            batch = random_batch(s)
            gw, ga = so.nce_gradients(batch)
            fd_w = np.zeros_like(batch.weight)
            for r in range(batch.weight.shape[0]):
                for c in range(batch.weight.shape[1]):
                    bump = np.zeros_like(batch.weight)
                    bump[r, c] = h
                    plus = so.nce_loss(
                        so.NceBatch(batch.anchor, batch.positive, batch.negatives, batch.weight + bump)
                    )
                    minus = so.nce_loss(
                        so.NceBatch(batch.anchor, batch.positive, batch.negatives, batch.weight - bump)
                    )
                    fd_w[r, c] = (plus - minus) / (2 * h)
            fd_a = np.zeros_like(batch.anchor)
            for r in range(batch.anchor.size):
                bump = np.zeros_like(batch.anchor)
                bump[r] = h
                plus = so.nce_loss(
                    so.NceBatch(batch.anchor + bump, batch.positive, batch.negatives, batch.weight)
                )
                minus = so.nce_loss(
                    so.NceBatch(batch.anchor - bump, batch.positive, batch.negatives, batch.weight)
                )
                fd_a[r] = (plus - minus) / (2 * h)
            assert so.rel_err(gw, fd_w) <= 1e-6
            assert so.rel_err(ga, fd_a) <= 1e-6

    def test_weight_scaling_raises_loss_when_positive_leads(self):
        batch = gap_batch(1.5)
        for s in (2.0, 5.0):
            scaled = so.NceBatch(
                batch.anchor, batch.positive, batch.negatives, s * batch.weight
            )
            assert so.nce_loss(scaled) > so.nce_loss(batch)

    def test_calls_share_no_buffer(self):
        # each call owns its gradients and its q_1 - sigma Q factor: a later
        # call of another batch leaves an earlier call's arrays as they were
        first, second = random_batch(11), random_batch(12)
        grads = so.nce_gradients(first)
        diff = so.nce._nce_stack(first.anchor, first.candidates, first.weight)[1]
        kept = [arr.copy() for arr in (*grads, diff)]
        later = so.nce_gradients(second)
        later_diff = so.nce._nce_stack(second.anchor, second.candidates, second.weight)[1]
        for arr, copy in zip((*grads, diff), kept):
            assert arr.tobytes() == copy.tobytes()
            assert not any(np.shares_memory(arr, new) for new in (*later, later_diff))


class TestNegativeDraw:
    # pool 2000 is drawn in several blocks of anchors, and every pool size
    # also draws k == pool_size
    @pytest.mark.parametrize("pool_size", [1, 2, 5, 96, 300, 2000])
    def test_same_stream_as_a_draw_from_the_other_indices(self, pool_size):
        for seed in range(21):
            k = (seed * 7) % pool_size + 1 if seed < 20 else pool_size  # 1 .. pool_size
            passes = seed % 3 + 1
            rng = np.random.default_rng([pool_size, seed])
            ref = np.random.default_rng([pool_size, seed])
            rows = so.nce._draw_passes(rng, passes, pool_size, k)
            assert rows.shape == (passes, pool_size, k)
            for pass_rows in rows:
                for i in range(pool_size):
                    others = np.delete(np.arange(pool_size), i)
                    want = ref.choice(others, size=k - 1, replace=False)
                    assert pass_rows[i, 0] == i
                    assert np.array_equal(pass_rows[i, 1:], want)
                    assert i not in pass_rows[i, 1:]
            # the generator is left where the per-anchor draws leave it
            assert rng.random() == ref.random()

    def test_tail_shuffle_regime_gives_valid_rows(self):
        # above 10000 other rows and 1/50 of them as negatives, numpy's choice
        # shuffles a tail of the whole population instead of Floyd's draw; the
        # batched Floyd draw then differs from it but is still a valid draw
        pool_size, k = 10002, 202
        rows = so.nce._draw_passes(np.random.default_rng(3), 1, pool_size, k)[0]
        assert rows.shape == (pool_size, k)
        assert np.array_equal(rows[:, 0], np.arange(pool_size))
        others = np.sort(rows[:, 1:], axis=1)
        assert others.min() >= 0 and others.max() < pool_size
        assert (np.diff(others, axis=1) > 0).all()
        assert not (rows[:, 1:] == rows[:, :1]).any()
        again = so.nce._draw_passes(np.random.default_rng(3), 1, pool_size, k)[0]
        assert np.array_equal(rows, again)
        want = np.random.default_rng(3).choice(pool_size - 1, size=k - 1, replace=False)
        assert not np.array_equal(rows[0, 1:], want + 1)


class TestDrawMemory:
    def test_peak_holds_one_pass_of_temporaries(self):
        # the default experiment's 26 passes: the int16 rows take 39,936
        # bytes, and each pass's shift adds about 5 KB on top
        rng = np.random.default_rng(0)
        so.nce._draw_passes(rng, 1, 96, 8)
        tracemalloc.start()
        try:
            rows = so.nce._draw_passes(rng, 26, 96, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.nbytes == 26 * 96 * 8 * 2
        assert peak < 200_000

    @pytest.mark.parametrize(("pool_size", "k"), [(1, 1), (96, 8), (300, 300), (2000, 64)])
    def test_int32_rows_equal_the_intp_rows(self, pool_size, k):
        # the shuffled chain's rows are shifted by pool_size, so 2 pool_size
        # must fit the narrow dtype, int16 at these pool sizes; the rows are
        # the per-anchor draws' intp rows
        rows = so.nce._draw_passes(np.random.default_rng(5), 2, pool_size, k)
        assert rows.dtype == np.int16
        ref = np.random.default_rng(5)
        wide = np.array([
            [np.insert(ref.choice(np.delete(np.arange(pool_size), i), k - 1, replace=False), 0, i)
             for i in range(pool_size)]
            for _ in range(2)
        ])
        assert wide.dtype == np.intp
        assert np.array_equal(rows, wide)
        pool = np.random.default_rng(6).standard_normal((2 * pool_size, 3))
        assert np.array_equal(np.take(pool, rows + pool_size, axis=0), pool[wide + pool_size])

    @pytest.mark.parametrize(("pool_size", "dtype"), [(16383, np.int16), (16384, np.int32)])
    def test_widest_pool_of_each_dtype(self, pool_size, dtype):
        # 2 pool_size - 1, the shuffled chain's last row, is 32765 at pool 16383;
        # one pool more and 2 pool_size no longer fits in int16
        rows = so.nce._draw_passes(np.random.default_rng(8), 1, pool_size, 2)[0]
        assert rows.dtype == dtype
        ref = np.random.default_rng(8)
        want = np.array([ref.choice(pool_size - 1, size=1, replace=False)[0] for _ in range(pool_size)])
        want += want >= np.arange(pool_size)
        assert np.array_equal(rows[:, 0], np.arange(pool_size))
        assert np.array_equal(rows[:, 1], want)
        shifted = rows + pool_size
        assert shifted.dtype == dtype
        assert np.array_equal(shifted, rows.astype(np.intp) + pool_size)
        assert shifted.max() == 2 * pool_size - 1


class TestDrawBlocks:
    def test_a_block_ending_mid_pass(self, monkeypatch):
        # blocks of 150 anchors over passes of 96: the second block starts in
        # pass 1 and ends in pass 3, the last one is shorter
        monkeypatch.setattr(so.nce, "_DRAW_ANCHORS", 150)
        calls = []
        floyd = so.nce._floyd_samples

        def counted(rng, count, population, size):
            calls.append(count)
            return floyd(rng, count, population, size)

        monkeypatch.setattr(so.nce, "_floyd_samples", counted)
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        rows = so.nce._draw_passes(rng, 4, 96, 8)
        assert calls == [150, 150, 84]
        for pass_rows in rows:
            for i in range(96):
                want = ref.choice(95, size=7, replace=False)
                assert pass_rows[i, 0] == i
                assert np.array_equal(pass_rows[i, 1:], want + (want >= i))
        assert rng.random() == ref.random()


class TestExperimentMemory:
    def test_passes_share_one_gather_buffer(self):
        # a pass's (pool_size, 2, k, q) gather is 98,304 bytes at the defaults;
        # gathering the next pass beside the last one held two of them, and a
        # default seed peaked at 433 KB, against 335 KB with one buffer
        so.paired_vs_shuffled_bounds(0)
        tracemalloc.start()
        try:
            so.paired_vs_shuffled_bounds(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 380_000, peak


class TestStackedHelpers:
    """Each row of a stack through the private helpers is bitwise one batch alone."""

    @staticmethod
    def _stack(batches):
        return (np.array([b.anchor for b in batches]), np.array([b.candidates for b in batches]),
                np.array([b.weight for b in batches]))

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_match_nce_gradients_and_loss(self, seed):
        batches = [random_batch(10 * seed + j) for j in range(3)]
        anchors, candidates, weights = self._stack(batches)
        log_p, diff = so.nce._nce_stack(anchors, candidates, weights)
        for j, batch in enumerate(batches):
            grad_w, grad_a = so.nce_gradients(batch)
            assert np.outer(batch.anchor, diff[j]).tobytes() == grad_w.tobytes()
            assert (batch.weight @ diff[j]).tobytes() == grad_a.tobytes()
            assert float(log_p[j]) == so.nce_loss(batch)

    @pytest.mark.parametrize("seed", range(10))
    def test_one_anchor_against_a_weight_per_chain(self, seed):
        # the training step: one anchor, each chain's candidates and weight
        first, other = random_batch(seed), random_batch(100 + seed)
        batches = [first, so.NceBatch(first.anchor, other.positive, other.negatives, other.weight)]
        _, candidates, weights = self._stack(batches)
        diff = so.nce._nce_stack(first.anchor, candidates, weights)[1]
        for j, batch in enumerate(batches):
            assert np.outer(batch.anchor, diff[j]).tobytes() == so.nce_gradients(batch)[0].tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_anchors_against_a_weight_per_chain(self, seed):
        # the evaluation pass: m anchors, each with one candidate set per chain
        rng = np.random.default_rng(seed)
        p, q, k, m = 3, 5, 4, 6
        weights = rng.standard_normal((2, p, q))
        anchors = rng.standard_normal((m, p))
        candidates = rng.standard_normal((m, 2, k, q))
        log_p = so.nce._nce_stack(anchors[:, None], candidates, weights)[0]
        assert log_p.shape == (m, 2)
        for i in range(m):
            for c in range(2):
                batch = so.NceBatch(anchors[i], candidates[i, c, 0], candidates[i, c, 1:], weights[c])
                assert float(log_p[i, c]) == so.nce_loss(batch)


class TestOneSoftmax:
    """Training, scoring, states, landscapes and the generator share model._softmax_into."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        softmax = so.model._softmax_into

        def counting(*args):
            counted.append(args[0].shape)
            return softmax(*args)

        monkeypatch.setattr(so.model, "_softmax_into", counting)
        monkeypatch.setattr(so.nce, "_softmax_into", counting)
        return counted

    def test_every_step_and_the_scoring_pass(self, calls):
        # 12 epochs of 96 lockstep steps, then one scoring pass of all anchors
        so.paired_vs_shuffled_bounds(0)
        assert len(calls) == 12 * 96 + 1
        assert calls[0] == (2, 8) and calls[-1] == (96, 2, 8)

    def test_model_paths_reach_it(self, calls):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=6, d=2, ridge_l=1.0, seed=0))
        reached = [len(calls)]
        so.make_state(inst, x_star)
        reached.append(len(calls))
        so.landscape_grid(inst, resolution=3)
        reached.append(len(calls))
        assert 0 < reached[0] < reached[1] < reached[2]

    def test_nce_takes_no_exp_of_its_own(self):
        assert "np.exp" not in inspect.getsource(so.nce)


class TestBatchEquality:
    def test_comparing_batches_does_not_raise(self):
        a, b = random_batch(3), random_batch(3)
        assert a == a
        assert a != b


class TestPairedExperiment:
    def test_correlated_beats_shuffled(self):
        margins = []
        for s in range(3):
            corr, shuf = so.paired_vs_shuffled_bounds(s, pool_size=48, epochs=8)
            margins.append(corr - shuf)
        assert np.mean(margins) > 0.0

    def test_reproducible(self):
        a = so.paired_vs_shuffled_bounds(5, pool_size=32, epochs=4)
        b = so.paired_vs_shuffled_bounds(5, pool_size=32, epochs=4)
        assert a == b

    def test_k_validation(self):
        with pytest.raises(DomainError):
            so.paired_vs_shuffled_bounds(0, pool_size=8, k=9)

    def test_overflow_in_the_shuffled_chain_alone_is_typed(self, monkeypatch):
        config = {"dim_anchor": 2, "pool_size": 4, "k": 2, "epochs": 2, "learning_rate": 1e306}
        # the per-batch oracle trains the correlated chain to the end and bounds
        # all four anchors before the shuffled chain's weight overflows
        scored = []

        def recorded_loss(batch):
            scored.append(so.nce_loss(batch))
            return scored[-1]

        monkeypatch.setattr(nce_oracles, "nce_loss", recorded_loss)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteInput):
            nce_oracles.paired_vs_shuffled_bounds(2, **config)
        assert len(scored) == 4 and np.isfinite(scored).all()
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteInput, match="learning_rate"):
                so.paired_vs_shuffled_bounds(2, **config)
        assert np.geterr() == before

    def test_overflowing_learning_rate_is_typed(self):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteInput, match="learning_rate"):
                so.paired_vs_shuffled_bounds(0, learning_rate=1e308)
        assert np.geterr() == before

    # the ufunc that overflows first: the in-place step *= learning_rate, and
    # the max-shift in the step's kernel; the two cases above overflow first
    # in the kernel's scores matmul
    @pytest.mark.parametrize(("seed", "learning_rate", "ufunc"), [
        (2, 1e308, "multiply"), (2, 1e307, "subtract"),
    ])
    def test_overflow_in_each_step_call_is_typed(self, seed, learning_rate, ufunc):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteInput, match=rf"in {ufunc}\); lower learning_rate"):
                so.paired_vs_shuffled_bounds(seed, learning_rate=learning_rate)
        assert np.geterr() == before


# Configs at the edges of the experiment: one candidate, two candidates of a
# small pool, the whole pool as candidates (of the default pool and of 300),
# unequal small dimensions, scalar anchors and partners, no training, a short
# training, a large step.
EDGE_CONFIGS = {
    "k1": {"k": 1},
    "k2_pool16": {"k": 2, "pool_size": 16},
    "k96": {"k": 96},
    "pool300_k300": {"pool_size": 300, "k": 300, "epochs": 1},
    "small": {"dim_anchor": 3, "dim_partner": 5, "k": 4, "pool_size": 16},
    "dim1": {"dim_anchor": 1, "dim_partner": 1},
    "epochs0": {"epochs": 0},
    "epochs3": {"epochs": 3},
    "lr3": {"learning_rate": 3.0},
}


class TestArrayLoopMatchesPerBatchOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_default_config(self, seed):
        got = so.paired_vs_shuffled_bounds(seed)
        assert got == nce_oracles.paired_vs_shuffled_bounds(seed)

    @pytest.mark.parametrize("config", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS.keys())
    def test_edge_configs(self, config):
        got = so.paired_vs_shuffled_bounds(0, **config)
        assert got == nce_oracles.paired_vs_shuffled_bounds(0, **config)


class TestSeedStack:
    """``_bounds`` trains many seeds on one weight stack, each seed bitwise alone."""

    @pytest.fixture
    def stacks(self, monkeypatch):
        sizes = []
        train = so.nce._train_stack

        def recorded(seeds, *args):
            sizes.append(len(seeds))
            return train(seeds, *args)

        monkeypatch.setattr(so.nce, "_train_stack", recorded)
        return sizes

    def test_twenty_seeds_equal_the_oracle(self, stacks):
        got = so.nce._bounds(range(20))
        assert stacks == [20]
        assert got == [nce_oracles.paired_vs_shuffled_bounds(seed) for seed in range(20)]

    @pytest.mark.parametrize("config", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS.keys())
    def test_edge_configs_at_three_seeds(self, monkeypatch, stacks, config):
        # one stack of three seeds, however many bytes a seed of the config takes
        monkeypatch.setattr(so.nce, "_STACK_BYTES", 2**30)
        got = so.nce._bounds([4, 0, 9], **config)
        assert stacks == [3]
        assert got == [nce_oracles.paired_vs_shuffled_bounds(seed, **config) for seed in (4, 0, 9)]

    def test_chunks_give_the_same_bounds(self, monkeypatch, stacks):
        # room for two seeds of 3 epochs (122,880 bytes each) a stack: seven
        # seeds train in four stacks
        monkeypatch.setattr(so.nce, "_STACK_BYTES", 250_000)
        got = so.nce._bounds(range(7), epochs=3)
        assert stacks == [2, 2, 2, 1]
        assert got == [so.paired_vs_shuffled_bounds(seed, epochs=3) for seed in range(7)]

    def test_indices_widen_with_the_stack(self, monkeypatch, stacks):
        # 2 S pool_size is 32768 for two seeds of pool 8192, past int16, while
        # each seed alone draws and gathers int16 indices
        monkeypatch.setattr(so.nce, "_STACK_BYTES", 2**30)
        chosen = []
        index_dtype = so.nce._index_dtype

        def recorded(top):
            chosen.append((top, index_dtype(top)))
            return chosen[-1][1]

        monkeypatch.setattr(so.nce, "_index_dtype", recorded)
        config = {"pool_size": 8192, "k": 2, "epochs": 0}
        got = so.nce._bounds([0, 1], **config)
        assert stacks == [2] and (32768, np.int32) in chosen
        chosen.clear()
        alone = [so.paired_vs_shuffled_bounds(seed, **config) for seed in (0, 1)]
        assert {dtype for _, dtype in chosen} == {np.int16}
        assert got == alone

    def test_memory_is_one_chunks(self, stacks):
        # forty default seeds train in two stacks and peak as the larger alone
        def peak(seeds):
            so.nce._bounds(seeds)
            tracemalloc.start()
            try:
                so.nce._bounds(seeds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_40 = peak(range(40))
        first = stacks[0]
        assert stacks[-2:] == [first, 40 - first] and first < 40
        peak_chunk = peak(range(first))
        assert peak_40 < 1.02 * peak_chunk, (peak_40, peak_chunk)
        assert peak_chunk < 1.5 * so.nce._STACK_BYTES
