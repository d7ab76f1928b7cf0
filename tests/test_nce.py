"""Contrastive bound estimators: values, gradients and the paired experiment."""

import math

import numpy as np
import pytest

import softmaxopt as so
from softmaxopt.exceptions import (
    DimensionMismatch,
    DomainError,
    NonFiniteInput,
    PoolTooSmall,
)


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


class TestBilinearScore:
    def test_zero_weight(self):
        assert so.bilinear_score([1.0, 2.0], [3.0], np.zeros((2, 1))) == 0.0

    def test_identity_unit_vector(self):
        e = np.array([1.0, 0.0])
        assert so.bilinear_score(e, e, np.eye(2)) == 1.0

    def test_hand_arithmetic(self):
        assert so.bilinear_score([1.0, 2.0], [3.0, 4.0], np.eye(2)) == 11.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            so.bilinear_score([1.0, 2.0], [3.0], np.eye(2))


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
        assert so.mi_lower_bound(batch, "representation") == pytest.approx(0.0, abs=1e-12)

    def test_single_candidate_zero(self):
        batch = so.NceBatch(
            anchor=np.ones(2), positive=np.ones(2), negatives=(), weight=np.eye(2)
        )
        assert so.mi_lower_bound(batch, "representation") == 0.0

    def test_bounded_by_log_k(self):
        for s in range(100):
            batch = random_batch(s)
            assert so.mi_lower_bound(batch, "representation") <= math.log(batch.k) + 1e-12

    def test_head_is_loss_with_unknown_offset(self):
        batch = random_batch(3)
        assert so.mi_lower_bound(batch, "head") == so.nce_loss(batch)

    def test_invalid_kind(self):
        with pytest.raises(DomainError):
            so.mi_lower_bound(random_batch(0), "other")


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


class TestOverallObjective:
    def test_zero_weights_return_task_loss(self):
        wts = so.ObjectiveWeights(beta=0.0, gamma=0.0)
        assert so.overall_objective(1.7, 5.0, -3.0, wts) == 1.7

    def test_hand_arithmetic_with_default_weights(self):
        wts = so.ObjectiveWeights(beta=0.1, gamma=0.05)
        assert so.overall_objective(1.0, 0.5, 0.2, wts) == pytest.approx(0.94, rel=1e-15)

    def test_all_zero(self):
        assert so.overall_objective(0.0, 0.0, 0.0, so.ObjectiveWeights()) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            so.overall_objective(np.inf, 0.0, 0.0, so.ObjectiveWeights())

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            so.ObjectiveWeights(beta=-0.1)


class TestSampleNegatives:
    def test_zero_request_empty(self):
        assert so.sample_negatives([np.zeros(2)], 0, seed=0) == []

    def test_full_pool_is_permutation_subset(self):
        pool = [np.array([float(i)]) for i in range(5)]
        out = so.sample_negatives(pool, 5, seed=1)
        assert sorted(float(v[0]) for v in out) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_seed_reproducible(self):
        pool = [np.array([float(i)]) for i in range(10)]
        a = so.sample_negatives(pool, 4, seed=42)
        b = so.sample_negatives(pool, 4, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_pool_too_small(self):
        with pytest.raises(PoolTooSmall):
            so.sample_negatives([np.zeros(1)], 2, seed=0)


class TestNegativeDraw:
    @pytest.mark.parametrize("pool_size", [1, 2, 5, 96])
    def test_same_stream_as_a_draw_from_the_other_indices(self, pool_size):
        partners = np.arange(float(pool_size))[:, None]
        for seed in range(20):
            rng = np.random.default_rng([pool_size, seed])
            ref = np.random.default_rng([pool_size, seed])
            for i in range(pool_size):
                count = (i * 7 + seed) % pool_size  # 0 .. pool_size - 1
                got = so.nce._draw_negatives(rng, partners, i, count)
                others = np.delete(np.arange(pool_size), i)
                want = partners[ref.choice(others, size=count, replace=False)]
                assert np.array_equal(got, want)
                assert i not in got


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
