"""Soundness of the oracles themselves, spectral checks and audits."""

import json
import tracemalloc

import numpy as np
import pytest

import softmaxopt as so
from softmaxopt.exceptions import (
    AsymmetricMatrix,
    MidNotPD,
    MissingPlantedOptimum,
    SamplingFailure,
)
from softmaxopt.newton import IterateRecord, SolveTrace
from softmaxopt.suite import random_instance


def synthetic_trace(errors, iterations=None):
    recs = [
        IterateRecord(t=t, x=np.zeros(1), loss=0.0, grad_norm=0.0, err_to_opt=e, step_seconds=0.0)
        for t, e in enumerate(errors)
    ]
    return SolveTrace(
        iterates=recs,
        converged=True,
        iterations_run=len(errors) - 1 if iterations is None else iterations,
    )


class TestFdGradient:
    def test_constant_function(self):
        g = so.fd_gradient(lambda v: 3.0, np.ones(4))
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_linear_function_exact(self):
        c = np.array([2.0, -1.0, 0.5])
        g = so.fd_gradient(lambda v: float(c @ v), np.array([0.3, 0.1, -0.9]))
        np.testing.assert_allclose(g, c, atol=1e-10)

    def test_quadratic_soundness(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(5)
            x *= rng.uniform(0, 10) / max(np.linalg.norm(x), 1e-300)
            g = so.fd_gradient(lambda v: 0.5 * float(v @ v), x)
            np.testing.assert_allclose(g, x, atol=1e-8)

    def test_cross_module_cent_gradient(self):
        inst, x = random_instance(1, n_max=10, d_max=4)
        state = so.make_state(inst, x)
        fd = so.fd_gradient(lambda v: so.loss_cent(so.make_state(inst, v).f, inst.b), x)
        assert so.rel_err(fd, so.grad_cent(state, inst)) <= 1e-6


class TestFdHessian:
    def test_quadratic_recovers_matrix(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((4, 4))
        q = 0.5 * (q + q.T)
        h = so.fd_hessian(lambda v: 0.5 * float(v @ q @ v), rng.standard_normal(4))
        np.testing.assert_allclose(h, q, atol=1e-6)

    def test_constant_function(self):
        h = so.fd_hessian(lambda v: 1.0, np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros((3, 3)))

    def test_output_symmetric(self):
        inst, x = random_instance(3, n_max=8, d_max=4)
        h = so.fd_hessian(lambda v: so.loss_total(inst, v).total, x)
        np.testing.assert_array_equal(h, h.T)

    def test_cross_module_total_hessian(self):
        inst, x = random_instance(4, n_max=10, d_max=4)
        fd = so.fd_hessian(lambda v: so.loss_total(inst, v).total, x)
        assert so.rel_err(fd, so.hessian_total_at(inst, x)) <= 1e-4


class TestPsdCheck:
    def test_scaled_identity_passes(self):
        report = so.psd_check(2.0 * np.eye(3), 1.0)
        assert report.passed
        assert report.eigmin == pytest.approx(2.0)
        assert report.eigmax == pytest.approx(2.0)

    def test_indefinite_fails_at_zero_target(self):
        report = so.psd_check(np.diag([1.0, -1.0]), 0.0)
        assert not report.passed

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricMatrix):
            so.psd_check(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.0)

    def test_exactly_psd_kernel_passes_zero_target(self):
        inst, x = random_instance(5)
        state = so.make_state(inst, x)
        only_cent = so.ProblemInstance(a=inst.a, b=inst.b, w=np.zeros(inst.n), use_exp=False)
        report = so.psd_check(so.hessian_cent(state, only_cent), 0.0)
        assert report.passed

    def test_report_serializes(self):
        report = so.psd_check(np.eye(2), 0.5)
        data = json.loads(json.dumps(report.to_dict()))
        assert set(data) == {"eigmin", "eigmax", "target_l", "passed"}


class TestSandwichCheck:
    def test_reflexive(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((4, 4))
        m = m @ m.T + 0.5 * np.eye(4)
        for eps in (0.0, 1e-6, 0.01):
            assert so.sandwich_check(m, m, 1.0 - eps, 1.0 + eps)

    def test_double_fails_tight_window(self):
        m = np.eye(3) * 1.5
        assert not so.sandwich_check(2.0 * m, m, 0.99, 1.01)

    def test_mid_not_pd(self):
        with pytest.raises(MidNotPD):
            so.sandwich_check(np.eye(2), np.diag([1.0, 0.0]), 0.9, 1.1)

    def test_dominant_ridge_instance(self):
        inst, x = random_instance(7, n_max=12, d_max=4)
        state = so.make_state(inst, x)
        kernel = so.b_matrix(state, inst.b) + so.exp_kernel(state, inst)
        w2 = 100.0 * np.linalg.norm(kernel, 2) + 1.0
        shifted = kernel + w2 * np.eye(inst.n)
        assert so.sandwich_check(w2 * np.eye(inst.n), shifted, 0.99, 1.01)


class TestRidgeRecipe:
    @pytest.mark.parametrize("level", [0.1, 1.0, 10.0])
    def test_planted_level_is_met(self, level):
        inst, x = random_instance(8, n_max=15, d_max=4)
        rng = np.random.default_rng(9)
        probes = [x + 0.3 * rng.standard_normal(inst.d) for _ in range(6)] + [x]
        w = so.ridge_weights(inst, level, probes)
        sized = so.ProblemInstance(a=inst.a, b=inst.b, w=w)
        for probe in probes:
            h = so.hessian_total_at(sized, probe)
            assert so.psd_check(h, level).passed

    def test_zero_level_zero_kernel_gives_zero_weights(self):
        inst = so.ProblemInstance(
            a=np.eye(3), b=np.zeros(3), w=np.zeros(3), use_exp=False, use_cent=False
        )
        w = so.ridge_weights(inst, 0.0, [np.zeros(3)])
        np.testing.assert_array_equal(w, np.zeros(3))


def kernel_instance(n, d=4):
    """Instance with n rows, a non-normalised target and three probe points."""
    rng = np.random.default_rng([70, n])
    a = rng.standard_normal((n, d))
    b = rng.uniform(0.0, 3.0 / n, n)
    probes = [rng.standard_normal(d) for _ in range(3)]
    return so.ProblemInstance(a=a, b=b, w=np.zeros(n)), probes


class TestKernelBound:
    @pytest.mark.parametrize("n", [1, 2, 20, so.verify.DENSE_NORM_MAX_N + 1, 400])
    def test_matches_dense_two_norm(self, n):
        inst, probes = kernel_instance(n)
        expected = 0.0
        for x in probes:
            state = so.make_state(inst, x)
            kernel = so.b_matrix(state, inst.b) + so.exp_kernel(state, inst)
            expected = max(expected, float(np.linalg.norm(kernel, 2)))
        assert so.kernel_bound(inst, probes) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n", [20, 400])
    def test_reruns_are_bitwise_equal(self, n):
        inst, probes = kernel_instance(n)
        assert so.kernel_bound(inst, probes) == so.kernel_bound(inst, probes)

    def test_zero_kernel_above_cutoff(self):
        inst, probes = kernel_instance(400)
        zero = so.ProblemInstance(
            a=inst.a, b=np.zeros(inst.n), w=inst.w, use_exp=False, use_cent=True
        )
        assert so.kernel_bound(zero, probes) == 0.0

    def test_no_n_by_n_allocation(self):
        n = 3000
        inst, probes = kernel_instance(n)
        state = so.make_state(inst, probes[0])
        so.kernel_bound(inst, probes[:1])  # imports the Lanczos solver untraced
        tracemalloc.start()
        try:
            so.hessian_total(state, inst)
            hessian_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            so.kernel_bound(inst, probes)
            bound_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hessian_peak < n * n * 8
        assert bound_peak < n * n * 8


class TestLipschitzProbe:
    def test_structure_and_preconditions(self):
        inst, _ = so.generate_planted(so.GeneratorSpec(n=12, d=4, ridge_l=1.0, seed=10))
        distances = (1e-2, 1e-3, 1e-4)
        probe = so.lipschitz_probe(inst, radius_r=4.0, num_pairs=4, seed=0, distances=distances)
        assert len(probe.pairs) == 4 * len(distances)
        for pair in probe.pairs:
            assert np.abs(inst.a @ (pair.x - pair.y)).max() < 0.01
            assert np.linalg.norm(pair.x) <= 4.0 + 1e-12
            assert np.linalg.norm(pair.y) <= 4.0 + 1e-12
            assert np.isfinite(pair.ratio)

    def test_ratios_stable_across_scales(self):
        inst, _ = so.generate_planted(so.GeneratorSpec(n=12, d=4, ridge_l=1.0, seed=11))
        distances = (1e-2, 1e-3, 1e-4)
        probe = so.lipschitz_probe(inst, radius_r=4.0, num_pairs=5, seed=1, distances=distances)
        k = len(distances)
        for g in range(5):
            ratios = [probe.pairs[g * k + j].ratio for j in range(k)]
            assert max(ratios) <= 2.0 * min(ratios)

    def test_row_count_doubling_keeps_ratio_bounded(self):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((24, 3)) * 0.5
        small = so.ProblemInstance(a=rows[:12], b=np.full(12, 1.0 / 12), w=np.ones(12))
        large = so.ProblemInstance(a=rows, b=np.full(24, 1.0 / 24), w=np.ones(24))
        p_small = so.lipschitz_probe(small, 4.0, 5, seed=2)
        p_large = so.lipschitz_probe(large, 4.0, 5, seed=2)
        assert p_large.max_ratio / p_small.max_ratio < 2.0**4

    def test_sampling_failure_when_preconditions_impossible(self):
        inst = so.ProblemInstance(a=1000.0 * np.eye(3), b=np.zeros(3), w=np.zeros(3))
        with pytest.raises(SamplingFailure):
            so.lipschitz_probe(inst, radius_r=4.0, num_pairs=1, seed=0, distances=(1e-2,))

    def test_report_serializes(self):
        inst, _ = so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=1.0, seed=13))
        probe = so.lipschitz_probe(inst, 4.0, 2, seed=3)
        data = json.loads(json.dumps(probe.to_dict()))
        assert set(data) == {"pairs", "max_ratio"}
        assert all(set(p) == {"dist", "ratio"} for p in data["pairs"])


class TestConvergenceAudit:
    def test_zero_iteration_at_optimum(self):
        trace = synthetic_trace([0.0])
        assert so.convergence_audit(trace, 1e-10)

    def test_halving_trace_passes(self):
        errors = [0.1]
        while errors[-1] > 1e-10:
            errors.append(errors[-1] / 2.0)
        assert so.convergence_audit(synthetic_trace(errors), 1e-10)

    def test_stalling_trace_fails(self):
        trace = synthetic_trace([0.1, 0.05, 0.05, 0.05])
        assert not so.convergence_audit(trace, 1e-10)

    def test_budget_violation_fails(self):
        # final error fine, but too many iterations for the log2 budget
        errors = [1e-3] + [1e-3 * 0.9**k for k in range(1, 120)] + [1e-11]
        assert not so.convergence_audit(synthetic_trace(errors), 1e-10)

    def test_missing_error_data(self):
        trace = synthetic_trace([0.1, 0.0])
        trace.iterates[0] = IterateRecord(
            t=0, x=np.zeros(1), loss=0.0, grad_norm=0.0, err_to_opt=None, step_seconds=0.0
        )
        with pytest.raises(MissingPlantedOptimum):
            so.convergence_audit(trace, 1e-10)


class TestRelErr:
    def test_metric(self):
        assert so.rel_err(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert so.rel_err(np.array([0.0]), np.array([1e-7])) == pytest.approx(1e-7)
        assert so.rel_err(np.array([10.0]), np.array([11.0])) == pytest.approx(1.0 / 11.0)
