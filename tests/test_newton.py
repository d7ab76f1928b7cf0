"""Newton solver, sampled Hessian and the gradient-descent baseline."""

import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import softmaxopt as so
from kernel_oracles import total_kernel
from softmaxopt.exceptions import (
    DimensionMismatch,
    DomainError,
    KernelNotPSD,
    NonFiniteIterate,
    SamplingDegenerate,
    SingularHessian,
)
from softmaxopt.suite import random_instance


def csv_text(table, **kwargs) -> str:
    """The text ``write_csv`` writes to an open stream."""
    stream = io.StringIO()
    table.write_csv(stream, **kwargs)
    return stream.getvalue()


def quadratic_instance(seed=0, d=4):
    """Ridge-only objective 0.5||A x||^2 with square invertible A."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
    return so.ProblemInstance(
        a=a, b=np.zeros(d), w=np.ones(d), use_exp=False, use_cent=False
    )


class TestNewtonStep:
    def test_fixed_point_at_zero_gradient(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=1.0, seed=1))
        np.testing.assert_allclose(so.newton_step(inst, x_star), x_star, atol=1e-12)

    def test_one_step_exact_on_quadratic(self):
        inst = quadratic_instance(seed=2)
        x0 = np.random.default_rng(3).standard_normal(inst.d)
        x1 = so.newton_step(inst, x0)
        np.testing.assert_allclose(x1, np.zeros(inst.d), atol=1e-12)

    def test_error_contracts_in_basin(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=4))
        x = x_star + 1e-3 * np.array([1.0, 0, 0, 0, 0])
        for _ in range(3):
            err_before = np.linalg.norm(x - x_star)
            if err_before == 0.0:
                break
            x = so.newton_step(inst, x)
            assert np.linalg.norm(x - x_star) <= 0.5 * err_before

    def test_singular_hessian_raises(self):
        inst = so.ProblemInstance(
            a=np.ones((3, 2)), b=np.zeros(3), w=np.zeros(3), use_exp=False, use_cent=False
        )
        with pytest.raises(SingularHessian):
            so.newton_step(inst, np.array([0.1, 0.2]))

    def test_sampled_mode_step_contracts(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=30, d=4, ridge_l=1.0, seed=30))
        x0 = so.basin_start(x_star, 1e-3, 0)
        x1 = so.newton_step(inst, x0, so.SolverConfig(mode="sampled", seed=7))
        assert np.linalg.norm(x1 - x_star) <= 0.5 * np.linalg.norm(x0 - x_star)

    def test_mode_validation(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=1.0, seed=31))
        with pytest.raises(DomainError):
            so.newton_step(inst, x_star, so.SolverConfig(mode="bogus"))


class TestApproxHessian:
    def test_saturated_sampling_reproduces_exact(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=50, d=4, ridge_l=1.0, seed=5))
        state = so.make_state(inst, x_star)
        exact = so.hessian_total(state, inst)
        approx = so.approx_hessian(inst, state, 0.1, seed=0)
        np.testing.assert_allclose(approx, exact, rtol=1e-12)

    def test_spectral_sandwich_across_seeds(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=100, d=4, ridge_l=1.0, seed=6))
        state = so.make_state(inst, so.basin_start(x_star, 0.1, 0))
        exact = so.hessian_total(state, inst)
        hits = 0
        for s in range(40):
            approx = so.approx_hessian(inst, state, 0.1, seed=s)
            gen = scipy.linalg.eigh(approx, exact, eigvals_only=True)
            hits += bool(gen[0] >= 0.9 and gen[-1] <= 1.1)
        assert hits >= 38

    def test_subsampling_is_nearly_unbiased(self):
        # Large sample_epsilon/delta force row-drop probabilities below one.
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=150, d=3, ridge_l=1.0, seed=7))
        state = so.make_state(inst, x_star)
        exact = so.hessian_total(state, inst)
        draws = [so.approx_hessian(inst, state, 0.9, seed=s, delta=0.5) for s in range(300)]
        spread = max(np.linalg.norm(h - exact, 2) for h in draws)
        assert spread > 1e-8  # genuinely random draws
        mean = np.mean(draws, axis=0)
        assert np.linalg.norm(mean - exact, 2) <= 0.05 * np.linalg.norm(exact, 2)

    def test_negative_seed_is_domain_error(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=0))
        state = so.make_state(inst, x_star)
        with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
            so.approx_hessian(inst, state, 0.05, -1)

    def test_generator_seed_draws_as_its_integer_seed(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=150, d=3, ridge_l=1.0, seed=7))
        state = so.make_state(inst, x_star)
        by_int = so.approx_hessian(inst, state, 0.9, seed=4, delta=0.5)
        by_rng = so.approx_hessian(inst, state, 0.9, seed=np.random.default_rng(4), delta=0.5)
        assert np.array_equal(by_int, by_rng)

    def test_d_exceeding_n_degenerate(self):
        inst = so.ProblemInstance(
            a=np.random.default_rng(8).standard_normal((3, 5)), b=np.zeros(3), w=np.ones(3)
        )
        state = so.make_state(inst, np.zeros(5))
        with pytest.raises(SamplingDegenerate):
            so.approx_hessian(inst, state, 0.1, seed=0)

    def test_rank_deficient_sample_degenerate(self):
        # One dominant row hogs the sampling probability; the rest are
        # essentially never kept, leaving a rank-1 estimate.
        a = np.full((60, 5), 1e-9)
        a[0] = 10.0
        inst = so.ProblemInstance(
            a=a, b=np.zeros(60), w=np.ones(60), use_exp=False, use_cent=False
        )
        state = so.make_state(inst, np.zeros(5))
        with pytest.raises(SamplingDegenerate):
            so.approx_hessian(inst, state, 0.9, seed=0, delta=0.9)

    def test_empty_draw_degenerate(self):
        # d = 1 with sample_epsilon = delta = 0.9 gives a count of 2, so each
        # of the 10 equal rows is kept with probability 0.2; the zero matrix
        # of an empty draw fails the singularity test
        n = 10
        inst = so.ProblemInstance(
            a=np.ones((n, 1)), b=np.zeros(n), w=np.ones(n), use_exp=False, use_cent=False
        )
        state = so.make_state(inst, np.zeros(1))
        count = math.ceil(so.newton.SAMPLE_OVERSAMPLING * math.log(1 / 0.9) / 0.9**2)
        assert count == 2
        seed = next(s for s in range(100) if not (np.random.default_rng(s).random(n) < 0.2).any())
        with pytest.raises(SamplingDegenerate, match="rank below d"):
            so.approx_hessian(inst, state, 0.9, seed=seed, delta=0.9)

    def test_estimator_domain_is_wider_than_solver_regime(self):
        # approx_hessian accepts (0, 1); SolverConfig keeps (0, 0.1] and (0, 0.1)
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=0))
        state = so.make_state(inst, x_star)
        approx = so.approx_hessian(inst, state, 0.5, 0, delta=0.5)
        assert approx.shape == (5, 5)
        with pytest.raises(DomainError, match=r"^sample_epsilon must lie in \(0, 1\)"):
            so.approx_hessian(inst, state, 1.0, 0)
        with pytest.raises(DomainError, match=r"^delta must lie in \(0, 1\)"):
            so.approx_hessian(inst, state, 0.5, 0, delta=1.0)
        with pytest.raises(DomainError, match="^sample_epsilon"):
            so.SolverConfig(mode="sampled", sample_epsilon=0.5)
        with pytest.raises(DomainError, match="^delta"):
            so.SolverConfig(delta=0.5)


class TestKernelNotPSD:
    @pytest.mark.parametrize("draw", range(10))
    def test_indefinite_kernel_raises(self, draw):
        base, x = random_instance(draw)
        inst = so.ProblemInstance(
            a=5.0 * base.a, b=base.b, w=np.zeros(base.n), use_cent=False
        )
        state = so.make_state(inst, x)
        evals = np.linalg.eigvalsh(total_kernel(state, inst))
        assert evals[0] < -1e-8 * max(1.0, evals[-1])
        with pytest.raises(KernelNotPSD):
            so.approx_hessian(inst, state, 0.1, seed=0)

    def test_indefinite_kernel_with_positive_diagonal_raises(self):
        base, x = random_instance(564)
        inst = so.ProblemInstance(a=base.a, b=base.b, w=base.w, use_cent=False)
        state = so.make_state(inst, x)
        assert so.total_kernel_parts(state, inst).c.min() > 0
        assert np.linalg.eigvalsh(total_kernel(state, inst))[0] < -1e-2
        with pytest.raises(KernelNotPSD, match="indefinite"):
            so.approx_hessian(inst, state, 0.1, seed=0)

    def test_negative_diagonal_raises(self):
        # the kernel itself is positive definite here, but its diagonal part
        # c has a negative entry, which the factor does not accept
        inst, x = random_instance(859)
        state = so.make_state(inst, x)
        assert so.total_kernel_parts(state, inst).c[1] < 0
        assert np.linalg.eigvalsh(total_kernel(state, inst))[0] > 1e-2
        with pytest.raises(KernelNotPSD, match="kernel diagonal"):
            so.approx_hessian(inst, state, 0.1, seed=0)

    def test_zero_row_does_not_raise(self):
        # f_3 underflows to 0 (its logit is 1000 below the rest) and w_3 = 0
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1000.0, 0.0]])
        inst = so.ProblemInstance(
            a=a, b=np.array([0.2, 0.3, 0.1, 0.4]), w=np.array([1.0, 1.0, 1.0, 0.0])
        )
        state = so.make_state(inst, np.array([1.0, 0.5]))
        parts = so.total_kernel_parts(state, inst)
        assert parts.c[3] == parts.f[3] == parts.g[3] == 0.0
        np.testing.assert_array_equal(parts.factor(inst.a)[3], np.zeros(2))
        approx = so.approx_hessian(inst, state, 0.1, seed=0)
        assert so.rel_err(approx, so.hessian_total(state, inst)) <= 1e-12

    @pytest.mark.parametrize("zero_rows", [(1, 3, 4, 6), (0, 2, 5, 7)])
    @pytest.mark.parametrize("use_exp", [True, False])
    def test_interleaved_zero_rows(self, zero_rows, use_exp):
        # rows whose logit is 1000 below the rest underflow f to 0; with
        # w = 0 there they are zero rows of the kernel (g = 0 without the
        # squared residual, so [f, g] has rank 1)
        rng = np.random.default_rng(83)
        a = rng.standard_normal((8, 3))
        rows = list(zero_rows)
        a[rows, 0] = -1000.0
        w = np.ones(8)
        w[rows] = 0.0
        b = rng.uniform(0.0, 1.0, 8)
        inst = so.ProblemInstance(a=a, b=b / b.sum(), w=w, use_exp=use_exp)
        state = so.make_state(inst, np.array([1.0, 0.5, -0.3]))
        parts = so.total_kernel_parts(state, inst)
        assert np.all(parts.c[rows] == 0.0) and np.all(parts.f[rows] == 0.0)
        assert np.all(parts.g[rows] == 0.0)
        c_mat = parts.factor(inst.a)
        np.testing.assert_array_equal(c_mat[rows], np.zeros((len(rows), 3)))
        assert so.rel_err(c_mat.T @ c_mat, so.hessian_total(state, inst)) <= 1e-12


class TestZeroKernel:
    """kappa = 0 and g = 0 leave D = diag(c), so c_i = 0 rows are zero rows."""

    @staticmethod
    def cent_only_without_target():
        # beta = <b, 1> = 0: c = beta f = 0, g = 0 and kappa = -beta = 0
        a = np.random.default_rng(0).standard_normal((6, 2))
        return so.ProblemInstance(a=a, b=np.zeros(6), w=np.zeros(6), use_exp=False)

    def test_zero_kernel_has_the_zero_factor(self):
        inst = self.cent_only_without_target()
        state = so.make_state(inst, np.zeros(2))
        parts = so.total_kernel_parts(state, inst)
        assert not parts.c.any() and not parts.g.any() and parts.kappa == 0.0
        assert (parts.f > 0.0).all()
        np.testing.assert_array_equal(parts.factor(inst.a), np.zeros((6, 2)))
        approx = so.approx_hessian(inst, state, 0.1, seed=0)
        np.testing.assert_array_equal(approx, np.zeros((2, 2)))

    def test_sampled_mode_gives_the_exact_trace(self):
        inst = self.cent_only_without_target()
        exact = so.solve(inst, np.zeros(2), so.SolverConfig(mode="exact"))
        sampled = so.solve(inst, np.zeros(2), so.SolverConfig(mode="sampled"))
        assert exact.converged and sampled.converged
        assert exact.iterations_run == sampled.iterations_run == 0
        assert_same_iterates(exact, sampled)
        for e, s in zip(exact.iterates, sampled.iterates):
            assert (e.loss, e.grad_norm, e.err_to_opt) == (s.loss, s.grad_norm, s.err_to_opt)
        assert exact.iterates[0].loss == exact.iterates[0].grad_norm == 0.0

    def test_ridge_only_kernel_with_unweighted_rows(self):
        # D = diag(w^2): rows with w_i = 0 are zero rows although f_i > 0
        rng = np.random.default_rng(5)
        w = np.array([1.0, 0.0, 2.0, 0.5, 0.0, 1.5, 1.0, 0.0])
        inst = so.ProblemInstance(
            a=rng.standard_normal((8, 3)), b=np.zeros(8), w=w, use_exp=False, use_cent=False
        )
        state = so.make_state(inst, rng.standard_normal(3))
        c_mat = so.total_kernel_parts(state, inst).factor(inst.a)
        np.testing.assert_array_equal(c_mat[w == 0.0], np.zeros((3, 3)))
        assert so.rel_err(c_mat.T @ c_mat, so.hessian_total(state, inst)) <= 1e-12

    @pytest.mark.parametrize(
        "kappa, g",
        [(0.0, [0.0, 0.3, 0.0, 0.0]), (-1.0, [0.0, 0.0, 0.0, 0.0]), (2.0, [0.5, 0.0, 0.0, 0.0])],
    )
    def test_indefinite_kernels_with_a_zero_diagonal_still_raise(self, kappa, g):
        # c_0 = 0 with f_0 > 0: D_00 = kappa f_0^2 - 2 g_0 f_0 is negative, or
        # zero beside a nonzero D_01, so D is indefinite
        f = np.array([0.4, 0.3, 0.2, 0.1])
        parts = so.KernelParts(c=np.array([0.0, 1.0, 1.0, 1.0]), g=np.array(g), kappa=kappa, f=f)
        assert np.linalg.eigvalsh(parts.dense())[0] < -1e-8
        with pytest.raises(KernelNotPSD, match="kernel diagonal"):
            parts.factor(np.eye(4))


class TestSampledAtScale:
    def test_no_n_by_n_allocation(self):
        n = 3000
        rng = np.random.default_rng(80)
        inst = so.ProblemInstance(
            a=rng.standard_normal((n, 4)), b=rng.uniform(0.0, 3.0 / n, n), w=np.ones(n)
        )
        state = so.make_state(inst, rng.standard_normal(4))
        so.approx_hessian(inst, state, 0.1, seed=0)
        tracemalloc.start()
        try:
            so.approx_hessian(inst, state, 0.1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_sandwich_where_rows_are_dropped(self):
        n, d, delta, eps0 = 200_000, 5, 0.05, 0.1
        count = math.ceil(so.newton.SAMPLE_OVERSAMPLING * d * math.log(d / delta) / eps0**2)
        assert count == 23_026
        rng = np.random.default_rng(81)
        a = rng.standard_normal((n, d)) / math.sqrt(d)
        b = rng.uniform(0.0, 1.0, n)
        inst = so.ProblemInstance(a=a, b=b / b.sum(), w=np.ones(n))
        state = so.make_state(inst, rng.standard_normal(d))
        parts = so.total_kernel_parts(state, inst)
        assert parts.c.min() > 0
        exact = so.hessian_total(state, inst)
        c_mat = parts.factor(inst.a)
        row2 = np.einsum("ij,ij->i", c_mat, c_mat)
        probs = np.minimum(1.0, count * row2 / row2.sum())
        hits = 0
        for s in range(20):
            approx = so.approx_hessian(inst, state, eps0, seed=s, delta=delta)
            keep = np.random.default_rng(s).random(n) < probs
            assert keep.sum() < n // 2
            scaled = c_mat[keep] / np.sqrt(probs[keep])[:, None]
            assert so.rel_err(approx, scaled.T @ scaled) <= 1e-12
            gen = scipy.linalg.eigh(approx, exact, eigvals_only=True)
            hits += bool(gen[0] >= 1.0 - eps0 and gen[-1] <= 1.0 + eps0)
        assert hits >= 19


class TestSolve:
    def test_zero_iterations_at_planted_optimum(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=9))
        trace = so.solve(inst, x_star, so.SolverConfig(epsilon=1e-10))
        assert trace.converged
        assert trace.iterations_run == 0
        assert len(trace.iterates) == 1

    def test_converges_within_log_budget(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=10))
        x0 = so.basin_start(x_star, 0.1, 0)
        trace = so.solve(inst, x0, so.SolverConfig(epsilon=1e-10, max_iters=50))
        assert trace.converged
        assert trace.iterations_run <= int(np.ceil(np.log2(0.1 / 1e-10))) + 5
        assert so.convergence_audit(trace, 1e-10)

    def test_max_iters_zero(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=1.0, seed=11))
        trace = so.solve(inst, x_star + 0.1, so.SolverConfig(epsilon=1e-10, max_iters=0))
        assert not trace.converged
        assert trace.iterations_run == 0

    def test_exact_mode_bitwise_deterministic(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=15, d=4, ridge_l=1.0, seed=12))
        x0 = so.basin_start(x_star, 1e-3, 1)
        cfg = so.SolverConfig(epsilon=1e-10, max_iters=30, seed=5)
        t1, t2 = so.solve(inst, x0, cfg), so.solve(inst, x0, cfg)
        assert t1.iterations_run == t2.iterations_run
        for r1, r2 in zip(t1.iterates, t2.iterates):
            assert np.array_equal(r1.x, r2.x)
            assert r1.loss == r2.loss and r1.grad_norm == r2.grad_norm

    def test_sampled_mode_converges_and_audits(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=40, d=5, ridge_l=1.0, seed=13))
        x0 = so.basin_start(x_star, 1e-3, 2)
        cfg = so.SolverConfig(epsilon=1e-10, max_iters=40, mode="sampled", seed=3)
        trace = so.solve(inst, x0, cfg)
        assert trace.converged
        assert so.convergence_audit(trace, 1e-10)

    def test_loss_monotone_in_basin(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=14))
        trace = so.solve(inst, so.basin_start(x_star, 1e-3, 3), so.SolverConfig(epsilon=1e-10))
        losses = np.array([rec.loss for rec in trace.iterates])
        assert np.all(np.diff(losses) <= 1e-12 * np.maximum(1.0, np.abs(losses[:-1])))

    def test_gradient_stop_without_planted_optimum(self):
        inst, x = random_instance(60, n_max=12, d_max=4)
        heavy = so.ProblemInstance(a=inst.a, b=inst.b, w=np.full(inst.n, 5.0))
        trace = so.solve(heavy, x, so.SolverConfig(epsilon=1e-10, max_iters=60))
        assert trace.converged
        assert trace.iterates[-1].grad_norm <= 1e-6


def assert_same_iterates(t1, t2):
    assert [r.x.tobytes() for r in t1.iterates] == [r.x.tobytes() for r in t2.iterates]


class TestVerdictIndependentOfCap:
    """Every iterate, the one at the cap included, is put to the step's stop rule."""

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_newton_without_planted_optimum(self, mode):
        # random instances with a unit ridge, then gen's default instance
        # without x_star and reg_mode, from the CLI's start there
        planted = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=0))[0]
        cases = [(so.ProblemInstance(a=base.a, b=base.b, w=np.ones(base.n)), x)
                 for base, x in map(random_instance, range(30))]
        cases.append((so.ProblemInstance(a=planted.a, b=planted.b, w=planted.w), np.zeros(5)))
        for seed, (inst, x) in enumerate(cases):
            cfg = so.SolverConfig(mode=mode, seed=seed)
            full = so.solve(inst, x, cfg)
            capped = so.solve(inst, x, dataclasses.replace(cfg, max_iters=full.iterations_run))
            assert full.converged and capped.converged, seed
            assert_same_iterates(full, capped)

    def test_newton_eigmin_rule_at_the_cap(self):
        # the instance of TestStopBranchesWithoutPlantedOptimum: the rule first
        # holds at iterate 2, so a cap of 2 converges and a cap of 1 does not
        inst, x = no_planted_instance()
        verdicts = [
            so.solve(inst, x, so.SolverConfig(epsilon=1e-10, max_iters=cap)).converged
            for cap in range(4)
        ]
        assert verdicts == [False, False, True, True]

    def test_gradient_descent_without_planted_optimum(self):
        inst, x = no_planted_instance()
        full = so.gradient_descent_baseline(inst, x, 0.05, 500, epsilon=1e-6)
        capped = so.gradient_descent_baseline(inst, x, 0.05, full.iterations_run, epsilon=1e-6)
        assert full.iterations_run == 118
        assert full.converged and capped.converged
        assert_same_iterates(full, capped)


# (random_instance seed, mode, ridge weight, cap): the step from the iterate at
# the cap cannot be formed; A x 3 and b / sum(b) make the instances weak
STEP_FAILS_AT_CAP = [
    (23, "exact", 0.0, 0, SingularHessian),
    (69, "exact", 0.0, 3, SingularHessian),
    (77, "exact", 0.05, 1, SingularHessian),
    (108, "sampled", 0.0, 0, SingularHessian),
    (35, "sampled", 0.0, 1, KernelNotPSD),
    (77, "sampled", 0.05, 1, KernelNotPSD),
    (11, "sampled", 0.0, 2, SamplingDegenerate),
    (154, "sampled", 0.0, 4, SamplingDegenerate),
]


class TestStepFailsAtCap:
    @pytest.mark.parametrize("seed, mode, w, cap, error", STEP_FAILS_AT_CAP)
    def test_unconverged_trace_at_cap_raises_before_it(self, seed, mode, w, cap, error):
        base, x = random_instance(seed)
        inst = so.ProblemInstance(a=3.0 * base.a, b=base.b / base.b.sum(), w=np.full(base.n, w))
        trace = so.solve(inst, x, so.SolverConfig(mode=mode, max_iters=cap))
        assert not trace.converged
        assert trace.iterations_run == cap
        with pytest.raises(error):
            so.solve(inst, x, so.SolverConfig(mode=mode, max_iters=cap + 1))

    def test_gradient_step_overflow_at_cap(self):
        # x - 1e308 g overflows from x = 1 on 0.5 ||A x||^2: unconverged at a
        # cap of 0, NonFiniteIterate before a cap of 3, and no numpy warning
        inst = so.ProblemInstance(
            a=np.array([[1.0], [1.0]]), b=np.zeros(2), w=np.ones(2),
            use_exp=False, use_cent=False,
        )
        trace = so.gradient_descent_baseline(inst, np.array([1.0]), 1e308, 0)
        assert not trace.converged and trace.iterations_run == 0
        with pytest.raises(NonFiniteIterate, match="gradient step"):
            so.gradient_descent_baseline(inst, np.array([1.0]), 1e308, 3)


def scaled_ridge(inst, s):
    """inst with its ridge weights times s; x_star stays stationary, as f(x_star) = b."""
    return dataclasses.replace(inst, w=s * inst.w)


# Instances on which Newton has work to do: planted with norm cap 16 and
# ridge_l 1, then the ridge scaled down.  Rows are (shape, scale, offset);
# each runs seeds 0-4 (the generator's, the start's and the solver's) in both
# modes.  README records each solve's outcome.
LONG_PATH_CASES = [((20, 5), scale, offset) for scale in (1e-2, 1e-3, 0.0)
                   for offset in (0.4, 4.0, 12.0)] + [((1000, 20), 1e-3, 12.0)]


class TestLongPathCases:
    def test_every_solve_ends_in_a_typed_outcome(self):
        # converged, capped, or a step that cannot be formed; no RuntimeWarning
        for (n, d), scale, offset in LONG_PATH_CASES:
            for seed in range(5):
                spec = so.GeneratorSpec(n=n, d=d, norm_cap_r=16.0, ridge_l=1.0, seed=seed)
                inst, x_star = so.generate_planted(spec)
                inst = scaled_ridge(inst, scale)
                x0 = so.basin_start(x_star, offset, [seed, 7])
                for mode in ("exact", "sampled"):
                    cfg = so.SolverConfig(mode=mode, seed=seed)
                    try:
                        trace = so.solve(inst, x0, cfg)
                    except so.newton._STEP_FAILURES:
                        continue
                    assert trace.converged or trace.iterations_run == cfg.max_iters


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            so.SolverConfig(epsilon=0.0)
        with pytest.raises(DomainError):
            so.SolverConfig(delta=0.5)
        with pytest.raises(DomainError):
            so.SolverConfig(mode="other")
        with pytest.raises(DomainError):
            so.SolverConfig(sample_epsilon=0.2)
        with pytest.raises(DomainError):
            so.SolverConfig(max_iters=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", ["epsilon", "delta", "sample_epsilon", "max_iters", "seed"]
    )
    def test_non_finite_field_is_domain_error(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            so.SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 50.0, True, "50"])
    def test_non_integer_max_iters_is_domain_error(self, value):
        with pytest.raises(DomainError, match="^max_iters must be an integer"):
            so.SolverConfig(max_iters=value)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_non_integer_seed_is_domain_error(self, value):
        with pytest.raises(DomainError, match="^seed must be an integer"):
            so.SolverConfig(seed=value)

    def test_numpy_integer_max_iters_is_accepted(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=1.0, seed=15))
        trace = so.solve(inst, x_star + 0.1, so.SolverConfig(max_iters=np.int64(2)))
        assert trace.iterations_run <= 2


class TestBaseline:
    def test_stationary_at_zero_gradient(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=1.0, seed=15))
        trace = so.gradient_descent_baseline(inst, x_star, 0.1, 5)
        for rec in trace.iterates:
            np.testing.assert_array_equal(rec.x, x_star)

    def test_monotone_loss_on_quadratic_with_safe_step(self):
        inst = quadratic_instance(seed=16)
        hess = so.hessian_total(so.make_state(inst, np.zeros(inst.d)), inst)
        step = 1.0 / float(np.linalg.eigvalsh(hess)[-1])
        x0 = np.random.default_rng(17).standard_normal(inst.d)
        trace = so.gradient_descent_baseline(inst, x0, step, 50)
        losses = np.array([rec.loss for rec in trace.iterates])
        assert np.all(np.diff(losses) <= 1e-12)

    def test_needs_more_iterations_than_newton(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=18))
        x0 = so.basin_start(x_star, 1e-3, 4)
        eps = 1e-6
        newton = so.solve(inst, x0, so.SolverConfig(epsilon=eps, max_iters=50))
        step = 1.0 / float(np.linalg.eigvalsh(so.hessian_total(so.make_state(inst, x0), inst))[-1])
        baseline = so.gradient_descent_baseline(inst, x0, step, 3000, epsilon=eps)
        assert baseline.converged
        assert baseline.iterations_run > newton.iterations_run

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises(self, monkeypatch):
        inst = so.ProblemInstance(
            a=np.array([[1.0], [1.0]]), b=np.zeros(2), w=np.ones(2),
            use_exp=False, use_cent=False,
        )
        losses = []
        state_losses = so.newton.state_losses

        def recording(inst_, state):
            out = state_losses(inst_, state)
            losses.append(out.total)
            return out

        monkeypatch.setattr(so.newton, "state_losses", recording)
        with pytest.raises(NonFiniteIterate, match="iterate 19 has loss inf"):
            so.gradient_descent_baseline(inst, np.array([1.0]), 1e8, 50)
        # x_t = (1 - 2e8)^t and the loss is x_t^2, which first overflows at
        # t = 19: the loop stops there, and recorded no infinite loss
        assert len(losses) == 20
        assert np.all(np.isfinite(losses[:-1])) and losses[-1] == np.inf

    def test_validation(self):
        inst, _ = random_instance(61)
        with pytest.raises(DomainError):
            so.gradient_descent_baseline(inst, np.zeros(inst.d), 0.0, 5)
        with pytest.raises(DomainError, match="^iters must be >= 0"):
            so.gradient_descent_baseline(inst, np.zeros(inst.d), 0.1, -1)

    @pytest.mark.parametrize("step_size", [float("nan"), float("inf")])
    def test_non_finite_step_size_is_domain_error(self, step_size):
        inst, _ = random_instance(61)
        with pytest.raises(DomainError, match="^step_size must be finite and positive"):
            so.gradient_descent_baseline(inst, np.zeros(inst.d), step_size, 5)


def no_planted_instance():
    """Heavily ridged random instance (n=12, d=4) without a planted optimum."""
    inst, x = random_instance(72, n_max=12, d_max=4)
    return so.ProblemInstance(a=inst.a, b=inst.b, w=np.full(inst.n, 5.0)), x


class TestStopBranchesWithoutPlantedOptimum:
    def test_newton_stops_by_eigmin_scaled_gradient(self):
        inst, x = no_planted_instance()
        eps = 1e-10
        trace = so.solve(inst, x, so.SolverConfig(epsilon=eps, max_iters=60))
        assert trace.converged
        assert trace.iterations_run == 2
        assert all(rec.err_to_opt is None for rec in trace.iterates)
        last = so.make_state(inst, trace.iterates[-1].x)
        eigmin = float(np.linalg.eigvalsh(so.hessian_total(last, inst))[0])
        # the last gradient passes only the eigmin-scaled test, not ||g|| <= eps
        assert eps < trace.iterates[-1].grad_norm <= eps * eigmin
        assert trace.iterates[-2].grad_norm > eps * eigmin

    def test_gradient_descent_stops_by_gradient_norm(self):
        inst, x = no_planted_instance()
        trace = so.gradient_descent_baseline(inst, x, 0.05, 500, epsilon=1e-6)
        assert trace.converged
        assert trace.iterations_run == len(trace.iterates) - 1 == 118
        assert trace.iterates[-1].grad_norm <= 1e-6 < trace.iterates[-2].grad_norm
        assert all(rec.err_to_opt is None for rec in trace.iterates)

    def test_gradient_descent_without_epsilon_runs_to_iters(self):
        inst, x = no_planted_instance()
        trace = so.gradient_descent_baseline(inst, x, 0.05, 10)
        assert not trace.converged
        assert trace.iterations_run == 10
        assert [rec.t for rec in trace.iterates] == list(range(11))


# Traces on planted n=20, d=5 seed 21 from basin_start(x_star, 0.5, 0),
# first recorded before the solver loops were merged, and re-recorded, with
# the solver unchanged, when the planted ridge moved to the kernel-norm bound
# R.  The absolute floor covers the roundoff-level tail of converged iterates.
PINNED_TRACES = {
    "exact": {
        "loss": [10.30495513686624, 2.6917795652386283, 2.691779537536363],
        "grad_norm": [41.81550161040071, 0.002620431036720251, 1.5994426469804254e-11],
        "err_to_opt": [0.5, 2.8608127174554248e-05, 3.6533067828101185e-13],
    },
    "sampled": {
        "loss": [10.30495513686624, 2.6917795652386283, 2.691779537536363],
        "grad_norm": [41.81550161040071, 0.002620431036707073, 1.5994426469804254e-11],
        "err_to_opt": [0.5, 2.860812717428106e-05, 3.6533067828101185e-13],
    },
    "gd": {
        "loss": [
            10.30495513686624, 7.10242452904078, 5.708022573172165, 4.800505893776039,
            4.205601699865955, 3.8118602837409057, 3.547904979553584,
            3.3679755416560013, 3.242704998640125,
        ],
        "grad_norm": [
            41.81550161040071, 24.538118088675763, 19.781998412909758,
            16.001563985794963, 13.001766656327131, 10.627793267503453,
            8.755869774044838, 7.286388979093519, 6.138597800182102,
        ],
        "err_to_opt": [
            0.5, 0.428239619690603, 0.3769553034043566, 0.3372265425370722,
            0.30621837361528714, 0.28168994460726443, 0.2619153938274263,
            0.2456007247636959, 0.23179912624790852,
        ],
    },
}
PINNED_GD_STEP = 0.002565180845104505  # 1 / lambda_max(H(x0))


class TestPinnedValues:
    @staticmethod
    def start():
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=21))
        return inst, so.basin_start(x_star, 0.5, 0)

    @staticmethod
    def assert_matches(trace, pinned):
        for col, want in pinned.items():
            got = [getattr(rec, col) for rec in trace.iterates]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13, err_msg=col)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_newton_trace_values(self, mode):
        inst, x0 = self.start()
        trace = so.solve(inst, x0, so.SolverConfig(mode=mode, seed=4))
        assert trace.converged and trace.iterations_run == 2
        self.assert_matches(trace, PINNED_TRACES[mode])

    def test_gradient_descent_trace_values(self):
        inst, x0 = self.start()
        step = 1.0 / float(np.linalg.eigvalsh(so.hessian_total(so.make_state(inst, x0), inst))[-1])
        assert step == pytest.approx(PINNED_GD_STEP, rel=1e-12)
        trace = so.gradient_descent_baseline(inst, x0, PINNED_GD_STEP, 8)
        assert not trace.converged
        assert trace.iterations_run == 8
        self.assert_matches(trace, PINNED_TRACES["gd"])

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_newton_step_is_first_solve_iterate(self, mode):
        inst, x0 = self.start()
        cfgs = [so.SolverConfig(mode=mode, seed=seed) for seed in (0, 4, 9)]
        if mode == "sampled":
            cfgs.append(so.SolverConfig(mode=mode, sample_epsilon=0.05, delta=0.01, seed=3))
        for cfg in cfgs:
            trace = so.solve(inst, x0, cfg)
            assert so.newton_step(inst, x0, cfg).tobytes() == trace.iterates[1].x.tobytes()

    def test_newton_step_takes_the_sampling_fields_where_rows_drop(self):
        # n = 20000 > count = 7378 at d = 2 (eps0 0.1, delta 0.05), so the two
        # configs keep different rows and their steps differ
        rng = np.random.default_rng(82)
        n, d = 20_000, 2
        b = rng.uniform(0.0, 1.0, n)
        inst = so.ProblemInstance(
            a=rng.standard_normal((n, d)) / math.sqrt(d), b=b / b.sum(), w=np.ones(n)
        )
        x0 = rng.standard_normal(d)
        steps = []
        for cfg in (
            so.SolverConfig(mode="sampled", seed=3),
            so.SolverConfig(mode="sampled", sample_epsilon=0.09, delta=0.08, seed=3),
        ):
            trace = so.solve(inst, x0, dataclasses.replace(cfg, max_iters=1))
            steps.append(so.newton_step(inst, x0, cfg))
            assert steps[-1].tobytes() == trace.iterates[1].x.tobytes()
        assert steps[0].tobytes() != steps[1].tobytes()


class TestOneSpectrumPerStep:
    @pytest.mark.parametrize("mode, per_step", [("exact", 1), ("sampled", 1)])
    def test_eigvalsh_calls(self, monkeypatch, mode, per_step):
        # every row is kept here, so approx_hessian adds no rank check; eigh
        # and eigvalsh count together, so a step takes one d-by-d
        # decomposition of either kind (the 2-by-2 eigh inside
        # KernelParts.factor is not a spectrum of H)
        inst, x0 = TestPinnedValues.start()
        calls = []

        def counting(decompose):
            def wrapped(m):
                calls.extend([1] if np.shape(m) == (inst.d, inst.d) else [])
                return decompose(m)

            return wrapped

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        so.newton_step(inst, x0, so.SolverConfig(mode=mode))
        assert len(calls) == per_step
        calls.clear()
        trace = so.solve(inst, x0, so.SolverConfig(mode=mode, seed=0))
        assert trace.iterations_run == 2
        assert len(calls) == per_step * trace.iterations_run


def keeps_every_row(inst, state, sample_epsilon=0.1, delta=0.05):
    """True when approx_hessian keeps each nonzero row of C with probability 1."""
    count = math.ceil(
        so.newton.SAMPLE_OVERSAMPLING * inst.d * math.log(inst.d / delta) / sample_epsilon**2
    )
    c_mat = so.total_kernel_parts(state, inst).factor(inst.a)
    row2 = np.einsum("ij,ij->i", c_mat, c_mat)
    return bool(np.all(count * row2[row2 > 0.0] >= row2.sum()))


class TestStepAgainstDenseSolve:
    @pytest.mark.parametrize("draw", range(60))
    def test_matches_dense_solve(self, draw):
        inst, x = random_instance(draw)
        state = so.make_state(inst, x)
        hess = so.hessian_total(state, inst)
        # with every row kept the sampled estimate is H, so both modes share the oracle
        modes = ["exact", "sampled"] if keeps_every_row(inst, state) else ["exact"]
        evs = np.linalg.eigvalsh(hess)
        if evs[0] < 1e-12 * np.max(np.abs(evs)):
            for mode in modes:
                with pytest.raises(SingularHessian):
                    so.newton_step(inst, x, so.SolverConfig(mode=mode, seed=draw))
            return
        step = np.linalg.solve(hess, so.grad_total(state, inst))
        for mode in modes:
            got = x - so.newton_step(inst, x, so.SolverConfig(mode=mode, seed=draw))
            assert np.linalg.norm(got - step) <= 1e-12 * np.linalg.norm(step), mode

    def test_most_draws_compare_sampled_mode(self):
        kept = 0
        for draw in range(60):
            inst, x = random_instance(draw)
            kept += keeps_every_row(inst, so.make_state(inst, x))
        assert kept >= 50


class TestSingularHessianReport:
    @pytest.mark.parametrize("draw", [27, 79, 108, 117, 123, 186])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_weakly_regularized_draws(self, draw, mode):
        # every row is kept in sampled mode, so its estimate is H and the
        # singularity is H's, not the sample's
        base, _ = random_instance(draw)
        inst = so.ProblemInstance(a=5.0 * base.a, b=base.b / base.b.sum(), w=0.05 * base.w)
        with pytest.raises(SingularHessian):
            so.solve(inst, np.zeros(inst.d), so.SolverConfig(mode=mode))


FAR_STARTS = [(seed, multiple) for multiple in (200.0, 400.0) for seed in range(10)] + [
    (seed, 100.0) for seed in (409, 431, 450, 553, 555)
]


class TestFarStarts:
    @pytest.mark.parametrize("planted, multiple", FAR_STARTS)
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_converges_in_three_steps(self, planted, multiple, mode):
        # most of these starts push logits past the exponent range or underflow f
        inst, x_star = so.generate_planted(
            so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=planted)
        )
        trace = so.solve(inst, multiple * x_star, so.SolverConfig(mode=mode))
        assert trace.converged and trace.iterations_run <= 3
        assert trace.iterates[-1].err_to_opt <= 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFarIterate:
    """A start whose loss overflows float64 is a NonFiniteIterate, without a warning.

    From ``scale x_star / ||x_star||`` on planted seed 1 at 1e307, the
    default start, the ridge gradient overflows; on seed 0 at 1.5e308 the
    max-shift of the logits does, inside ``make_state``; on seed 2 at 1e307
    the ridge gradient meets inf - inf.
    """

    @staticmethod
    def start(seed=1, scale=1e307):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=seed))
        return inst, scale * (x_star / np.linalg.norm(x_star))

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_solve(self, mode):
        inst, x0 = self.start()
        with pytest.raises(NonFiniteIterate, match="^iterate 0 has loss inf"):
            so.solve(inst, x0, so.SolverConfig(mode=mode))

    def test_gradient_descent_baseline(self):
        inst, x0 = self.start()
        with pytest.raises(NonFiniteIterate, match="^iterate 0 has loss inf"):
            so.gradient_descent_baseline(inst, x0, 0.1, 5)

    def test_newton_step(self):
        inst, x0 = self.start()
        with pytest.raises(NonFiniteIterate, match="^iterate 0 has loss inf"):
            so.newton_step(inst, x0)

    @staticmethod
    def runs(inst, x0):
        return [
            lambda: so.solve(inst, x0, so.SolverConfig(mode="exact")),
            lambda: so.solve(inst, x0, so.SolverConfig(mode="sampled")),
            lambda: so.gradient_descent_baseline(inst, x0, 0.1, 5),
            lambda: so.newton_step(inst, x0),
        ]

    @pytest.mark.parametrize(("seed", "scale"), [(0, 1.5e308), (2, 1e307)])
    def test_other_routes_to_an_infinite_loss(self, seed, scale):
        inst, x0 = self.start(seed, scale)
        for run in self.runs(inst, x0):
            with pytest.raises(NonFiniteIterate, match="^iterate 0 has loss inf"):
                run()

    def test_logits_beyond_float64(self):
        # A x overflows inside make_state itself
        inst, _ = self.start()
        for run in self.runs(inst, np.full(5, 1e308)):
            with pytest.raises(NonFiniteIterate, match="^iterate escaped the representable range"):
                run()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingHessian:
    """A Hessian or a Newton step that overflows float64 is a NonFiniteIterate, without a warning.

    Constant ridge weights sqrt(w2) on 50 standard normal rows with a uniform
    target keep the optimum at x = 0, where the gradient is 0.  The Hessian
    is finite at w2 = 1e306; from 1e307 on, its entries overflow (exact
    mode) and so does the sum of the sampled row norms (sampled mode).
    """

    @staticmethod
    def ridge(w2):
        a = np.random.default_rng(0).standard_normal((50, 3))
        return so.ProblemInstance(a=a, b=np.full(50, 1 / 50), w=np.full(50, np.sqrt(w2)))

    def test_finite_at_1e306(self):
        inst = self.ridge(1e306)
        for mode in ("exact", "sampled"):
            trace = so.solve(inst, np.zeros(3), so.SolverConfig(mode=mode))
            assert trace.converged and trace.iterations_run == 0
        np.testing.assert_array_equal(so.newton_step(inst, np.zeros(3)), np.zeros(3))
        state = so.make_state(inst, np.zeros(3))
        assert np.isfinite(so.approx_hessian(inst, state, 0.1, 0)).all()

    @pytest.mark.parametrize("w2", [1e307, 1e308])
    def test_overflow_is_typed(self, w2):
        inst = self.ridge(w2)
        state = so.make_state(inst, np.zeros(3))
        runs = [
            (lambda: so.solve(inst, np.zeros(3), so.SolverConfig()), "^Hessian is not finite"),
            (lambda: so.newton_step(inst, np.zeros(3)), "^Hessian is not finite"),
            (lambda: so.solve(inst, np.zeros(3), so.SolverConfig(mode="sampled")), "row-norm total"),
            (lambda: so.approx_hessian(inst, state, 0.1, 0), "row-norm total"),
        ]
        for run, message in runs:
            with pytest.raises(NonFiniteIterate, match=message):
                run()

    def test_overflowing_sampled_estimate(self):
        # a count of 1 keeps each of 100 equal rows with probability 1/100,
        # each kept row then weighs the whole total 1e308; seed 1 keeps two
        n = 100
        inst = so.ProblemInstance(
            a=np.ones((n, 1)), b=np.zeros(n), w=np.full(n, np.sqrt(1e308 / n)),
            use_exp=False, use_cent=False,
        )
        state = so.make_state(inst, np.zeros(1))
        with pytest.raises(NonFiniteIterate, match="^Hessian is not finite"):
            so.approx_hessian(inst, state, 0.99, 1, delta=0.99)

    def test_overflowing_step(self):
        # logits 0 and -702 give f_2 about 1e-305, so H is about 1e-313 and
        # g = -5e-5: the step V (V^T g) / lam overflows
        inst = so.ProblemInstance(a=[[0.0], [1e-4]], b=[0.5, 0.5], w=[0.0, 0.0], use_exp=False)
        x0 = np.array([-7.02e6])
        runs = [
            lambda: so.solve(inst, x0, so.SolverConfig(mode="exact")),
            lambda: so.solve(inst, x0, so.SolverConfig(mode="sampled")),
            lambda: so.newton_step(inst, x0),
        ]
        for run in runs:
            with pytest.raises(NonFiniteIterate, match="^Newton step produced NaN or Inf"):
                run()


class TestStackedStart:
    """A start of shape (1, d) or (m, d) is a DimensionMismatch from every entry point.

    ``make_state`` takes a stack of points, so only the solver's own check,
    once per call, stops a stacked start before the calculus meets it.
    """

    @staticmethod
    def start(rows):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, seed=0))
        return inst, np.tile(so.basin_start(x_star, 1e-3, 0), (rows, 1))

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_solve(self, rows, mode):
        inst, x0 = self.start(rows)
        with pytest.raises(DimensionMismatch, match=rf"^x0 must be 1-d, got shape \({rows}, 5\)$"):
            so.solve(inst, x0, so.SolverConfig(mode=mode))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_gradient_descent_baseline(self, rows):
        inst, x0 = self.start(rows)
        with pytest.raises(DimensionMismatch, match=rf"^x0 must be 1-d, got shape \({rows}, 5\)$"):
            so.gradient_descent_baseline(inst, x0, 0.1, 5)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_newton_step(self, rows):
        inst, x0 = self.start(rows)
        with pytest.raises(DimensionMismatch, match=rf"^x_t must be 1-d, got shape \({rows}, 5\)$"):
            so.newton_step(inst, x0)


class TestTraceCsv:
    def test_schema_and_empty_fields(self, tmp_path):
        inst, x = random_instance(62, n_max=8, d_max=3)
        trace = so.solve(inst, x, so.SolverConfig(epsilon=1e-8, max_iters=3))
        text = csv_text(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "t,loss,grad_norm,err_to_opt,step_seconds"
        assert len(lines) == 1 + len(trace.iterates)
        # no planted optimum and no timings: both trailing fields empty
        assert lines[1].endswith(",,")
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        assert path.read_text() == text

    def test_err_column_present_for_planted(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=1.0, seed=19))
        trace = so.solve(inst, so.basin_start(x_star, 1e-3, 5), so.SolverConfig(epsilon=1e-10))
        row = csv_text(trace).strip().split("\n")[1].split(",")
        assert row[3] != ""
        assert float(row[3]) == trace.iterates[0].err_to_opt

    def test_timings_opt_in(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=1.0, seed=20))
        trace = so.solve(inst, so.basin_start(x_star, 1e-3, 6), so.SolverConfig(epsilon=1e-10))
        with_timings = csv_text(trace, include_timings=True).strip().split("\n")
        assert with_timings[2].split(",")[4] != ""
