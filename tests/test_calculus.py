"""Closed-form derivatives against finite differences and each other."""

import numpy as np
import pytest

import softmaxopt as so
from kernel_oracles import b_matrix, exp_kernel, total_kernel
from softmaxopt.exceptions import IndexOutOfRange
from softmaxopt.suite import random_instance


def fd_vector_jacobian(fun, x, h=1e-6):
    """Central-difference Jacobian of a vector-valued map (oracle only)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((fun(x + e) - fun(x - e)) / (2 * h))
    return np.column_stack(cols)


class TestGradFDir:
    def test_zero_column_gives_zero(self):
        a = np.random.default_rng(0).standard_normal((5, 3))
        a[:, 1] = 0.0
        inst = so.ProblemInstance(a=a, b=np.zeros(5), w=np.zeros(5))
        state = so.make_state(inst, np.array([0.2, 0.1, -0.3]))
        np.testing.assert_array_equal(so.grad_f_dir(state, inst, 1), np.zeros(5))

    def test_constant_column_gives_zero(self):
        a = np.random.default_rng(1).standard_normal((6, 2))
        a[:, 0] = 3.0
        inst = so.ProblemInstance(a=a, b=np.zeros(6), w=np.zeros(6))
        state = so.make_state(inst, np.array([0.5, -0.1]))
        np.testing.assert_allclose(so.grad_f_dir(state, inst, 0), np.zeros(6), atol=1e-12)

    def test_matches_finite_differences(self):
        inst = so.ProblemInstance(a=np.array([[1.0], [-1.0]]), b=np.zeros(2), w=np.zeros(2))
        state = so.make_state(inst, np.zeros(1))
        jac = fd_vector_jacobian(lambda v: so.softmax(inst, v), np.zeros(1))
        np.testing.assert_allclose(so.grad_f_dir(state, inst, 0), jac[:, 0], atol=1e-7)

    def test_matches_finite_differences_random(self):
        inst, x = random_instance(17, n_max=12, d_max=4)
        state = so.make_state(inst, x)
        jac = fd_vector_jacobian(lambda v: so.softmax(inst, v), x)
        for i in range(inst.d):
            np.testing.assert_allclose(so.grad_f_dir(state, inst, i), jac[:, i], atol=1e-7)

    def test_coordinates_sum_to_zero(self):
        inst, x = random_instance(18, n_max=15, d_max=5)
        state = so.make_state(inst, x)
        for i in range(inst.d):
            assert abs(so.grad_f_dir(state, inst, i).sum()) <= 1e-10

    def test_index_out_of_range(self):
        inst, x = random_instance(19)
        state = so.make_state(inst, x)
        with pytest.raises(IndexOutOfRange):
            so.grad_f_dir(state, inst, inst.d)


class TestGradFInner:
    def test_constant_column_zero(self):
        a = np.random.default_rng(2).standard_normal((5, 2))
        a[:, 0] = 1.0
        inst = so.ProblemInstance(a=a, b=np.zeros(5), w=np.zeros(5))
        state = so.make_state(inst, np.array([0.3, 0.7]))
        assert so.grad_f_inner(state, inst, 0, 0) == pytest.approx(0.0, abs=1e-14)

    def test_agrees_with_explicit_inner_product(self):
        inst, x = random_instance(20, n_max=10, d_max=4)
        state = so.make_state(inst, x)
        for i in range(inst.d):
            for j in range(inst.d):
                explicit = float(so.grad_f_dir(state, inst, i) @ inst.a[:, j])
                assert so.grad_f_inner(state, inst, i, j) == pytest.approx(
                    explicit, abs=1e-12
                )

    def test_diagonal_is_column_variance(self):
        inst, x = random_instance(21, n_max=10, d_max=4)
        state = so.make_state(inst, x)
        for i in range(inst.d):
            assert so.grad_f_inner(state, inst, i, i) >= -1e-14


class TestGradLogFDir:
    def test_ones_column_gives_zero(self):
        a = np.random.default_rng(3).standard_normal((4, 2))
        a[:, 1] = 1.0
        inst = so.ProblemInstance(a=a, b=np.zeros(4), w=np.zeros(4))
        state = so.make_state(inst, np.array([0.2, -0.4]))
        np.testing.assert_allclose(so.grad_log_f_dir(state, inst, 1), np.zeros(4), atol=1e-14)

    def test_orthogonal_to_f(self):
        inst, x = random_instance(22, n_max=12, d_max=4)
        state = so.make_state(inst, x)
        for i in range(inst.d):
            assert abs(so.grad_log_f_dir(state, inst, i) @ state.f) <= 1e-12

    def test_matches_finite_differences(self):
        inst, x = random_instance(23, n_max=10, d_max=3)
        state = so.make_state(inst, x)
        jac = fd_vector_jacobian(lambda v: so.log_softmax(inst, v), x)
        for i in range(inst.d):
            np.testing.assert_allclose(so.grad_log_f_dir(state, inst, i), jac[:, i], atol=1e-7)


class TestLossGradients:
    def test_grad_cent_stationary_at_matched_target(self):
        a = np.random.default_rng(4).standard_normal((6, 3))
        x = np.array([0.1, -0.5, 0.2])
        b = so.softmax(so.ProblemInstance(a=a, b=np.zeros(6), w=np.zeros(6)), x)
        inst = so.ProblemInstance(a=a, b=b, w=np.zeros(6))
        state = so.make_state(inst, x)
        np.testing.assert_allclose(so.grad_cent(state, inst), np.zeros(3), atol=1e-10)

    def test_grad_cent_zero_target(self):
        inst, x = random_instance(24)
        inst = so.ProblemInstance(a=inst.a, b=np.zeros(inst.n), w=inst.w)
        state = so.make_state(inst, x)
        np.testing.assert_array_equal(so.grad_cent(state, inst), np.zeros(inst.d))

    def test_grad_cent_entry_formula_agreement(self):
        inst, x = random_instance(25, n_max=10, d_max=4)
        state = so.make_state(inst, x)
        g = so.grad_cent(state, inst)
        bsum = inst.b.sum()
        for i in range(inst.d):
            col = inst.a[:, i]
            entry = (state.f @ col) * bsum - col @ inst.b
            assert g[i] == pytest.approx(entry, abs=1e-12)

    def test_grad_cent_matches_finite_differences(self):
        inst, x = random_instance(26, n_max=6, d_max=3)
        state = so.make_state(inst, x)
        fd = so.fd_gradient(lambda v: so.loss_cent(so.make_state(inst, v).f, inst.b), x)
        assert so.rel_err(so.grad_cent(state, inst), fd) <= 1e-7

    def test_grad_exp_zero_at_matched_target(self):
        a = np.random.default_rng(5).standard_normal((5, 2))
        x = np.array([0.3, 0.4])
        b = so.softmax(so.ProblemInstance(a=a, b=np.zeros(5), w=np.zeros(5)), x)
        inst = so.ProblemInstance(a=a, b=b, w=np.zeros(5))
        state = so.make_state(inst, x)
        np.testing.assert_allclose(so.grad_exp(state, inst), np.zeros(2), atol=1e-14)

    def test_grad_exp_identical_columns_give_equal_entries(self):
        col = np.random.default_rng(6).standard_normal(5)
        a = np.column_stack([col, col, col])
        inst = so.ProblemInstance(a=a, b=np.full(5, 0.2), w=np.zeros(5))
        state = so.make_state(inst, np.array([0.1, 0.2, 0.3]))
        g = so.grad_exp(state, inst)
        np.testing.assert_allclose(g, np.full(3, g[0]), rtol=1e-12)

    def test_grad_exp_matches_finite_differences(self):
        inst, x = random_instance(27, n_max=8, d_max=4)
        state = so.make_state(inst, x)
        fd = so.fd_gradient(lambda v: so.loss_exp(so.make_state(inst, v).f, inst.b), x)
        assert so.rel_err(so.grad_exp(state, inst), fd) <= 1e-7

    def test_grad_reg_trivial_zeros(self):
        inst, _ = random_instance(28)
        np.testing.assert_array_equal(
            so.grad_reg(so.make_state(inst, np.zeros(inst.d)), inst)
            if inst.w.any()
            else np.zeros(inst.d),
            np.zeros(inst.d),
        )
        no_w = so.ProblemInstance(a=inst.a, b=inst.b, w=np.zeros(inst.n))
        x = np.random.default_rng(28).standard_normal(inst.d)
        np.testing.assert_array_equal(
            so.grad_reg(so.make_state(no_w, x), no_w), np.zeros(inst.d)
        )

    def test_grad_reg_matches_finite_differences(self):
        inst, x = random_instance(29, n_max=10, d_max=4)
        inst = so.ProblemInstance(a=inst.a, b=inst.b, w=np.abs(inst.a[:, 0]) + 0.5)
        fd = so.fd_gradient(lambda v: so.loss_reg(inst, v), x)
        assert so.rel_err(so.grad_reg(so.make_state(inst, x), inst), fd) <= 1e-8

    def test_grad_total_sums_terms_and_flags(self):
        inst, x = random_instance(30)
        state = so.make_state(inst, x)
        g_exp, g_cent, g_reg = (
            grad(state, inst) for grad in (so.grad_exp, so.grad_cent, so.grad_reg)
        )
        np.testing.assert_array_equal(so.grad_total(state, inst), g_exp + g_cent + g_reg)
        zero = np.zeros(inst.d)
        for use_exp, use_cent, want in (
            (False, False, zero + zero + g_reg),
            (False, True, zero + g_cent + g_reg),
            (True, False, g_exp + zero + g_reg),
        ):
            off = so.ProblemInstance(
                a=inst.a, b=inst.b, w=inst.w, use_exp=use_exp, use_cent=use_cent
            )
            np.testing.assert_array_equal(so.grad_total(so.make_state(off, x), off), want)


class TestLogFHessianEntry:
    def test_ones_column_zero(self):
        a = np.random.default_rng(7).standard_normal((5, 2))
        a[:, 0] = 1.0
        inst = so.ProblemInstance(a=a, b=np.zeros(5), w=np.zeros(5))
        state = so.make_state(inst, np.array([1.0, 2.0]))
        assert so.hessian_log_f_entry(state, inst, 0, 0) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_is_negated_variance(self):
        inst, x = random_instance(31, n_max=10, d_max=4)
        state = so.make_state(inst, x)
        for i in range(inst.d):
            assert so.hessian_log_f_entry(state, inst, i, i) <= 1e-14

    def test_matches_fd_on_single_coordinate(self):
        inst, x = random_instance(32, n_max=8, d_max=3)
        state = so.make_state(inst, x)
        coord = so.fd_hessian(lambda v: so.log_softmax(inst, v)[..., 0], x, h=1e-4)
        for i in range(inst.d):
            for j in range(inst.d):
                assert so.hessian_log_f_entry(state, inst, i, j) == pytest.approx(
                    coord[i, j], abs=1e-6
                )

    def test_all_coordinates_share_the_value(self):
        inst, x = random_instance(33, n_max=6, d_max=2)
        per_coord = [
            so.fd_hessian(lambda v, k=k: so.log_softmax(inst, v)[..., k], x, h=1e-4)
            for k in range(inst.n)
        ]
        for k in range(1, inst.n):
            np.testing.assert_allclose(per_coord[k], per_coord[0], atol=1e-5)


class TestCrossEntropyKernel:
    def test_zero_target_zero_matrix(self):
        inst, x = random_instance(34)
        state = so.make_state(inst, x)
        np.testing.assert_array_equal(
            b_matrix(state, np.zeros(inst.n)), np.zeros((inst.n, inst.n))
        )

    def test_uniform_two_point_hand_values(self):
        inst = so.ProblemInstance(
            a=np.array([[1.0], [1.0]]), b=np.array([0.4, 0.6]), w=np.zeros(2)
        )
        state = so.make_state(inst, np.zeros(1))  # f = (1/2, 1/2), <1, b> = 1
        np.testing.assert_allclose(
            b_matrix(state, inst.b), [[0.25, -0.25], [-0.25, 0.25]], rtol=1e-15
        )

    def test_rows_sum_to_zero_and_symmetric(self):
        inst, x = random_instance(35)
        state = so.make_state(inst, x)
        mat = b_matrix(state, inst.b)
        np.testing.assert_allclose(mat @ np.ones(inst.n), np.zeros(inst.n), atol=1e-12)
        np.testing.assert_array_equal(mat, mat.T)

    def test_kernel_is_psd_for_nonnegative_target(self):
        inst, x = random_instance(36)
        state = so.make_state(inst, x)
        mat = b_matrix(state, inst.b)
        scale = np.linalg.norm(mat, 2)
        assert np.linalg.eigvalsh(mat)[0] >= -1e-10 * max(scale, 1e-300)

    def test_softmax_kernel_eigenvalue_range(self):
        inst, x = random_instance(37)
        f = so.make_state(inst, x).f
        eigs = np.linalg.eigvalsh(np.diag(f) - np.outer(f, f))
        assert eigs[0] >= -1e-12
        assert eigs[-1] <= f.max() + 1e-12


class TestHessians:
    def test_hessian_cent_zero_target(self):
        inst, x = random_instance(38)
        z = so.ProblemInstance(a=inst.a, b=np.zeros(inst.n), w=inst.w)
        state = so.make_state(z, x)
        np.testing.assert_array_equal(so.hessian_cent(state, z), np.zeros((z.d, z.d)))

    def test_hessian_cent_diagonal_nonnegative(self):
        inst, x = random_instance(39)
        state = so.make_state(inst, x)
        assert np.all(np.diag(so.hessian_cent(state, inst)) >= -1e-12)

    def test_hessian_cent_matches_finite_differences(self):
        inst, x = random_instance(40, n_max=12, d_max=4)
        state = so.make_state(inst, x)
        fd = so.fd_hessian(lambda v: so.loss_cent(so.make_state(inst, v).f, inst.b), x)
        assert so.rel_err(so.hessian_cent(state, inst), fd) <= 1e-5

    def test_hessian_cent_is_kernel_congruence(self):
        inst, x = random_instance(41)
        state = so.make_state(inst, x)
        expected = inst.a.T @ b_matrix(state, inst.b) @ inst.a
        assert so.rel_err(so.hessian_cent(state, inst), expected) <= 1e-10

    def test_hessian_exp_zero_for_constant_columns(self):
        a = np.ones((5, 2)) * np.array([2.0, -1.0])  # each column constant
        inst = so.ProblemInstance(a=a, b=np.full(5, 0.1), w=np.zeros(5))
        state = so.make_state(inst, np.array([0.5, 0.5]))
        np.testing.assert_allclose(so.hessian_exp(state, inst), np.zeros((2, 2)), atol=1e-14)

    def test_hessian_exp_matches_finite_differences(self):
        inst, x = random_instance(42, n_max=12, d_max=4)
        state = so.make_state(inst, x)
        fd = so.fd_hessian(lambda v: so.loss_exp(so.make_state(inst, v).f, inst.b), x)
        assert so.rel_err(so.hessian_exp(state, inst), fd) <= 1e-5

    def test_hessian_exp_gauss_newton_at_zero_residual(self):
        a = np.random.default_rng(8).standard_normal((6, 3))
        x = np.array([0.2, -0.1, 0.4])
        b = so.softmax(so.ProblemInstance(a=a, b=np.zeros(6), w=np.zeros(6)), x)
        inst = so.ProblemInstance(a=a, b=b, w=np.zeros(6))
        state = so.make_state(inst, x)
        jac = fd_vector_jacobian(lambda v: so.softmax(inst, v), x)
        np.testing.assert_allclose(so.hessian_exp(state, inst), jac.T @ jac, atol=1e-6)

    def test_hessian_total_dominated_by_ridge(self):
        inst, x = random_instance(43, n_max=10, d_max=3)
        heavy = so.ProblemInstance(a=inst.a, b=np.zeros(inst.n), w=np.full(inst.n, 50.0))
        state = so.make_state(heavy, x)
        ridge = heavy.a.T @ (heavy.w[:, None] ** 2 * heavy.a)
        assert so.rel_err(so.hessian_total(state, heavy), ridge) <= 1e-3
        np.testing.assert_array_equal(so.hessian_reg(heavy), ridge)

    def test_hessian_total_zero_inputs(self):
        inst = so.ProblemInstance(a=np.zeros((3, 2)), b=np.zeros(3), w=np.zeros(3))
        state = so.make_state(inst, np.zeros(2))
        np.testing.assert_array_equal(
            so.hessian_total(state, inst), np.zeros((2, 2))
        )

    def test_hessian_total_matches_finite_differences(self):
        inst, x = random_instance(44, n_max=12, d_max=4)
        state = so.make_state(inst, x)
        fd = so.fd_hessian(lambda v: so.loss_total(inst, v).total, x)
        assert so.rel_err(so.hessian_total(state, inst), fd) <= 1e-5

    def test_component_sum_and_symmetry(self):
        inst, x = random_instance(45)
        state = so.make_state(inst, x)
        h_exp = so.hessian_exp(state, inst)
        h_cent = so.hessian_cent(state, inst)
        h_reg = so.hessian_reg(inst)
        h_total = so.hessian_total(state, inst)
        # h_total is one congruence of the combined kernel, so it equals the
        # per-term sum up to rounding, not bit for bit.
        assert so.rel_err(h_total, h_exp + h_cent + h_reg) <= 1e-12
        for mat in (h_exp, h_cent, h_reg, h_total):
            scale = max(np.linalg.norm(mat, 2), 1e-300)
            assert np.linalg.norm(mat - mat.T, 2) <= 1e-12 * scale

    def test_total_kernel_congruence(self):
        inst, x = random_instance(46, n_max=15, d_max=4)
        state = so.make_state(inst, x)
        via_kernel = inst.a.T @ total_kernel(state, inst) @ inst.a
        assert so.rel_err(via_kernel, so.hessian_total(state, inst)) <= 1e-12


FLAG_SETS = ((True, True), (False, True), (True, False))  # (use_exp, use_cent)


def flagged_instances(tag, count=20):
    """random_instance draws, each with both terms on and with each switched off."""
    for i in range(count):
        inst, x = random_instance([tag, i])
        for use_exp, use_cent in FLAG_SETS:
            yield so.ProblemInstance(
                a=inst.a, b=inst.b, w=inst.w, use_exp=use_exp, use_cent=use_cent
            ), x


class TestStructuredKernel:
    def test_materialised_kernel_matches_dense_oracles(self):
        for inst, x in flagged_instances(60):
            state = so.make_state(inst, x)
            oracle = total_kernel(state, inst)  # b_matrix + exp_kernel + W^2
            parts = so.total_kernel_parts(state, inst)
            assert so.rel_err(parts.dense(), oracle) <= 1e-12
            loss_only = oracle - np.diag(inst.w**2)
            assert so.rel_err(so.loss_kernel_parts(state, inst).dense(), loss_only) <= 1e-12

    def test_hessians_match_dense_kernel_congruence(self):
        for inst, x in flagged_instances(61):
            state = so.make_state(inst, x)
            a = inst.a
            assert so.rel_err(
                so.hessian_cent(state, inst), a.T @ b_matrix(state, inst.b) @ a
            ) <= 1e-12
            assert so.rel_err(
                so.hessian_exp(state, inst), a.T @ exp_kernel(state, inst) @ a
            ) <= 1e-12
            assert so.rel_err(
                so.hessian_total(state, inst), a.T @ total_kernel(state, inst) @ a
            ) <= 1e-12


def positive_diagonal_instances(tag, count=20):
    """The first `count` flagged_instances per flag set whose kernel diagonal c is > 0."""
    found = {flags: 0 for flags in FLAG_SETS}
    for inst, x in flagged_instances(tag, count=10 * count):
        flags = (inst.use_exp, inst.use_cent)
        c = so.total_kernel_parts(so.make_state(inst, x), inst).c
        if found[flags] < count and c.min() > 0:
            found[flags] += 1
            yield inst, x
    assert all(v == count for v in found.values()), found


def dense_root_factor(parts, a):
    """D^{1/2} A from the symmetric square root of the materialised kernel (oracle only)."""
    evals, vecs = np.linalg.eigh(parts.dense())
    return (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.T @ a


class TestKernelFactor:
    def test_gram_matches_kernel_congruence(self):
        for inst, x in positive_diagonal_instances(62):
            state = so.make_state(inst, x)
            c_mat = so.total_kernel_parts(state, inst).factor(inst.a)
            assert c_mat.shape == inst.a.shape
            gram = c_mat.T @ c_mat
            assert so.rel_err(gram, inst.a.T @ total_kernel(state, inst) @ inst.a) <= 1e-12
            assert so.rel_err(gram, so.hessian_total(state, inst)) <= 1e-12

    def test_gram_matches_dense_symmetric_root(self):
        for inst, x in positive_diagonal_instances(63):
            parts = so.total_kernel_parts(so.make_state(inst, x), inst)
            c_mat = parts.factor(inst.a)
            root = dense_root_factor(parts, inst.a)
            assert so.rel_err(c_mat.T @ c_mat, root.T @ root) <= 1e-12


class TestConsistencySweeps:
    def test_gradient_sweep(self):
        worst = 0.0
        for i in range(30):
            inst, x = random_instance([50, i])
            fd = so.fd_gradient(lambda v: so.loss_total(inst, v).total, x)
            worst = max(worst, so.rel_err(so.grad_total(so.make_state(inst, x), inst), fd))
        assert worst <= 1e-6

    def test_hessian_sweep(self):
        worst = 0.0
        for i in range(15):
            inst, x = random_instance([51, i], n_max=25, d_max=6)
            state = so.make_state(inst, x)
            fd = so.fd_hessian(lambda v: so.loss_total(inst, v).total, x)
            worst = max(worst, so.rel_err(so.hessian_total(state, inst), fd))
        assert worst <= 1e-4
