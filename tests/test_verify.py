"""Soundness of the oracles themselves, spectral checks and audits."""

import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import softmaxopt as so
from kernel_oracles import b_matrix, exp_kernel, total_kernel, unpruned_bisection_norm
from softmaxopt.exceptions import (
    AsymmetricMatrix,
    DimensionMismatch,
    DomainError,
    MidNotPD,
    MissingPlantedOptimum,
    NonFiniteEvaluation,
    SamplingFailure,
)
from softmaxopt.newton import IterateRecord, SolveTrace
from softmaxopt.suite import check_sandwich, random_instance


def synthetic_trace(errors):
    recs = [
        IterateRecord(t=t, x=np.zeros(1), loss=0.0, grad_norm=0.0, err_to_opt=e, step_seconds=0.0)
        for t, e in enumerate(errors)
    ]
    return SolveTrace(iterates=recs, converged=True)


class TestFdGradient:
    def test_constant_function(self):
        g = so.fd_gradient(lambda v: np.full(len(v), 3.0), np.ones(4))
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_linear_function_exact(self):
        c = np.array([2.0, -1.0, 0.5])
        g = so.fd_gradient(lambda v: v @ c, np.array([0.3, 0.1, -0.9]))
        np.testing.assert_allclose(g, c, atol=1e-10)

    def test_quadratic_soundness(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(5)
            x *= rng.uniform(0, 10) / max(np.linalg.norm(x), 1e-300)
            g = so.fd_gradient(lambda v: 0.5 * (v * v).sum(axis=-1), x)
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
        h = so.fd_hessian(lambda v: 0.5 * ((v @ q) * v).sum(axis=-1), rng.standard_normal(4))
        np.testing.assert_allclose(h, q, atol=1e-6)

    def test_constant_function(self):
        h = so.fd_hessian(lambda v: np.ones(len(v)), np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros((3, 3)))

    def test_output_symmetric(self):
        inst, x = random_instance(3, n_max=8, d_max=4)
        h = so.fd_hessian(lambda v: so.loss_total(inst, v).total, x)
        np.testing.assert_array_equal(h, h.T)

    def test_entries_near_the_float64_limit_stay_finite(self):
        # K x0 x1 has the off-diagonal entry K = 1.5e308: mirrored, it stays
        # finite; averaged with its transpose, K + K overflowed to inf
        k = 1.5e308
        h = so.fd_hessian(lambda v: k * v[:, 0] * v[:, 1], np.zeros(2))
        assert np.isfinite(h).all() and h[0, 1] == h[1, 0]
        assert h[0, 1] == pytest.approx(k, rel=1e-6)

    def test_cross_module_total_hessian(self):
        inst, x = random_instance(4, n_max=10, d_max=4)
        fd = so.fd_hessian(lambda v: so.loss_total(inst, v).total, x)
        assert so.rel_err(fd, so.hessian_total(so.make_state(inst, x), inst)) <= 1e-4


def loop_fd_gradient(evaluate_one, x, h=so.verify.FD_STEP):
    """The per-point central-difference loop, kept as an oracle for the stencil."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (evaluate_one(x + e) - evaluate_one(x - e)) / (2.0 * h)
    return g


def loop_fd_hessian(evaluate_one, x, h=so.verify.FD_HESS_STEP):
    """The per-point second-difference loop, kept as an oracle for the stencil."""
    d = x.size
    hess = np.zeros((d, d))
    f0 = evaluate_one(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        hess[i, i] = (evaluate_one(x + 2 * ei) - 2 * f0 + evaluate_one(x - 2 * ei)) / (4.0 * h * h)
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            hess[i, j] = (
                evaluate_one(x + ei + ej)
                - evaluate_one(x + ei - ej)
                - evaluate_one(x - ei + ej)
                + evaluate_one(x - ei - ej)
            ) / (4.0 * h * h)
    hess = hess + np.triu(hess, 1).T
    return 0.5 * (hess + hess.T)


class CountingEvaluator:
    """Records the shape of every stack of points it is called with."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, points):
        self.calls.append(points.shape)
        return self.fn(points)


class TestStencilEvaluation:
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_one_call_per_stencil(self, d):
        x = np.linspace(-1.0, 1.0, d)
        grad = CountingEvaluator(lambda v: 0.5 * (v * v).sum(axis=-1))
        so.fd_gradient(grad, x)
        assert grad.calls == [(2 * d, d)]
        hess = CountingEvaluator(lambda v: 0.5 * (v * v).sum(axis=-1))
        so.fd_hessian(hess, x)
        assert hess.calls == [(1 + 2 * d + 2 * d * (d - 1), d)]

    @pytest.mark.parametrize("seed", range(8))
    def test_model_losses_keep_the_per_point_bits(self, seed):
        inst, x = random_instance([77, seed], n_max=30, d_max=6)
        losses = {
            "l_exp": lambda v: so.loss_exp(so.make_state(inst, v).f, inst.b),
            "l_cent": lambda v: so.loss_cent(so.make_state(inst, v).f, inst.b),
            "l_reg": lambda v: so.loss_reg(inst, v),
            "total": lambda v: so.loss_total(inst, v).total,
        }
        for loss in losses.values():
            assert so.fd_gradient(loss, x).tobytes() == loop_fd_gradient(loss, x).tobytes()
            assert so.fd_hessian(loss, x).tobytes() == loop_fd_hessian(loss, x).tobytes()

    def test_trailing_value_axes(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((4, 4))
        c = rng.standard_normal(4)
        parts = [
            lambda v: v @ c,
            lambda v: 0.5 * ((v @ q) * v).sum(axis=-1),
            lambda v: np.sin(v).sum(axis=-1),
            lambda v: np.exp(0.3 * v[..., 0]) * v[..., 1],
            lambda v: np.full(len(v), 2.0),
            lambda v: (v ** 3).sum(axis=-1),
        ]

        def stacked(v):
            return np.stack([p(v) for p in parts], axis=-1).reshape(len(v), 2, 3)

        x = rng.standard_normal(4)
        g = so.fd_gradient(stacked, x)
        h = so.fd_hessian(stacked, x)
        assert g.shape == (4, 2, 3) and h.shape == (4, 4, 2, 3)
        for k, part in enumerate(parts):
            i, j = divmod(k, 3)
            assert g[:, i, j].tobytes() == so.fd_gradient(part, x).tobytes()
            assert h[:, :, i, j].tobytes() == so.fd_hessian(part, x).tobytes()

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-5])
    def test_bad_step_is_named(self, h):
        for oracle in (so.fd_gradient, so.fd_hessian):
            with pytest.raises(DomainError, match="step h"):
                oracle(lambda v: v.sum(axis=-1), np.zeros(2), h=h)

    def test_one_value_per_point_required(self):
        for oracle in (so.fd_gradient, so.fd_hessian):
            with pytest.raises(DimensionMismatch, match="one value per point"):
                oracle(lambda v: 3.0, np.zeros(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_value_is_reported(self):
        def blows_up(v):
            out = v.sum(axis=-1)
            out[0] = np.inf
            return out

        with pytest.raises(NonFiniteEvaluation, match="gradient"):
            so.fd_gradient(blows_up, np.zeros(3))
        with pytest.raises(NonFiniteEvaluation, match="Hessian"):
            so.fd_hessian(blows_up, np.zeros(3))


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
        kernel = b_matrix(state, inst.b) + exp_kernel(state, inst)
        w2 = 100.0 * np.linalg.norm(kernel, 2) + 1.0
        shifted = kernel + w2 * np.eye(inst.n)
        assert so.sandwich_check(w2 * np.eye(inst.n), shifted, 0.99, 1.01)

    @pytest.mark.parametrize("seed", range(10))
    def test_suite_weight_is_the_ridge_recipe_bound(self, seed):
        inst, x = random_instance(seed, n_max=20, d_max=5)
        result = check_sandwich(seed)
        assert result.detail["w_squared"] == 100.0 * so.kernel_bound(inst, [x]) + 1.0


def spd(rng, k, floor=0.5):
    m = rng.standard_normal((k, k))
    return m @ m.T + floor * np.eye(k)


class TestSandwichAgainstGeneralizedEigh:
    """sandwich_check against scipy's generalized eigh, a test-only oracle."""

    @staticmethod
    def oracle(lhs, mid, lo, hi):
        gen = scipy.linalg.eigh(lhs, mid, eigvals_only=True)
        slack = 1e-10 * max(1.0, float(np.max(np.abs(gen))))
        return bool(gen[0] >= lo - slack and gen[-1] <= hi + slack)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_spd_pairs(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        lhs, mid = spd(rng, k), spd(rng, k)
        gen = scipy.linalg.eigh(lhs, mid, eigvals_only=True)
        windows = [(0.99, 1.01), (gen[0] * 0.5, gen[-1] * 2.0), (gen[0] * 1.1, gen[-1] * 2.0)]
        for lo, hi in windows:
            assert so.sandwich_check(lhs, mid, lo, hi) == self.oracle(lhs, mid, lo, hi)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("edge", ["lo", "hi"])
    @pytest.mark.parametrize("offset", [-1e-6, 1e-6])
    def test_pairs_at_the_window_edges(self, seed, edge, offset):
        # lhs = L Q diag(t) Q^T L^T has generalized eigenvalues t against
        # mid = L L^T; one extreme of t sits 1e-6 inside or outside the window
        lo, hi = 0.9, 1.1
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(2, 9))
        mid = spd(rng, k, floor=1.0)
        chol = np.linalg.cholesky(mid)
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        t = rng.uniform(lo + 0.01, hi - 0.01, k)
        t[0] = (lo if edge == "lo" else hi) + offset
        lhs = chol @ (q * t) @ q.T @ chol.T
        lhs = 0.5 * (lhs + lhs.T)
        inside = offset > 0 if edge == "lo" else offset < 0
        assert self.oracle(lhs, mid, lo, hi) == inside
        assert so.sandwich_check(lhs, mid, lo, hi) == inside

    @pytest.mark.parametrize(
        "mid",
        [
            np.diag([2.0, 1.0, 0.0]),
            np.ones((3, 3)),
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.diag([1.0, -1.0]),
            spd(np.random.default_rng(7), 4) - 50.0 * np.eye(4),
        ],
        ids=["zero-diagonal", "rank-one", "singular-2x2", "indefinite", "negative-definite"],
    )
    def test_singular_or_indefinite_mid(self, mid):
        with pytest.raises(MidNotPD):
            so.sandwich_check(np.eye(len(mid)), mid)


class TestRidgeRecipe:
    @pytest.mark.parametrize("level", [0.1, 1.0, 10.0])
    def test_planted_level_is_met(self, level):
        inst, x = random_instance(8, n_max=15, d_max=4)
        rng = np.random.default_rng(9)
        probes = [x + 0.3 * rng.standard_normal(inst.d) for _ in range(6)] + [x]
        w = so.ridge_weights(inst, level, probes)
        sized = so.ProblemInstance(a=inst.a, b=inst.b, w=w)
        for probe in probes:
            h = so.hessian_total(so.make_state(sized, probe), sized)
            assert so.psd_check(h, level).passed

    def test_zero_level_zero_kernel_gives_zero_weights(self):
        inst = so.ProblemInstance(
            a=np.eye(3), b=np.zeros(3), w=np.zeros(3), use_exp=False, use_cent=False
        )
        w = so.ridge_weights(inst, 0.0, [np.zeros(3)])
        np.testing.assert_array_equal(w, np.zeros(3))

    @pytest.mark.parametrize("level", [float("nan"), float("inf"), -1.0])
    def test_bad_level_is_domain_error(self, level):
        inst, x = random_instance(8, n_max=15, d_max=4)
        with pytest.raises(DomainError, match="^level must be finite and >= 0"):
            so.ridge_weights(inst, level, [x])

    def test_no_probe_points_is_domain_error(self):
        inst, _ = random_instance(8, n_max=15, d_max=4)
        with pytest.raises(DomainError, match="probe_points"):
            so.ridge_weights(inst, 1.0, [])


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
            kernel = b_matrix(state, inst.b) + exp_kernel(state, inst)
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
        # a first call outside the trace, so that one-time set-up does not count
        so.kernel_bound(inst, probes[:1])
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

    @pytest.mark.parametrize("n", [20, 400])
    def test_one_state_per_call(self, n, monkeypatch):
        inst, probes = kernel_instance(n)
        calls = []

        def counting(*args):
            calls.append(args)
            return so.make_state(*args)

        monkeypatch.setattr(so.verify, "make_state", counting)
        so.kernel_bound(inst, probes)
        assert len(calls) == 1

    def test_no_probe_points_is_domain_error(self):
        inst, _ = kernel_instance(20)
        with pytest.raises(DomainError, match="probe_points"):
            so.kernel_bound(inst, [])


def loss_kernel_spectrum(inst, x):
    """Dense loss kernel at x from the oracle formulas (w = 0), its eigenvalues and its parts."""
    state = so.make_state(inst, x)
    kernel = total_kernel(state, inst)
    return kernel, np.linalg.eigvalsh(kernel), so.loss_kernel_parts(state, inst)


def first_probe(inst, rng, holds):
    """The first of 20 seeded probes whose dense loss kernel satisfies ``holds``."""
    for _ in range(20):
        x = rng.standard_normal(inst.d)
        if holds(*loss_kernel_spectrum(inst, x)[1:]):
            return x
    raise AssertionError("no probe with the property in 20 draws")


@functools.cache
def structured_case(case, n, d=4):
    """An instance and probes whose loss kernels have the named structure; callers must not mutate them."""
    rng = np.random.default_rng([71, n])
    a = rng.standard_normal((n, d))
    b = rng.uniform(0.0, 3.0 / n, n)
    if case == "cross-entropy-only":
        inst = so.ProblemInstance(a=a, b=b, w=np.zeros(n), use_exp=False)
        return inst, [rng.standard_normal(d) for _ in range(3)]
    if case == "residual-only":
        inst = so.ProblemInstance(a=a, b=b, w=np.zeros(n), use_cent=False)
        return inst, [rng.standard_normal(d) for _ in range(3)]
    if case == "lam-max-between-poles":
        inst = so.ProblemInstance(a=a, b=b, w=np.zeros(n))
        return inst, [first_probe(inst, rng, lambda e, p: e[-1] < p.c.max())]
    if case == "lam-max-above-poles":
        b = np.zeros(n)
        b[:3] = -2.0  # residual only, so b may be negative
        inst = so.ProblemInstance(a=a, b=b, w=np.zeros(n), use_cent=False)
        return inst, [first_probe(inst, rng, lambda e, p: e[-1] > p.c.max())]
    if case == "lam-min-dominates":
        b = np.zeros(n)
        b[:3] = 2.0
        inst = so.ProblemInstance(a=a, b=b, w=np.zeros(n), use_cent=False)
        return inst, [first_probe(inst, rng, lambda e, p: -e[0] > e[-1])]
    if case == "underflowed-f":
        # five rows share the top logit; the others sit 1500 below it, so
        # their f_i (and c_i, g_i) are exactly 0
        a[:, 0] = -1.0
        a[:5, 0] = 0.5 + 1e-3 * rng.standard_normal(5)
        inst = so.ProblemInstance(a=a, b=b, w=np.zeros(n))
        return inst, [rng.standard_normal(d) + np.eye(d)[0] * 1000.0 for _ in range(3)]
    raise ValueError(case)


def coupled_pole_parts(sign):
    """A kernel whose first bisection midpoint, 0.0, is the pole c_0 of a row with f_0 != 0.

    With every other c_i < 0 (for sign 1) and a large rank-one term, the one
    eigenvalue above 0 is lam_max, which a count taken on the pole would miss.
    """
    n = 400
    rng = np.random.default_rng(73)
    c = -1e-3 * rng.uniform(0.5, 1.0, n)
    c[0] = 0.0
    f = rng.uniform(0.5, 1.0, n) / n
    return so.KernelParts(c=sign * c, g=np.zeros(n), kappa=sign * 1e3, f=f)


def probe_stack(n, count=11):
    """The loss kernels of ``kernel_instance(n)`` at ``count`` seeded probes, as one stack."""
    inst, _ = kernel_instance(n)
    rng = np.random.default_rng([72, n])
    probes = 2.0 * rng.standard_normal((count, inst.d))
    return so.loss_kernel_parts(so.make_state(inst, probes), inst)


def take_kernels(parts, rows):
    """The stack of the kernels of ``parts`` at ``rows``, in that order."""
    return so.KernelParts(
        c=parts.c[rows], g=parts.g[rows], kappa=parts.kappa[rows], f=parts.f[rows]
    )


def planted_probe_stacks(monkeypatch, n, d, seed):
    """Every kernel stack that ``generate_planted`` hands to the bisection."""
    stacks = []
    bisect = so.verify._bisection_norm

    def recording(parts, radius):
        stacks.append(parts)
        return bisect(parts, radius)

    monkeypatch.setattr(so.verify, "_bisection_norm", recording)
    so.generate_planted(so.GeneratorSpec(n=n, d=d, ridge_l=1.0, seed=seed))
    monkeypatch.undo()
    assert stacks
    return stacks


KERNEL_CASES = [
    "cross-entropy-only",
    "residual-only",
    "lam-max-between-poles",
    "lam-max-above-poles",
    "lam-min-dominates",
    "underflowed-f",
]


class TestKernelNorm:
    """The structured bisection above DENSE_NORM_MAX_N against the dense 2-norm."""

    @pytest.mark.parametrize("n", [151, 400, 1000])
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_matches_dense_two_norm(self, case, n):
        inst, probes = structured_case(case, n)
        expected = 0.0
        for x in probes:
            kernel, evals, parts = loss_kernel_spectrum(inst, x)
            expected = max(expected, float(np.linalg.norm(kernel, 2)))
            if case == "cross-entropy-only":
                assert not parts.g.any()
            if case == "underflowed-f":
                dead = parts.f == 0.0
                assert dead.sum() == n - 5
                assert not (parts.c[dead].any() or parts.g[dead].any())
        bound = so.kernel_bound(inst, probes)
        assert bound == pytest.approx(expected, rel=1e-12)
        assert so.kernel_bound(inst, probes) == bound

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_midpoint_on_a_coupled_pole(self, sign):
        parts = coupled_pole_parts(sign)
        expected = float(np.linalg.norm(parts.dense(), 2))
        assert expected > 10 * np.abs(parts.c).max()
        assert so.kernel_norm(parts) == pytest.approx(expected, rel=1e-12)

    def test_midpoint_on_an_eigenvalue(self):
        # D = diag(c) + f f^T with f = e_0 and c_0 = -1 has the eigenvalue 0
        # at the first midpoint, where T = [[1, 1], [1, 1]] is singular with
        # one positive eigenvalue; the top eigenvalue 2 lies above it.
        n = 200
        c = np.full(n, -0.5)
        c[:2] = (-1.0, 2.0)
        f = np.zeros(n)
        f[0] = 1.0
        parts = so.KernelParts(c=c, g=np.zeros(n), kappa=1.0, f=f)
        assert so.kernel_norm(parts) == pytest.approx(2.0, rel=1e-12)

    def test_parts_entry_point_matches_kernel_bound(self):
        for n in (20, 400):
            inst, probes = kernel_instance(n)
            parts = so.loss_kernel_parts(so.make_state(inst, probes), inst)
            assert so.kernel_norm(parts) == so.kernel_bound(inst, probes)

    @pytest.mark.parametrize("n", [20, so.verify.DENSE_NORM_MAX_N + 1, 400])
    def test_stack_norm_is_the_largest_one_kernel_norm(self, n):
        inst, _ = kernel_instance(n)
        rng = np.random.default_rng([72, n])
        probes = 2.0 * rng.standard_normal((11, inst.d))
        stack = so.loss_kernel_parts(so.make_state(inst, probes), inst)
        norms = [so.kernel_norm(so.loss_kernel_parts(so.make_state(inst, x), inst)) for x in probes]
        assert len(set(norms)) > 1
        assert so.kernel_norm(stack) == max(norms)

    def test_empty_stack(self):
        for n in (20, 400):
            inst, _ = kernel_instance(n)
            parts = so.loss_kernel_parts(so.make_state(inst, np.empty((0, inst.d))), inst)
            assert parts.f.shape == (0, n)
            assert so.kernel_norm(parts) == 0.0

    @pytest.mark.parametrize("n", [20, 200])
    @pytest.mark.parametrize("c0", [np.inf, np.nan, 1.79e308])
    def test_one_finiteness_verdict_on_both_paths(self, n, c0):
        # R = max|c| is inf, nan, or finite with an overflowing bracket width 2.002 R
        c = np.full(n, -0.5)
        c[0] = c0
        parts = so.KernelParts(c=c, g=np.zeros(n), kappa=0.0, f=np.full(n, 1.0 / n))
        with pytest.raises(NonFiniteEvaluation, match="bound R"):
            so.kernel_norm(parts)

    def test_non_finite_kernel_above_cutoff(self):
        inst, probes = kernel_instance(400)
        parts = so.loss_kernel_parts(so.make_state(inst, probes[0]), inst)
        c = parts.c.copy()
        c[7] = np.nan
        with pytest.raises(NonFiniteEvaluation):
            so.kernel_norm(dataclasses.replace(parts, c=c))


class TestPrunedBisection:
    """Dropping kernels that cannot hold the norm leaves every bit of it, and most of the work."""

    @pytest.mark.parametrize("n", [151, 400, 1000])
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_structured_cases(self, case, n):
        inst, probes = structured_case(case, n)
        parts = so.loss_kernel_parts(so.make_state(inst, np.array(probes)), inst)
        assert so.kernel_norm(parts) == unpruned_bisection_norm(parts)

    @pytest.mark.parametrize("seed", range(10))
    def test_planted_probe_stacks(self, seed, monkeypatch):
        for parts in planted_probe_stacks(monkeypatch, 1000, 20, seed):
            assert parts.f.shape == (11, 1000)
            assert so.kernel_norm(parts) == unpruned_bisection_norm(parts)

    def test_tie_for_the_largest_norm(self):
        stack = probe_stack(400)
        norms = [unpruned_bisection_norm(take_kernels(stack, [i])) for i in range(11)]
        top = int(np.argmax(norms))
        parts = take_kernels(stack, [top, *range(11), top])
        assert so.kernel_norm(parts) == unpruned_bisection_norm(parts) == norms[top]

    def test_largest_norm_on_a_lam_min_column(self):
        # D -> -D is c -> -c, g -> -g, kappa -> -kappa; it swaps the roles of
        # lam_max and -lam_min, so the stack's norm sits on a lam_min column
        stack = probe_stack(400)
        negated = so.KernelParts(c=-stack.c, g=-stack.g, kappa=-stack.kappa, f=stack.f)
        evals = np.linalg.eigvalsh(negated.dense())
        top = int(np.argmax(np.abs(evals).max(axis=1)))
        assert -evals[top, 0] > evals[top, -1]
        assert so.kernel_norm(negated) == unpruned_bisection_norm(negated)
        assert so.kernel_norm(negated) == so.kernel_norm(stack)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_coupled_pole(self, sign):
        parts = coupled_pole_parts(sign)
        assert so.kernel_norm(parts) == unpruned_bisection_norm(parts)

    @pytest.mark.parametrize(("n", "d", "seed"), [(1000, 20, 0), (1000, 20, 1), (400, 10, 0)])
    def test_kernel_steps_of_a_planted_instance(self, n, d, seed, monkeypatch):
        # unpruned, the 11 probe kernels take 64 steps each: 704 kernel-steps
        steps = []
        count_above = so.verify._count_above

        def counting(c, *args):
            steps.append(c.shape[0])
            return count_above(c, *args)

        monkeypatch.setattr(so.verify, "_count_above", counting)
        so.generate_planted(so.GeneratorSpec(n=n, d=d, ridge_l=1.0, seed=seed))
        assert 0 < sum(steps) <= 200


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_pairs": 0},
            {"distances": (0.0,)},
            {"distances": (-1e-3,)},
            {"distances": (1e-2, float("nan"))},
            {"distances": (float("inf"),)},
            {"radius_r": float("nan")},
            {"radius_r": float("inf")},
        ],
    )
    def test_bad_input_is_domain_error(self, kwargs):
        inst, _ = so.generate_planted(so.GeneratorSpec(n=15, d=4, ridge_l=1.0, seed=0))
        args = {"radius_r": 4.0, "num_pairs": 2, "seed": 0, **kwargs}
        with pytest.raises(DomainError):
            so.lipschitz_probe(inst, **args)

    def test_negative_seed_is_domain_error(self):
        inst, _ = so.generate_planted(so.GeneratorSpec(n=15, d=4, ridge_l=1.0, seed=0))
        with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
            so.lipschitz_probe(inst, 1.0, num_pairs=2, seed=-1)

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

    @pytest.mark.parametrize("epsilon", [0.0, -1e-10, float("nan"), float("inf")])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=9))
        trace = so.solve(inst, x_star, so.SolverConfig(epsilon=1e-10))
        assert trace.iterates[-1].err_to_opt == 0.0
        with pytest.raises(DomainError, match="epsilon"):
            so.convergence_audit(trace, epsilon)


class TestRelErr:
    def test_metric(self):
        assert so.rel_err(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert so.rel_err(np.array([0.0]), np.array([1e-7])) == pytest.approx(1e-7)
        assert so.rel_err(np.array([10.0]), np.array([11.0])) == pytest.approx(1.0 / 11.0)
