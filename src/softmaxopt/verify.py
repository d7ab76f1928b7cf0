"""Independent numerical oracles and spectral checks.

The finite-difference routines here deliberately evaluate only loss
callbacks, never the closed-form derivatives they are used to check.  A
callback takes the whole central-difference stencil as one ``(m, d)`` stack
of points and returns one value per point, optionally with trailing axes,
so that one evaluation serves several loss terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import KernelParts, hessian_total, loss_kernel_parts
from .exceptions import (
    AsymmetricMatrix,
    DimensionMismatch,
    DomainError,
    MidNotPD,
    MissingPlantedOptimum,
    NonFiniteEvaluation,
    SamplingFailure,
)
from .model import (
    ProblemInstance,
    _float_array,
    _require_ints,
    _seeded_rng,
    _vector,
    make_state,
)

FD_STEP = 1e-5
# Second differences divide by h^2, so the Hessian stencil needs a larger
# step than the gradient stencil to stay above float64 cancellation noise.
FD_HESS_STEP = 1e-4

# Absolute floor added to spectral pass thresholds so a target of 0 does not
# fail on eigensolver rounding of an exactly-PSD matrix.
_SPECTRAL_SLACK = 1e-10

# kernel_norm takes the 2-norm by eigvalsh of the materialised kernels up to
# this many rows, and by inertia bisection on the structured parts above it.
# For the stack of 11 probe kernels of a planted instance (one BLAS thread,
# 2-core Xeon, numpy 2.4.6, best of 30 calls), one eigvalsh takes 0.15 ms at
# n = 20, 1.6 ms at n = 70, 2.1 ms at n = 80, 7.6-7.9 ms at n = 150 and
# 0.74 s at n = 1000; the bisection, which drops the kernels that can no
# longer hold the norm, takes 1.4-1.5 ms at any n up to 150 and 1.9-2.0 ms
# at n = 1000 (4.0 ms if every kernel is bisected to the end).  Bisection
# wins above about n = 70, but the cutoff stays at 150, so that every desk
# instance keeps its eigvalsh norm, and with it the pinned gen and verify
# figures, bit for bit.
DENSE_NORM_MAX_N = 150
# Each bisection step halves a bracket that starts at +-1.001 R, where
# R = max|c| + |kappa| ||f||^2 + 2 ||f|| ||g|| bounds the norm, so 64 steps
# leave each extreme eigenvalue inside an interval of about 2^-63 R, below
# the eps R to which the parts determine it.
_BISECTION_STEPS = 64


def rel_err(a, b) -> float:
    """max |a - b| / max(1, |a|, |b|), the comparison metric used throughout."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / denom


def _stencil(x, h: float) -> tuple[np.ndarray, np.ndarray]:
    """x as a float vector and the rows ``h e_i`` of its coordinate steps."""
    if not (math.isfinite(h) and h > 0):
        raise DomainError(f"step h must be finite and positive, got {h!r}")
    x = _vector(x, "x")
    return x, h * np.eye(x.size)


def _evaluate(loss_evaluator, points: np.ndarray) -> np.ndarray:
    """The evaluator's values at a stack of points, one leading row per point."""
    values = np.asarray(loss_evaluator(points), dtype=np.float64)
    if values.shape[:1] != points.shape[:1]:
        raise DimensionMismatch(
            f"loss_evaluator must return one value per point: {points.shape[0]} "
            f"points gave shape {values.shape}"
        )
    return values


def fd_gradient(loss_evaluator, x, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient, from one evaluation of the 2d-point stencil.

    ``loss_evaluator`` maps an ``(m, d)`` stack of points to values of shape
    ``(m, *t)``; the gradient has shape ``(d, *t)``.
    """
    x, e = _stencil(x, h)
    d = x.size
    values = _evaluate(loss_evaluator, np.concatenate([x + e, x - e]))
    # a non-finite value is reported by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        g = (values[:d] - values[d:]) / (2.0 * h)
    if not np.isfinite(g).all():
        raise NonFiniteEvaluation("finite-difference gradient is not finite")
    return g


def fd_hessian(loss_evaluator, x, h: float = FD_HESS_STEP) -> np.ndarray:
    """Central second differences from one evaluation of the stencil, upper triangle mirrored.

    The stencil holds ``x``, ``x +- 2 h e_i`` and ``(x +- h e_i) +- h e_j``
    for ``i < j``: ``1 + 2d + 2d(d - 1)`` points.  ``loss_evaluator`` maps
    them to values of shape ``(m, *t)``; the Hessian has shape ``(d, d, *t)``.
    """
    x, e = _stencil(x, h)
    d = x.size
    iu, ju = np.triu_indices(d, 1)
    plus, minus = x + e, x - e
    values = _evaluate(
        loss_evaluator,
        np.concatenate(
            [
                x[None],
                x + 2 * e,
                x - 2 * e,
                plus[iu] + e[ju],
                plus[iu] - e[ju],
                minus[iu] + e[ju],
                minus[iu] - e[ju],
            ]
        ),
    )
    f0, values = values[0], values[1:]
    p2, m2, pp, pm, mp, mm = np.split(values, np.cumsum([d, d] + [iu.size] * 3))
    hess = np.zeros((d, d) + f0.shape)
    denom = 4.0 * h * h
    # a non-finite value is reported by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        hess[np.diag_indices(d)] = (p2 - 2 * f0 + m2) / denom
        hess[iu, ju] = (pp - pm - mp + mm) / denom
    hess[ju, iu] = hess[iu, ju]
    if not np.isfinite(hess).all():
        raise NonFiniteEvaluation("finite-difference Hessian is not finite")
    return hess


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise AsymmetricMatrix(f"{name} must be square, got {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-8 * scale:
        raise AsymmetricMatrix(f"{name} is not symmetric")
    return m


@dataclass(frozen=True)
class SpectralReport:
    """Extreme eigenvalues of a symmetric matrix against a lower-bound target."""

    eigmin: float
    eigmax: float
    target_l: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "eigmin": self.eigmin,
            "eigmax": self.eigmax,
            "target_l": self.target_l,
            "passed": self.passed,
        }


def psd_check(h, l: float) -> SpectralReport:
    """Check eigmin(H) >= l, with 1e-6 relative slack on the target."""
    h = _check_symmetric(h, "H")
    eigs = np.linalg.eigvalsh(h)
    eigmin = float(eigs[0])
    eigmax = float(eigs[-1])
    slack = _SPECTRAL_SLACK * max(1.0, abs(eigmax))
    passed = eigmin >= l * (1.0 - 1e-6) - slack
    return SpectralReport(eigmin=eigmin, eigmax=eigmax, target_l=float(l), passed=passed)


def sandwich_check(lhs, mid, lo: float = 0.99, hi: float = 1.01) -> bool:
    """True iff lo * mid <= lhs <= hi * mid in the semidefinite order.

    Decided through the generalized eigenvalues of (lhs, mid): with the
    Cholesky factor mid = L L^T, they are the eigenvalues of the whitened
    L^-1 lhs L^-T, formed by two linear solves with L and symmetrised.
    mid must be positive definite; MidNotPD is raised when its Cholesky
    factorization fails.
    """
    lhs = _check_symmetric(lhs, "lhs")
    mid = _check_symmetric(mid, "mid")
    if lhs.shape != mid.shape:
        raise AsymmetricMatrix(f"shape mismatch: {lhs.shape} vs {mid.shape}")
    try:
        chol = np.linalg.cholesky(mid)
    except np.linalg.LinAlgError as exc:
        raise MidNotPD("mid must be positive definite") from exc
    half = np.linalg.solve(chol, lhs)
    whitened = np.linalg.solve(chol, half.T)
    gen = np.linalg.eigvalsh(0.5 * (whitened + whitened.T))
    slack = _SPECTRAL_SLACK * max(1.0, float(np.max(np.abs(gen))))
    return bool(gen[0] >= lo - slack and gen[-1] <= hi + slack)


@dataclass(frozen=True, eq=False)
class LipschitzPair:
    x: np.ndarray
    y: np.ndarray
    dist: float
    ratio: float


@dataclass(frozen=True, eq=False)
class LipschitzProbe:
    """Hessian-difference ratios ||H(x) - H(y)|| / ||x - y|| over sampled pairs.

    Pairs are emitted base-major: for each sampled base point and direction,
    one pair per entry of the distance ladder, so consecutive groups of
    len(distances) pairs share the same direction.
    """

    pairs: list
    max_ratio: float

    def to_dict(self) -> dict:
        return {
            "pairs": [{"dist": p.dist, "ratio": p.ratio} for p in self.pairs],
            "max_ratio": self.max_ratio,
        }


def lipschitz_probe(
    inst: ProblemInstance,
    radius_r: float,
    num_pairs: int,
    seed: int,
    distances: tuple = (1e-2, 1e-3, 1e-4),
) -> LipschitzProbe:
    """Probe local Lipschitz behavior of the Hessian map.

    Samples base points with norm <= radius_r and directions obeying
    ||A (x - y)||_inf < 0.01, then reports the Hessian-difference ratio at
    each ladder distance.  Only finiteness and cross-scale stability are
    meaningful; no absolute constant is asserted.
    """
    if not (math.isfinite(radius_r) and radius_r > 0):
        raise DomainError(f"radius_r must be finite and positive, got {radius_r!r}")
    _require_ints(num_pairs=num_pairs)
    if num_pairs < 1:
        raise DomainError(f"num_pairs must be >= 1, got {num_pairs!r}")
    if not distances:
        raise DomainError("need at least one probe distance")
    for dist in distances:
        if not (math.isfinite(dist) and dist > 0):
            raise DomainError(f"probe distances must be finite and positive, got {dist!r}")
    rng = _seeded_rng(seed)
    max_dist = max(distances)
    pairs = []
    for _ in range(num_pairs):
        for attempt in range(1001):
            if attempt == 1000:
                raise SamplingFailure(
                    "could not satisfy probe preconditions in 1000 attempts"
                )
            x = rng.standard_normal(inst.d)
            x *= rng.uniform(0.0, radius_r) / max(np.linalg.norm(x), 1e-300)
            u = rng.standard_normal(inst.d)
            norm_u = np.linalg.norm(u)
            if norm_u == 0.0:
                continue
            u /= norm_u
            if max_dist * float(np.abs(inst.a @ u).max()) >= 0.01:
                continue
            if float(np.linalg.norm(x + max_dist * u)) > radius_r:
                continue
            break
        h_x = hessian_total(make_state(inst, x), inst)
        for dist in distances:
            y = x + dist * u
            h_y = hessian_total(make_state(inst, y), inst)
            ratio = float(np.linalg.norm(h_x - h_y, 2)) / dist
            pairs.append(LipschitzPair(x=x, y=y, dist=float(dist), ratio=ratio))
    max_ratio = max(p.ratio for p in pairs)
    if not math.isfinite(max_ratio):
        raise NonFiniteEvaluation("Hessian-difference ratio is not finite")
    return LipschitzProbe(pairs=pairs, max_ratio=max_ratio)


def convergence_audit(trace, epsilon: float) -> bool:
    """True iff the trace reaches error <= epsilon within the step budget.

    The budget is ceil(log2(initial error / epsilon)) + 5, with slack for
    the constant-factor difference between error metrics.  epsilon must be
    finite and positive.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be finite and positive, got {epsilon!r}")
    errs = [rec.err_to_opt for rec in trace.iterates]
    if any(e is None for e in errs) or not errs:
        raise MissingPlantedOptimum("trace has no error-to-optimum data")
    if errs[-1] > epsilon:
        return False
    budget = math.ceil(math.log2(max(errs[0] / epsilon, 1.0))) + 5
    return trace.iterations_run <= budget


def _count_above(c, w, kappa, lam, out):
    """Eigenvalues above ``lam`` of each kernel, and the points to move.

    Kernel p is D = diag(c_p) + U S U^T with U = [f, g] and S = [[kappa, -1],
    [-1, 0]]; ``w`` holds its rows (f_i^2, f_i g_i, g_i^2) and ``lam[p]`` two
    points.  det S = -1, so S^-1 exists, and Haynsworth inertia additivity on
    the bordered matrix [[diag(c) - lam, U], [U^T, -S^-1]] gives

        #{eig(D) > lam} = #{c_i > lam} + pos(T) - 1,
        T = -S^-1 - U^T (diag(c) - lam)^-1 U,  -S^-1 = [[0, 1], [1, kappa]],

    with pos(T) read off the trace and determinant of the 2x2 T, whose
    entries come from one batched matmul.  A point on a pole c_i, or so near
    one that 1 / (c_i - lam) overflows, gives a non-finite T and is flagged;
    the caller ignores the divide, overflow and invalid warnings that it
    raises.  ``out`` is an (m, 2, n) scratch array.
    """
    np.subtract(c[:, None, :], lam[:, :, None], out=out)
    above = np.count_nonzero(out > 0.0, axis=-1)
    np.divide(1.0, out, out=out)
    sums = out @ w
    t11 = -sums[..., 0]
    t12 = 1.0 - sums[..., 1]
    t22 = kappa[:, None] - sums[..., 2]
    det = t11 * t22 - t12 * t12
    trace = t11 + t22
    pos = np.where(det > 0.0, 2 * (trace > 0.0), np.where(det < 0.0, 1, trace > 0.0))
    return above + pos - 1, ~np.isfinite(det)


def _bisection_norm(parts: KernelParts, radius: np.ndarray) -> float:
    """Largest spectral norm in a stack of structured kernels (or of one), in O(m n) memory.

    Bisects on the count of ``_count_above`` for lam_max and lam_min of every
    kernel together: column 0 of the bracket keeps >= 1 eigenvalue above
    ``lo`` and none above ``hi``, column 1 keeps all n above ``lo`` and fewer
    above ``hi``.  A midpoint on a pole moves towards ``hi``.  The bracket
    starts just outside +-R, the bound ``kernel_norm`` computes for each
    kernel; a kernel with R = 0 is the zero kernel, of norm 0.0, and is left out.

    After every step a kernel is dropped once its norm bracket lies wholly
    below another's: its upper bound max(hi_max, -lo_min) is below the
    largest lower bound max(lo_max, -hi_min) in the stack (a tie is kept).
    Its final estimate could not be the largest, and every kept kernel keeps
    its own product block and bracket sequence, so the result is bitwise
    that of bisecting all of them.  On the 11 probe kernels of a planted
    instance at n = 1000, d = 20 (seeds 0-14) this passes 104-154
    kernel-steps to ``_count_above`` instead of 704.  A dropped kernel can
    no longer raise "kernel eigenvalue count is not finite", as it could
    not change the result.
    """
    c, f, g = (np.atleast_2d(v) for v in (parts.c, parts.f, parts.g))
    live = radius > 0.0
    c, f, g, kappa = c[live], f[live], g[live], np.atleast_1d(parts.kappa)[live]
    w = np.stack([f * f, f * g, g * g], axis=-1)
    # a little above R, so that rounding in R cannot cut off an eigenvalue
    hi = np.repeat(1.001 * radius[live, None], 2, axis=1)
    lo = -hi
    target = np.array([1, c.shape[1]])
    out = np.empty(c.shape[:1] + (2,) + c.shape[1:])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            count, redo = _count_above(c, w, kappa, mid, out)
            for _ in range(_BISECTION_STEPS):
                if not redo.any():
                    break
                # off the pole: halfway towards hi, or onto hi once the
                # bracket is too narrow for a point in between
                step = mid + 0.5 * (hi - mid)
                mid = np.where(redo, np.where(step > mid, step, hi), mid)
                count, redo = _count_above(c, w, kappa, mid, out)
            else:
                raise NonFiniteEvaluation("kernel eigenvalue count is not finite")
            up = count >= target
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
            keep = np.maximum(hi[:, 0], -lo[:, 1]) >= np.maximum(lo[:, 0], -hi[:, 1]).max()
            if not keep.all():
                c, w, kappa, lo, hi = c[keep], w[keep], kappa[keep], lo[keep], hi[keep]
                out = out[: c.shape[0]]
    lam = 0.5 * (lo + hi)
    return float(np.maximum(lam[:, 0], -lam[:, 1]).max())


def kernel_norm(parts: KernelParts) -> float:
    """Largest spectral norm over one structured kernel or a stack; 0.0 for an empty stack.

    Up to ``DENSE_NORM_MAX_N`` rows it is one eigvalsh of the dense stack,
    and above it ``_bisection_norm`` of the parts, in O(m n) memory.  Both
    paths share the bound R = max|c| + |kappa| ||f||^2 + 2 ||f|| ||g|| of each
    kernel.  Where every R is 0 the norm is 0.0.  Where R, or the width
    2 (1.001 R) of the bisection's bracket, is not finite it raises
    NonFiniteEvaluation at any n: past half the float64 maximum the
    bisection's midpoints would overflow to inf.
    """
    c, f, g = (np.atleast_2d(v) for v in (parts.c, parts.f, parts.g))
    # a non-finite bound is reported by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        f_norm = np.linalg.norm(f, axis=1)
        g_norm = np.linalg.norm(g, axis=1)
        radius = np.abs(c).max(axis=1) + np.abs(parts.kappa) * f_norm**2 + 2.0 * f_norm * g_norm
        finite = np.isfinite(2.0 * (1.001 * radius)).all()
    if not finite:
        raise NonFiniteEvaluation("kernel norm bound R or its bracket width 2.002 R is not finite")
    if not (radius > 0.0).any():
        return 0.0
    if parts.f.shape[-1] > DENSE_NORM_MAX_N:
        return _bisection_norm(parts, radius)
    return float(np.abs(np.linalg.eigvalsh(parts.dense())).max())


def kernel_bound(inst: ProblemInstance, probe_points) -> float:
    """Largest spectral norm of the loss kernels (ridge excluded) over probe points.

    ``kernel_norm`` of the kernel stack of one stacked state of the points,
    of which there must be at least one.  Reruns are bitwise equal.
    """
    points = _float_array(probe_points, "probe_points")
    if points.shape[:1] == (0,):
        raise DomainError("probe_points must hold at least one point")
    return kernel_norm(loss_kernel_parts(make_state(inst, points), inst))


def ridge_weights(inst: ProblemInstance, level: float, probe_points) -> np.ndarray:
    """Uniform ridge weights making the total Hessian >= level * I.

    Measures the curvature-kernel bound K over the probe points and returns
    w with w_i^2 = 100 K + level / sigma_min(A)^2, which dominates the
    possibly-indefinite kernels with two orders of headroom.
    """
    if not math.isfinite(level) or level < 0:
        raise DomainError(f"level must be finite and >= 0, got {level!r}")
    smin = float(np.linalg.svd(inst.a, compute_uv=False)[-1])
    if level > 0 and smin <= 0:
        raise DomainError("A is rank deficient; no ridge weight plants a positive level")
    k_hat = kernel_bound(inst, probe_points)
    w2 = 100.0 * k_hat + (level / smin**2 if level > 0 else 0.0)
    return np.full(inst.n, math.sqrt(w2))
