"""Dense n-by-n curvature kernels, built directly as test oracles.

The package holds every curvature kernel in structured O(n) form
(``softmaxopt.calculus.KernelParts``).  The builders here form the same
matrices directly from their defining formulas, with ``exp_kernel`` as
``P^2`` plus the residual-weighted curvature of f, so the tests can compare
the structured kernels, their congruences and their factors against an
independent n-by-n path.  ``unpruned_bisection_norm`` is the inertia
bisection that bisects every kernel of a stack to the last step, against
which the pruned ``softmaxopt.verify._bisection_norm`` must agree bit for
bit.
"""

from __future__ import annotations

import numpy as np

from softmaxopt.calculus import KernelParts
from softmaxopt.exceptions import DimensionMismatch, NonFiniteEvaluation
from softmaxopt.model import ModelState, ProblemInstance, _vector
from softmaxopt.verify import _BISECTION_STEPS, _count_above


def softmax_kernel(f: np.ndarray) -> np.ndarray:
    """diag(f) - f f^T, the Jacobian kernel of the prediction map."""
    return np.diag(f) - np.outer(f, f)


def b_matrix(state: ModelState, b) -> np.ndarray:
    """Cross-entropy curvature kernel <1, b> (diag(f) - f f^T); row sums are 0."""
    b = _vector(b, "b")
    if b.shape != state.f.shape:
        raise DimensionMismatch(f"b must have length {state.f.shape[0]}")
    return float(b.sum()) * softmax_kernel(state.f)


def exp_kernel(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """n-by-n kernel B_exp with hessian of 0.5||f - b||^2 equal to A^T B_exp A.

    Sum of the Gauss-Newton part P^2 and the residual-weighted curvature of
    f itself (q = f o r, s = <f, r>):

        B_exp = P^2 + diag(q) - s diag(f) - q f^T - f q^T + 2 s f f^T
    """
    f = state.f
    r = f - inst.b
    q = f * r
    s = float(f @ r)
    p = softmax_kernel(f)
    return (
        p @ p
        + np.diag(q - s * f)
        - np.outer(q, f)
        - np.outer(f, q)
        + 2.0 * s * np.outer(f, f)
    )


def total_kernel(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """n-by-n kernel D with total Hessian A^T D A; disabled terms excluded."""
    d = np.diag(inst.w**2)
    if inst.use_cent:
        d = d + b_matrix(state, inst.b)
    if inst.use_exp:
        d = d + exp_kernel(state, inst)
    return d


def unpruned_bisection_norm(parts: KernelParts) -> float:
    """``verify._bisection_norm`` without pruning: every live kernel is bisected for all steps."""
    c, f, g = (np.atleast_2d(v) for v in (parts.c, parts.f, parts.g))
    kappa = np.atleast_1d(parts.kappa)
    f_norm = np.linalg.norm(f, axis=1)
    g_norm = np.linalg.norm(g, axis=1)
    radius = np.abs(c).max(axis=1) + np.abs(kappa) * f_norm**2 + 2.0 * f_norm * g_norm
    if not np.isfinite(radius).all():
        raise NonFiniteEvaluation("curvature kernel is not finite")
    live = radius > 0.0
    if not live.any():
        return 0.0
    c, f, g, kappa = c[live], f[live], g[live], kappa[live]
    w = np.stack([f * f, f * g, g * g], axis=-1)
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
                step = mid + 0.5 * (hi - mid)
                mid = np.where(redo, np.where(step > mid, step, hi), mid)
                count, redo = _count_above(c, w, kappa, mid, out)
            else:
                raise NonFiniteEvaluation("kernel eigenvalue count is not finite")
            up = count >= target
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
    lam = 0.5 * (lo + hi)
    return float(np.maximum(lam[:, 0], -lam[:, 1]).max())
