"""Dense n-by-n curvature kernels, built directly as test oracles.

The package holds every curvature kernel in structured O(n) form
(``softmaxopt.calculus.KernelParts``).  The builders here form the same
matrices directly from their defining formulas, with ``exp_kernel`` as
``P^2`` plus the residual-weighted curvature of f, so the tests can compare
the structured kernels, their congruences, their factors and their norm
bounds against an independent n-by-n path.
"""

from __future__ import annotations

import numpy as np

from softmaxopt.exceptions import DimensionMismatch
from softmaxopt.model import ModelState, ProblemInstance, _vector


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

