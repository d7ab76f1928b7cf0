"""Column derivatives of f and log f, as test oracles.

The package assembles its gradients and Hessians from congruences with
structured kernels (``softmaxopt.calculus``) and reads single columns only
through ``grad_f_inner``.  The helpers here are the ridge Hessian
``A^T W^2 A`` and the paper's per-column lemmas, ``df/dx_i = -<f, A_i> f + f o A_i``, ``d log f / dx_i = A_i - <f, A_i> 1``
and the constant second derivative of log f, so the tests can check
``grad_f_inner`` against an explicit inner product and the lemmas against
finite differences of ``softmax`` and ``log_softmax``.
"""

from __future__ import annotations

import numpy as np

from softmaxopt.calculus import _check_col, grad_f_inner
from softmaxopt.model import ModelState, ProblemInstance


def hessian_reg(inst: ProblemInstance) -> np.ndarray:
    """Ridge Hessian A^T W^2 A (independent of x)."""
    return inst.a.T @ (inst.w[:, None] ** 2 * inst.a)


def grad_f_dir(state: ModelState, inst: ProblemInstance, i: int) -> np.ndarray:
    """Derivative of the prediction vector along column i: -<f, A_i> f + f o A_i."""
    _check_col(inst, i)
    f = state.f
    col = inst.a[:, i]
    return -(f @ col) * f + f * col


def grad_log_f_dir(state: ModelState, inst: ProblemInstance, i: int) -> np.ndarray:
    """Derivative of log f along column i: -<f, A_i> 1 + A_i."""
    _check_col(inst, i)
    col = inst.a[:, i]
    return col - float(state.f @ col)


def hessian_log_f_entry(state: ModelState, inst: ProblemInstance, i: int, j: int) -> float:
    """Common value of all coordinates of d^2 log f / dx_i dx_j.

    The second derivative of log f is a constant vector; the constant is
    <f, A_i><f, A_j> - <f, A_i o A_j>, the negated covariance of columns
    i and j under the probability weights f.
    """
    return -grad_f_inner(state, inst, i, j)
