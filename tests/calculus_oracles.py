"""Column derivatives of f and log f, as test oracles.

The package assembles its gradients and Hessians from congruences with
structured kernels (``softmaxopt.calculus``) and reads no single column.
The helpers here are the ridge Hessian ``A^T W^2 A`` and the paper's
per-column lemmas, ``df/dx_i = -<f, A_i> f + f o A_i``, its inner product
``<df/dx_i, A_j>`` with a column, ``d log f / dx_i = A_i - <f, A_i> 1`` and
the constant second derivative of log f, so the tests can check the inner
product against an explicit one, ``bsum`` times it against the cross-entropy
Hessian, and the lemmas against finite differences of ``make_state``.
Index arguments are 0-based columns of A.
"""

from __future__ import annotations

import numpy as np

from softmaxopt.model import ModelState, ProblemInstance


def hessian_reg(inst: ProblemInstance) -> np.ndarray:
    """Ridge Hessian A^T W^2 A (independent of x)."""
    return inst.a.T @ (inst.w[:, None] ** 2 * inst.a)


def grad_f_dir(state: ModelState, inst: ProblemInstance, i: int) -> np.ndarray:
    """Derivative of the prediction vector along column i: -<f, A_i> f + f o A_i."""
    f = state.f
    col = inst.a[:, i]
    return -(f @ col) * f + f * col


def grad_log_f_dir(state: ModelState, inst: ProblemInstance, i: int) -> np.ndarray:
    """Derivative of log f along column i: -<f, A_i> 1 + A_i."""
    col = inst.a[:, i]
    return col - float(state.f @ col)


def grad_f_inner(state: ModelState, inst: ProblemInstance, i: int, j: int) -> float:
    """<df/dx_i, A_j> in closed form: -<f, A_i><f, A_j> + <f, A_i o A_j>."""
    f = state.f
    ci = inst.a[:, i]
    cj = inst.a[:, j]
    return float(-(f @ ci) * (f @ cj) + f @ (ci * cj))


def hessian_log_f_entry(state: ModelState, inst: ProblemInstance, i: int, j: int) -> float:
    """Common value of all coordinates of d^2 log f / dx_i dx_j.

    The second derivative of log f is a constant vector; the constant is
    <f, A_i><f, A_j> - <f, A_i o A_j>, the negated covariance of columns
    i and j under the probability weights f.
    """
    return -grad_f_inner(state, inst, i, j)
