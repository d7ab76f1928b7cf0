"""Closed-form first and second derivatives of the objective.

Everything is assembled from the column derivative of the prediction vector

    df/dx_i = -<f, A_i> f + f o A_i          (o = entrywise product)

which in matrix form is ``J = P A`` with the softmax kernel
``P = diag(f) - f f^T``.  Every Hessian is a congruence ``A^T D A`` with an
n-by-n curvature kernel of the structured form

    D = diag(c) + kappa f f^T - g f^T - f g^T

a diagonal plus a correction of rank at most 2 in span{f, g}.  With
``beta = <1, b>``, ``q = f o (f - b)`` and ``s = <f, f - b>`` the terms give

    cross entropy     c = beta f                 g = 0          kappa = -beta
    squared residual  c = f o f + q - s f        g = f o f + q  kappa = ||f||^2 + 2 s
    ridge             c = w^2                    g = 0          kappa = 0

so the kernel is held as ``KernelParts`` in O(n) memory and the Hessian is
``A^T diag(c) A + kappa a a^T - gamma a^T - a gamma^T`` with ``a = A^T f`` and
``gamma = A^T g``, in O(n d^2) time and no n-by-n array.  The same parts
give a factor C with ``C^T C = A^T D A`` in O(n d) (``KernelParts.factor``),
whose rows sampled Newton samples.  ``KernelParts.dense`` is the one
n-by-n kernel in the package; the tests check the parts against dense
kernels built directly from their formulas (``tests/kernel_oracles.py``).

Every gradient and Hessian takes ``(state, inst)``: a ``ModelState`` of one
point and its instance; the ridge Hessian ``A^T W^2 A`` is the ``w^2`` of the
total kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DimensionMismatch, KernelNotPSD
from .model import ModelState, ProblemInstance, _row_dot


@dataclass(frozen=True, eq=False)
class KernelParts:
    """Curvature kernel D = diag(c) + kappa f f^T - g f^T - f g^T in O(n) memory.

    A stack of m kernels holds ``c``, ``g``, ``f`` as (m, n) and ``kappa`` as
    (m,); ``congruence`` and ``factor`` take one kernel and reject a stack.
    """

    c: np.ndarray
    g: np.ndarray
    kappa: float | np.ndarray
    f: np.ndarray

    def dense(self) -> np.ndarray:
        """The n-by-n kernel itself (m of them for a stack): O(m n^2) time and memory."""
        f, g = self.f, self.g
        u = np.expand_dims(self.kappa, -1) * f - g
        out = u[..., :, None] * f[..., None, :] - f[..., :, None] * g[..., None, :]
        diag = np.arange(f.shape[-1])
        out[..., diag, diag] += self.c
        return out

    def _require_one(self) -> None:
        # a stack would broadcast through A^T f silently when m == n
        if self.f.ndim != 1:
            raise DimensionMismatch(f"needs one kernel, got a stack of shape {self.f.shape}")

    def congruence(self, a: np.ndarray) -> np.ndarray:
        """A^T D A = A^T diag(c) A + kappa a a^T - gamma a^T - a gamma^T.

        With a = A^T f and gamma = A^T g; O(n d^2) time, no n-by-n array.
        """
        self._require_one()
        a_f = a.T @ self.f
        gamma = a.T @ self.g
        return (
            a.T @ (self.c[:, None] * a)
            + np.outer(self.kappa * a_f - gamma, a_f)
            - np.outer(a_f, gamma)
        )

    def factor(self, a: np.ndarray) -> np.ndarray:
        """An n-by-d C with C^T C = A^T D A, in O(n d) and no n-by-n array.

        Write D = diag(c) + U S U^T with U = [f, g], S = [[kappa, -1], [-1, 0]].
        With r = sqrt(c) and a thin QR Q R = U / r, and T = R S R^T =
        P diag(lam) P^T, D = diag(r) (I + Q T Q^T) diag(r), whose factor is

            C = diag(r) A + Q P diag(sqrt(1 + lam) - 1) P^T Q^T diag(r) A.

        D is PSD iff 1 + lam_min >= 0; below -1e-8 of max(1, 1 + lam_max)
        raises KernelNotPSD, and smaller negative values clip to zero.  A
        row with c_i = 0 is a zero row of D when f_i = g_i = 0 (an
        underflowed f_i without ridge weight), or whatever f_i is when
        kappa = 0 and g = 0, where D = diag(c) (T is then 0); its row of U
        is divided by 1, not r_i = 0, and its row of Q zeroed, so its row of
        C is exactly zero, and the zero kernel has the zero factor.  Any
        other c_i <= 0 raises KernelNotPSD.
        """
        self._require_one()
        c = self.c
        u = np.column_stack((self.f, self.g))
        flat = c <= 0.0
        if flat.any():
            low_rank = self.kappa != 0.0 or self.g.any()
            bad = np.flatnonzero(flat & ((c < 0.0) | (low_rank & u.any(axis=1))))
            if bad.size:
                i = int(bad[0])
                raise KernelNotPSD(
                    f"kernel diagonal has c[{i}] = {c[i]:.3g} <= 0 on a nonzero row; "
                    "row sampling needs c > 0 there"
                )
        r = np.sqrt(c)
        q, rr = np.linalg.qr(u / np.where(flat, 1.0, r)[:, None])
        q[flat] = 0.0
        lam, p = np.linalg.eigh(rr @ np.array([[self.kappa, -1.0], [-1.0, 0.0]]) @ rr.T)
        if 1.0 + lam[0] < -1e-8 * max(1.0, 1.0 + float(lam[-1])):
            raise KernelNotPSD(
                f"curvature kernel is indefinite: eigenvalue {1.0 + lam[0]:.3g} of "
                "diag(c)^-1/2 D diag(c)^-1/2; row sampling needs a PSD kernel"
            )
        shift = np.sqrt(np.clip(1.0 + lam, 0.0, None)) - 1.0
        ra = r[:, None] * a
        return ra + q @ ((p * shift) @ p.T @ (q.T @ ra))


def grad_exp(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Gradient of 0.5 ||f - b||^2: entry i is <df/dx_i, f - b>."""
    f = state.f
    r = f - inst.b
    return inst.a.T @ (f * r) - float(f @ r) * (inst.a.T @ f)


def grad_cent(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Gradient of the cross-entropy term: A^T (<b, 1> f - b)."""
    b = inst.b
    return inst.a.T @ (float(b.sum()) * state.f - b)


def grad_reg(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Gradient of the ridge term: A^T W^2 A (x - x_ref)."""
    z = inst.a @ (state.x - inst.reg_center())
    return inst.a.T @ (inst.w**2 * z)


def grad_total(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Sum of the per-term gradients in (exp, cent, reg) order; disabled terms contribute zero.

    Unchecked for finiteness, like all of this module: the solver loop reports an overflow.
    """
    zero = np.zeros(inst.d)
    g_exp = grad_exp(state, inst) if inst.use_exp else zero
    g_cent = grad_cent(state, inst) if inst.use_cent else zero
    return g_exp + g_cent + grad_reg(state, inst)


def _cent_parts(state: ModelState, inst: ProblemInstance) -> KernelParts:
    beta = float(inst.b.sum())
    f = state.f
    return KernelParts(c=beta * f, g=np.zeros_like(f), kappa=-beta, f=f)


def _exp_parts(state: ModelState, inst: ProblemInstance) -> KernelParts:
    f = state.f
    r = f - inst.b
    q = f * r
    s = _row_dot(f, r)
    g = f * f + q
    # (f.T * s).T scales each row of a stack by its own s, one point by s alone
    return KernelParts(c=g - (f.T * s).T, g=g, kappa=_row_dot(f, f) + 2.0 * s, f=f)


def loss_kernel_parts(state: ModelState, inst: ProblemInstance) -> KernelParts:
    """Structured kernel of the enabled loss terms, ridge excluded; a stack for a stacked state."""
    f = state.f
    terms = []
    if inst.use_cent:
        terms.append(_cent_parts(state, inst))
    if inst.use_exp:
        terms.append(_exp_parts(state, inst))
    zero = np.zeros_like(f)
    return KernelParts(
        c=sum((t.c for t in terms), zero),
        g=sum((t.g for t in terms), zero),
        # one point's kappa sums from a Python 0.0; a stack's keeps its (m,) shape
        kappa=sum((t.kappa for t in terms), zero[:, 0] if f.ndim > 1 else 0.0),
        f=f,
    )


def total_kernel_parts(state: ModelState, inst: ProblemInstance) -> KernelParts:
    """The total curvature kernel: the loss kernel plus W^2."""
    parts = loss_kernel_parts(state, inst)
    return replace(parts, c=parts.c + inst.w**2)


def hessian_cent(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Cross-entropy Hessian A^T B A."""
    return _cent_parts(state, inst).congruence(inst.a)


def hessian_exp(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Exact Hessian of 0.5 ||f - b||^2 (validated against finite differences)."""
    return _exp_parts(state, inst).congruence(inst.a)


def hessian_total(state: ModelState, inst: ProblemInstance) -> np.ndarray:
    """Total Hessian: one congruence of ``total_kernel_parts``.

    It is the matrix the Newton step decomposes, and equals the sum of the
    enabled terms' Hessians up to rounding.
    """
    return total_kernel_parts(state, inst).congruence(inst.a)
