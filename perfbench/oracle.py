"""Independent reference for the three-term softmax-regression loss.

Reads the instance JSON written by ``softmaxopt gen`` and evaluates

    0.5 * ||f - b||^2  -  <b, log f>  +  0.5 * ||w o A (x - x_ref)||^2

with ``log f`` taken by log-sum-exp over the logits, for a whole batch of
points at once.  It imports nothing from ``softmaxopt``, so the output checks
that rest on it do not rest on the code they check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    x_star: np.ndarray
    x_ref: np.ndarray
    use_exp: bool
    use_cent: bool


def load(path) -> Instance:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    n, d = int(data["n"]), int(data["d"])
    a = np.asarray(data["A"], dtype=np.float64).reshape(n, d)
    x_star = np.asarray(data["x_star"], dtype=np.float64)
    centered = data.get("reg_mode", "paper") == "centered"
    return Instance(
        a=a,
        b=np.asarray(data["b"], dtype=np.float64),
        w=np.asarray(data["w"], dtype=np.float64),
        x_star=x_star,
        x_ref=x_star if centered else np.zeros(d),
        use_exp=bool(data.get("use_exp", True)),
        use_cent=bool(data.get("use_cent", True)),
    )


def losses(inst: Instance, xs) -> np.ndarray:
    """Loss terms at each row of ``xs`` (m x d); returns m x 4 columns
    l_exp, l_cent, l_reg, total."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    z = inst.a @ xs.T  # n x m logits
    top = z.max(axis=0)
    log_f = z - (top + np.log(np.exp(z - top).sum(axis=0)))
    out = np.zeros((xs.shape[0], 4))
    if inst.use_exp:
        out[:, 0] = 0.5 * ((np.exp(log_f) - inst.b[:, None]) ** 2).sum(axis=0)
    if inst.use_cent:
        out[:, 1] = -(inst.b @ log_f)
    r = inst.a @ (xs - inst.x_ref).T
    out[:, 2] = 0.5 * ((inst.w[:, None] * r) ** 2).sum(axis=0)
    out[:, 3] = out[:, :3].sum(axis=1)
    return out


def total(inst: Instance, x) -> float:
    return float(losses(inst, x)[0, 3])


def fd_gradient(inst: Instance, x, h: float = 1e-5) -> np.ndarray:
    """Central differences of the total loss, all 2d points in one batch."""
    steps = h * np.eye(x.size)
    vals = losses(inst, np.vstack([x + steps, x - steps]))[:, 3]
    return (vals[: x.size] - vals[x.size :]) / (2.0 * h)


def fd_hessian(inst: Instance, x, h: float = 1e-4) -> np.ndarray:
    """Second differences of the total loss on the (+-h, +-h) cross stencil.

    Entry (i, j) is [L(x+hi+hj) - L(x+hi-hj) - L(x-hi+hj) + L(x-hi-hj)] / 4h^2;
    on the diagonal the stencil reduces to steps of 2h.
    """
    d = x.size
    eye = h * np.eye(d)
    iu, ju = np.triu_indices(d)
    pi, pj = eye[iu], eye[ju]
    pts = np.vstack([x + pi + pj, x + pi - pj, x - pi + pj, x - pi - pj])
    v = losses(inst, pts)[:, 3].reshape(4, -1)
    upper = (v[0] - v[1] - v[2] + v[3]) / (4.0 * h * h)
    hess = np.zeros((d, d))
    hess[iu, ju] = upper
    hess[ju, iu] = upper
    return hess


def singular_values(inst: Instance) -> np.ndarray:
    return np.linalg.svd(inst.a, compute_uv=False)
