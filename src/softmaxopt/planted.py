"""Synthetic instances with a known stationary point.

The generator draws A with an exact target condition number and spectral
norm below the cap, picks an optimum x_star inside the norm ball, and sets
the target b to the prediction vector at x_star.  That choice zeroes both
the squared-residual and the cross-entropy gradients there, and the ridge
term is recentered at x_star, so the full gradient vanishes at x_star
exactly.  The ridge is uniform, with w^2 = RIDGE_HEADROOM R + l / sigma_min(A)^2,
where R is the largest kernel-norm bound (``KernelParts.norm_bound``) of the
loss kernels at 11 probe points around x_star: it dominates those possibly
indefinite kernels with two orders of headroom, so the total Hessian stays
above the requested strong-convexity level l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import loss_kernel_parts
from .exceptions import DomainError, GenerationFailure, NonFiniteEvaluation
from .model import (
    ProblemInstance,
    _log_p_and_p,
    _require_finite,
    _require_finite_fields,
    _require_ints,
    _require_seed,
    _seeded_rng,
    _vector,
    make_state,
)

_COND_TOL = 1e-9
# w^2 is this many times the kernel-norm bound R, plus the planted level's share
RIDGE_HEADROOM = 100.0


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape, conditioning, norm cap, planted ridge level and seed."""

    n: int
    d: int
    conditioning: float = 5.0
    norm_cap_r: float = 4.0
    ridge_l: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _require_finite_fields(self)
        _require_ints(n=self.n, d=self.d)
        _require_seed(self.seed)
        if self.n < 1 or self.d < 1:
            raise DomainError("n and d must be positive")
        if self.n < self.d:
            raise DomainError("planted instances need n >= d")
        if self.conditioning < 1.0:
            raise DomainError("conditioning must be >= 1")
        # one singular value has ratio 1: no draw meets another conditioning
        if self.d == 1 and self.conditioning != 1.0:
            raise DomainError(f"conditioning must be 1 when d = 1, got {self.conditioning!r}")
        # no draw meets a lower cap: a probability vector b has ||b||_2 >= 1/sqrt(n)
        if self.norm_cap_r < 1.0 / math.sqrt(self.n):
            raise DomainError(f"norm_cap_r must be >= 1/sqrt(n), got {self.norm_cap_r!r}")
        if self.ridge_l < 0.0:
            raise DomainError("ridge_l must be >= 0")


def _orthonormal_columns(rng, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def generate_planted(spec: GeneratorSpec) -> tuple[ProblemInstance, np.ndarray]:
    """Build an instance whose total gradient is exactly zero at x_star.

    Only the draw that meets the conditioning and the norm caps sizes a
    ridge, from its own singular values and one stacked state of its probe
    points.  A w^2 that overflows raises NonFiniteEvaluation.
    """
    rng = np.random.default_rng(spec.seed)
    r_cap = spec.norm_cap_r
    missed = {}
    for _ in range(100):
        sigma_max = 0.9 * r_cap
        sigmas = np.geomspace(sigma_max, sigma_max / spec.conditioning, spec.d)
        left = _orthonormal_columns(rng, spec.n, spec.d)
        right = _orthonormal_columns(rng, spec.d, spec.d)
        a = (left * sigmas) @ right.T

        x_star = rng.standard_normal(spec.d)
        x_star *= rng.uniform(0.25, 0.75) * r_cap / max(np.linalg.norm(x_star), 1e-300)
        b = _log_p_and_p(a @ x_star)[1]
        if spec.ridge_l > 0.0:
            probes = [x_star] + [
                x_star + rho * _unit(rng, spec.d)
                for rho in (1e-3, 0.05, 0.2, 0.5, 1.0)
                for _ in range(2)
            ]

        measured = np.linalg.svd(a, compute_uv=False)
        cond_err = abs(measured[0] / measured[-1] - spec.conditioning)
        checks = {
            f"conditioning {spec.conditioning}": cond_err <= _COND_TOL * spec.conditioning,
            f"||A||_2 <= {r_cap}": measured[0] <= r_cap,
            f"||b||_2 <= {r_cap}": np.linalg.norm(b) <= r_cap,
            f"||x_star||_2 <= {r_cap}": np.linalg.norm(x_star) <= r_cap,
        }
        if all(checks.values()):
            break
        missed.update((name, None) for name, ok in checks.items() if not ok)
    else:
        raise GenerationFailure(f"no draw met all targets in 100 tries; missed {', '.join(missed)}")

    inst = ProblemInstance(a=a, b=b, w=np.zeros(spec.n), x_star=x_star, reg_mode="centered")
    if spec.ridge_l > 0.0:
        # f and b are probability vectors at every probe, so R is finite;
        # sigma_min > 0 as the draw met its conditioning
        bound = float(loss_kernel_parts(make_state(inst, probes), inst).norm_bound().max())
        w2 = RIDGE_HEADROOM * bound + spec.ridge_l / float(measured[-1]) ** 2
        if not math.isfinite(w2):
            raise NonFiniteEvaluation(
                f"ridge weight w^2 = {RIDGE_HEADROOM:g} R + ridge_l / sigma_min(A)^2 is not finite"
            )
        inst = ProblemInstance(
            a=a, b=inst.b, w=np.full(spec.n, math.sqrt(w2)), x_star=x_star, reg_mode="centered"
        )
    return inst, x_star


def _unit(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / max(np.linalg.norm(v), 1e-300)


def basin_start(x_star, offset: float, seed) -> np.ndarray:
    """x_star plus an offset-length random unit direction.

    ``seed`` is a non-negative integer, a list of them or a numpy Generator.
    """
    if not math.isfinite(offset) or offset < 0:
        raise DomainError(f"offset must be finite and >= 0, got {offset!r}")
    rng = _seeded_rng(seed)
    x_star = _vector(x_star, "x_star")
    _require_finite(x_star, "x_star")
    return x_star + offset * _unit(rng, x_star.size)
