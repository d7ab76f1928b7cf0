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

from .calculus import hessian_total
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

