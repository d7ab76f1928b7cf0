"""Newton-type solver with exact and row-sampled Hessian modes.

``solve`` and ``gradient_descent_baseline`` run one iteration loop that
records each iterate and puts it to the step, which owns every stop rule but
the planted error's; only the step differs.  A Newton step, shared by
``solve`` and ``newton_step``, takes one eigendecomposition
H = V diag(lam) V^T, which serves the stop rule ||g|| <= epsilon * eigmin(H),
the singularity guard and the solve s = V ((V^T g) / lam), then updates
x <- x - s.  In exact mode H is one congruence A^T D(x) A of the combined
curvature kernel, in O(n d^2) (``hessian_total``).  In sampled mode the
Hessian is replaced by an unbiased row-sampling estimate built from a
factored form H = C^T C, where C is built from the structured parts of the
combined curvature kernel D(x) in O(n d) with no n-by-n array
(``KernelParts.factor``): row i of C is kept independently with
probability p_i = min(1, c * ||C_i||^2 / ||C||_F^2) and rescaled by
1 / sqrt(p_i), with the oversampling count c = ceil(10 d log(d / delta) /
eps0^2).  When every p_i saturates at 1 the estimate reproduces the exact
Hessian.  The factor needs the kernel diagonal c(x) > 0 on every row that
is not identically zero, and D(x) PSD; otherwise sampled mode raises
KernelNotPSD.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .calculus import grad_total, hessian_total, total_kernel_parts
from .exceptions import (
    DomainError,
    KernelNotPSD,
    NonFiniteIterate,
    SamplingDegenerate,
    SingularHessian,
)
from .model import (
    ModelState,
    ProblemInstance,
    _require_finite_fields,
    _require_ints,
    _require_seed,
    _seeded_rng,
    _vector,
    _write_text,
    make_state,
    state_losses,
)

MODES = ("exact", "sampled")
SAMPLE_OVERSAMPLING = 10.0
_STEP_FAILURES = (KernelNotPSD, NonFiniteIterate, SamplingDegenerate, SingularHessian)


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings: target accuracy, Hessian mode and sampling knobs; the sampling
    knobs keep the solver's regime, narrower than the (0, 1) approx_hessian accepts."""

    epsilon: float = 1e-10
    delta: float = 0.05
    mode: str = "exact"
    sample_epsilon: float = 0.1
    max_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        _require_finite_fields(self)
        _require_ints(max_iters=self.max_iters)
        _require_seed(self.seed)
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        if not 0.0 < self.delta < 0.1:
            raise DomainError("delta must lie in (0, 0.1)")
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}")
        if not 0.0 < self.sample_epsilon <= 0.1:
            raise DomainError("sample_epsilon must lie in (0, 0.1]")
        if self.max_iters < 0:
            raise DomainError("max_iters must be >= 0")


@dataclass(frozen=True, eq=False)
class IterateRecord:
    t: int
    x: np.ndarray
    loss: float
    grad_norm: float
    err_to_opt: float | None
    step_seconds: float


@dataclass(eq=False)
class SolveTrace:
    """Per-iteration records plus the final convergence verdict; the step count
    follows from them."""

    iterates: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations_run(self) -> int:
        return len(self.iterates) - 1

    def write_csv(self, dest, include_timings: bool = False) -> None:
        """Write the CSV (header t,loss,grad_norm,err_to_opt,step_seconds) to a path
        or an open text stream.

        Absent values serialize as empty fields.  Wall-clock step timings are
        omitted unless asked for, keeping fixed-seed outputs byte-identical.
        """
        lines = ["t,loss,grad_norm,err_to_opt,step_seconds\n"]
        for rec in self.iterates:
            err = "" if rec.err_to_opt is None else repr(float(rec.err_to_opt))
            secs = repr(float(rec.step_seconds)) if include_timings else ""
            lines.append(
                f"{rec.t},{float(rec.loss)!r},{float(rec.grad_norm)!r},{err},{secs}\n"
            )
        _write_text(dest, lines)


def _evaluate(inst: ProblemInstance, x, t: int):
    """State, loss, gradient and its norm at iterate t: the one finiteness verdict.

    Logits that overflow, or a loss or gradient norm that is not finite, raise
    NonFiniteIterate; an overflow or an inf - inf on the way, in the state
    as in the loss and gradient, is reported here, not warned of.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            state = make_state(inst, x)
        except OverflowError as exc:
            raise NonFiniteIterate(f"iterate escaped the representable range: {exc}") from exc
        loss = state_losses(inst, state).total
        g = grad_total(state, inst)
        grad_norm = float(np.linalg.norm(g))
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise NonFiniteIterate(f"iterate {t} has loss {loss!r} and gradient norm {grad_norm!r}")
    return state, loss, g, grad_norm


def approx_hessian(
    inst: ProblemInstance,
    state: ModelState,
    sample_epsilon: float,
    seed,
    delta: float = SolverConfig.delta,
) -> np.ndarray:
    """Row-sampled spectral approximation of the total Hessian.

    The target is the window (1 - eps0) H <= H_approx <= (1 + eps0) H.  It is
    checked empirically, not proven: acceptance criterion 6 asks for it on
    at least 95 of 100 seeds, and ``TestSampledAtScale`` on 19 of 20 seeds
    where rows are dropped.  The count c = ceil(10 d log(d / delta) / eps0^2)
    is a leverage-score bound, but rows are drawn by squared row norms of C,
    so the probability 1 - delta does not follow from it.  Sampling by
    leverage scores, or a count proven for row norms, is an open choice.
    ``seed`` may be a non-negative integer, a list of them or a numpy
    Generator.  ``sample_epsilon`` and ``delta`` may lie anywhere in (0, 1),
    the estimator's domain; the solver keeps them in the narrower regime
    that ``SolverConfig`` checks.

    Rows are sampled from ``KernelParts.factor`` of the total kernel, which
    raises KernelNotPSD where it cannot factor it.  With every row kept the
    estimate is H, a singular H being the caller's to report; so is the
    zero kernel's H, the zero matrix, returned without a draw.  A zero
    factor of any other kernel (its rows cancelled in rounding), or any
    other estimate that ``_singular`` rejects (an empty draw gives the zero
    matrix), raises SamplingDegenerate.  Row norms or an estimate that
    overflow float64 raise NonFiniteIterate, without a numpy warning.
    """
    if not 0.0 < sample_epsilon < 1.0:
        raise DomainError("sample_epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    rng = _seeded_rng(seed)
    n, d = inst.n, inst.d
    if d > n:
        raise SamplingDegenerate(f"d = {d} exceeds n = {n}; kernel rank cannot reach d")
    # an overflow is reported by the checks below; with a finite total, a
    # count * row2 that overflows is a probability of 1 all the same
    with np.errstate(over="ignore", invalid="ignore"):
        parts = total_kernel_parts(state, inst)
        c_mat = parts.factor(inst.a)
        row2 = np.einsum("ij,ij->i", c_mat, c_mat)
        total = float(row2.sum())
        if not math.isfinite(total):
            raise NonFiniteIterate("sampled Hessian's row-norm total is not finite")
        if total <= 0.0:
            if parts.kappa == 0.0 and not (parts.c.any() or parts.g.any()):
                return np.zeros((d, d))
            raise SamplingDegenerate("all rows of the factored Hessian are zero")
        count = math.ceil(SAMPLE_OVERSAMPLING * d * math.log(d / delta) / sample_epsilon**2)
        probs = np.minimum(1.0, count * row2 / total)
        keep = rng.random(n) < probs
        scaled = c_mat[keep] / np.sqrt(probs[keep])[:, None]
        approx = _finite_hessian(scaled.T @ scaled)
    if not keep.all() and _singular(np.linalg.eigvalsh(approx)):
        raise SamplingDegenerate("sampled row set has rank below d")
    return approx


def _finite_hessian(hess: np.ndarray) -> np.ndarray:
    """hess, checked: an entry that overflowed float64 raises NonFiniteIterate."""
    if not np.isfinite(hess).all():
        raise NonFiniteIterate("Hessian is not finite")
    return hess


def _singular(evs: np.ndarray) -> bool:
    """The singularity test: eigmin below 1e-12 of the spectral radius (evs ascending)."""
    radius = max(-float(evs[0]), float(evs[-1]))
    return radius == 0.0 or evs[0] < 1e-12 * radius


def _newton_update(inst, state, g, grad_norm, cfg: SolverConfig, rng, epsilon):
    """x - H^{-1} g from one eigendecomposition H = V diag(lam) V^T.

    H is exact or row-sampled (drawn from ``rng``) as ``cfg.mode`` says.
    The decomposition serves, in this order, Newton's stop rule (None when
    epsilon is given and ``grad_norm`` = ||g|| <= epsilon * eigmin(H)), the
    SingularHessian guard (``_singular``) and the step x - V ((V^T g) / lam).
    An H or a step that overflows float64 raises NonFiniteIterate, without
    a numpy warning.
    """
    # an overflow in H or in the step is reported by the checks below
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.mode == "sampled":
            hess = approx_hessian(inst, state, cfg.sample_epsilon, rng, delta=cfg.delta)
        else:
            hess = _finite_hessian(hessian_total(state, inst))
        evs, vecs = np.linalg.eigh(hess)
        if epsilon is not None and grad_norm <= epsilon * max(float(evs[0]), 0.0):
            return None
        if _singular(evs):
            raise SingularHessian(
                f"Hessian eigmin {evs[0]:.3g} is below 1e-12 of its spectral radius"
            )
        x_next = state.x - vecs @ ((vecs.T @ g) / evs)
    if not np.all(np.isfinite(x_next)):
        raise NonFiniteIterate("Newton step produced NaN or Inf")
    return x_next


def _iterate(inst, x0, max_iters, step, epsilon) -> SolveTrace:
    """The solver loop: record each iterate, then x <- step(state, grad, ||grad||).

    Converges once ||x - x_star|| <= epsilon with a planted optimum, or when
    step returns None by its own stop rule.  Every iterate, the one at max_iters
    too, is put to the step, so no verdict depends on the cap.  A step that
    cannot be formed (``_STEP_FAILURES``) raises before the cap and leaves the
    run unconverged at it.  ``_evaluate`` checks each iterate's finiteness and
    each step its point, so a diverging run ends in NonFiniteIterate.  The
    start is checked once, here: one that is not 1-d is a DimensionMismatch.
    """
    x = _vector(x0, "x0").copy()
    iterates = []
    step_seconds = 0.0
    for t in range(max_iters + 1):
        state, loss, g, grad_norm = _evaluate(inst, x, t)
        err = float(np.linalg.norm(x - inst.x_star)) if inst.x_star is not None else None
        iterates.append(
            IterateRecord(
                t=t, x=x.copy(), loss=loss, grad_norm=grad_norm,
                err_to_opt=err, step_seconds=step_seconds,
            )
        )
        if epsilon is not None and err is not None and err <= epsilon:
            return SolveTrace(iterates, converged=True)
        tic = time.perf_counter()
        try:
            x = step(state, g, grad_norm)
        except _STEP_FAILURES:
            if t < max_iters:
                raise
            break
        if x is None:
            return SolveTrace(iterates, converged=True)
        step_seconds = time.perf_counter() - tic
    return SolveTrace(iterates)


def newton_step(inst: ProblemInstance, x_t, cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """One Newton update x - H^{-1} grad: solve's first update under cfg, without its stop rule.

    Deterministic: a sampled draw comes from ``cfg.seed`` (0 by default), as
    in solve, and a point solve would reject raises NonFiniteIterate.
    """
    state, _, g, grad_norm = _evaluate(inst, _vector(x_t, "x_t"), 0)
    return _newton_update(inst, state, g, grad_norm, cfg, np.random.default_rng(cfg.seed), None)


def solve(inst: ProblemInstance, x0, cfg: SolverConfig) -> SolveTrace:
    """Iterate Newton steps until convergence or the iteration cap.

    Stops when the planted error ||x - x_star|| reaches cfg.epsilon (when the
    instance carries a planted optimum) or when ||grad|| falls below
    cfg.epsilon times the smallest eigenvalue of the step's Hessian, from the
    step's one eigendecomposition, at every iterate up to cfg.max_iters; a trace
    that meets neither there, or whose step cannot be formed there, is returned
    unconverged.  The loop is the one gradient_descent_baseline runs.
    """
    rng = np.random.default_rng(cfg.seed)

    def step(state, g, grad_norm):
        return _newton_update(inst, state, g, grad_norm, cfg, rng, cfg.epsilon)

    return _iterate(inst, x0, cfg.max_iters, step, cfg.epsilon)


def gradient_descent_baseline(
    inst: ProblemInstance,
    x0,
    step_size: float,
    iters: int,
    epsilon: float | None = None,
) -> SolveTrace:
    """Plain fixed-step gradient descent with the same trace schema.

    Used as the first-order reference in solver comparisons, it runs solve's
    loop with a gradient step.  When epsilon is given, stops once the planted
    error (or, without a planted optimum, the step's ||grad||) falls below it.
    """
    if not (math.isfinite(step_size) and step_size > 0):
        raise DomainError(f"step_size must be finite and positive, got {step_size!r}")
    _require_ints(iters=iters)
    if iters < 0:
        raise DomainError("iters must be >= 0")

    def step(state, g, grad_norm):
        if epsilon is not None and inst.x_star is None and grad_norm <= epsilon:
            return None
        with np.errstate(over="ignore"):
            x = state.x - step_size * g
        if not np.all(np.isfinite(x)):
            raise NonFiniteIterate("gradient step produced NaN or Inf")
        return x

    return _iterate(inst, x0, iters, step, epsilon)
