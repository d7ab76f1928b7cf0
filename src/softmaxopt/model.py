"""Problem data model and objective evaluation.

A problem is a dense real matrix ``A`` (n rows, d columns), a target vector
``b`` (length n) and a vector of ridge weights ``w`` (length n).  The model
maps a parameter vector ``x`` to positive weights ``u = exp(A @ x)``, their
sum ``alpha`` and the normalized prediction ``f = u / alpha`` (a probability
vector), evaluated with ``log f`` from one max-shift of the logits ``A @ x``.
Three loss terms are evaluated on top of that:

* squared-residual term   ``0.5 * ||f - b||^2``
* cross-entropy term      ``-<b, log f>``
* ridge term              ``0.5 * ||W A (x - x_ref)||^2`` with ``W = diag(w)``

``x_ref`` is zero for ordinary instances; planted instances recenter the
ridge term at their known optimum (``reg_mode == "centered"``) so the total
gradient vanishes there exactly.

``logits``, ``softmax``, ``log_softmax``, ``make_state``, the ``loss_*``
functions and ``state_losses`` also take a stack of points along the leading
axis, ``x`` of shape ``(m, d)`` or ``f`` of shape ``(m, n)``, and return one
row (or one value) per point, each bitwise the value of that point alone.
The residual norms take one point.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, DomainError, NonFiniteInput

# Largest z with exp(z) finite in float64.
MAX_EXP_ARG = float(np.log(np.finfo(np.float64).max))

REG_MODES = ("paper", "centered")


def _vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {arr.shape}")
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} contains NaN or Inf")


def _require_finite_fields(config) -> None:
    """Raise DomainError at the first float field of a dataclass that is NaN or Inf."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def _require_ints(**values) -> None:
    """Raise DomainError at the first named value that is not an integer; a bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")


def _rows(arr, length: int, name: str) -> np.ndarray:
    """One vector of ``length`` entries, or a stack of them along the leading axis."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise DimensionMismatch(f"{name} must be 1-d or 2-d, got shape {arr.shape}")
    if arr.shape[-1] != length:
        raise DimensionMismatch(f"{name} must have length {length}, got {arr.shape}")
    return arr


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for one vector, one row per vector for a stack.

    A stack goes through one broadcast matmul of ``a`` by (d, 1) blocks, which
    gives bitwise ``a @ x_row`` on each row; ``x @ a.T`` rounds differently.
    """
    if x.ndim == 1:
        return a @ x
    return (a @ x[..., None])[..., 0]


def _scalar_or_rows(value):
    """A Python float for one point, the per-row array for a stack."""
    return value if isinstance(value, np.ndarray) else float(value)


def _write_text(dest, chunks) -> None:
    """Write text chunks in order to an open text stream or to a path.

    A path is opened as UTF-8 with LF line ends.  Every artifact goes through
    here, so a file and stdout carry the same bytes.
    """
    if hasattr(dest, "write"):
        dest.writelines(chunks)
        return
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def hadamard(x, y) -> np.ndarray:
    """Entrywise product of two equal-length vectors."""
    x = _vector(x, "x")
    y = _vector(y, "y")
    if x.shape != y.shape:
        raise DimensionMismatch(f"hadamard: {x.shape} vs {y.shape}")
    return x * y


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One regression problem: matrix ``a``, target ``b``, ridge weights ``w``.

    ``use_exp`` / ``use_cent`` switch the squared-residual and cross-entropy
    terms on or off in the total objective; the ridge term is disabled by
    ``w = 0``.  When the cross-entropy term is enabled, ``b`` must be
    entrywise nonnegative so its curvature kernel is positive semidefinite.
    ``x_star`` carries a planted optimum when one is known, and
    ``reg_mode == "centered"`` recenters the ridge term at it.
    """

    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    use_exp: bool = True
    use_cent: bool = True
    x_star: np.ndarray | None = None
    reg_mode: str = "paper"

    def __post_init__(self):
        # copies so freezing the fields cannot alter caller-owned arrays
        a = np.array(self.a, dtype=np.float64)
        if a.ndim != 2:
            raise DimensionMismatch(f"a must be 2-d, got shape {a.shape}")
        n, d = a.shape
        if n < 1 or d < 1:
            raise DimensionMismatch(f"a must be at least 1x1, got {a.shape}")
        b = _vector(self.b, "b").copy()
        w = _vector(self.w, "w").copy()
        if b.shape != (n,):
            raise DimensionMismatch(f"b must have length {n}, got {b.shape}")
        if w.shape != (n,):
            raise DimensionMismatch(f"w must have length {n}, got {w.shape}")
        _require_finite(a, "a")
        _require_finite(b, "b")
        _require_finite(w, "w")
        if self.use_cent and np.any(b < 0.0):
            raise DomainError(
                "b must be entrywise >= 0 while the cross-entropy term is enabled"
            )
        if self.reg_mode not in REG_MODES:
            raise DomainError(f"reg_mode must be one of {REG_MODES}")
        x_star = self.x_star
        if x_star is not None:
            x_star = _vector(x_star, "x_star").copy()
            if x_star.shape != (d,):
                raise DimensionMismatch(f"x_star must have length {d}")
            _require_finite(x_star, "x_star")
            x_star.setflags(write=False)
        elif self.reg_mode == "centered":
            raise DomainError('reg_mode "centered" requires x_star')
        for arr in (a, b, w):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x_star", x_star)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[1]

    def reg_center(self) -> np.ndarray:
        """Point the ridge term is centered at (zero unless recentered)."""
        if self.reg_mode == "centered":
            return self.x_star
        return np.zeros(self.d)

    def to_dict(self) -> dict:
        """JSON-ready dict: n, d, row-major A, b, w, plus optional extras."""
        out = {
            "n": self.n,
            "d": self.d,
            "A": self.a.ravel().tolist(),
            "b": self.b.tolist(),
            "w": self.w.tolist(),
        }
        if self.x_star is not None:
            out["x_star"] = self.x_star.tolist()
        if self.reg_mode != "paper":
            out["reg_mode"] = self.reg_mode
        if not self.use_exp:
            out["use_exp"] = False
        if not self.use_cent:
            out["use_cent"] = False
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemInstance":
        n = int(data["n"])
        d = int(data["d"])
        flat = np.asarray(data["A"], dtype=np.float64)
        if flat.shape != (n * d,):
            raise DimensionMismatch(
                f"A must hold n*d = {n * d} row-major entries, got {flat.size}"
            )
        return cls(
            a=flat.reshape(n, d),
            b=np.asarray(data["b"], dtype=np.float64),
            w=np.asarray(data["w"], dtype=np.float64),
            use_exp=bool(data.get("use_exp", True)),
            use_cent=bool(data.get("use_cent", True)),
            x_star=(
                np.asarray(data["x_star"], dtype=np.float64)
                if "x_star" in data
                else None
            ),
            reg_mode=str(data.get("reg_mode", "paper")),
        )

    def save(self, path) -> None:
        """Write the instance JSON to a path or an open text stream."""
        _write_text(path, (json.dumps(self.to_dict(), sort_keys=True), "\n"))

    @classmethod
    def load(cls, path) -> "ProblemInstance":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class ModelState:
    """Cached per-point quantities: ``x``, ``log f`` and ``f``.

    A state of a stack of points holds one row per point in each field.
    """

    x: np.ndarray
    log_f: np.ndarray
    f: np.ndarray


def logits(inst: ProblemInstance, x) -> np.ndarray:
    """A @ x with input validation; one row of logits per point of a stack."""
    x = _rows(x, inst.d, "x")
    _require_finite(x, "x")
    return _matvec(inst.a, x)


def evaluate_u(inst: ProblemInstance, x) -> np.ndarray:
    """Entrywise exponential of A @ x.

    Raises OverflowError when any entry of A @ x escapes the float64
    exponent range in either direction (exp would return Inf or exactly 0,
    both of which break the positivity of the weights).
    """
    z = logits(inst, x)
    if np.any(z > MAX_EXP_ARG):
        raise OverflowError(
            f"exp(A @ x) overflows float64 (max logit {z.max():.3g})"
        )
    u = np.exp(z)
    if np.any(u == 0.0):
        raise OverflowError(
            f"exp(A @ x) underflows to zero (min logit {z.min():.3g})"
        )
    return u


def evaluate_alpha(u) -> float:
    """Sum of the positive weights u."""
    u = _vector(u, "u")
    _require_finite(u, "u")
    if np.any(u <= 0.0):
        raise DomainError("all entries of u must be strictly positive")
    alpha = float(np.sum(u))
    if not np.isfinite(alpha):
        raise OverflowError("sum of u overflows float64")
    return alpha


def evaluate_f(u) -> np.ndarray:
    """Normalize positive weights to a probability vector u / sum(u)."""
    u = _vector(u, "u")
    alpha = evaluate_alpha(u)
    return u / alpha


def _log_p_and_p(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log p and p for p = exp(z) / <exp(z), 1>, from one max-shift of a finite z.

    Each row along the last axis is one softmax; a row of a 2-D ``z`` gives
    bitwise the values of that row passed alone.
    """
    log_p = z - z.max(axis=-1, keepdims=True)
    p = np.exp(log_p)
    total = p.sum(axis=-1, keepdims=True)
    log_p -= np.log(total)
    p /= total
    return log_p, p


def _log_f_and_f(inst: ProblemInstance, x) -> tuple[np.ndarray, np.ndarray]:
    """log f and f at x; raises OverflowError where A @ x is not finite."""
    z = logits(inst, x)
    if not np.isfinite(z).all():
        raise OverflowError("A @ x overflows float64")
    return _log_p_and_p(z)


def softmax(inst: ProblemInstance, x) -> np.ndarray:
    """Prediction vector f (one per point of a stack), computed with max-subtraction."""
    return _log_f_and_f(inst, x)[1]


def log_softmax(inst: ProblemInstance, x) -> np.ndarray:
    """log of the prediction vector, computed without forming exp(A @ x)."""
    return _log_f_and_f(inst, x)[0]


def make_state(inst: ProblemInstance, x) -> ModelState:
    """Evaluate and cache log f and f at one parameter vector or a stack of them.

    Raises ``OverflowError`` where any point's logits are not finite, as that
    point alone would.
    """
    x = np.array(x, dtype=np.float64)  # a private copy, checked by logits
    log_f, f = _log_f_and_f(inst, x)
    for arr in (x, log_f, f):
        arr.setflags(write=False)
    return ModelState(x=x, log_f=log_f, f=f)


def _f_and_b(f, b, name: str) -> tuple[np.ndarray, np.ndarray]:
    b = _vector(b, "b")
    f = np.asarray(f, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[-1:] != b.shape:
        raise DimensionMismatch(f"{name}: {f.shape} vs {b.shape}")
    return f, b


def loss_exp(f, b):
    """Squared-residual term 0.5 * ||f - b||^2, one value per row of a stack."""
    f, b = _f_and_b(f, b, "loss_exp")
    r = f - b
    return _scalar_or_rows(0.5 * _row_dot(r, r))


def loss_cent(f, b):
    """Cross-entropy term -<b, log f>, one value per row; requires strictly positive f."""
    f, b = _f_and_b(f, b, "loss_cent")
    if np.any(f <= 0.0):
        raise DomainError("loss_cent needs strictly positive f")
    return _scalar_or_rows(-_row_dot(np.log(f), b))


def loss_reg(inst: ProblemInstance, x):
    """Ridge term 0.5 * ||W A (x - x_ref)||^2 with W = diag(w), one value per point."""
    x = _rows(x, inst.d, "x")
    wz = inst.w * _matvec(inst.a, x - inst.reg_center())
    return _scalar_or_rows(0.5 * _row_dot(wz, wz))


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> per row along the last axis.

    A stack of rows goes through one matmul of (1, n) by (n, 1) blocks, which
    takes the same vector dot as ``x @ y`` on each row, so a row of a 2-D
    ``x`` gives bitwise ``x_row @ y_row``; a gemv over the rows, or a sum of
    the elementwise product, rounds differently.  One row skips the stacking.
    """
    if x.ndim == 1:
        return x @ y
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def loss_terms(inst: ProblemInstance, log_f, f, z_reg):
    """``(l_exp, l_cent, l_reg)`` per row of ``log f``, ``f`` and ``z_reg = A (x - x_ref)``.

    One state gives three scalars and an ``(m, n)`` block three length-m
    arrays, each row bitwise the value of that row alone.  A disabled term
    is ``0.0``.
    """
    l_exp = l_cent = 0.0
    if inst.use_exp:
        r = f - inst.b
        l_exp = 0.5 * _row_dot(r, r)
    if inst.use_cent:
        l_cent = -_row_dot(log_f, inst.b)
    wz = inst.w * z_reg
    return l_exp, l_cent, 0.5 * _row_dot(wz, wz)


@dataclass(frozen=True, eq=False)
class LossBreakdown:
    """Values of the three loss terms and their sum at one point."""

    l_exp: float
    l_cent: float
    l_reg: float
    total: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.total is None:
            object.__setattr__(self, "total", self.l_exp + self.l_cent + self.l_reg)


def state_losses(inst: ProblemInstance, state: ModelState) -> LossBreakdown:
    """All loss terms at an evaluated state, through ``loss_terms``.

    One point gives floats; a stacked state gives one length-m array per
    field, a disabled term included.
    """
    terms = loss_terms(
        inst, state.log_f, state.f, _matvec(inst.a, state.x - inst.reg_center())
    )
    if state.x.ndim == 1:
        return LossBreakdown(*map(float, terms))
    rows = state.x.shape[0]
    return LossBreakdown(*(np.broadcast_to(t, (rows,)) for t in terms))


def loss_total(inst: ProblemInstance, x) -> LossBreakdown:
    """All loss terms from one shared state (per point of a stack); disabled terms contribute 0."""
    return state_losses(inst, make_state(inst, x))


def residual_linear(inst: ProblemInstance, x) -> float:
    """||A x - b||_2."""
    x = _vector(x, "x")
    return float(np.linalg.norm(logits(inst, x) - inst.b))


def residual_exponential(inst: ProblemInstance, x) -> float:
    """||exp(A x) - b||_2."""
    x = _vector(x, "x")
    return float(np.linalg.norm(evaluate_u(inst, x) - inst.b))


def residual_rescaled(inst: ProblemInstance, x) -> float:
    """||u - <u, 1> b||_2 for u = exp(A x)."""
    x = _vector(x, "x")
    u = evaluate_u(inst, x)
    return float(np.linalg.norm(u - u.sum() * inst.b))


def residual_softmax(inst: ProblemInstance, x) -> float:
    """||f - b||_2; its square is twice the squared-residual loss term."""
    x = _vector(x, "x")
    return float(np.linalg.norm(softmax(inst, x) - inst.b))
