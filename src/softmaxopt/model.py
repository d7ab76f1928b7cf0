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

``logits``, ``make_state``, the ``loss_*`` functions and ``state_losses``
also take a stack of points along the leading axis, ``x`` of shape
``(m, d)`` or ``f`` of shape ``(m, n)``, and return one row (or one value)
per point, each bitwise the value of that point alone.
"""

from __future__ import annotations

import array
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, DomainError, NonFiniteInput

REG_MODES = ("paper", "centered")


def _float_array(v, name: str) -> np.ndarray:
    """v as a float64 array; a ragged nesting (points of unequal length) is a DimensionMismatch."""
    try:
        return np.asarray(v, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatch(f"{name} must hold equal-length rows of numbers") from exc


def _json_field(data: dict, key: str):
    """The instance JSON's field ``key``; a missing one is a DomainError naming it."""
    try:
        return data[key]
    except KeyError:
        raise DomainError(f"{key} is missing from the instance JSON") from None


def _json_numbers(data: dict, key: str) -> np.ndarray:
    """The instance JSON's list ``key`` as a float64 array; a non-number entry is a DomainError.

    ``array.array("d", ...)`` converts the list in one pass and rejects an
    entry that is not a real number (a string, a null, a list, an object).
    A boolean passes it as 0 or 1, so only the entries equal to 0 or 1 have
    their Python type read.
    """
    values = _json_field(data, key)
    try:
        arr = np.frombuffer(array.array("d", values))
    except (TypeError, OverflowError) as exc:
        raise DomainError(f"{key} must be a list of numbers") from exc
    zero_or_one = arr == arr.astype(bool)  # a number equals its truth value only at 0 and 1
    if any(type(values[i]) is bool for i in zero_or_one.nonzero()[0].tolist()):
        raise DomainError(f"{key} must be a list of numbers")
    return arr


def _vector(v, name: str) -> np.ndarray:
    arr = _float_array(v, name)
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


def _require_seed(seed) -> None:
    """Raise DomainError unless seed is a non-negative integer, as numpy's seeding needs."""
    _require_ints(seed=seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed!r}")


def _seeded_rng(seed) -> np.random.Generator:
    """A numpy Generator as is, or a new one from a ``_require_seed`` seed or a list of them."""
    if isinstance(seed, np.random.Generator):
        return seed
    for entry in seed if isinstance(seed, (list, tuple)) else (seed,):
        _require_seed(entry)
    return np.random.default_rng(seed)


def _rows(arr, length: int, name: str) -> np.ndarray:
    """One vector of ``length`` entries, or a stack of them along the leading axis."""
    arr = _float_array(arr, name)
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


# floats per block of the JSON writer's array text (64 KB of float64): the
# most text it holds at once beyond the stream it writes to
_TEXT_BLOCK = 2**13


def _float_texts(arr) -> list[str]:
    """``repr`` of each entry of a 1-D float64 array in one pass: the one float formatter.

    orjson's shortest round-trip printer writes ``repr``'s text wherever
    ``x == 0`` or ``1e-4 <= |x| < 1e16``.  Outside that window it spells the
    same digits another way (``0.00001`` for ``1e-05``, ``1e16`` for
    ``1e+16``, ``null`` for NaN and the infinities), so those entries take
    ``repr`` instead, through one list of their own.
    """
    # imported here, as in ``ProblemInstance.load``, so a command that writes no array skips it
    import orjson

    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not arr.size:
        return []
    texts = orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(arr)
    outside = np.flatnonzero(~(((mag >= 1e-4) & (mag < 1e16)) | (arr == 0.0)))
    if outside.size:
        for i, text in zip(outside.tolist(), repr(arr[outside].tolist())[1:-1].split(", ")):
            texts[i] = text
    return texts


def _json_chunks(value):
    """The text of ``json.dumps(value, sort_keys=True)``, in chunks.

    A dict (with string keys) that holds an ``ndarray`` or a dict is written
    key by key in sorted order, and every other value by one ``json.dumps``.
    A finite 1-D float array is written ``_TEXT_BLOCK`` entries at a time
    through ``_float_texts``, since ``json`` writes a finite float as its
    ``repr``.
    """
    if isinstance(value, dict) and any(isinstance(v, (dict, np.ndarray)) for v in value.values()):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from _json_chunks(value[key])
        yield "}"
    elif isinstance(value, np.ndarray):
        yield "["
        for start in range(0, value.size, _TEXT_BLOCK):
            texts = _float_texts(value[start : start + _TEXT_BLOCK])
            yield (", " if start else "") + ", ".join(texts)
        yield "]"
    else:
        yield json.dumps(value, sort_keys=True)


def _write_json(dest, payload) -> None:
    """Write payload as one line of JSON with sorted keys: the package's one JSON writer.

    The bytes are ``json.dumps(payload, sort_keys=True)`` and a newline, with
    an ``ndarray`` value written as its list would be; see ``_json_chunks``.
    The text streams to ``dest`` a chunk at a time.
    """
    _write_text(dest, itertools.chain(_json_chunks(payload), ("\n",)))


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
        a = _float_array(self.a, "a").copy()
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

    def _fields(self) -> dict:
        """The instance JSON's fields, with row-major A, b, w and x_star as 1-D arrays."""
        out = {"n": self.n, "d": self.d, "A": self.a.ravel(), "b": self.b, "w": self.w}
        if self.x_star is not None:
            out["x_star"] = self.x_star
        if self.reg_mode != "paper":
            out["reg_mode"] = self.reg_mode
        if not self.use_exp:
            out["use_exp"] = False
        if not self.use_cent:
            out["use_cent"] = False
        return out

    def to_dict(self) -> dict:
        """JSON-ready dict: n, d, row-major A, b, w, plus optional extras."""
        return {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in self._fields().items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemInstance":
        if not isinstance(data, dict):
            raise DomainError(f"the instance JSON must be an object, got {type(data).__name__}")
        n, d = _json_field(data, "n"), _json_field(data, "d")
        _require_ints(n=n, d=d)
        for key, value in (("n", n), ("d", d)):
            if value < 1:
                raise DomainError(f"{key} must be >= 1, got {value!r}")
        flags = {key: data.get(key, True) for key in ("use_exp", "use_cent")}
        for key, value in flags.items():
            if not isinstance(value, bool):
                raise DomainError(f"{key} must be true or false, got {value!r}")
        flat = _json_numbers(data, "A")
        if flat.shape != (n * d,):
            raise DimensionMismatch(
                f"A must hold n*d = {n * d} row-major entries, got {flat.size}"
            )
        return cls(
            a=flat.reshape(n, d),
            b=_json_numbers(data, "b"),
            w=_json_numbers(data, "w"),
            **flags,
            x_star=_json_numbers(data, "x_star") if "x_star" in data else None,
            reg_mode=str(data.get("reg_mode", "paper")),
        )

    def save(self, path) -> None:
        """Write the instance JSON to a path or an open text stream.

        The bytes are ``json.dumps(self.to_dict(), sort_keys=True)`` and a
        newline, but the arrays go to ``_write_json`` as they are: no list of
        Python floats is built, and their text is held one block at a time.
        """
        _write_json(path, self._fields())

    @classmethod
    def load(cls, path) -> "ProblemInstance":
        """Read an instance JSON file; a file that is not UTF-8 JSON is a DomainError naming it.

        The parser is orjson: at a fraction of ``json``'s cost, it gives
        ``json``'s floats bit for bit on every numeral a float writer emits.
        It holds to RFC 8259: a ``NaN``, ``Infinity`` or out-of-range literal
        such as ``1e400`` makes the file not JSON, and an integer beyond 64
        bits arrives as a float.
        """
        # imported here, so that only the commands that read an instance pay for it
        import orjson

        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            data = orjson.loads(raw)
        except orjson.JSONDecodeError as exc:
            raise DomainError(f"{path} is not a UTF-8 JSON file: {exc}") from exc
        return cls.from_dict(data)


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


def _softmax_into(z: np.ndarray, col=None, p=None) -> tuple[np.ndarray, np.ndarray]:
    """p = exp(z) / <exp(z), 1> per last-axis row of a finite z, and the row sums: one softmax.

    A row of a stack gives bitwise that row passed alone.  ``z`` is shifted
    by its row max in place, after which ``z - log(col)`` is ``log p``.
    ``col`` (last axis 1) and ``p`` are written into when given and made when
    not; each reduction runs over a contiguous last axis, as on a fresh array.
    """
    col = np.maximum.reduce(z, axis=-1, keepdims=True, out=col)
    z -= col
    p = np.exp(z, out=p)
    np.add.reduce(p, axis=-1, keepdims=True, out=col)
    p /= col
    return p, col


def _log_p_and_p(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log p and p of ``_softmax_into``; the ``log p`` returned is ``z``, shifted in place."""
    p, total = _softmax_into(z)
    z -= np.log(total)
    return z, p


def make_state(inst: ProblemInstance, x) -> ModelState:
    """Evaluate and cache log f and f at one parameter vector or a stack of them.

    Raises ``OverflowError`` where any point's logits are not finite, as that
    point alone would.
    """
    x = _float_array(x, "x").copy()  # a private copy, checked by logits
    z = logits(inst, x)
    if not np.isfinite(z).all():
        raise OverflowError("A @ x overflows float64")
    log_f, f = _log_p_and_p(z)
    for arr in (x, log_f, f):
        arr.setflags(write=False)
    return ModelState(x=x, log_f=log_f, f=f)


def _f_and_b(f, b, name: str) -> tuple[np.ndarray, np.ndarray]:
    b = _vector(b, "b")
    f = _float_array(f, "f")
    if f.ndim not in (1, 2) or f.shape[-1:] != b.shape:
        raise DimensionMismatch(f"{name}: {f.shape} vs {b.shape}")
    return f, b


def loss_exp(f, b):
    """Squared-residual term 0.5 * ||f - b||^2, one value per row of a stack."""
    f, b = _f_and_b(f, b, "loss_exp")
    return _scalar_or_rows(_half_square(f - b))


def loss_cent(f, b):
    """Cross-entropy term -<b, log f>, one value per row; requires strictly positive f."""
    f, b = _f_and_b(f, b, "loss_cent")
    if np.any(f <= 0.0):
        raise DomainError("loss_cent needs strictly positive f")
    return _scalar_or_rows(-_row_dot(np.log(f), b))


def loss_reg(inst: ProblemInstance, x):
    """Ridge term 0.5 * ||W A (x - x_ref)||^2 with W = diag(w), one value per point."""
    x = _rows(x, inst.d, "x")
    return _scalar_or_rows(_reg_term(inst, _matvec(inst.a, x - inst.reg_center())))


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


def _fit_terms(inst: ProblemInstance, log_f, f):
    """``(l_exp, l_cent)`` per row of ``log f`` and ``f``; a disabled term is ``0.0``.

    One state gives two scalars and an ``(m, n)`` block two length-m arrays,
    each row bitwise the value of that row alone.
    """
    l_exp = _half_square(f - inst.b) if inst.use_exp else 0.0
    l_cent = -_row_dot(log_f, inst.b) if inst.use_cent else 0.0
    return l_exp, l_cent


def _reg_term(inst: ProblemInstance, z_reg):
    """``l_reg`` per row of ``z_reg = A (x - x_ref)``."""
    return _half_square(inst.w * z_reg)


def _half_square(v):
    # 0.5 <v, v> per row; v is freed on return, before the caller's next block
    return 0.5 * _row_dot(v, v)


@dataclass(frozen=True, eq=False)
class LossBreakdown:
    """Values of the three loss terms at one point (or per point of a stack)."""

    l_exp: float
    l_cent: float
    l_reg: float

    @property
    def total(self):
        """l_exp + l_cent + l_reg, summed in that order."""
        return self.l_exp + self.l_cent + self.l_reg


def state_losses(inst: ProblemInstance, state: ModelState) -> LossBreakdown:
    """All loss terms at an evaluated state, through ``_fit_terms`` and ``_reg_term``.

    One point gives floats; a stacked state gives one length-m array per
    field, a disabled term included.
    """
    z_reg = _matvec(inst.a, state.x - inst.reg_center())
    terms = (*_fit_terms(inst, state.log_f, state.f), _reg_term(inst, z_reg))
    if state.x.ndim == 1:
        return LossBreakdown(*map(float, terms))
    rows = state.x.shape[0]
    return LossBreakdown(*(np.broadcast_to(t, (rows,)) for t in terms))


def loss_total(inst: ProblemInstance, x) -> LossBreakdown:
    """All loss terms from one shared state (per point of a stack); disabled terms contribute 0."""
    return state_losses(inst, make_state(inst, x))
