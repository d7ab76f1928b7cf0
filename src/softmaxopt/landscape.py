"""2D loss surfaces over a plane in parameter space.

The plane is spanned by two orthonormal directions, by default the top two
right singular vectors of A, evaluated on a square grid of offsets around a
center point.  The logits are affine in the offsets, so a grid takes four
matrix-vector products, ``A c``, ``A (c - x_ref)``, ``A du`` and ``A dv``, and
is then evaluated one row of cells (one ``u`` offset) at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DimensionMismatch, DomainError
from .model import (
    ProblemInstance,
    _log_p_and_p,
    _require_finite,
    _require_ints,
    _write_text,
    loss_terms,
)

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class LandscapeGrid:
    """Loss values on a resolution-by-resolution grid around ``center``."""

    center: np.ndarray
    dir_u: np.ndarray
    dir_v: np.ndarray
    half_width: float
    resolution: int
    values: np.ndarray  # values[i, j] = (l_exp, l_cent, l_reg) at offset (u_i, v_j)

    def __post_init__(self):
        self.values.flags.writeable = False

    def offsets(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.resolution)

    def totals(self) -> np.ndarray:
        """Sum of the three loss terms per cell, added in (l_exp, l_cent, l_reg) order."""
        return self.values.sum(axis=-1)

    def _csv_blocks(self):
        """The CSV header, then the lines of one ``u`` row of cells per block."""
        yield "u,v,l_exp,l_cent,l_reg,total\n"
        offs = self.offsets()
        for u, row in zip(offs, self.values):
            table = np.column_stack([np.full_like(offs, u), offs, row, row.sum(axis=-1)])
            yield "".join(",".join(map(repr, line)) + "\n" for line in table.tolist())

    def to_csv(self) -> str:
        return "".join(self._csv_blocks())

    def write_csv(self, dest) -> None:
        """Write the CSV to a path or an open text stream, one row of cells at a time."""
        _write_text(dest, self._csv_blocks())


def average_grids(grids) -> LandscapeGrid:
    """Cell-wise mean of several grids sharing one offset layout.

    Each grid keeps its own center and directions (they are instance
    specific); the averaged surface is reported in the first grid's frame.
    The mean runs over the last, contiguous axis of the stack, so each cell
    is summed exactly as ``np.mean`` sums a list of that cell's values.  One
    grid is returned as it is: a numpy sum turns a -0.0 cell into 0.0.
    """
    grids = list(grids)
    if not grids:
        raise DomainError("need at least one grid to average")
    first = grids[0]
    for g in grids[1:]:
        if g.resolution != first.resolution or g.half_width != first.half_width:
            raise DimensionMismatch("grids must share resolution and half_width")
    if len(grids) == 1:
        return first
    return replace(first, values=np.stack([g.values for g in grids], axis=-1).mean(axis=-1))


def default_directions(inst: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Top two right singular vectors of A."""
    if inst.d < 2:
        raise DomainError("a 2D landscape needs d >= 2")
    _, _, vt = np.linalg.svd(inst.a, full_matrices=False)
    return vt[0], vt[1]


def landscape_grid(
    inst: ProblemInstance,
    center=None,
    dir_u=None,
    dir_v=None,
    half_width: float = 1.0,
    resolution: int = 21,
) -> LandscapeGrid:
    """Evaluate all loss terms over the grid; directions must be orthonormal.

    Cell (i, j) sits at ``center + u_i dir_u + v_j dir_v`` and its logits are
    ``(A c + u_i A dir_u) + v_j A dir_v``, so the center cell equals
    ``loss_total(inst, center)`` bitwise and the others agree with it to
    rounding.  Raises ``OverflowError`` at the first row of cells whose logits,
    loss terms or totals are not finite.
    """
    _require_ints(resolution=resolution)
    if resolution < 2:
        raise DomainError("resolution must be >= 2")
    if not np.isfinite(half_width) or half_width < 0:
        raise DomainError("half_width must be finite and >= 0")
    if center is None:
        center = inst.x_star if inst.x_star is not None else np.zeros(inst.d)
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (inst.d,):
        raise DimensionMismatch(f"center must have length {inst.d}")
    _require_finite(center, "center")
    if dir_u is None or dir_v is None:
        if dir_u is not None or dir_v is not None:
            raise DomainError("supply both directions or neither")
        dir_u, dir_v = default_directions(inst)
    dir_u = np.asarray(dir_u, dtype=np.float64)
    dir_v = np.asarray(dir_v, dtype=np.float64)
    for name, vec in (("dir_u", dir_u), ("dir_v", dir_v)):
        if vec.shape != (inst.d,):
            raise DimensionMismatch(f"{name} must have length {inst.d}")
        _require_finite(vec, name)
        if abs(np.linalg.norm(vec) - 1.0) > _ORTHO_TOL:
            raise DomainError(f"{name} must have unit norm")
    if abs(float(dir_u @ dir_v)) > _ORTHO_TOL:
        raise DomainError("directions must be orthogonal")

    offs = np.linspace(-half_width, half_width, resolution)
    values = np.empty((resolution, resolution, 3))
    # inf - inf and 0 * inf only arise where a value has overflowed, which the
    # finite checks below report as one OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        z_c = inst.a @ center
        r_c = inst.a @ (center - inst.reg_center())
        a_u = inst.a @ dir_u
        v_a_v = offs[:, None] * (inst.a @ dir_v)  # (resolution, n), the same for every row
        for i, u in enumerate(offs.tolist()):
            z = (z_c + u * a_u) + v_a_v
            z_reg = (r_c + u * a_u) + v_a_v
            if not (np.isfinite(z).all() and np.isfinite(z_reg).all()):
                raise OverflowError(f"logits overflow float64 in grid row u={u!r}")
            for k, term in enumerate(loss_terms(inst, *_log_p_and_p(z), z_reg)):
                values[i, :, k] = term
            # the terms are >= 0, so a finite row total means finite terms
            if not np.isfinite(values[i].sum(axis=-1)).all():
                raise OverflowError(f"loss terms overflow float64 in grid row u={u!r}")
    return LandscapeGrid(
        center=center,
        dir_u=dir_u,
        dir_v=dir_v,
        half_width=float(half_width),
        resolution=int(resolution),
        values=values,
    )
