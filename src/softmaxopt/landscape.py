"""2D loss surfaces over a plane in parameter space.

The plane is spanned by the top two right singular vectors of A, evaluated
on a square grid of offsets around a center point.  The logits are affine in
the offsets, so a grid takes four matrix-vector products, ``A c``,
``A (c - x_ref)``, ``A du`` and ``A dv``, and is then evaluated one row of
cells (one ``u`` offset) at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DimensionMismatch, DomainError
from .model import (
    ProblemInstance,
    _fit_terms,
    _log_p_and_p,
    _reg_term,
    _require_finite,
    _require_ints,
    _write_text,
)


@dataclass(frozen=True, eq=False)
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
    half_width: float = 1.0,
    resolution: int = 21,
) -> LandscapeGrid:
    """Evaluate all loss terms over the grid in the plane of ``default_directions``.

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
    dir_u, dir_v = default_directions(inst)

    offs = np.linspace(-half_width, half_width, resolution)
    values = np.empty((resolution, resolution, 3))
    # inf - inf and 0 * inf only arise where a value has overflowed, which the
    # finite checks below report as one OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        z_c = inst.a @ center
        r_c = inst.a @ (center - inst.reg_center())
        a_u = inst.a @ dir_u
        a_v = inst.a @ dir_v
        # each row's v_j A dir_v fills one (resolution, n) block, which then
        # becomes the row's logits and their log-softmax in place; the ridge
        # logits are a new block, freed once l_reg is taken, so at most three
        # such blocks are live
        block = np.empty((resolution, inst.n))
        v_col = offs[:, None]

        def finite(z, u):
            if not np.isfinite(z).all():
                raise OverflowError(f"logits overflow float64 in grid row u={u!r}")
            return z

        for i, u in enumerate(offs.tolist()):
            v_a_v = np.multiply(v_col, a_v, out=block)
            u_a_u = u * a_u
            l_reg = _reg_term(inst, finite(r_c + u_a_u + v_a_v, u))
            z = finite(np.add(z_c + u_a_u, v_a_v, out=block), u)
            l_exp, l_cent = _fit_terms(inst, *_log_p_and_p(z))
            values[i, :, 0], values[i, :, 1], values[i, :, 2] = l_exp, l_cent, l_reg
            # the terms are >= 0, so finite row totals mean finite terms
            if not np.isfinite(l_exp + l_cent + l_reg).all():
                raise OverflowError(f"loss terms overflow float64 in grid row u={u!r}")
    return LandscapeGrid(
        center=center,
        dir_u=dir_u,
        dir_v=dir_v,
        half_width=float(half_width),
        resolution=int(resolution),
        values=values,
    )
