"""2D loss surfaces over a plane in parameter space.

The plane is spanned by the top two right singular vectors of A, evaluated
on a square grid of offsets around a center point.  The logits are affine in
the offsets, so a grid takes four matrix-vector products, ``A c``,
``A (c - x_ref)``, ``A du`` and ``A dv``, and is then evaluated a block of
``k`` rows of cells (``k`` offsets ``u``) at a time, with ``k`` chosen so a
``(k, resolution, n)`` block holds about ``_CELL_BLOCK`` floats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .exceptions import DimensionMismatch, DomainError
from .model import (
    ProblemInstance,
    _fit_terms,
    _float_texts,
    _log_p_and_p,
    _reg_term,
    _require_finite,
    _require_ints,
    _write_text,
)

# float64 entries in one (k, resolution, n) block of the grid (64 KB); a row
# of cells wider than this is a block of its own
_CELL_BLOCK = 2**13


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
        """The CSV header, then the lines of one ``u`` row of cells per block.

        Each float is written as its ``repr``, by ``model._float_texts``: a
        row's cells and totals are formatted in one call, and its lines are
        joined in C.
        """
        yield "u,v,l_exp,l_cent,l_reg,total\n"
        v_text = _float_texts(self.offsets())
        for u, row in zip(v_text, self.values):
            texts = _float_texts(np.column_stack((row, row.sum(axis=-1))).ravel())
            columns = [texts[k::4] for k in range(4)]
            yield "\n".join(map(",".join, zip(repeat(u), v_text, *columns))) + "\n"

    def write_csv(self, dest) -> None:
        """Write the CSV to a path or an open text stream, one row of cells at a time.

        Only one row's text is held at once: a 101^2 grid at n = 20 peaks at
        about 90 KB under tracemalloc above the stream it writes to.
        """
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
    rounding.  The cells are evaluated in blocks of ``k`` rows, with the same
    elementwise logits and last-axis reductions per row, so a cell does not
    depend on ``k``.  Raises ``OverflowError`` at the first row of cells whose
    logits, loss terms or totals are not finite.
    """
    _require_ints(resolution=resolution)
    if resolution < 2:
        raise DomainError("resolution must be >= 2")
    # the grid spans 2 half_width, which np.linspace must hold as a float
    if not np.isfinite(2.0 * float(half_width)) or half_width < 0:
        raise DomainError("half_width must be >= 0 and 2 * half_width finite")
    if center is None:
        center = inst.x_star if inst.x_star is not None else np.zeros(inst.d)
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (inst.d,):
        raise DimensionMismatch(f"center must have length {inst.d}")
    _require_finite(center, "center")
    dir_u, dir_v = default_directions(inst)

    offs = np.linspace(-half_width, half_width, resolution)
    values = np.empty((resolution, resolution, 3))
    k = max(1, _CELL_BLOCK // (resolution * inst.n))
    # inf - inf and 0 * inf only arise where a value has overflowed, which the
    # finite checks below report as one OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        z_c = inst.a @ center
        r_c = inst.a @ (center - inst.reg_center())
        a_u = inst.a @ dir_u
        a_v = inst.a @ dir_v
        # each pass's v_j A dir_v fills one (k, resolution, n) block, which then
        # becomes the k rows' logits and their log-softmax in place; the ridge
        # logits are a new block, freed once l_reg is taken, so at most three
        # such blocks are live
        block = np.empty((k, resolution, inst.n))
        for start in range(0, resolution, k):
            u_col = offs[start : start + k, None]
            v_a_v = np.multiply(offs[:, None], a_v, out=block[: len(u_col)])
            u_a_u = u_col * a_u
            z_reg = (r_c + u_a_u)[:, None] + v_a_v
            logits_ok = np.isfinite(z_reg).all(axis=(1, 2))
            l_reg = _reg_term(inst, z_reg)
            del z_reg  # freed before the fit terms take two more blocks
            z = np.add((z_c + u_a_u)[:, None], v_a_v, out=v_a_v)
            logits_ok &= np.isfinite(z).all(axis=(1, 2))
            l_exp, l_cent = _fit_terms(inst, *_log_p_and_p(z))
            cells = values[start : start + k]
            cells[..., 0], cells[..., 1], cells[..., 2] = l_exp, l_cent, l_reg
            # the terms are >= 0, so finite row totals mean finite terms; the
            # first failing row is reported, as a row-by-row loop would
            ok = logits_ok & np.isfinite(l_exp + l_cent + l_reg).all(axis=1)
            if not ok.all():
                i = int(np.argmin(ok))
                what = "logits" if not logits_ok[i] else "loss terms"
                u = u_col[i, 0].item()
                raise OverflowError(f"{what} overflow float64 in grid row u={u!r}")
    return LandscapeGrid(
        center=center,
        dir_u=dir_u,
        dir_v=dir_v,
        half_width=float(half_width),
        resolution=int(resolution),
        values=values,
    )
