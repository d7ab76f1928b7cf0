"""2D loss surfaces over a plane in parameter space.

The plane is spanned by two orthonormal directions, by default the top two
right singular vectors of A, evaluated on a square grid of offsets around a
center point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DimensionMismatch, DomainError
from .model import ProblemInstance, loss_total

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

    def to_csv(self) -> str:
        offs = self.offsets()
        table = np.column_stack([
            np.repeat(offs, self.resolution),
            np.tile(offs, self.resolution),
            self.values.reshape(-1, 3),
            self.totals().reshape(-1),
        ])
        lines = ["u,v,l_exp,l_cent,l_reg,total"]
        lines += [",".join(map(repr, row)) for row in table.tolist()]
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


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
    """Evaluate all loss terms over the grid; directions must be orthonormal."""
    if resolution < 2:
        raise DomainError("resolution must be >= 2")
    if not np.isfinite(half_width) or half_width < 0:
        raise DomainError("half_width must be finite and >= 0")
    if center is None:
        center = inst.x_star if inst.x_star is not None else np.zeros(inst.d)
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (inst.d,):
        raise DimensionMismatch(f"center must have length {inst.d}")
    if dir_u is None or dir_v is None:
        if dir_u is not None or dir_v is not None:
            raise DomainError("supply both directions or neither")
        dir_u, dir_v = default_directions(inst)
    dir_u = np.asarray(dir_u, dtype=np.float64)
    dir_v = np.asarray(dir_v, dtype=np.float64)
    for name, vec in (("dir_u", dir_u), ("dir_v", dir_v)):
        if vec.shape != (inst.d,):
            raise DimensionMismatch(f"{name} must have length {inst.d}")
        if abs(np.linalg.norm(vec) - 1.0) > _ORTHO_TOL:
            raise DomainError(f"{name} must have unit norm")
    if abs(float(dir_u @ dir_v)) > _ORTHO_TOL:
        raise DomainError("directions must be orthogonal")

    offs = np.linspace(-half_width, half_width, resolution)
    cells = [loss_total(inst, center + u * dir_u + v * dir_v) for u in offs for v in offs]
    values = np.array([(c.l_exp, c.l_cent, c.l_reg) for c in cells], dtype=np.float64)
    return LandscapeGrid(
        center=center,
        dir_u=dir_u,
        dir_v=dir_v,
        half_width=float(half_width),
        resolution=int(resolution),
        values=values.reshape(resolution, resolution, 3),
    )
