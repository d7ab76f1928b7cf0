"""Landscape grid values evaluated one row of cells at a time, as a test oracle.

The package evaluates a grid in blocks of several rows of cells
(``softmaxopt.landscape.landscape_grid``).  The loop here takes one row of
cells (one ``u`` offset) per pass, with the same elementwise logits
``(A c + u A du) + v A dv`` and the same loss evaluators, so the tests can
check that the blocked grid gives bitwise the same cells and names the same
row when one overflows.
"""

from __future__ import annotations

import numpy as np

from softmaxopt.landscape import default_directions
from softmaxopt.model import ProblemInstance, _fit_terms, _log_p_and_p, _reg_term


def landscape_values(
    inst: ProblemInstance, center, half_width: float, resolution: int
) -> np.ndarray:
    """``(resolution, resolution, 3)`` cells of ``(l_exp, l_cent, l_reg)`` around ``center``.

    Raises ``OverflowError`` naming the first row of cells whose logits,
    loss terms or totals are not finite.
    """
    center = np.asarray(center, dtype=np.float64)
    dir_u, dir_v = default_directions(inst)
    offs = np.linspace(-half_width, half_width, resolution)
    values = np.empty((resolution, resolution, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        z_c = inst.a @ center
        r_c = inst.a @ (center - inst.reg_center())
        a_u = inst.a @ dir_u
        a_v = inst.a @ dir_v
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
            if not np.isfinite(l_exp + l_cent + l_reg).all():
                raise OverflowError(f"loss terms overflow float64 in grid row u={u!r}")
    return values
