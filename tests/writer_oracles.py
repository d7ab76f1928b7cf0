"""The instance JSON and landscape CSV writers as the stdlib writes them, as test oracles.

The package renders every float array through ``softmaxopt.model._float_texts``
(orjson's printer inside the window where it writes ``repr``'s text, ``repr``
outside it).  The writers here take the plain path: ``json.dumps`` of the
instance's lists, and ``repr`` of each column's floats, so the tests can
check the package's bytes against an evaluation that never calls orjson.
"""

from __future__ import annotations

import json
from itertools import repeat

from softmaxopt.landscape import LandscapeGrid
from softmaxopt.model import ProblemInstance


def instance_json(inst: ProblemInstance) -> str:
    """The instance file's text: one line of ``json.dumps`` with sorted keys."""
    return json.dumps(inst.to_dict(), sort_keys=True) + "\n"


def _reprs(col) -> list:
    return repr(col.tolist())[1:-1].split(", ")


def landscape_csv(grid: LandscapeGrid) -> str:
    """The grid's CSV text, each float written as the ``repr`` of its column's list entry."""
    lines = ["u,v,l_exp,l_cent,l_reg,total\n"]
    v_text = _reprs(grid.offsets())
    for u, row in zip(v_text, grid.values):
        columns = [_reprs(col) for col in (*row.T, row.sum(axis=-1))]
        lines.append("\n".join(map(",".join, zip(repeat(u), v_text, *columns))) + "\n")
    return "".join(lines)
