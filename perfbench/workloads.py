"""The operations of one benchmark round, and the checks on their outputs.

Every workload runs every operation kind in each round, so every end-to-end
metric is measured on every workload; what differs is the shape of the
inputs and the mix.  A round is fixed by (workload, seed, round index): the
same seed always yields the same command lines.

Each operation is one ``softmaxopt`` command line.  Its check reads the files
the command wrote and compares them with the independent oracle in
``oracle.py`` or with a property the method must have.  A check raises
``CheckFailed``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

KINDS = ("gen", "solve_exact", "solve_sampled", "landscape", "nce", "verify")

EPSILON = 1e-10
RIDGE_L = 1.0
CONDITIONING = 5.0  # the CLI default, which gen is run with
NCE_K = 8  # the CLI default candidates per batch
NUM_CHECKS = 6  # checks in the full verify suite

# Planted desk instances whose far starts hit the two large-logit faults;
# the outcomes do not depend on the benchmark seed (see README).
FAULT_SEEDS = tuple(range(10))
FAR_MULTIPLES = (10, 100, 200, 400)
# Starts that no planted seed turns into a failure: within distance 4 of
# x_star, or 10 x_star, every logit spread stays far below the float64
# exponent range.  100 x_star and beyond fail on some seeds, so they run
# only on FAULT_SEEDS.
SAFE_OFFSETS = ("0.5", "2", "4")
SAFE_MULTIPLE = 10
SEEDED_DESK_INSTANCES = 10
NCE_PER_ROUND = 2
# The suite draws instances of random size from its seed, and its time
# varies twofold between seeds, so every round runs the same suites: a
# round's mean verify time then depends on the program, not on the seed.
VERIFY_SUITES = (0, 1)


class CheckFailed(Exception):
    """An output of the program is wrong."""


# What a check raises on a wrong, missing or malformed output.
CHECK_ERRORS = (CheckFailed, OSError, KeyError, IndexError, TypeError, ValueError)


@dataclass
class Op:
    """One CLI invocation.  ``argv`` is built just before the call, since
    far starts need the x_star that an earlier ``gen`` wrote."""

    kind: str
    label: str
    argv: Callable[[], list]
    check: Callable[[], None]
    cells: int = 0  # landscape cells evaluated


@dataclass
class Round:
    ops: list = field(default_factory=list)
    # instance path -> (oracle instance, oracle loss at x_star), filled by gen checks
    instances: dict = field(default_factory=dict)
    # iterations reported by successful solves, for the traced run
    iterations: list = field(default_factory=list)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- checks


def check_gen(rnd: Round, path: str, n: int, d: int) -> None:
    inst = oracle.load(path)
    _require(inst.a.shape == (n, d), f"A has shape {inst.a.shape}, asked for {(n, d)}")
    x_star = inst.x_star
    hess = oracle.fd_hessian(inst, x_star)
    grad = oracle.fd_gradient(inst, x_star)
    scale = max(1.0, float(np.abs(hess).max()))
    _require(
        float(np.abs(grad).max()) <= 1e-6 * scale,
        f"oracle gradient at x_star is {np.abs(grad).max():.3g}, not ~0",
    )
    eigmin = float(np.linalg.eigvalsh(hess)[0])
    _require(
        eigmin >= 0.99 * RIDGE_L,
        f"oracle Hessian eigmin at x_star {eigmin:.6g} < 0.99 * ridge_l",
    )
    sv = oracle.singular_values(inst)
    _require(
        _close(sv[0] / sv[-1], CONDITIONING, 1e-8),
        f"cond(A) = {sv[0] / sv[-1]!r}, asked for {CONDITIONING}",
    )
    rnd.instances[path] = (inst, oracle.total(inst, x_star))


def check_solve(rnd: Round, inst_path: str, trace_path: str, summary_path: str) -> None:
    _, loss_star = rnd.instances[inst_path]
    with open(trace_path, encoding="utf-8") as fh:
        last = list(csv.DictReader(fh))[-1]
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    loss, err = float(last["loss"]), float(last["err_to_opt"])
    _require(
        _close(loss, loss_star, 1e-9),
        f"final loss {loss!r} differs from the oracle's {loss_star!r} at x_star",
    )
    _require(err <= EPSILON, f"final err_to_opt {err:.3g} > epsilon")
    _require(summary["converged"] is True, "summary says not converged")
    _require(summary["final_err"] == err, "summary final_err disagrees with the trace")
    rnd.iterations.append(int(summary["iters"]))


def _read_grid(path: str, res: int) -> np.ndarray:
    """Rows u, v, l_exp, l_cent, l_reg, total; checks the shape and the sum."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(header == "u,v,l_exp,l_cent,l_reg,total", f"grid header {header!r}")
    _require(cols.shape == (res * res, 6), f"grid has shape {cols.shape}, not {res * res} rows")
    parts = cols[:, 2] + cols[:, 3] + cols[:, 4]
    _require(
        bool(np.all(np.abs(parts - cols[:, 5]) <= 1e-12 * np.maximum(1.0, np.abs(cols[:, 5])))),
        "grid total is not l_exp + l_cent + l_reg",
    )
    return cols


def _center(cols: np.ndarray, res: int) -> int:
    c = (res // 2) * res + res // 2  # row-major: u outer, v inner
    _require(abs(cols[c, 0]) <= 1e-12 and abs(cols[c, 1]) <= 1e-12, "center cell is not at (0, 0)")
    _require(int(np.argmin(cols[:, 5])) == c, "grid minimum is not at the center")
    return c


def check_grid(rnd: Round, grid_path: str, inst_path: str, res: int) -> None:
    inst, loss_star = rnd.instances[inst_path]
    cols = _read_grid(grid_path, res)
    c = _center(cols, res)
    _require(
        _close(cols[c, 5], loss_star, 1e-9),
        f"center loss {cols[c, 5]!r} differs from the oracle's {loss_star!r}",
    )
    w2 = float(inst.w[0]) ** 2
    _require(bool(np.all(inst.w == inst.w[0])), "ridge weights are not uniform")
    sv = oracle.singular_values(inst)
    u, v = cols[:, 0], cols[:, 1]
    expected = 0.5 * w2 * (sv[0] ** 2 * u**2 + sv[1] ** 2 * v**2)
    worst = float(np.max(np.abs(cols[:, 4] - expected) / np.maximum(1.0, expected)))
    _require(worst <= 1e-9, f"l_reg cells differ from 0.5 w^2 (s1^2 u^2 + s2^2 v^2) by {worst:.3g}")


def check_average_grid(grid_path: str, res: int) -> None:
    """An average of planted grids: its ridge part is a separable quadratic
    a u^2 + b v^2 with a >= b > 0, and the minimum sits at the center."""
    cols = _read_grid(grid_path, res)
    c = _center(cols, res)
    u, v, reg = cols[:, 0], cols[:, 1], cols[:, 4]
    edge_u = c + (res // 2) * res  # (u = +half_width, v = 0)
    edge_v = c + res // 2  # (u = 0, v = +half_width)
    a = reg[edge_u] / u[edge_u] ** 2
    b = reg[edge_v] / v[edge_v] ** 2
    _require(a >= b > 0.0, f"ridge curvatures a={a!r}, b={b!r} are not a >= b > 0")
    expected = a * u**2 + b * v**2
    worst = float(np.max(np.abs(reg - expected) / np.maximum(1.0, expected)))
    _require(worst <= 1e-9, f"averaged l_reg is not a u^2 + b v^2 (off by {worst:.3g})")


def check_nce(csv_path: str, summary_path: str) -> None:
    with open(csv_path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    _require(len(rows) == 1, f"expected one seed row, got {len(rows)}")
    corr, shuf = float(rows[0]["bound_correlated"]), float(rows[0]["bound_shuffled"])
    _require(corr > shuf, f"correlated bound {corr!r} <= shuffled {shuf!r}")
    cap = math.log(NCE_K) + 1e-12
    _require(corr <= cap and shuf <= cap, "a bound exceeds log K")
    _require(summary["margin"] == corr - shuf, "summary margin disagrees with the CSV")


def check_verify(report_path: str) -> None:
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    _require(report["all_passed"] is True, "verify report: not all_passed")
    _require(report["num_checks"] == NUM_CHECKS, f"verify ran {report['num_checks']} checks")
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    _require(not failed, f"verify checks failed: {failed}")


# ---------------------------------------------------------------- plans


def _seeds(seed: int, index: int, count: int) -> list:
    """Seeds for the program's inputs, drawn from the benchmark seed."""
    rng = np.random.default_rng([seed, index])
    return [int(s) for s in rng.integers(FAULT_SEEDS[-1] + 1, 2**31 - 1, size=count)]


def _x_star(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["x_star"]


class _Ops:
    """Appends operations to a round, naming their files inside ``tmp``."""

    def __init__(self, rnd: Round, tmp: str):
        self.rnd = rnd
        self.tmp = tmp
        self.count = 0

    def path(self, stem: str, ext: str) -> str:
        self.count += 1
        return os.path.join(self.tmp, f"{self.count:04d}-{stem}.{ext}")

    def gen(self, n: int, d: int, seed: int) -> str:
        inst = self.path(f"inst-{seed}", "json")
        argv = ["gen", "--n", str(n), "--d", str(d), "--ridge-l", str(RIDGE_L),
                "--seed", str(seed), "--out", inst]
        self.rnd.ops.append(Op(
            "gen", f"gen n={n} d={d} seed={seed}", lambda: argv,
            lambda: check_gen(self.rnd, inst, n, d),
        ))
        return inst

    def solve(self, inst: str, mode: str, seed: int, start: str, label: str) -> None:
        """``start`` is an --x0-offset, or 'm<k>' for x0 = k * x_star."""
        trace, summary = self.path("trace", "csv"), self.path("summary", "json")

        def argv():
            if start.startswith("m"):
                k = float(start[1:])
                x0 = ["--x0=" + ",".join(repr(k * v) for v in _x_star(inst))]
            else:
                x0 = ["--x0-offset", start]
            return ["solve", "--instance", inst, "--mode", mode, "--seed", str(seed),
                    "--epsilon", repr(EPSILON), *x0, "--out", trace, "--summary", summary]

        self.rnd.ops.append(Op(
            f"solve_{mode}", f"solve {mode} {label} start={start}", argv,
            lambda: check_solve(self.rnd, inst, trace, summary),
        ))

    def landscape(self, inst: str, res: int) -> None:
        grid = self.path("grid", "csv")
        argv = ["landscape", "--instance", inst, "--resolution", str(res), "--out", grid]
        self.rnd.ops.append(Op(
            "landscape", f"landscape res={res}", lambda: argv,
            lambda: check_grid(self.rnd, grid, inst, res), cells=res * res,
        ))

    def average_landscape(self, n: int, d: int, seed: int, seeds: int, res: int) -> None:
        grid = self.path("avg-grid", "csv")
        argv = ["landscape", "--n", str(n), "--d", str(d), "--ridge-l", str(RIDGE_L),
                "--seed", str(seed), "--avg-seeds", str(seeds), "--resolution", str(res),
                "--out", grid]
        self.rnd.ops.append(Op(
            "landscape", f"landscape n={n} d={d} avg-seeds={seeds} res={res}", lambda: argv,
            lambda: check_average_grid(grid, res), cells=seeds * res * res,
        ))

    def nce(self, seed: int, extra=()) -> None:
        out, summary = self.path("nce", "csv"), self.path("nce", "json")
        argv = ["nce", "--seed", str(seed), "--seeds", "1", *extra,
                "--out", out, "--summary", summary]
        self.rnd.ops.append(Op(
            "nce", f"nce seed={seed}", lambda: argv, lambda: check_nce(out, summary),
        ))

    def verify(self, seed: int, checks=None) -> None:
        """The full suite, checked; or, during warm-up, a subset of it whose
        exit code alone is checked."""
        report = self.path("verify", "json")
        argv = ["verify", "--seed", str(seed), "--out", report]
        if checks is not None:
            argv += ["--checks", checks]
        self.rnd.ops.append(Op(
            "verify", f"verify seed={seed}", lambda: argv,
            (lambda: check_verify(report)) if checks is None else (lambda: None),
        ))


def plan(workload: str, seed: int, index: int, tmp: str) -> Round:
    """The operations of round ``index`` of ``workload`` under ``seed``."""
    rnd = Round()
    ops = _Ops(rnd, tmp)
    s = _seeds(seed, index, SEEDED_DESK_INSTANCES + 1 + NCE_PER_ROUND)
    avg_seed, nce_seeds = s[SEEDED_DESK_INSTANCES], s[SEEDED_DESK_INSTANCES + 1:]
    if workload == "tall-solve":
        inst = ops.gen(1000, 20, s[0])
        for mode in ("exact", "sampled"):
            ops.solve(inst, mode, s[0], "1.0", f"tall seed={s[0]}")
        ops.landscape(inst, 21)
        ops.average_landscape(20, 5, avg_seed, 2, 21)
    elif workload == "desk-solve":
        for planted in list(FAULT_SEEDS) + s[:SEEDED_DESK_INSTANCES]:
            inst = ops.gen(20, 5, planted)
            far = FAR_MULTIPLES if planted in FAULT_SEEDS else (SAFE_MULTIPLE,)
            starts = list(SAFE_OFFSETS) + [f"m{k}" for k in far]
            solve_seed = 0 if planted in FAULT_SEEDS else planted
            for start in starts:
                for mode in ("exact", "sampled"):
                    ops.solve(inst, mode, solve_seed, start, f"desk seed={planted}")
            if planted == s[0]:
                ops.landscape(inst, 21)
        ops.average_landscape(20, 5, avg_seed, 2, 21)
    elif workload == "desk-figures":
        # Solve time depends on the instance, so a round solves ten of them.
        for planted in s[:SEEDED_DESK_INSTANCES]:
            inst = ops.gen(20, 5, planted)
            for mode in ("exact", "sampled"):
                ops.solve(inst, mode, planted, "1.0", f"desk seed={planted}")
            if planted == s[0]:
                ops.landscape(inst, 101)
        ops.average_landscape(20, 5, avg_seed, 5, 41)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for nce_seed in nce_seeds:
        ops.nce(nce_seed)
    for suite in VERIFY_SUITES:
        ops.verify(suite)
    return rnd


def warm_up_plan(tmp: str) -> Round:
    """Tiny instances of every operation kind, run during set-up so that lazy
    imports and BLAS start-up finish before the first timed operation."""
    rnd = Round()
    ops = _Ops(rnd, tmp)
    inst = ops.gen(8, 3, 0)
    for mode in ("exact", "sampled"):
        ops.solve(inst, mode, 0, "0.5", "warm-up")
    ops.landscape(inst, 5)
    ops.average_landscape(8, 3, 0, 2, 5)
    ops.nce(0, ("--epochs", "1", "--pool-size", "16", "--k", "4"))
    ops.verify(0, checks="sandwich,convergence")
    return rnd
