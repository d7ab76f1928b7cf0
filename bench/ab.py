"""Interleaved in-process A/B timing of two source trees, written as JSON.

    python3 bench/ab.py --base <rev> [--head <rev>] [--ops gen_tall,nce_seed]
                        [--pairs 30] [--out BENCH_ab_<base>_<head>.json]

Run from a source checkout.  Each tree's ``src/`` comes from
``git archive <rev> src``, which reads this repository's own objects; with
no ``--head`` the head is the working tree's ``src/``.  Both packages are
imported into this one process, as ``softmaxopt_base`` and
``softmaxopt_head``, and every call runs on one BLAS thread.  On a clean
tree ``--base HEAD`` gives one tree's medians, and the noise floor.

Each op in ``OPS`` is the shape of the instance it reads (or None) and a
builder ``(package, instance path, out dir) -> call``; what the builder
sets up, such as an instance loaded by the side's own tree, is not timed.
Each op first runs once on each side, and the outputs must be equal: every
byte the CLI writes (files, standard output, exit code), every byte
``save`` writes, or every bit a library call returns (an array's shape,
dtype and bytes, the ``repr`` of anything else); a difference stops the
run.  It then runs once more on each side under ``tracemalloc``, for its
peak.  Reading outputs back is neither timed nor traced.  In each of
``--pairs`` pairs every op runs ``CALLS`` (5) times on one side and then on
the other, the side that goes first alternating, and each side's figure is
the median of its calls' wall-clock seconds.  Per op, the file gives the
median of the pairs' head/base ratios, the number of pairs in which head
was faster, each side's median and quartiles over the pairs, every pair's
figures, each side's tracemalloc peak, and a digest of the output.

The instances are ``gen --seed 0`` files that the base tree writes at
three shapes: desk (20, 5), tall (1000, 20) and 2e5 (200000, 5, a 31 MB
file).  The ops, all but the ``_2e5`` and ``_k1000`` ones run by default,
are the CLI's ``gen``, ``solve``, ``landscape``, ``nce --seeds 1``
(``nce_seed``) and ``nce --seeds 20`` (``nce_seeds_20``, the CLI's
default count); ``solve`` in each mode on two instances where Newton has
work to do (``solve_long_*``, built in-process: planted with
``norm_cap_r = 16``, ``ridge_l = 1`` and seed 0, the ridge then scaled by
1e-2 at desk and 1e-3 at tall, from ``basin_start(x_star, offset, [0, 7])``
at offsets 4 and 12, 6 steps and the 50-step cap, as ``LONG_PATH_CASES``
in ``tests/test_newton.py`` records); ``ProblemInstance.load`` and ``save``; ``make_state`` at
``x_star``; and the layers of one default NCE seed (96 anchors, K = 8,
12 epochs): ``_draw_passes`` of its 26 passes and of 2, one scoring pass
(a gather and ``_nce_stack``), and ``paired_vs_shuffled_bounds(0)`` with
and without ``epochs=0``.  The ``_k1000`` ops time one NCE seed at
pool = K = 1000 with ``--epochs 2``, its 6 passes of draws, and the same
draws as one ``rng.choice`` per anchor, the loop the batched draw replaced.

The run metadata (CPU, ``nproc``, BLAS and its threads, Python and numpy
versions) comes from ``perfbench/run.py``.  Each tree is named by its commit
(null for the working tree) and by its ``source_sha256``, as there.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import importlib
import importlib.util
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
CALLS = 5
SHAPES = {"desk": (20, 5), "tall": (1000, 20), "2e5": (200_000, 5)}


def _cli(template: str):
    """The builder of ``cli.main`` on ``template``'s argv; its output is every byte it writes."""
    def build(package, inst: Path, out: Path):
        argv = [part.format(inst=inst, out=out) for part in template.split()]

        def call():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = package.cli.main(argv)
            return lambda: (code, stdout.getvalue(),
                            {p.name: p.read_bytes() for p in sorted(out.iterdir())})

        return call

    return build


def _plain(value):
    """A returned value as comparable data: an array's shape, dtype and bytes, else its repr."""
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    return repr(value)


def _library(setup):
    """The builder of the call ``setup(package, instance path)`` makes; the output is its return."""
    def build(package, inst: Path, out: Path):
        fn = setup(package, inst)
        return lambda: functools.partial(_plain, fn())

    return build


def _save(package, inst: Path, out: Path):
    """``ProblemInstance.save`` of the instance its own tree loaded; the output is the file."""
    loaded = package.model.ProblemInstance.load(inst)

    def call():
        loaded.save(out / "inst.json")
        return (out / "inst.json").read_bytes

    return call


def _load(package, inst: Path):
    """``ProblemInstance.load``; the output is every field of the loaded instance."""
    return lambda: tuple(vars(package.model.ProblemInstance.load(inst)).values())


def _make_state(package, inst: Path):
    """``make_state`` at ``x_star`` of the instance its own tree loaded."""
    loaded = package.model.ProblemInstance.load(inst)

    def call():
        state = package.model.make_state(loaded, loaded.x_star)
        return state.log_f, state.f

    return call


def _scaled_ridge(inst, s):
    """inst with its ridge weights times s; a copy of ``scaled_ridge`` in ``tests/test_newton.py``."""
    return dataclasses.replace(inst, w=s * inst.w)


def _long_path(shape: str, scale: float, offset: float, mode: str):
    """``solve`` of a planted instance with its ridge scaled; the output is the trace's CSV text."""
    def setup(package, inst: Path):
        n, d = SHAPES[shape]
        spec = package.GeneratorSpec(n=n, d=d, norm_cap_r=16.0, ridge_l=1.0, seed=0)
        planted, x_star = package.generate_planted(spec)
        planted = _scaled_ridge(planted, scale)
        x0 = package.basin_start(x_star, offset, [0, 7])
        cfg = package.SolverConfig(mode=mode)

        def call():
            text = io.StringIO()
            package.solve(planted, x0, cfg).write_csv(text)
            return text.getvalue()

        return call

    return setup


def _draw(passes: int, pool_size: int = 96, k: int = 8):
    """``_draw_passes`` of ``passes`` passes; the defaults are the NCE experiment's."""
    return lambda package, inst: lambda: package.nce._draw_passes(
        np.random.default_rng(0), passes, pool_size, k)


def _choice_loop(passes: int, pool_size: int, k: int):
    """The per-anchor ``rng.choice`` loop whose rows ``_draw_passes`` gives; the same on both sides."""
    def call():
        rng = np.random.default_rng(0)
        rows = np.empty((passes, pool_size, k), dtype=np.intp)
        rows[..., 0] = np.arange(pool_size)
        for pass_rows in rows:
            for i, row in enumerate(pass_rows):
                drawn = rng.choice(pool_size - 1, size=k - 1, replace=False)
                row[1:] = drawn + (drawn >= i)
        return rows

    return lambda package, inst: call


def _scoring(package, inst: Path):
    """The NCE scoring pass: one gather of both chains' candidates, then ``_nce_stack``."""
    pool_size, k, dim = 96, 8, 8  # paired_vs_shuffled_bounds' defaults
    rng = np.random.default_rng(0)
    anchors = rng.standard_normal((pool_size, dim))
    pool = rng.standard_normal((2 * pool_size, dim))
    weight = 0.1 * rng.standard_normal((2, dim, dim))
    rows = package.nce._draw_passes(rng, 2, pool_size, k)
    rows[1] += pool_size
    rows = rows.transpose(1, 0, 2)
    gathered = np.empty((pool_size, 2, k, dim))

    def call():
        np.take(pool, rows, axis=0, out=gathered, mode="clip")
        return package.nce._nce_stack(anchors[:, None], gathered, weight)

    return call


def _bounds(**kwargs):
    """``paired_vs_shuffled_bounds(0, **kwargs)``."""
    return lambda package, inst: lambda: package.nce.paired_vs_shuffled_bounds(0, **kwargs)


SOLVE = "solve --instance {inst} --out {out}/trace.csv --summary {out}/summary.json"
GEN = "gen --n {n} --d {d} --seed 0 --out {out}/inst.json"
NCE = "nce --seeds {seeds}{extra} --out {{out}}/nce.csv --summary {{out}}/nce.json"
OPS = {
    "load_desk": ("desk", _library(_load)),
    "load_tall": ("tall", _library(_load)),
    "load_2e5": ("2e5", _library(_load)),
    "save_2e5": ("2e5", _save),
    "gen_desk": (None, _cli(GEN.format(n=20, d=5, out="{out}"))),
    "gen_tall": (None, _cli(GEN.format(n=1000, d=20, out="{out}"))),
    "gen_2e5": (None, _cli(GEN.format(n=200_000, d=5, out="{out}"))),
    "make_state_desk": ("desk", _library(_make_state)),
    "make_state_tall": ("tall", _library(_make_state)),
    "solve_exact_desk": ("desk", _cli(SOLVE)),
    "solve_sampled_desk": ("desk", _cli(SOLVE + " --mode sampled")),
    "solve_exact_tall": ("tall", _cli(SOLVE)),
    "solve_sampled_tall": ("tall", _cli(SOLVE + " --mode sampled")),
    "solve_long_desk_exact": (None, _library(_long_path("desk", 1e-2, 4.0, "exact"))),
    "solve_long_desk_sampled": (None, _library(_long_path("desk", 1e-2, 4.0, "sampled"))),
    "solve_long_tall_exact": (None, _library(_long_path("tall", 1e-3, 12.0, "exact"))),
    "solve_long_tall_sampled": (None, _library(_long_path("tall", 1e-3, 12.0, "sampled"))),
    "landscape_desk": ("desk", _cli("landscape --instance {inst} --resolution 101 --out {out}/grid.csv")),
    "landscape_tall": ("tall", _cli("landscape --instance {inst} --resolution 21 --out {out}/grid.csv")),
    "nce_draw_26": (None, _library(_draw(26))),
    "nce_draw_2": (None, _library(_draw(2))),
    "nce_scoring": (None, _library(_scoring)),
    "nce_bounds": (None, _library(_bounds())),
    "nce_bounds_epochs0": (None, _library(_bounds(epochs=0))),
    "nce_seed": (None, _cli(NCE.format(seeds=1, extra=""))),
    "nce_seeds_20": (None, _cli(NCE.format(seeds=20, extra=""))),
    "nce_seed_k1000": (None, _cli(NCE.format(seeds=1, extra=" --pool-size 1000 --k 1000 --epochs 2"))),
    "nce_draw_k1000": (None, _library(_draw(6, 1000, 1000))),
    "nce_choice_k1000": (None, _library(_choice_loop(6, 1000, 1000))),
}
DEFAULT_OPS = [op for op in OPS if not op.endswith(("_2e5", "_k1000"))]


class OutputMismatch(RuntimeError):
    """An op gave different outputs on the two sides."""


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def tree(rev: str | None, dest: Path) -> tuple[Path, dict]:
    """The ``src/`` of ``rev`` (extracted under ``dest``) or of the working tree, and its names."""
    if rev is None:
        src, commit = ROOT / "src", None
    else:
        commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit, "src"))) as tar:
            tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        src = dest / "src"
    digest = hashlib.sha256()
    for path in sorted((src / "softmaxopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return src, {"rev": rev, "commit": commit, "source_sha256": digest.hexdigest()}


def import_package(name: str, src: Path):
    """The ``softmaxopt`` package under ``src`` imported as ``name``, with its cli."""
    init = src / "softmaxopt" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")  # __init__ imports model and nce
    return package


def build_calls(ops: list, packages: dict, tmp: Path) -> dict:
    """op -> side -> a call that runs the op once on that side.

    The call returns a function that reads the op's output, so that reading
    it back is neither timed nor traced.
    """
    instances = {shape: tmp / f"{shape}.json" for shape in {OPS[op][0] for op in ops} - {None}}
    for shape, path in instances.items():
        n, d = SHAPES[shape]
        argv = ["gen", "--n", str(n), "--d", str(d), "--seed", "0", "--out", str(path)]
        if packages["base"].cli.main(argv):
            raise RuntimeError(f"base gen failed: {argv}")
    calls = {}
    for op in ops:
        shape, build = OPS[op]
        calls[op] = {}
        for side, package in packages.items():
            out = tmp / side / op
            out.mkdir(parents=True)
            calls[op][side] = build(package, instances.get(shape), out)
    return calls


def output_digest(op: str, outputs: dict) -> str:
    """The digest of the output both sides gave; OutputMismatch if they differ."""
    base, head = (outputs[side] for side in SIDES)
    if base != head:
        raise OutputMismatch(f"{op}: base and head give different outputs")
    return hashlib.sha256(repr(base).encode()).hexdigest()


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(calls: dict, pairs: int) -> dict:
    digests = {op: output_digest(op, {side: call()() for side, call in sides.items()})
               for op, sides in calls.items()}
    peaks = {op: {side: traced_peak(call) for side, call in sides.items()}
             for op, sides in calls.items()}
    seconds = {op: {side: [] for side in SIDES} for op in calls}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for op, sides in calls.items():
            for side in order:
                times = []
                for _ in range(CALLS):
                    start = time.perf_counter()
                    sides[side]()
                    times.append(time.perf_counter() - start)
                seconds[op][side].append(statistics.median(times))
    report = {}
    for op, runs in seconds.items():
        ratios = [h / b for b, h in zip(runs["base"], runs["head"])]
        report[op] = {
            "output_sha256": digests[op],
            "ratio_median": statistics.median(ratios),
            "head_faster": sum(r < 1.0 for r in ratios),
            "peak_bytes": peaks[op],
            **{side: _quartiles(runs[side]) for side in SIDES},
            **{f"{side}_s": runs[side] for side in SIDES},
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", help="head revision (default: the working tree)")
    parser.add_argument("--ops", default=",".join(DEFAULT_OPS),
                        help=f"comma-separated subset of {','.join(OPS)}")
    parser.add_argument("--pairs", type=int, default=30, help="interleaved pairs (>= 2)")
    parser.add_argument("--out", help="output JSON path (default: BENCH_ab_<base>_<head>.json)")
    args = parser.parse_args(argv)
    ops = args.ops.split(",")
    unknown = sorted(set(ops) - set(OPS))
    if unknown:
        parser.error(f"unknown ops {unknown}; choose from {list(OPS)}")
    if args.pairs < 2:
        parser.error("--pairs must be >= 2, for quartiles")
    # perfbench/run.py as a module, without putting its directory on the path
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    perfbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench)
    perfbench.pin_blas_threads()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        packages, trees = {}, {}
        for side, rev in (("base", args.base), ("head", args.head)):
            src, trees[side] = tree(rev, tmp / side / "tree")
            packages[side] = import_package(f"softmaxopt_{side}", src)
        result = {"pairs": args.pairs, "calls": CALLS,
                  "ops": measure(build_calls(ops, packages, tmp), args.pairs)}
    result.update(trees)
    result["metadata"] = {**perfbench.run_metadata(), "machine": platform.machine(),
                          "platform": platform.platform()}
    head_name = trees["head"]["commit"][:7] if args.head else "worktree"
    out = Path(args.out or f"BENCH_ab_{trees['base']['commit'][:7]}_{head_name}.json")
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for op, r in result["ops"].items():
        print(f"{op}: head/base {r['ratio_median']:.3f}, head faster in "
              f"{r['head_faster']}/{args.pairs}, base {r['base']['median_s'] * 1e3:.3f} ms")
    print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
