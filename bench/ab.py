"""Interleaved in-process A/B timing of two source trees, written as JSON.

    python3 bench/ab.py --base <rev> [--head <rev>] [--ops gen_tall,nce_seed]
                        [--pairs 30] [--out BENCH_ab_<base>_<head>.json]

Run from a source checkout.  Each tree's ``src/`` comes from
``git archive <rev> src``, which reads this repository's own objects; with
no ``--head`` the head is the working tree's ``src/``.  Both packages are
imported into this one process, as ``softmaxopt_base`` and
``softmaxopt_head``, and every call runs on one BLAS thread.

Before any timing, each op runs once on each side, and the two outputs
must be equal: every byte the CLI writes (its files and standard output,
and its exit code), every byte ``save`` writes, or every bit of a loaded
instance.  A difference stops the run.  Each op then runs once more on each
side under ``tracemalloc``, for its peak.  Reading an op's output back is
neither timed nor traced.  Then come ``--pairs`` pairs.  In a pair every op runs
``CALLS`` (5) times on one side and then 5 times on the other,
the side that goes first alternating from pair to pair, and each side's
figure is the median of its calls' wall-clock seconds.  Per op, the file
gives the median of the pairs' head/base ratios, the number of pairs in
which head was faster, each side's median and quartiles over the pairs,
every pair's figures, each side's tracemalloc peak, and a digest of the
output both sides gave.

The instances are ``gen --seed 0`` files that the base tree writes at
three shapes: desk (20, 5), tall (1000, 20) and 2e5 (200000, 5, a 31 MB
file).  The ops (all but the ``_2e5`` ones run by default):

- ``load_<shape>``: ``ProblemInstance.load`` of that instance.
- ``save_2e5``: ``ProblemInstance.save`` of that instance, loaded once by
  the side's own tree, to a file.
- ``gen_<shape>``: ``softmaxopt gen --n --d --seed 0 --out`` at that shape.
- ``solve_exact_<desk|tall>``, ``solve_sampled_<desk|tall>``:
  ``softmaxopt solve --instance``, writing the trace CSV and the summary.
- ``landscape_desk``, ``landscape_tall``: ``softmaxopt landscape
  --instance`` at resolution 101 and 21.
- ``nce_seed``: ``softmaxopt nce --seeds 1``, which reads no instance, as
  a control.

The run metadata (CPU, ``nproc``, BLAS and its threads, Python and numpy
versions) comes from ``perfbench/run.py``, as in ``bench/nce_layers.py``;
each tree is named by its commit (null for the working tree, which may
differ from any commit) and by a digest of its ``softmaxopt/*.py``,
computed as ``perfbench/run.py`` computes ``source_sha256``.
"""

from __future__ import annotations

import argparse
import contextlib
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

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
CALLS = 5
SHAPES = {"desk": (20, 5), "tall": (1000, 20), "2e5": (200_000, 5)}
SOLVE = "solve --instance {inst} --out {out}/trace.csv --summary {out}/summary.json"
GEN = "gen --n {n} --d {d} --seed 0 --out {out}/inst.json"
# op -> (instance shape or None, CLI argv template, or "load" or "save" for
# that method of ProblemInstance on the instance)
OPS = {
    "load_desk": ("desk", "load"),
    "load_tall": ("tall", "load"),
    "load_2e5": ("2e5", "load"),
    "save_2e5": ("2e5", "save"),
    "gen_desk": (None, GEN.format(n=20, d=5, out="{out}")),
    "gen_tall": (None, GEN.format(n=1000, d=20, out="{out}")),
    "gen_2e5": (None, GEN.format(n=200_000, d=5, out="{out}")),
    "solve_exact_desk": ("desk", SOLVE),
    "solve_sampled_desk": ("desk", SOLVE + " --mode sampled"),
    "solve_exact_tall": ("tall", SOLVE),
    "solve_sampled_tall": ("tall", SOLVE + " --mode sampled"),
    "landscape_desk": ("desk", "landscape --instance {inst} --resolution 101 --out {out}/grid.csv"),
    "landscape_tall": ("tall", "landscape --instance {inst} --resolution 21 --out {out}/grid.csv"),
    "nce_seed": (None, "nce --seeds 1 --out {out}/nce.csv --summary {out}/nce.json"),
}
DEFAULT_OPS = [op for op in OPS if not op.endswith("_2e5")]


class OutputMismatch(RuntimeError):
    """An op gave different outputs on the two sides."""


def _perfbench():
    """``perfbench/run.py`` as a module, without putting its directory on the path."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    """The ``softmaxopt`` package under ``src`` imported as ``name``, with its cli and model."""
    init = src / "softmaxopt" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("cli", "model"):
        importlib.import_module(f"{name}.{sub}")
    return package


def _cli_call(package, argv: list, out: Path):
    def call():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = package.cli.main(argv)
        return lambda: (code, stdout.getvalue(),
                        {p.name: p.read_bytes() for p in sorted(out.iterdir())})

    return call


def _load_call(package, path: Path):
    def call():
        inst = package.model.ProblemInstance.load(path)
        arrays = (inst.a, inst.b, inst.w, inst.x_star)
        return lambda: ([None if v is None else (v.shape, v.tobytes()) for v in arrays],
                        inst.reg_mode)

    return call


def _save_call(package, path: Path, out: Path):
    inst = package.model.ProblemInstance.load(path)

    def call():
        inst.save(out / "inst.json")
        return (out / "inst.json").read_bytes

    return call


def build_calls(ops: list, packages: dict, tmp: Path) -> dict:
    """op -> side -> a call that runs the op once on that side.

    The call returns a function that reads the op's output, so that reading
    it back is neither timed nor traced.
    """
    instances = {}
    for shape in sorted({OPS[op][0] for op in ops} - {None}):
        n, d = SHAPES[shape]
        instances[shape] = tmp / f"{shape}.json"
        argv = ["gen", "--n", str(n), "--d", str(d), "--seed", "0", "--out", str(instances[shape])]
        if packages["base"].cli.main(argv):
            raise RuntimeError(f"base gen failed: {argv}")
    calls = {}
    for op in ops:
        shape, template = OPS[op]
        calls[op] = {}
        for side, package in packages.items():
            if template == "load":
                calls[op][side] = _load_call(package, instances[shape])
                continue
            out = tmp / side / op
            out.mkdir(parents=True)
            if template == "save":
                calls[op][side] = _save_call(package, instances[shape], out)
                continue
            argv = [part.format(inst=instances.get(shape), out=out) for part in template.split()]
            calls[op][side] = _cli_call(package, argv, out)
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
    perfbench = _perfbench()
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
