"""softmaxopt benchmark: drive the CLI end to end and time it.

    python3 perfbench/run.py --workload desk-figures --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Each run imports ``softmaxopt`` from
``src/``, sets up (see ``set_up``), then runs whole rounds of CLI operations
in this one process until ``--seconds`` have passed, checking every output.
``--trace 0`` reports the end-to-end metrics, with every time scaled to a
reference machine speed (see ``SpeedProbe``); ``--trace 1`` runs each round
twice, untraced and then with spans around every public function of the
package, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives the
details (per-kind counts, failure lines, run metadata).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SNIPPET = "import sys; sys.path.insert(0, 'src'); import softmaxopt.cli"

# Close to the probe's median time on the reference machine (README,
# "Steadiness"), so that scaled times read close to wall seconds there.
REFERENCE_PROBE_S = 1.0e-3
PROBE_WINDOW_S = 1.0
PROBE_WARM_UP = 50

# The faults kept in the desk-solve workload, told apart by the CLI's error line.
FAULTS = {
    "F1": "iterate escaped the representable range",
    "F2": "loss_cent needs strictly positive f",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """One BLAS thread, whatever the environment says; must run before numpy
    loads.  Every part of a run, the speed probe included, then computes on
    one core at a time, so the probe sees the speed the operations see."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def fault_tag(line: str) -> str:
    for tag, text in FAULTS.items():
        if text in line:
            return tag
    return "unexpected"


class SpeedProbe:
    """A fixed piece of interpreter and LAPACK work, timed before and after
    every timed operation, that scales operation times to the reference speed.

    The host's speed changes by up to 2x between runs minutes apart and by
    a fifth from one half-second to the next, for every process on it, so
    wall times of the same code differ by more than any useful bound from
    one run to the next.  An operation's scaled time is its wall time over
    the median probe time within ``PROBE_WINDOW_S`` of it, times
    ``REFERENCE_PROBE_S``.  The probe depends on nothing in ``softmaxopt``:
    a change to the program moves the scaled times as it moves the wall
    times."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        small, medium = rng.standard_normal((8, 8)), rng.standard_normal((64, 64))
        self._small, self._medium = small @ small.T, medium @ medium.T
        self._linalg = np.linalg
        self.starts = []  # start of each probe, increasing
        self.times = []  # seconds of each probe
        # The first probes in a process run slow (first calls into LAPACK,
        # cold caches); they would scale the first set-up down.
        for _ in range(PROBE_WARM_UP):
            self.measure()
        self.starts.clear()
        self.times.clear()

    def measure(self) -> None:
        start = time.perf_counter()
        acc = 0.0
        for i in range(2000):
            acc += i * 0.5
        for _ in range(10):
            self._linalg.eigvalsh(self._small)
        self._linalg.eigh(self._medium)
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def timed(self, work):
        """Runs ``work()`` between two probes; returns its result, its start
        and its wall seconds."""
        self.measure()
        start = time.perf_counter()
        result = work()
        seconds = time.perf_counter() - start
        self.measure()
        return result, start, seconds

    def scale(self, start: float, seconds: float) -> float:
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + PROBE_WINDOW_S)
        return seconds * REFERENCE_PROBE_S / statistics.median(self.times[lo:hi])


class Runner:
    """Runs rounds of operations and keeps what the metrics need."""

    def __init__(self, cli, check_errors, probe: SpeedProbe):
        self.cli = cli  # the module: main is looked up per call, so the tracer's wrapper is used
        self.check_errors = check_errors
        self.probe = probe
        self.ops = []  # (round, kind, start, wall seconds, cells) of each successful operation
        self.rounds = 0
        self.attempted = Counter()
        self.failed = Counter()
        self.failures = Counter()  # (label, tag, error line) -> count
        self.correct = True
        self.op_seconds = 0.0
        self.iterations = 0

    def _fail(self, op, tag: str, line: str) -> None:
        self.failed[op.kind] += 1
        self.failures[(op.label, tag, line)] += 1

    def run_round(self, rnd, tracer=None) -> None:
        for op in rnd.ops:
            self.attempted[op.kind] += 1
            try:
                argv = op.argv()
            except self.check_errors as exc:  # inputs an earlier operation should have written
                self._fail(op, "unexpected", f"no input: {exc!r}")
                continue
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code, start, seconds = self.probe.timed(lambda: self._main(argv))
            if tracer is not None:
                tracer.fold()
            self.op_seconds += seconds
            if code != 0:
                lines = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
                line = lines[0] if lines else f"exit code {code}"
                self._fail(op, fault_tag(line), line)
                continue
            try:
                op.check()
            except self.check_errors as exc:
                self.correct = False
                self._fail(op, "check", str(exc))
                continue
            self.ops.append((self.rounds, op.kind, start, seconds, op.cells))
        self.iterations += sum(rnd.iterations)
        self.rounds += 1

    def _main(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            return exc.code

    @property
    def cells(self) -> int:
        return sum(op[4] for op in self.ops)

    def wall(self, kind: str) -> list:
        return [op[3] for op in self.ops if op[1] == kind]

    def per_round(self, kind: str) -> list:
        """Scaled seconds per operation of ``kind``: one mean per round.  A
        round holds the same mix of inputs in every run, so its mean is
        steadier than a median over operations of different sizes."""
        rounds = {}
        for rnd, k, start, seconds, _ in self.ops:
            if k == kind:
                rounds.setdefault(rnd, []).append(self.probe.scale(start, seconds))
        return [statistics.fmean(scaled) for scaled in rounds.values()]

    def cells_per_second(self) -> float:
        scaled = sum(self.probe.scale(start, seconds)
                     for _, kind, start, seconds, _ in self.ops if kind == "landscape")
        return self.cells / scaled if scaled else None


def median(values):
    return statistics.median(values) if values else None


def set_up(workloads, args, tmp: Path, cli, probe: SpeedProbe) -> tuple:
    """One set-up: a fresh interpreter importing the package, the first
    round's inputs, and a warm-up of every operation kind on tiny inputs.
    Returns its start and wall seconds."""

    def work():
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, check=True, timeout=120)
        workloads.plan(args.workload, args.seed, 0, str(tmp))
        warm = Runner(cli, workloads.CHECK_ERRORS, probe)
        warm.run_round(workloads.warm_up_plan(str(tmp)))
        return warm

    warm, start, seconds = probe.timed(work)
    if sum(warm.failed.values()):
        raise RuntimeError(f"warm-up failed: {sorted(warm.failures)}")
    return start, seconds


def loaded_blas() -> list:
    """Each OpenBLAS loaded in this process, with its configured thread count."""
    import ctypes

    found = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and "threads" not in entry:
                    getter.restype = ctypes.c_int
                    entry["threads"] = getter()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def run_metadata() -> dict:
    import numpy
    import scipy

    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "softmaxopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": loaded_blas(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(runner: Runner, setups: list) -> dict:
    return {
        "setup_s": median(setups),
        "gen_s": median(runner.per_round("gen")),
        "solve_exact_s": median(runner.per_round("solve_exact")),
        "solve_sampled_s": median(runner.per_round("solve_sampled")),
        "landscape_cells_per_s": runner.cells_per_second(),
        "nce_seed_s": median(runner.per_round("nce")),
        "verify_s": median(runner.per_round("verify")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tr, runner: Runner, rounds: int, overhead: float) -> dict:
    """Per-layer totals of the traced pass, per round."""
    values = {
        "cli.self_s": tr.module_self_time("cli"),
        "model.io_s": tr.inclusive("model.ProblemInstance.save")
        + tr.inclusive("model.ProblemInstance.load"),
        "newton.iterations": runner.iterations,
        "landscape.cells": runner.cells,
    }
    for name in ("model.make_state", "model.loss_total", "calculus.gradient_bundle",
                 "calculus.hessian_total", "calculus.total_kernel", "verify.kernel_bound",
                 "nce.nce_gradients"):
        values[f"{name}.calls"] = tr.calls(name)
        values[f"{name}.s"] = tr.inclusive(name)
    for name in ("verify.fd_gradient", "verify.fd_hessian", "verify.lipschitz_probe",
                 "landscape.average_grids"):
        values[f"{name}.s"] = tr.inclusive(name)
    for name in ("newton.solve", "newton.approx_hessian", "planted.generate_planted",
                 "landscape.landscape_grid", "nce.paired_vs_shuffled_bounds"):
        values[f"{name}.self_s"] = tr.self_time(name)
    for check in ("gradients", "hessians", "psd", "sandwich", "lipschitz", "convergence"):
        func = "check_psd_recipe" if check == "psd" else f"check_{check}"
        values[f"suite.{check}.s"] = tr.inclusive(f"suite.{func}")
    values = {name: value / rounds for name, value in values.items()}
    values["trace.overhead_ratio"] = overhead
    return values


def run_rounds(workloads, runner: Runner, args, tmp: Path, deadline: float, traced=None) -> int:
    """Whole rounds, from round 0, until ``deadline``.  With ``traced`` (a
    (Runner, Tracer) pair) each round runs untraced and then again traced,
    back to back, so that both passes see the same machine state."""
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        round_dir = tmp / f"r{index:05d}"
        round_dir.mkdir()
        runner.run_round(workloads.plan(args.workload, args.seed, index, str(round_dir)))
        if traced is not None:
            traced_runner, tr = traced
            (round_dir / "traced").mkdir()
            tr.install()
            try:
                traced_runner.run_round(
                    workloads.plan(args.workload, args.seed, index, str(round_dir / "traced")), tr
                )
            finally:
                tr.uninstall()
        shutil.rmtree(round_dir)
        index += 1
    return index


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tall-solve", "desk-solve", "desk-figures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "softmaxopt" / "cli.py").is_file():
        print(f"error: no softmaxopt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_blas_threads()
    sys.path.insert(0, str(SRC))

    import_start = time.perf_counter()
    from softmaxopt import cli

    import_s = time.perf_counter() - import_start
    import tracer as tracing
    import workloads

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        probe = SpeedProbe()
        setup_spans = []
        for rep in range(SETUP_REPS):
            rep_dir = tmp / f"setup{rep}"
            rep_dir.mkdir()
            setup_spans.append(set_up(workloads, args, rep_dir, cli, probe))
            shutil.rmtree(rep_dir)

        runner = Runner(cli, workloads.CHECK_ERRORS, probe)
        start = time.perf_counter()
        if args.trace:
            tr = tracing.Tracer()
            traced_runner = Runner(cli, workloads.CHECK_ERRORS, probe)
            rounds = run_rounds(workloads, runner, args, tmp, start + args.seconds,
                                traced=(traced_runner, tr))
            overhead = traced_runner.op_seconds / runner.op_seconds
            timed = {"untraced_s": runner.op_seconds, "traced_s": traced_runner.op_seconds}
            metrics = per_layer(tr, traced_runner, rounds, overhead)
            names = spec["per_layer"]
            # Both passes count: they run the same rounds.
            runner.attempted.update(traced_runner.attempted)
            runner.failed.update(traced_runner.failed)
            runner.failures.update(traced_runner.failures)
            runner.correct = runner.correct and traced_runner.correct
        else:
            rounds = run_rounds(workloads, runner, args, tmp, start + args.seconds)
            metrics = end_to_end(runner, [probe.scale(*span) for span in setup_spans])
            names = spec["end_to_end"]
            timed = {"untraced_s": runner.op_seconds}
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()

    missing = [m["name"] for m in names if metrics.get(m["name"]) is None]
    if set(metrics) != {m["name"] for m in names}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    correct = runner.correct and not missing

    kinds = {}
    for kind in workloads.KINDS:
        rounds_s = runner.per_round(kind)
        wall = sorted(runner.wall(kind))
        kinds[kind] = {
            "attempted": runner.attempted[kind],
            "failed": runner.failed[kind],
            "timed": len(wall),
            "round_median_s": median(rounds_s),
            "round_min_s": min(rounds_s, default=None),
            "round_max_s": max(rounds_s, default=None),
            "wall_median_s": median(wall),
            "wall_min_s": wall[0] if wall else None,
            "wall_max_s": wall[-1] if wall else None,
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "import_s": import_s,
        "setup_reps_s": [probe.scale(*span) for span in setup_spans],
        "setup_reps_wall_s": [seconds for _, seconds in setup_spans],
        "probe": {
            "reference_s": REFERENCE_PROBE_S,
            "count": len(probe.times),
            "median_s": median(probe.times),
            "min_s": min(probe.times),
            "max_s": max(probe.times),
        },
        "timed_operation_seconds": timed,
        "operations": kinds,
        "failures": [
            {"op": label, "tag": tag, "error": line, "count": count}
            for (label, tag, line), count in sorted(runner.failures.items())
        ],
        "missing_metrics": missing,
        "metadata": run_metadata(),
    }
    for m in names:
        print(f"{m['name']:<42} {metrics[m['name']]!r:>24} {m['unit']}")
    for kind, row in kinds.items():
        print(f"{kind:<14} attempted {row['attempted']:>6}  failed {row['failed']:>5}")
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": sum(runner.attempted.values()),
        "failed": sum(runner.failed.values()),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
