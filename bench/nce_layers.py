"""Layer timings of one default NCE seed, written as JSON.

    python3 bench/nce_layers.py [--out BENCH_nce.json]

Run from a source checkout: the script times the ``softmaxopt`` under the
``src/`` beside it, in this one process, on one BLAS thread.  Each layer
is timed ``REPEATS`` times after a warm-up, the layers taking turns so that
a drift in the host's speed reaches each of them alike.  Every call runs
between two probes of ``perfbench/run.py``'s ``SpeedProbe`` and is scaled
to its reference speed, as the benchmark's end-to-end times are, since the
host's speed can change by 2x between runs minutes apart; the file gives
each layer's scaled median and quartiles in seconds, and its wall-clock
median beside them.  The workload is
``paired_vs_shuffled_bounds(SEED)`` at its defaults (96 anchors, K = 8
candidates, 8 x 8 weights, 12 epochs, so 26 draw passes and 12 x 96
lockstep steps):

- ``draw_26_passes``: ``_draw_passes`` of the seed's 26 passes.
- ``scoring_pass``: one gather of both chains' candidates and the
  log-softmax at the positive of every anchor (``_nce_stack``).
- ``seed``: the whole seed; ``seed_epochs0``, the same with ``epochs=0``.
- ``cli_nce_seeds_1``: ``softmaxopt nce --seeds 1`` through ``cli.main``,
  writing its CSV and summary.

``step_us`` (and ``wall_step_us``) is one lockstep step, from the medians, as
``(seed - seed_epochs0 - (draw_26_passes - draw_2_passes)) / (12 x 96)``:
it counts every step of the library's own loop and, beside them, the
training passes' 12 gathers.  The run metadata (CPU, ``nproc``, BLAS and
its threads, Python and numpy versions, commit and a digest of the
sources) comes from ``perfbench/run.py``; ``source_dirty`` says whether
``src/`` differs from that commit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402

REPEATS = 101
SEED = 0
POOL, K, DIM, EPOCHS = 96, 8, 8, 12


def layers(tmp: Path) -> dict:
    """Name -> a call that runs that layer once."""
    import numpy as np

    from softmaxopt import cli, nce

    rng = np.random.default_rng(SEED)
    anchors = rng.standard_normal((POOL, DIM))
    pool = rng.standard_normal((2 * POOL, DIM))
    weight = 0.1 * rng.standard_normal((2, DIM, DIM))
    rows = nce._draw_passes(rng, 2, POOL, K)
    rows[1] += POOL
    rows = rows.transpose(1, 0, 2)
    gathered = np.empty((POOL, 2, K, DIM))
    argv = ["nce", "--seed", str(SEED), "--seeds", "1",
            "--out", str(tmp / "nce.csv"), "--summary", str(tmp / "nce.json")]

    def scoring_pass():
        np.take(pool, rows, axis=0, out=gathered, mode="clip")
        nce._nce_stack(anchors[:, None], gathered, weight)

    def cli_call():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv):
                raise RuntimeError(f"nce CLI failed: {argv}")

    return {
        "draw_26_passes": lambda: nce._draw_passes(np.random.default_rng(SEED), 2 * (EPOCHS + 1), POOL, K),
        "draw_2_passes": lambda: nce._draw_passes(np.random.default_rng(SEED), 2, POOL, K),
        "scoring_pass": scoring_pass,
        "seed": lambda: nce.paired_vs_shuffled_bounds(SEED),
        "seed_epochs0": lambda: nce.paired_vs_shuffled_bounds(SEED, epochs=0),
        "cli_nce_seeds_1": cli_call,
    }


def source_dirty() -> bool | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                             capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(out.strip())


def step_us(med: dict) -> float:
    training = med["seed"] - med["seed_epochs0"] - (med["draw_26_passes"] - med["draw_2_passes"])
    return 1e6 * training / (EPOCHS * POOL)


def measure() -> dict:
    probe = perfbench.SpeedProbe()
    with tempfile.TemporaryDirectory() as tmp:
        calls = layers(Path(tmp))
        runs = {name: [] for name in calls}  # (start, wall seconds) of each call
        for name, call in calls.items():
            call()
        for _ in range(REPEATS):
            for name, call in calls.items():
                _, start, seconds = probe.timed(call)
                runs[name].append((start, seconds))
    summary = {}
    for name, samples in runs.items():
        q1, median, q3 = statistics.quantiles([probe.scale(*run) for run in samples], n=4)
        wall = statistics.median(seconds for _, seconds in samples)
        summary[name] = {"median_s": median, "q1_s": q1, "q3_s": q3, "wall_median_s": wall}
    return {
        "workload": {"seed": SEED, "pool_size": POOL, "k": K, "dim_anchor": DIM,
                     "dim_partner": DIM, "epochs": EPOCHS},
        "repeats": REPEATS,
        "reference_probe_s": perfbench.REFERENCE_PROBE_S,
        "layers": summary,
        "step_us": step_us({name: s["median_s"] for name, s in summary.items()}),
        "wall_step_us": step_us({name: s["wall_median_s"] for name, s in summary.items()}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_nce.json", help="output JSON path")
    args = parser.parse_args(argv)
    perfbench.pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    result = measure()
    result["metadata"] = {**perfbench.run_metadata(), "machine": platform.machine(),
                          "platform": platform.platform(), "source_dirty": source_dirty()}
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"step {result['step_us']:.2f} us, seed {result['layers']['seed']['median_s'] * 1e3:.2f} ms"
          f" -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
