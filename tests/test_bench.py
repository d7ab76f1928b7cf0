"""bench/ab.py: the interleaved A/B of two source trees."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "bench" / "ab.py"
SIDE_KEYS = {"median_s", "q1_s", "q3_s"}
# a CLI op and three library calls: a load, an NCE layer and make_state
OPS_RUN = ("load_desk", "gen_desk", "nce_bounds_epochs0", "make_state_desk")


def load_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and the repository's objects")
def test_head_against_the_working_tree_writes_the_report(tmp_path):
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(AB), "--base", "HEAD", "--ops", ",".join(OPS_RUN), "--pairs", "2",
         "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"base", "head", "pairs", "calls", "ops", "metadata"}
    assert (report["pairs"], report["calls"]) == (2, 5)
    head_commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
    for side, rev, commit in (("base", "HEAD", head_commit), ("head", None, None)):
        assert (report[side]["rev"], report[side]["commit"]) == (rev, commit)
        assert re.fullmatch("[0-9a-f]{64}", report[side]["source_sha256"])
    assert report["metadata"]["blas_thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert sorted(report["ops"]) == sorted(OPS_RUN)
    for op in report["ops"].values():
        assert set(op) == {"output_sha256", "ratio_median", "head_faster", "peak_bytes",
                           "base", "head", "base_s", "head_s"}
        assert re.fullmatch("[0-9a-f]{64}", op["output_sha256"])
        assert 0 <= op["head_faster"] <= 2 and op["ratio_median"] > 0
        assert set(op["peak_bytes"]) == {"base", "head"}
        for side in ("base", "head"):
            assert op["peak_bytes"][side] > 0
            assert set(op[side]) == SIDE_KEYS
            assert len(op[f"{side}_s"]) == 2 and all(s > 0 for s in op[f"{side}_s"])
            assert op[side]["q1_s"] <= op[side]["median_s"] <= op[side]["q3_s"]


def test_every_default_op_runs_on_the_working_tree(tmp_path):
    # once each, with no git, so an op whose target is renamed fails in any copy
    ab = load_ab()
    src, _ = ab.tree(None, tmp_path)
    package = ab.import_package("softmaxopt_base", src)
    for sides in ab.build_calls(ab.DEFAULT_OPS, {"base": package}, tmp_path).values():
        sides["base"]()()


def test_every_op_is_a_shape_and_a_builder():
    ab = load_ab()
    for op, entry in ab.OPS.items():
        assert isinstance(entry, tuple) and len(entry) == 2, op
        shape, build = entry
        assert (shape is None or shape in ab.SHAPES) and callable(build), op


def test_unequal_outputs_stop_the_run():
    ab = load_ab()
    assert ab.output_digest("op", {"base": (0, b"x"), "head": (0, b"x")})
    with pytest.raises(ab.OutputMismatch, match="^op: base and head give different outputs$"):
        ab.output_digest("op", {"base": (0, b"x"), "head": (0, b"y")})


@pytest.mark.parametrize("args", [["--ops", "load_desk,nope"], ["--pairs", "1"]])
def test_bad_options_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        load_ab().main(["--base", "HEAD", *args])
    assert exc.value.code == 2
