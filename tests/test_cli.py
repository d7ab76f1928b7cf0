"""Command-line behavior: exit codes, file outputs, reproducibility."""

import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import softmaxopt as so
from calculus_oracles import grad_f_inner
from kernel_oracles import total_kernel
from softmaxopt import cli, suite
from softmaxopt.cli import build_parser, main


def run(args):
    return main([str(a) for a in args])


def csv_text(table) -> str:
    """The text ``write_csv`` writes to an open stream."""
    stream = io.StringIO()
    table.write_csv(stream)
    return stream.getvalue()


class TestGen:
    def test_writes_instance_json(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run(["gen", "--n", 12, "--d", 4, "--seed", 3, "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["n"] == 12 and data["d"] == 4
        assert data["reg_mode"] == "centered"
        assert len(data["x_star"]) == 4

    def test_stdout_mode(self, capsys):
        assert run(["gen", "--n", 6, "--d", 2, "--seed", 1]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 6

    def test_matches_library_generator(self, tmp_path):
        out = tmp_path / "inst.json"
        run(["gen", "--n", 10, "--d", 3, "--ridge-l", 1.0, "--seed", 9, "--out", out])
        inst = so.ProblemInstance.load(out)
        ref, _ = so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=1.0, seed=9))
        assert np.array_equal(inst.a, ref.a)

    @pytest.mark.parametrize(("n", "d", "seed"), [(20, 5, s) for s in range(5)] + [(400, 10, 0)])
    def test_ridge_dominates_the_dense_kernel_norm(self, capsys, n, d, seed):
        # w^2 = 100 R + 1 / sigma_min(A)^2 with R >= ||D(x_star)||_2, the loss
        # kernel's 2-norm at the optimum, here from the oracle's dense kernel
        assert run(["gen", "--n", n, "--d", d, "--seed", seed]) == 0
        inst = so.ProblemInstance.from_dict(json.loads(capsys.readouterr().out))
        loss_only = so.ProblemInstance(a=inst.a, b=inst.b, w=np.zeros(n))
        kernel = total_kernel(so.make_state(loss_only, inst.x_star), loss_only)
        smin = np.linalg.svd(inst.a, compute_uv=False)[-1]
        assert inst.w[0] ** 2 >= 100.0 * np.linalg.norm(kernel, 2) + 1.0 / smin**2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_ridge_weight_exits_one(self, capsys):
        assert run(["gen", "--ridge-l", 1e308]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: NonFiniteEvaluation: ridge weight w^2 = 100 R")

    def test_pinned_values(self, capsys):
        assert run(["gen", "--n", 20, "--d", 5, "--seed", 0]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["n"], data["d"], data["reg_mode"]) == (20, 5, "centered")
        np.testing.assert_allclose(data["x_star"], PINNED_GEN["x_star"], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(data["A"][:5], PINNED_GEN["a_row_0"], rtol=1e-12, atol=0.0)
        for key in ("b", "w"):
            assert sum(data[key]) == pytest.approx(PINNED_GEN[f"{key}_sum"], rel=1e-12, abs=0.0)


class TestSolve:
    def test_planted_roundtrip_converges(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        run(["gen", "--n", 20, "--d", 5, "--ridge-l", 1.0, "--seed", 4, "--out", inst_path])
        trace_path = tmp_path / "trace.csv"
        summary_path = tmp_path / "summary.json"
        code = run(
            ["solve", "--instance", inst_path, "--seed", 4,
             "--out", trace_path, "--summary", summary_path]
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert set(summary) == {"converged", "iters", "final_grad_norm", "final_err"}
        assert summary["converged"] is True
        assert summary["final_err"] <= 1e-10
        lines = trace_path.read_text().strip().split("\n")
        assert lines[0] == "t,loss,grad_norm,err_to_opt,step_seconds"
        assert len(lines) == 2 + summary["iters"]

    def test_max_iters_zero_exit_two(self, tmp_path):
        summary_path = tmp_path / "s.json"
        code = run(
            ["solve", "--n", 10, "--d", 3, "--seed", 5, "--max-iters", 0,
             "--summary", summary_path]
        )
        assert code == 2
        assert json.loads(summary_path.read_text())["converged"] is False

    def test_malformed_instance_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["solve", "--instance", bad]) == 1
        assert "error:" in capsys.readouterr().err

    def test_error_line_names_exception_type(self, capsys):
        assert run(["solve", "--n", 10, "--d", 3, "--seed", 5, "--x0", "1,2"]) == 1
        err = capsys.readouterr().err
        assert "error: DimensionMismatch: x must have length 3, got (2,)" in err

    def test_far_start_with_underflowing_f_converges(self, tmp_path):
        # from 400 x_star, f underflows to exact zeros on planted seed 1
        _, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=1))
        x0 = ",".join(repr(float(v)) for v in 400.0 * x_star)
        summary_path = tmp_path / "s.json"
        assert run(["solve", "--seed", 1, f"--x0={x0}", "--summary", summary_path]) == 0
        summary = json.loads(summary_path.read_text())
        assert summary["converged"] is True and summary["final_err"] <= 1e-10

    def test_explicit_x0(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        run(["gen", "--n", 8, "--d", 2, "--seed", 6, "--out", inst_path])
        summary_path = tmp_path / "s.json"
        code = run(
            ["solve", "--instance", inst_path, "--x0", "0.1,0.2",
             "--summary", summary_path, "--max-iters", 40]
        )
        assert code == 0

    def test_instance_without_x_star_starts_at_zero(self, tmp_path):
        planted, _ = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0))
        inst = so.ProblemInstance(a=planted.a, b=planted.b, w=planted.w)
        inst.save(tmp_path / "inst.json")
        trace = tmp_path / "trace.csv"
        assert run(["solve", "--instance", tmp_path / "inst.json", "--out", trace]) == 0
        want = io.StringIO()
        so.solve(inst, np.zeros(inst.d), so.SolverConfig()).write_csv(want)
        assert trace.read_text() == want.getvalue()

    def test_byte_reproducible(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            trace = tmp_path / f"trace_{tag}.csv"
            summary = tmp_path / f"summary_{tag}.json"
            assert run(
                ["solve", "--n", 15, "--d", 4, "--ridge-l", 1.0, "--seed", 7,
                 "--out", trace, "--summary", summary]
            ) == 0
            outs.append((trace.read_bytes(), summary.read_bytes()))
        assert outs[0] == outs[1]


# `gen --n 20 --d 5 --seed 0`: the planted optimum, the first row of A and the
# sums of b and w; later versions must stay within rtol 1e-12.
PINNED_GEN = {
    "x_star": [-0.8093129156278109, -1.49632408370849, 0.2718196260930174,
               -0.5979540770129691, -1.0830645562014691],
    "a_row_0": [-0.13538399477079927, -0.03026917478335956, -0.1850554886001589,
                -0.06706749563154243, 0.21700120835768247],
    "b_sum": 1.0000000000000002,
    "w_sum": 129.41359494787326,
}

# Figures of the `verify --seed 0 --out` report, pinned exactly: the report is
# byte-reproducible, and the finite-difference oracles must keep every bit of
# the values they compare.
PINNED_VERIFY = {
    "max_rel_err": 6.414041520130809e-10,
    "max_rel_err_fd": 3.1014835871062685e-07,
    "max_rel_err_entry_formula": 2.220446049250313e-16,
    "psd_eigmins": [20.83281690113466, 20.83129378693333, 20.82598414647722,
                    12.92856421862759, 12.92954788097639, 12.927026721159377,
                    26.867959014858858, 26.86829540969365, 26.865487208610904],
    "max_spread": 1.0037076607849404,
}

# `landscape --n 8 --d 3 --seed 3 --half-width 0.5 --resolution 5`, recorded
# once the planted ridge was sized from the kernel-norm bound R; the columns
# without w (u, v, l_exp, l_cent) are bitwise those of the R-free recipe, and
# later versions must stay within rtol 1e-12 of it.
PINNED_LANDSCAPE_CSV = (
    "-0.5,-0.5,0.020590473108815132,0.9306089782708831,595.0424775620993,595.993677013479\n"
    "-0.5,-0.25,0.01575051414501892,0.9146968121951571,520.662167866837,521.5926151931772\n"
    "-0.5,0.0,0.01206075721766218,0.9025340583283412,495.8687313017496,496.78332611729564\n"
    "-0.5,0.25,0.009340183757888526,0.8938479046929916,520.6621678668371,521.5653559552879\n"
    "-0.5,0.5,0.00741927755310417,0.8883777133508884,595.0424775620993,595.9382745530033\n"
    "-0.25,-0.5,0.006655361949051657,0.8810401641425656,223.14092908578723,224.02862461187885\n"
    "-0.25,-0.25,0.004233175407112115,0.8719363153724738,148.76061939052482,149.6367888813044\n"
    "-0.25,0.0,0.0025995419439559984,0.8658740790250112,123.9671828254374,124.83565644640638\n"
    "-0.25,0.25,0.0015918702103269885,0.8625943274110625,148.76061939052482,149.62480558814622\n"
    "-0.25,0.5,0.0010685113045603883,0.8618540271405074,223.14092908578738,224.00385162423245\n"
    "0.0,-0.5,0.0008315738855863632,0.8595866062155215,99.1737462603499,100.03416444045101\n"
    "0.0,-0.25,0.00018642998493617776,0.8560234829549946,24.793436565087475,25.649646478027407\n"
    "0.0,0.0,0.0,0.8548879099774479,0.0,0.8548879099774479\n"
    "0.0,0.25,0.00014914349240060056,0.855949545632197,24.793436565087475,25.649535254212072\n"
    "0.0,0.5,0.00053263841277612,0.8589957005931568,99.1737462603499,100.03327459935583\n"
    "0.25,-0.5,0.0006734024070974528,0.8606043072897341,223.14092908578738,224.0022067954842\n"
    "0.25,-0.25,0.0011472010633240765,0.8614811572362031,148.76061939052482,149.62324774882435\n"
    "0.25,0.0,0.0018274307292322663,0.8642671450191273,123.9671828254374,124.83327740118577\n"
    "0.25,0.25,0.0026334199083221013,0.8687667540785443,148.76061939052482,149.6320195645117\n"
    "0.25,0.5,0.0035025433201029445,0.8748017593755902,223.14092908578723,224.01923338848292\n"
    "0.5,-0.5,0.0038776452372618433,0.8793830852218314,595.0424775620993,595.9257382925584\n"
    "0.5,-0.25,0.004932462622719663,0.8837660765195233,520.6621678668371,521.5508664059794\n"
    "0.5,0.0,0.006027266825537703,0.8896312996806307,495.8687313017496,496.76438986825576\n"
    "0.5,0.25,0.007116634246682145,0.896818347186227,520.662167866837,521.5661028482699\n"
    "0.5,0.5,0.00816783310498856,0.9051825081622893,595.0424775620993,595.9558279033665\n"
)

# `nce --seed 0 --seeds 2` with default flags, recorded while a batch held its
# negatives as a tuple of vectors; later versions must stay within rtol 1e-12.
# sha256 of `landscape` CSVs in the shapes the benchmark writes.  First
# recorded from the row-at-a-time grid and CSV writer, which the blocked ones
# matched byte for byte; re-recorded, with the grid code unchanged, when the
# planted ridge moved to the kernel-norm bound R.
# An "instance" entry is `gen --n --d --ridge-l 1.0 --seed`, then
# `landscape --instance --resolution`; the others generate their instances.
PINNED_LANDSCAPE_SHA256 = [
    ("instance", (20, 5, 0, 101),
     "61d28a538aef81af36aa8c312a76aded8187686bcb05531d40144c15526e0aef"),
    ("instance", (20, 5, 1, 21),
     "c3b119e25576a96b96173e1d08269780623e5536cffb2eabe23d7d650ba6f0b3"),
    ("instance", (1000, 20, 2, 21),
     "7bbc98cb6a77d46965dbaa38c329c956d62536a67215149a37d4570ff48f2512"),
    ("instance", (8, 3, 0, 5),
     "fc9542500a3024a7481134e7d559ba6a1a024114f8d6822971d4dab89174ae1c"),
    ("--n 20 --d 5 --ridge-l 1.0 --seed 3 --avg-seeds 5 --resolution 41", None,
     "b8ddf51824ec0456233843e03c06a26abdfe0500e18db20ad1d2b40f2d33347b"),
    ("--n 20 --d 5 --ridge-l 1.0 --seed 4 --avg-seeds 2 --resolution 21", None,
     "3c9c98f694a55f3975505c3cb265fdb5c0a34e9f6b93a949cebd8b22bfc0dfb2"),
    ("--n 8 --d 3 --ridge-l 1.0 --seed 0 --avg-seeds 2 --resolution 5", None,
     "9c211d72d4ee4cb2b894777b62b041f5ce777089b87ad605fab757375f3f1152"),
    ("--n 8 --d 3 --seed 3 --half-width 0.5 --resolution 5", None,
     "aa31b7644193c75506e1c47bc6b7850020ceaf1cb580288147e04902048f371c"),
]

PINNED_NCE_CSV = (
    "0,1.4296561486240167,-11.146645297681253\n"
    "1,1.3437410812324664,-9.890208223590589\n"
)
PINNED_NCE_SUMMARY = {
    "margin": 11.905125375564165,
    "mean_correlated": 1.3866986149282416,
    "mean_shuffled": -10.518426760635922,
    "seeds": 2,
}


@pytest.mark.parametrize(
    "argv, name",
    [
        (["gen", "--ridge-l", "nan"], "ridge_l"),
        (["solve", "--epsilon", "nan"], "epsilon"),
        (["solve", "--x0-offset", "nan"], "offset"),
    ],
)
def test_non_finite_flag_is_domain_error(capsys, argv, name):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: DomainError: {name} must be finite")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, named",
    [
        (["landscape", "--instance", "{tmp}/inst.json", "--avg-seeds", "2"], "--avg-seeds"),
        (["verify", "--checks", "gradients,bogus"], "'bogus'"),
        (["solve", "--x0", "a,b"], "--x0"),
        (["landscape", "--center", "a,b"], "--center"),
        # an empty field is an error, not a dropped one that shifts every later coordinate
        (["solve", "--n", "10", "--d", "2", "--x0", "1,,2"], "--x0"),
        (["solve", "--n", "10", "--d", "2", "--x0", "1,2,"], "--x0"),
        (["landscape", "--n", "10", "--d", "2", "--center", ",0.5,,0.1"], "--center"),
        (["landscape", "--n", "20", "--d", "5", "--half-width", "1e308"], "half_width"),
        (["gen", "--seed", "-1"], "seed must be >= 0"),
        (["solve", "--instance", "{tmp}/inst.json", "--seed", "-1"], "seed must be >= 0"),
        (["landscape", "--seed", "-1"], "seed must be >= 0"),
        (["verify", "--seed", "-1"], "seed must be >= 0"),
        (["nce", "--seed", "-1"], "seed must be >= 0"),
    ],
    ids=["avg-seeds-with-instance", "unknown-check", "x0", "center",
         "x0-empty-field", "x0-trailing-comma", "center-empty-field", "half-width-span",
         "gen-seed", "solve-seed", "landscape-seed", "verify-seed", "nce-seed"],
)
def test_bad_input_is_domain_error(tmp_path, capsys, monkeypatch, argv, named):
    def ran(seed):
        raise AssertionError("a check ran before every name was checked")

    for name in suite.CHECK_NAMES:
        monkeypatch.setitem(suite._CHECKS, name, ran)
    run(["gen", "--n", 8, "--d", 2, "--out", tmp_path / "inst.json"])
    assert run([a.format(tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: DomainError: ")
    assert named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
        (["solve", "--bogus"], "unrecognized arguments: --bogus"),
    ],
    ids=["malformed-value", "unknown-flag"],
)
def test_usage_error_exits_one(capsys, argv, message):
    # exit 2 means a solve stopped at its iteration cap, so a usage error is 1
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: softmaxopt")
    assert captured.err.endswith(f"error: {message}\n")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, line",
    [
        (["solve", "--seed", "1", "--x0={far}"], "error: NonFiniteIterate: iterate 0 has loss inf"),
        (["gen", "--n", "20000", "--d", "20", "--norm-cap-r", "0.001"],
         "error: DomainError: norm_cap_r must be >= 1/sqrt(n)"),
        (["landscape", "--n", "20", "--d", "5", "--half-width", "1e300"],
         "error: OverflowError: loss terms overflow float64"),
    ],
    ids=["far-iterate", "norm-cap-below-one-over-sqrt-n", "landscape-overflow"],
)
def test_typed_failure_exits_one(capsys, argv, line):
    # far: 1e307 x_star / ||x_star|| on planted seed 1, whose loss overflows
    _, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=1))
    far = ",".join(repr(float(v)) for v in 1e307 * x_star / np.linalg.norm(x_star))
    assert run([a.format(far=far) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(line)
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "20000", "--d", "20"],
        ["solve", "--n", "3000", "--d", "20", "--mode", "sampled"],
        ["landscape", "--n", "20", "--d", "5", "--resolution", "301"],
        ["nce", "--seeds", "1", "--pool-size", "2000", "--k", "64", "--epochs", "1"],
    ],
    ids=["gen-20000", "sampled-3000", "landscape-301", "nce-pool-2000"],
)
def test_large_run_exits_zero(tmp_path, argv):
    # with no RuntimeWarning: the tall gen sizes its ridge and sampled mode
    # steps without an n-by-n kernel, the grid goes one row of cells a block,
    # and pool 2000 draws its negatives in several blocks of anchors
    assert run([*argv, "--out", tmp_path / "out"]) == 0


def test_help_exits_zero(capsys):
    assert run(["solve", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: softmaxopt solve")


class TestLandscape:
    def test_pinned_values(self, capsys):
        argv = ["landscape", "--n", 8, "--d", 3, "--seed", 3, "--half-width", 0.5,
                "--resolution", 5]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("u,v,l_exp,l_cent,l_reg,total\n")
        got = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
        want = np.loadtxt(io.StringIO(PINNED_LANDSCAPE_CSV), delimiter=",")
        assert got.shape == want.shape == (25, 6)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("args, shape, sha", PINNED_LANDSCAPE_SHA256)
    def test_pinned_bytes(self, tmp_path, args, shape, sha):
        grid_path = tmp_path / "grid.csv"
        if args == "instance":
            n, d, seed, resolution = shape
            inst_path = tmp_path / "inst.json"
            run(["gen", "--n", n, "--d", d, "--ridge-l", 1.0, "--seed", seed, "--out", inst_path])
            argv = ["--instance", inst_path, "--resolution", resolution]
        else:
            argv = args.split()
        assert run(["landscape", *argv, "--out", grid_path]) == 0
        assert hashlib.sha256(grid_path.read_bytes()).hexdigest() == sha

    def test_csv_matches_direct_evaluation(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        run(["gen", "--n", 10, "--d", 3, "--ridge-l", 0.5, "--seed", 8, "--out", inst_path])
        grid_path = tmp_path / "grid.csv"
        code = run(
            ["landscape", "--instance", inst_path, "--half-width", 0.5,
             "--resolution", 3, "--out", grid_path]
        )
        assert code == 0
        lines = grid_path.read_text().strip().split("\n")
        assert lines[0] == "u,v,l_exp,l_cent,l_reg,total"
        assert len(lines) == 10
        inst = so.ProblemInstance.load(inst_path)
        grid = so.landscape_grid(inst, half_width=0.5, resolution=3)
        assert lines[1:] == csv_text(grid).strip().split("\n")[1:]

    def test_stdout_streams_row_blocks(self, capsys, monkeypatch):
        argv = ["landscape", "--n", 20, "--d", 5, "--resolution", 201]
        assert run(argv) == 0
        text = capsys.readouterr().out

        class Discard(io.TextIOBase):
            def write(self, s):
                return len(s)

        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            assert run(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the grid's values take 201^2 x 3 x 8 bytes (1 MB); the CSV text is over four times that
        assert peak < len(text) / 2, peak

    def test_rejects_bad_resolution(self, tmp_path):
        assert run(["landscape", "--n", 8, "--d", 2, "--resolution", 1]) == 1

    def test_avg_seeds_averages_generated_surfaces(self, tmp_path):
        avg_path = tmp_path / "avg.csv"
        code = run(
            ["landscape", "--n", 10, "--d", 3, "--ridge-l", 0.5, "--seed", 2,
             "--half-width", 0.3, "--resolution", 3, "--avg-seeds", 2,
             "--out", avg_path]
        )
        assert code == 0
        grids = [
            so.landscape_grid(
                so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=0.5, seed=s))[0],
                half_width=0.3, resolution=3,
            )
            for s in (2, 3)
        ]
        avg = so.average_grids(grids)
        assert avg_path.read_text() == csv_text(avg)

    def test_avg_seeds_conflicts_with_instance_file(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        run(["gen", "--n", 8, "--d", 2, "--seed", 1, "--out", inst_path])
        assert run(["landscape", "--instance", inst_path, "--avg-seeds", 2]) == 1

    @pytest.mark.parametrize("count", [0, -4])
    def test_avg_seeds_below_one_is_error(self, tmp_path, capsys, count):
        inst_path = tmp_path / "inst.json"
        run(["gen", "--n", 8, "--d", 2, "--seed", 1, "--out", inst_path])
        assert run(["landscape", "--n", 8, "--d", 2, "--avg-seeds", count]) == 1
        assert run(["landscape", "--instance", inst_path, "--avg-seeds", count]) == 1
        assert capsys.readouterr().out == ""


class TestVerify:
    def test_default_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run(["verify", "--seed", 0, "--out", report]) == 0
        printed = capsys.readouterr().out
        assert printed.count("PASS") == 6
        data = json.loads(report.read_text())
        assert data["all_passed"] is True
        assert data["num_checks"] == 6

    def test_empty_selection(self, capsys):
        assert run(["verify", "--seed", 0, "--checks", "none"]) == 0
        assert "0 checks" in capsys.readouterr().out

    def test_subset_selection(self, capsys):
        assert run(["verify", "--seed", 0, "--checks", "gradients,sandwich"]) == 0
        out = capsys.readouterr().out
        assert "gradients" in out and "sandwich" in out and "psd" not in out

    def test_fault_injection_fails(self, capsys, monkeypatch):
        exact = suite.grad_exp
        monkeypatch.setattr(suite, "grad_exp", lambda state, inst: exact(state, inst) + 1e-3)
        assert run(["verify", "--seed", 0, "--checks", "gradients"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_check_is_error(self, capsys):
        assert run(["verify", "--checks", "nonsense"]) == 1

    def test_pinned_report_figures(self, tmp_path):
        report = tmp_path / "report.json"
        assert run(["verify", "--seed", 0, "--out", report]) == 0
        checks = {c["name"]: c["detail"] for c in json.loads(report.read_text())["checks"]}
        assert checks["gradients"]["max_rel_err"] == PINNED_VERIFY["max_rel_err"]
        for key in ("max_rel_err_fd", "max_rel_err_entry_formula"):
            assert checks["hessians"][key] == PINNED_VERIFY[key]
        eigmins = [r["eigmin"] for r in checks["psd"]["reports"]]
        assert eigmins == PINNED_VERIFY["psd_eigmins"]
        assert checks["lipschitz"]["max_spread"] == PINNED_VERIFY["max_spread"]

    @pytest.mark.parametrize("seed", range(5))
    def test_entry_formula_figure_from_the_oracle_lemma(self, seed, tmp_path):
        # the figure bit for bit from bsum <df/dx_r, A_c>, entry by entry
        report = tmp_path / "report.json"
        assert run(["verify", "--seed", seed, "--checks", "hessians", "--out", report]) == 0
        worst = 0.0
        for i in range(suite.HESSIAN_INSTANCES):
            inst, x = suite.random_instance([seed, i], n_max=30, d_max=6)
            state = so.make_state(inst, x)
            bsum = float(inst.b.sum())
            cols = range(inst.d)
            entry = [[bsum * grad_f_inner(state, inst, r, c) for c in cols] for r in cols]
            worst = max(worst, so.rel_err(so.hessian_cent(state, inst), entry))
        (check,) = json.loads(report.read_text())["checks"]
        assert check["detail"]["max_rel_err_entry_formula"] == worst

    def test_overflow_in_a_stack_of_seeds_is_non_finite_input(self, tmp_path, capsys):
        summary = tmp_path / "s.json"
        assert run(["nce", "--seeds", 3, "--learning-rate", 1e308, "--summary", summary]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: NonFiniteInput: .*learning_rate.*\n", captured.err)
        assert captured.out == "" and not summary.exists()

    def test_seeds_in_one_run_equal_a_run_per_seed(self, tmp_path):
        # the rows of five one-seed runs, and the summary the per-seed loop
        # wrote from them: their means by np.mean, with sorted keys
        rows = []
        for seed in range(3, 8):
            path = tmp_path / f"seed_{seed}.csv"
            assert run(["nce", "--seed", seed, "--seeds", 1, "--out", path,
                        "--summary", tmp_path / f"seed_{seed}.json"]) == 0
            head, row = path.read_text().splitlines(keepends=True)
            rows.append(row)
        assert run(["nce", "--seed", 3, "--seeds", 5, "--out", tmp_path / "all.csv",
                    "--summary", tmp_path / "all.json"]) == 0
        assert (tmp_path / "all.csv").read_text() == head + "".join(rows)
        fields = [[float(v) for v in row.split(",")[1:]] for row in rows]
        corr = float(np.mean([c for c, _ in fields]))
        shuf = float(np.mean([u for _, u in fields]))
        summary = {"seeds": 5, "mean_correlated": corr, "mean_shuffled": shuf, "margin": corr - shuf}
        assert (tmp_path / "all.json").read_text() == json.dumps(summary, sort_keys=True) + "\n"

    def test_byte_reproducible(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            report = tmp_path / f"report_{tag}.json"
            assert run(["verify", "--seed", 11, "--out", report]) == 0
            blobs.append(report.read_bytes())
        assert blobs[0] == blobs[1]


def test_non_number_in_instance_json_is_domain_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(["gen", "--n", 4, "--d", 2, "--out", path])
    data = json.loads(path.read_text())
    data["b"][1] = "x"
    path.write_text(json.dumps(data))
    assert run(["solve", "--instance", path]) == 1
    assert capsys.readouterr().err.startswith("error: DomainError: b must be a list of numbers")


def test_missing_field_in_instance_json_is_domain_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(["gen", "--n", 4, "--d", 2, "--out", path])
    data = json.loads(path.read_text())
    del data["b"]
    path.write_text(json.dumps(data))
    assert run(["solve", "--instance", path]) == 1
    assert capsys.readouterr().err.startswith("error: DomainError: b is missing")


def test_quoted_number_in_instance_json_is_domain_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(["gen", "--n", 4, "--d", 2, "--out", path])
    data = json.loads(path.read_text())
    data["A"][0] = str(data["A"][0])
    path.write_text(json.dumps(data))
    assert run(["landscape", "--instance", path]) == 1
    assert capsys.readouterr().err.startswith("error: DomainError: A must be a list of numbers")


def test_non_object_instance_json_is_domain_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text("[1, 2]")
    assert run(["solve", "--instance", path]) == 1
    assert capsys.readouterr().err.startswith(
        "error: DomainError: the instance JSON must be an object"
    )


@pytest.mark.parametrize("content", [b'{"n": 20, "d": 5, "A": [0.1,', b"\xff\xfe{}"],
                         ids=["truncated", "not-utf8"])
def test_malformed_instance_file_is_domain_error(tmp_path, capsys, content):
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    assert run(["solve", "--instance", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: DomainError: {path} is not a UTF-8 JSON file")


def test_nan_literal_instance_is_domain_error(tmp_path, capsys):
    # gen's file with its first A entry replaced by a NaN literal, which is not JSON
    path = tmp_path / "inst.json"
    assert run(["gen", "--seed", 0, "--out", path]) == 0
    text = path.read_text()
    assert text.startswith('{"A": [')
    path.write_text(re.sub(r"^\{\"A\": \[[^,]+", '{"A": [NaN', text))
    assert run(["solve", "--instance", path]) == 1
    assert capsys.readouterr().err.startswith(f"error: DomainError: {path} is not a UTF-8 JSON file")


class TestNceCommand:
    def test_pinned_values(self, tmp_path):
        csv_path = tmp_path / "bounds.csv"
        summary_path = tmp_path / "summary.json"
        code = run(
            ["nce", "--seed", 0, "--seeds", 2, "--out", csv_path, "--summary", summary_path]
        )
        assert code == 0
        text = csv_path.read_text()
        assert text.startswith("seed,bound_correlated,bound_shuffled\n")
        got = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        want = np.loadtxt(io.StringIO(PINNED_NCE_CSV), delimiter=",")
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        summary = json.loads(summary_path.read_text())
        assert set(summary) == set(PINNED_NCE_SUMMARY)
        assert summary["seeds"] == PINNED_NCE_SUMMARY["seeds"]
        for key in ("margin", "mean_correlated", "mean_shuffled"):
            assert summary[key] == pytest.approx(PINNED_NCE_SUMMARY[key], rel=1e-12, abs=0.0)

    def test_csv_and_summary(self, tmp_path):
        csv_path = tmp_path / "bounds.csv"
        summary_path = tmp_path / "summary.json"
        code = run(
            ["nce", "--seeds", 2, "--seed", 0, "--pool-size", 32, "--epochs", 4,
             "--out", csv_path, "--summary", summary_path]
        )
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "seed,bound_correlated,bound_shuffled"
        assert len(lines) == 3
        summary = json.loads(summary_path.read_text())
        assert summary["seeds"] == 2
        assert summary["margin"] == pytest.approx(
            summary["mean_correlated"] - summary["mean_shuffled"]
        )

    def test_single_candidate_bounds_are_zero(self, tmp_path):
        csv_path = tmp_path / "bounds.csv"
        code = run(
            ["nce", "--seeds", 1, "--k", 1, "--pool-size", 8, "--epochs", 2,
             "--out", csv_path, "--summary", tmp_path / "s.json"]
        )
        assert code == 0
        row = csv_path.read_text().strip().split("\n")[1].split(",")
        assert float(row[1]) == 0.0 and float(row[2]) == 0.0

    def test_overflowing_learning_rate_is_non_finite_input(self, capsys):
        assert run(["nce", "--seeds", 1, "--learning-rate", 1e308]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: NonFiniteInput: ")
        assert "learning_rate" in captured.err
        assert captured.out == ""

    def test_byte_reproducible(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"bounds_{tag}.csv"
            run(
                ["nce", "--seeds", 2, "--seed", 3, "--pool-size", 24, "--epochs", 3,
                 "--out", csv_path, "--summary", tmp_path / f"s_{tag}.json"]
            )
            blobs.append(csv_path.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--learning-rate", "nan"),
            ("--learning-rate", "inf"),
            ("--learning-rate", "0"),
            ("--learning-rate", "-0.2"),
            ("--epochs", "-1"),
            ("--dim-anchor", "0"),
            ("--dim-partner", "0"),
        ],
    )
    def test_bad_parameter_is_named_error(self, tmp_path, capsys, flag, value):
        summary = tmp_path / "s.json"
        assert run(["nce", "--seeds", 1, flag, value, "--summary", summary]) == 1
        err = capsys.readouterr().err
        assert "DomainError" in err and flag[2:].replace("-", "_") in err
        assert not summary.exists()

    def test_zero_seeds_is_error(self, tmp_path, capsys):
        summary = tmp_path / "s.json"
        assert run(["nce", "--seeds", 0, "--summary", summary]) == 1
        assert "DomainError" in capsys.readouterr().err
        assert not summary.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--n", 6, "--d", 2, "--seed", 1], "--out"),
        (["nce", "--seeds", 2, "--pool-size", 24, "--epochs", 3, "--summary", "{tmp}/s.json"],
         "--out"),
        (["landscape", "--n", 8, "--d", 3, "--seed", 3, "--resolution", 5], "--out"),
        (["solve", "--n", 12, "--d", 3, "--seed", 2], "--summary"),
    ],
    ids=["gen", "nce", "landscape", "solve-summary"],
)
def test_stdout_bytes_equal_file_bytes(tmp_path, capsys, argv, flag):
    argv = [str(a).format(tmp=tmp_path) for a in argv]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "artifact"
    assert run(argv + [flag, path]) == 0
    assert capsys.readouterr().out == ""
    assert printed.encode("utf-8") == path.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["verify", "--seed", 0], ["verify", "--seed", 1], ["nce", "--seed", 0, "--seeds", 2]],
    ids=["verify-0", "verify-1", "nce-0"],
)
def test_rerun_writes_the_same_bytes(tmp_path, capsys, argv):
    # the file, stdout and stderr of a second run, RuntimeWarnings being errors here
    runs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.out"
        assert run(argv + ["--out", path]) == 0
        runs.append((path.read_bytes(), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][1].err == ""


# Options whose default belongs to the library: SolverConfig, GeneratorSpec,
# landscape_grid and the NCE experiment's nce._bounds.
LIBRARY_DEFAULTED = (
    "epsilon", "delta", "sample_epsilon", "max_iters", "mode",
    "conditioning", "norm_cap_r",
    "half_width", "resolution",
    "k", "dim_anchor", "dim_partner", "pool_size", "epochs", "learning_rate",
)


class TestLibraryDefaults:
    """An option that is not given reaches no callee; a given one reaches it unchanged."""

    class Captured(Exception):
        pass

    @pytest.fixture
    def captured(self, monkeypatch):
        calls = {}

        def capture(name):
            def stub(*args, **kwargs):
                calls[name] = (args, kwargs)
                raise self.Captured

            return stub

        for name in ("solve", "generate_planted", "landscape_grid", "_bounds"):
            monkeypatch.setattr(cli, name, capture(name))
        return calls

    @pytest.fixture
    def inst_path(self, tmp_path):
        path = tmp_path / "inst.json"
        so.generate_planted(so.GeneratorSpec(n=8, d=2, ridge_l=1.0, seed=0))[0].save(path)
        return path

    @pytest.mark.parametrize("command", ["gen", "solve", "landscape", "nce"])
    def test_ungiven_options_stay_out_of_the_namespace(self, command):
        held = vars(build_parser().parse_args([command]))
        assert [name for name in LIBRARY_DEFAULTED if name in held] == []

    @pytest.mark.parametrize(
        "argv, changes",
        [
            ([], {}),
            (["--delta", "0.07", "--mode", "sampled"], {"delta": 0.07, "mode": "sampled"}),
            (["--epsilon", "1e-8", "--sample-epsilon", "0.05", "--max-iters", "7", "--seed", "3"],
             {"epsilon": 1e-8, "sample_epsilon": 0.05, "max_iters": 7, "seed": 3}),
        ],
        ids=["none", "delta-mode", "others"],
    )
    def test_solver_config(self, inst_path, captured, argv, changes):
        assert run(["solve", "--instance", inst_path, *argv]) == 1
        (_, _, cfg), _ = captured["solve"]
        assert cfg == dataclasses.replace(so.SolverConfig(), **changes)

    @pytest.mark.parametrize("command", ["gen", "solve", "landscape"])
    @pytest.mark.parametrize(
        "argv, changes",
        [
            ([], {}),
            (["--conditioning", "3", "--norm-cap-r", "2"], {"conditioning": 3.0, "norm_cap_r": 2.0}),
            (["--n", "9", "--d", "4", "--ridge-l", "0.5", "--seed", "6"],
             {"n": 9, "d": 4, "ridge_l": 0.5, "seed": 6}),
        ],
        ids=["none", "library", "cli"],
    )
    def test_generator_spec(self, captured, command, argv, changes):
        assert run([command, *argv]) == 1
        (spec,), _ = captured["generate_planted"]
        cli_defaults = {"n": 20, "d": 5, "ridge_l": 1.0, "seed": 0}
        assert spec == so.GeneratorSpec(**{**cli_defaults, **changes})

    @pytest.mark.parametrize(
        "argv, changes",
        [
            ([], {}),
            (["--half-width", "0.3", "--resolution", "11"], {"half_width": 0.3, "resolution": 11}),
        ],
        ids=["none", "given"],
    )
    def test_landscape_grid(self, inst_path, captured, argv, changes):
        assert run(["landscape", "--instance", inst_path, *argv]) == 1
        (_,), kwargs = captured["landscape_grid"]
        assert kwargs == {"center": None, **changes}

    @pytest.mark.parametrize(
        "argv, changes",
        [
            ([], {}),
            (["--k", "3", "--dim-anchor", "3", "--dim-partner", "4", "--pool-size", "20",
              "--epochs", "2", "--learning-rate", "0.1"],
             {"k": 3, "dim_anchor": 3, "dim_partner": 4, "pool_size": 20, "epochs": 2,
              "learning_rate": 0.1}),
        ],
        ids=["none", "given"],
    )
    def test_paired_vs_shuffled_bounds(self, captured, argv, changes):
        # every seed reaches the experiment in one call
        assert run(["nce", "--seed", "5", *argv]) == 1
        assert captured["_bounds"] == ((range(5, 25),), changes)


class TestParserPerProcess:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_do_not_leak_options(self, tmp_path):
        def plain_solve(tag):
            trace, summary = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
            assert run(["solve", "--out", trace, "--summary", summary]) == 0
            return trace.read_bytes(), summary.read_bytes()

        first = plain_solve("first")
        assert run(
            ["solve", "--x0-offset", 2, "--mode", "sampled",
             "--out", tmp_path / "other.csv", "--summary", tmp_path / "other.json"]
        ) == 0
        assert plain_solve("second") == first
        fresh = build_parser.__wrapped__().parse_args(["solve"])
        assert vars(build_parser().parse_args(["solve"])) == vars(fresh)


def run_child(script: str, *args, **env) -> str:
    """The standard output of a fresh interpreter that runs ``script`` on this source tree."""
    src = str(Path(so.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, **env), timeout=120, check=True,
    )
    return done.stdout


def test_desk_commands_load_no_scipy(tmp_path):
    # a fresh interpreter, so that modules the test session imported do not count
    script = """
import sys
import softmaxopt.cli
from softmaxopt.cli import main
out = sys.argv[1]
runs = [
    ["gen", "--out", f"{out}/inst.json"],
    ["solve", "--out", f"{out}/exact.csv", "--summary", f"{out}/exact.json"],
    ["solve", "--mode", "sampled", "--out", f"{out}/sampled.csv",
     "--summary", f"{out}/sampled.json"],
    ["landscape", "--n", "20", "--d", "5", "--out", f"{out}/grid.csv"],
    ["nce", "--seeds", "1", "--out", f"{out}/nce.csv", "--summary", f"{out}/nce.json"],
    ["verify", "--seed", "0", "--out", f"{out}/verify.json"],
    ["gen", "--n", "400", "--d", "20", "--ridge-l", "1", "--out", f"{out}/tall.json"],
]
codes = [main(argv) for argv in runs]
print(codes, sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    assert run_child(script, tmp_path).splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0] []"


def test_only_array_io_imports_orjson(tmp_path):
    # a fresh interpreter: the float formatter and the instance reader import
    # orjson on first use, so a command that writes no float array and reads
    # no instance never loads it
    script = """
import sys
from softmaxopt.cli import main
out = sys.argv[1]
seen = []
for argv in (["solve", "--out", f"{out}/a.csv", "--summary", f"{out}/a.json"],
             ["nce", "--seeds", "1", "--epochs", "0", "--out", f"{out}/nce.csv",
              "--summary", f"{out}/nce.json"],
             ["gen", "--out", f"{out}/inst.json"]):
    seen.append((main(argv), "orjson" in sys.modules))
print(seen)
"""
    assert run_child(script, tmp_path).splitlines()[-1] == "[(0, False), (0, False), (0, True)]"


def test_fixed_blas_thread_count_reproduces_every_byte(tmp_path):
    # two fresh children per OPENBLAS_NUM_THREADS, set on the child only;
    # bytes are compared within a count, as the gemms may round apart across counts
    script = """
import sys
from softmaxopt.cli import main
out, size = sys.argv[1], ["--n", "2000", "--d", "40", "--seed", "3"]
runs = [
    ["gen", *size, "--out", f"{out}/gen.json"],
    ["solve", *size, "--out", f"{out}/exact.csv", "--summary", f"{out}/exact.json"],
    ["solve", *size, "--mode", "sampled", "--out", f"{out}/sampled.csv",
     "--summary", f"{out}/sampled.json"],
    ["verify", "--seed", "3", "--out", f"{out}/verify.json"],
    # at d = 2 the draw keeps about a third of the 20000 rows
    ["solve", "--n", "20000", "--d", "2", "--mode", "sampled", "--out", f"{out}/drop.csv",
     "--summary", f"{out}/drop.json"],
]
print([main(argv) for argv in runs])
"""
    for threads in ("1", "2"):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{threads}{tag}"
            out.mkdir()
            printed = run_child(script, out, OPENBLAS_NUM_THREADS=threads)
            runs.append((printed, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[0][0].endswith("[0, 0, 0, 0, 0]\n") and len(runs[0][1]) == 8
        assert runs[0] == runs[1]
