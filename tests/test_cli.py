"""Command-line behavior: exit codes, file outputs, reproducibility."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import softmaxopt as so
from softmaxopt import suite
from softmaxopt.cli import build_parser, main


def run(args):
    return main([str(a) for a in args])


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
    "w_sum": 100.9709916068868,
}

# Figures of the `verify --seed 0 --out` report, pinned exactly: the report is
# byte-reproducible, and the finite-difference oracles must keep every bit of
# the values they compare.
PINNED_VERIFY = {
    "max_rel_err": 6.414041520130809e-10,
    "max_rel_err_fd": 3.1014835871062685e-07,
    "max_rel_err_entry_formula": 2.220446049250313e-16,
    "psd_eigmins": [12.340468029496199, 12.338944796812081, 12.333634454209843,
                    8.353978441192114, 8.354961147717903, 8.352443262502458,
                    20.21171580315886, 20.212052430637957, 20.20924551126788],
    "max_spread": 1.003707821388007,
}

# `landscape --n 8 --d 3 --seed 3 --half-width 0.5 --resolution 5`, recorded
# while cross entropy took the log of the normalised f; the log-space
# evaluation must stay within rtol 1e-12 of it.
PINNED_LANDSCAPE_CSV = (
    "-0.5,-0.5,0.020590473108815087,0.9306089782708828,88.1231405944882,89.0743400458679\n"
    "-0.5,-0.25,0.015750514145018917,0.9146968121951571,77.10774802017717,78.03819534651734\n"
    "-0.5,0.0,0.01206075721766218,0.9025340583283412,73.43595049540684,74.35054531095285\n"
    "-0.5,0.25,0.009340183757888525,0.8938479046929916,77.10774802017721,78.01093610862809\n"
    "-0.5,0.5,0.00741927755310417,0.8883777133508884,88.12314059448826,89.01893758539225\n"
    "-0.25,-0.5,0.006655361949051664,0.8810401641425655,33.04617772293308,33.9338732490247\n"
    "-0.25,-0.25,0.004233175407112118,0.8719363153724737,22.030785148622062,22.906954639401647\n"
    "-0.25,0.0,0.0025995419439559997,0.8658740790250112,18.358987623851732,19.2274612448207\n"
    "-0.25,0.25,0.0015918702103269948,0.8625943274110627,22.030785148622073,22.894971346243462\n"
    "-0.25,0.5,0.0010685113045603937,0.8618540271405074,33.04617772293312,33.90910026137819\n"
    "0.0,-0.5,0.0008315738855863632,0.8595866062155215,14.687190099081379,15.547608279182487\n"
    "0.0,-0.25,0.00018642998493617776,0.8560234829549945,3.671797524770341,4.528007437710272\n"
    "0.0,0.0,0.0,0.8548879099774479,0.0,0.8548879099774479\n"
    "0.0,0.25,0.0001491434924006016,0.8559495456321969,3.671797524770341,4.527896213894938\n"
    "0.0,0.5,0.00053263841277612,0.8589957005931568,14.687190099081379,15.546718438087312\n"
    "0.25,-0.5,0.000673402407097453,0.8606043072897342,33.046177722933095,33.907455432629924\n"
    "0.25,-0.25,0.001147201063324076,0.8614811572362031,22.030785148622016,22.893413506921544\n"
    "0.25,0.0,0.0018274307292322663,0.864267145019127,18.358987623851696,19.225082199600056\n"
    "0.25,0.25,0.0026334199083221095,0.8687667540785443,22.030785148622073,22.90218532260894\n"
    "0.25,0.5,0.003502543320102945,0.8748017593755902,33.04617772293305,33.92448202562875\n"
    "0.5,-0.5,0.0038776452372618424,0.8793830852218314,88.12314059448829,89.00640132494739\n"
    "0.5,-0.25,0.004932462622719664,0.8837660765195234,77.10774802017721,77.99644655931945\n"
    "0.5,0.0,0.006027266825537703,0.8896312996806308,73.43595049540689,74.33160906191306\n"
    "0.5,0.25,0.007116634246682168,0.8968183471862269,77.10774802017728,78.0116830016102\n"
    "0.5,0.5,0.00816783310498856,0.9051825081622894,88.12314059448826,89.03649093575554\n"
)

# `nce --seed 0 --seeds 2` with default flags, recorded while a batch held its
# negatives as a tuple of vectors; later versions must stay within rtol 1e-12.
# sha256 of `landscape` CSVs in the shapes the benchmark writes, recorded from
# the row-at-a-time grid and CSV writer: the blocked ones keep every byte.
# An "instance" entry is `gen --n --d --ridge-l 1.0 --seed`, then
# `landscape --instance --resolution`; the others generate their instances.
PINNED_LANDSCAPE_SHA256 = [
    ("instance", (20, 5, 0, 101),
     "c06849eff3b1b1efb64f62f1cf597fb514bcbc0df8a26c5145b8f151385ac9b0"),
    ("instance", (20, 5, 1, 21),
     "224b0575485315b904491425dc9b9f69bc1c3603cf48d76f35f3a75a29b4a768"),
    ("instance", (1000, 20, 2, 21),
     "7318744dcbcf1767fb3f21ef93ac1407221e5d1f0402d2c888b206a6c954647b"),
    ("instance", (8, 3, 0, 5),
     "36ea8c9fb23dfc332c6adbe8133a639ec6f33faf45885f18fac346920452b77e"),
    ("--n 20 --d 5 --ridge-l 1.0 --seed 3 --avg-seeds 5 --resolution 41", None,
     "d0aba665e12ebfe39b09dc1b708957f6b2344be29226bf0e3c48e24f1350e156"),
    ("--n 20 --d 5 --ridge-l 1.0 --seed 4 --avg-seeds 2 --resolution 21", None,
     "745cd1a0a8afc79f0e7553a8919ff82aa9d383c3e1be40be407339ff8e22a6e1"),
    ("--n 8 --d 3 --ridge-l 1.0 --seed 0 --avg-seeds 2 --resolution 5", None,
     "cdcdfaaf3128baa2a202f3b6ac66b68914e04cd9a6cd6cb90cf2ea381a03d83e"),
    ("--n 8 --d 3 --seed 3 --half-width 0.5 --resolution 5", None,
     "44277a8ab142eadb5f0ed3a93c829e0cdc0e4deafb2e419b273b0fef7e6b7123"),
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
        (["landscape", "--n", "20", "--d", "5", "--half-width", "1e308"], "half_width"),
    ],
    ids=["avg-seeds-with-instance", "unknown-check", "x0", "center", "half-width-span"],
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
        assert lines[1:] == grid.to_csv().strip().split("\n")[1:]

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
        assert avg_path.read_text() == avg.to_csv()

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
    src = str(Path(so.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0] []"
