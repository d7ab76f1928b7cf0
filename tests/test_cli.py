"""Command-line behavior: exit codes, file outputs, reproducibility."""

import json

import numpy as np
import pytest

import softmaxopt as so
from softmaxopt.cli import main


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
        # planted seed 1 from 400 x_star underflows f in the cross-entropy term
        _, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=1))
        x0 = ",".join(repr(float(v)) for v in 400.0 * x_star)
        assert run(["solve", "--seed", 1, f"--x0={x0}"]) == 1
        err = capsys.readouterr().err
        assert "error: DomainError: loss_cent needs strictly positive f" in err

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


class TestLandscape:
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

    def test_fault_injection_fails(self, capsys):
        assert run(["verify", "--seed", 0, "--checks", "gradients", "--fault-inject"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_check_is_error(self, capsys):
        assert run(["verify", "--checks", "nonsense"]) == 1

    def test_byte_reproducible(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            report = tmp_path / f"report_{tag}.json"
            assert run(["verify", "--seed", 11, "--out", report]) == 0
            blobs.append(report.read_bytes())
        assert blobs[0] == blobs[1]


class TestNceCommand:
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
