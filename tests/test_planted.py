"""Planted-instance generator and landscape grids."""

import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

import softmaxopt as so
from softmaxopt.exceptions import (
    DimensionMismatch,
    DomainError,
    GenerationFailure,
    NonFiniteInput,
)


class TestGeneratorSpec:
    def test_requires_n_at_least_d(self):
        with pytest.raises(DomainError):
            so.GeneratorSpec(n=3, d=5)

    def test_conditioning_at_least_one(self):
        with pytest.raises(DomainError):
            so.GeneratorSpec(n=5, d=2, conditioning=0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["n", "d", "conditioning", "norm_cap_r", "ridge_l", "seed"])
    def test_non_finite_field_is_domain_error(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            so.GeneratorSpec(**{"n": 5, "d": 2, name: value})

    @pytest.mark.parametrize("value", [5.5, 4.0, True, "5"])
    @pytest.mark.parametrize("name", ["n", "d", "seed"])
    def test_non_integer_size_is_domain_error(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            so.GeneratorSpec(**{"n": 5, "d": 2, name: value})

    def test_numpy_integer_sizes_are_accepted(self):
        spec = so.GeneratorSpec(n=np.int64(6), d=np.int32(2), seed=3)
        inst, _ = so.generate_planted(spec)
        assert (inst.n, inst.d) == (6, 2)


class TestGeneratePlanted:
    def test_gradient_vanishes_without_ridge(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=0.0, seed=0))
        assert np.all(inst.w == 0.0)
        assert np.linalg.norm(so.grad_total(so.make_state(inst, x_star), inst)) <= 1e-10

    def test_gradient_vanishes_with_ridge(self):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=1))
        assert np.linalg.norm(so.grad_total(so.make_state(inst, x_star), inst)) <= 1e-10

    def test_deterministic(self):
        spec = so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=2)
        a, xa = so.generate_planted(spec)
        b, xb = so.generate_planted(spec)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(xa, xb)

    def test_norm_caps_and_conditioning(self):
        spec = so.GeneratorSpec(n=15, d=4, conditioning=7.0, norm_cap_r=4.0, seed=3)
        inst, x_star = so.generate_planted(spec)
        sv = np.linalg.svd(inst.a, compute_uv=False)
        assert sv[0] <= 4.0
        assert np.linalg.norm(inst.b) <= 4.0
        assert np.linalg.norm(x_star) <= 4.0
        assert sv[0] / sv[-1] == pytest.approx(7.0, rel=1e-9)

    def test_target_is_probability_vector(self):
        inst, _ = so.generate_planted(so.GeneratorSpec(n=12, d=3, seed=4))
        assert np.all(inst.b >= 0.0)
        assert inst.b.sum() == pytest.approx(1.0, abs=1e-12)

    def test_planted_level_reached(self):
        for level in (0.1, 1.0, 10.0):
            inst, x_star = so.generate_planted(
                so.GeneratorSpec(n=20, d=5, ridge_l=level, seed=5)
            )
            h = so.hessian_total(so.make_state(inst, x_star), inst)
            assert so.psd_check(h, 0.99 * level).passed

    def test_unreachable_conditioning_fails(self):
        with pytest.raises(GenerationFailure):
            so.generate_planted(so.GeneratorSpec(n=4, d=1, conditioning=10.0, seed=6))

    def test_basin_start_offset(self):
        x_star = np.array([1.0, -2.0, 0.5])
        x0 = so.basin_start(x_star, 1e-3, seed=7)
        assert np.linalg.norm(x0 - x_star) == pytest.approx(1e-3, rel=1e-12)

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), -1.0])
    def test_basin_start_rejects_bad_offset(self, offset):
        with pytest.raises(DomainError, match="^offset must be finite and >= 0"):
            so.basin_start(np.zeros(3), offset, seed=7)


class TestLandscape:
    def setup_method(self):
        self.inst, self.x_star = so.generate_planted(
            so.GeneratorSpec(n=10, d=3, ridge_l=0.5, seed=8)
        )

    def test_center_cell_matches_direct_evaluation(self):
        grid = so.landscape_grid(self.inst, half_width=0.5, resolution=3)
        direct = so.loss_total(self.inst, grid.center)
        assert grid.totals()[1, 1] == direct.total

    def test_zero_half_width_constant(self):
        grid = so.landscape_grid(self.inst, half_width=0.0, resolution=3)
        totals = set(grid.totals().ravel().tolist())
        assert len(totals) == 1

    def test_resolution_two_gives_four_rows(self):
        grid = so.landscape_grid(self.inst, half_width=0.2, resolution=2)
        assert grid.totals().size == 4

    def test_default_directions_orthonormal(self):
        u, v = so.default_directions(self.inst)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert abs(float(u @ v)) <= 1e-12

    def test_requires_two_dims(self):
        narrow = so.ProblemInstance(a=np.ones((3, 1)), b=np.zeros(3), w=np.zeros(3))
        with pytest.raises(DomainError):
            so.landscape_grid(narrow, half_width=1.0, resolution=3)

    def test_rejects_bad_resolution(self):
        with pytest.raises(DomainError):
            so.landscape_grid(self.inst, resolution=1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("half_width", [-0.1, np.inf, np.nan])
    def test_rejects_bad_half_width(self, half_width):
        with pytest.raises(DomainError, match="half_width"):
            so.landscape_grid(self.inst, half_width=half_width, resolution=3)

    def test_center_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            so.landscape_grid(self.inst, center=np.zeros(7), resolution=2)

    def test_average_grids_cellwise_mean(self):
        insts = [
            so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=0.5, seed=s))[0]
            for s in (20, 21)
        ]
        grids = [so.landscape_grid(i, half_width=0.3, resolution=3) for i in insts]
        avg = so.average_grids(grids)
        expected = 0.5 * (grids[0].totals() + grids[1].totals())
        assert avg.totals() == pytest.approx(expected, rel=1e-15)

    def test_values_are_one_read_only_array(self):
        grid = so.landscape_grid(self.inst, half_width=0.3, resolution=4)
        assert grid.values.shape == (4, 4, 3) and grid.values.dtype == np.float64
        with pytest.raises(ValueError):
            grid.values[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            so.average_grids([grid, grid]).values[0, 0, 0] = 1.0

    def test_average_of_one_grid_is_that_grid(self):
        # b = 0 makes every cross-entropy cell -0.0, which a numpy sum turns into 0.0
        inst = so.ProblemInstance(
            a=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), b=np.zeros(3), w=np.ones(3)
        )
        for grid in (
            so.landscape_grid(self.inst, half_width=0.3, resolution=3),
            so.landscape_grid(inst, half_width=0.5, resolution=3),
        ):
            assert so.average_grids([grid]).values.tobytes() == grid.values.tobytes()
            assert so.average_grids([grid]).to_csv() == grid.to_csv()

    def test_average_of_nine_grids_is_cellwise_mean_of_a_list(self):
        # numpy sums a contiguous axis pairwise from 8 terms on, so only a mean
        # over the last axis of the stack matches the per-cell list mean
        grids = [
            so.landscape_grid(
                so.generate_planted(so.GeneratorSpec(n=10, d=3, ridge_l=0.5, seed=s))[0],
                half_width=0.3, resolution=3,
            )
            for s in range(30, 39)
        ]
        avg = so.average_grids(grids)
        expected = [
            [[float(np.mean([g.values[i, j, k] for g in grids])) for k in range(3)]
             for j in range(3)]
            for i in range(3)
        ]
        assert avg.values.tolist() == expected

    def test_average_grids_shape_mismatch(self):
        g1 = so.landscape_grid(self.inst, half_width=0.3, resolution=3)
        g2 = so.landscape_grid(self.inst, half_width=0.3, resolution=5)
        with pytest.raises(DimensionMismatch):
            so.average_grids([g1, g2])

    def test_csv_layout(self, tmp_path):
        grid = so.landscape_grid(self.inst, half_width=0.3, resolution=3)
        path = tmp_path / "grid.csv"
        grid.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "u,v,l_exp,l_cent,l_reg,total"
        assert len(lines) == 1 + 9
        u, v, l_exp, l_cent, l_reg, total = (float(tok) for tok in lines[1].split(","))
        assert (u, v) == (-0.3, -0.3)
        assert total == l_exp + l_cent + l_reg


def planted(n, d, seed=0):
    return so.generate_planted(so.GeneratorSpec(n=n, d=d, ridge_l=0.5, seed=seed))[0]


class TestBatchedLandscape:
    """The batched grid against one ``loss_total`` call per cell."""

    @staticmethod
    def check_against_cells(inst, grid):
        def cell(u, v):
            lb = so.loss_total(inst, grid.center + u * grid.dir_u + v * grid.dir_v)
            return lb.l_exp, lb.l_cent, lb.l_reg

        offs = grid.offsets()
        want = np.array([[cell(u, v) for v in offs] for u in offs])
        np.testing.assert_allclose(grid.values, want, rtol=1e-12, atol=0.0)
        mid = grid.resolution // 2
        assert offs[mid] == 0.0
        direct = so.loss_total(inst, grid.center)
        assert grid.values[mid, mid].tolist() == [direct.l_exp, direct.l_cent, direct.l_reg]
        assert grid.totals()[mid, mid] == direct.total

    @pytest.mark.parametrize("n, d, resolution", [(8, 3, 7), (20, 5, 9), (1000, 20, 5)])
    def test_planted_sizes(self, n, d, resolution):
        inst = planted(n, d)
        self.check_against_cells(inst, so.landscape_grid(inst, resolution=resolution))

    @pytest.mark.parametrize("term", ["use_exp", "use_cent"])
    def test_disabled_term(self, term):
        inst = dataclasses.replace(planted(20, 5, seed=1), **{term: False})
        grid = so.landscape_grid(inst, half_width=0.6, resolution=7)
        self.check_against_cells(inst, grid)
        assert not grid.values[..., 0 if term == "use_exp" else 1].any()

    def test_paper_ridge_around_random_center(self):
        inst = dataclasses.replace(planted(20, 5, seed=2), reg_mode="paper")
        center = np.random.default_rng(2).standard_normal(5)
        grid = so.landscape_grid(inst, center=center, half_width=0.8, resolution=7)
        self.check_against_cells(inst, grid)
        assert (grid.values[..., 2] > 0.0).all()

    def test_zero_half_width_is_the_center_everywhere(self):
        inst = planted(20, 5, seed=4)
        grid = so.landscape_grid(inst, half_width=0.0, resolution=5)
        self.check_against_cells(inst, grid)
        assert (grid.values == grid.values[2, 2]).all()

    def test_tall_grid_holds_three_row_blocks(self):
        # one reused (resolution, n) block, f and one loss term's temporary:
        # 3 x 168 KB at n=1000 and resolution 21; seven live blocks read 1.28 MB
        inst = planted(1000, 20)
        so.landscape_grid(inst, resolution=21)
        tracemalloc.start()
        try:
            so.landscape_grid(inst, resolution=21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 700_000, peak

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_a_typed_error(self):
        inst = planted(20, 5)
        with pytest.raises(OverflowError, match="row u="):
            so.landscape_grid(inst, half_width=1e300, resolution=5)
        with pytest.raises(OverflowError, match="logits"):
            so.landscape_grid(inst, center=np.full(5, 1e308), resolution=3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["center"])
    def test_non_finite_input_is_named(self, name):
        inst = planted(20, 5)
        with pytest.raises(NonFiniteInput, match=name):
            so.landscape_grid(inst, **{name: np.array([0.0, np.nan, 0.0, 0.0, 0.0])})

    def test_csv_blocks_match_whole_table_format(self, tmp_path):
        grid = so.landscape_grid(planted(8, 3), half_width=0.4, resolution=6)
        offs = grid.offsets()
        table = np.column_stack([
            np.repeat(offs, grid.resolution),
            np.tile(offs, grid.resolution),
            grid.values.reshape(-1, 3),
            grid.totals().reshape(-1),
        ])
        lines = ["u,v,l_exp,l_cent,l_reg,total"]
        lines += [",".join(map(repr, row)) for row in table.tolist()]
        want = "\n".join(lines) + "\n"
        assert grid.to_csv() == want
        grid.write_csv(tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == want.encode()
        stream = io.StringIO()
        grid.write_csv(stream)
        assert stream.getvalue() == want
