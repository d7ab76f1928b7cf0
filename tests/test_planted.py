"""Planted-instance generator and landscape grids."""

import dataclasses
import io
import sys
import tracemalloc

import numpy as np
import pytest

import landscape_oracles
import writer_oracles
import softmaxopt as so
import softmaxopt.landscape as landscape_module
import softmaxopt.planted as planted_module
from softmaxopt.exceptions import (
    DimensionMismatch,
    DomainError,
    GenerationFailure,
    NonFiniteEvaluation,
    NonFiniteInput,
)


def csv_text(table) -> str:
    """The text ``write_csv`` writes to an open stream."""
    stream = io.StringIO()
    table.write_csv(stream)
    return stream.getvalue()


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

    def test_norm_cap_below_the_least_target_norm(self):
        # a probability vector b has ||b||_2 >= 1/sqrt(n) = 0.5 at n = 4
        with pytest.raises(DomainError, match="^norm_cap_r must be >= 1/sqrt"):
            so.GeneratorSpec(n=4, d=1, conditioning=1.0, norm_cap_r=0.49)
        so.GeneratorSpec(n=4, d=1, conditioning=1.0, norm_cap_r=0.5)

    def test_numpy_integer_sizes_are_accepted(self):
        spec = so.GeneratorSpec(n=np.int64(6), d=np.int32(2), seed=3)
        inst, _ = so.generate_planted(spec)
        assert (inst.n, inst.d) == (6, 2)


# one column with a norm cap of 1/sqrt(n): every check but ||b||_2 <= 0.5 passes
UNREACHABLE_SPEC = so.GeneratorSpec(n=4, d=1, conditioning=1.0, norm_cap_r=0.5, ridge_l=1.0)


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
        with pytest.raises(DomainError, match="^conditioning must be 1 when d = 1"):
            so.GeneratorSpec(n=4, d=1, conditioning=10.0, seed=6)
        # ||b||_2 = 0.5 only for the uniform b, which no draw with x_star != 0 gives
        with pytest.raises(GenerationFailure, match=r"missed \|\|b\|\|_2 <= 0\.5$"):
            so.generate_planted(UNREACHABLE_SPEC)

    def test_only_the_accepted_draw_sizes_a_ridge(self, monkeypatch):
        # the ridge takes one stacked state of the probe points: none for a
        # spec whose draws all miss, one for an accepted draw
        calls = []

        def counting(*args):
            calls.append(args)
            return so.make_state(*args)

        monkeypatch.setattr(planted_module, "make_state", counting)
        with pytest.raises(GenerationFailure, match=r"missed \|\|b\|\|_2 <= 0\.5$"):
            so.generate_planted(UNREACHABLE_SPEC)
        assert calls == []
        so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=0))
        assert len(calls) == 1

    def test_one_svd_per_draw(self, monkeypatch):
        # the ridge takes sigma_min(A) from the accepted draw's own SVD
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        for seed in range(5):
            calls.clear()
            so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1.0, seed=seed))
            assert len(calls) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_ridge_weight_is_named(self):
        # 1e308 / sigma_min(A)^2 overflows: a typed error, not a numpy warning
        with pytest.raises(NonFiniteEvaluation, match="^ridge weight w\\^2 = 100 R"):
            so.generate_planted(so.GeneratorSpec(n=20, d=5, ridge_l=1e308))

    def test_basin_start_offset(self):
        x_star = np.array([1.0, -2.0, 0.5])
        x0 = so.basin_start(x_star, 1e-3, seed=7)
        assert np.linalg.norm(x0 - x_star) == pytest.approx(1e-3, rel=1e-12)

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), -1.0])
    def test_basin_start_rejects_bad_offset(self, offset):
        with pytest.raises(DomainError, match="^offset must be finite and >= 0"):
            so.basin_start(np.zeros(3), offset, seed=7)

    @pytest.mark.parametrize("seed", [-1, [3, -1]])
    def test_basin_start_rejects_negative_seed(self, seed):
        with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
            so.basin_start(np.zeros(3), 1.0, seed)

    @pytest.mark.parametrize(("x_star", "error", "message"), [
        (np.zeros((2, 3)), DimensionMismatch, "^x_star must be 1-d, got shape \\(2, 3\\)$"),
        (np.zeros((1, 3)), DimensionMismatch, "^x_star must be 1-d, got shape \\(1, 3\\)$"),
        ([float("nan"), 0.0], NonFiniteInput, "^x_star contains NaN or Inf$"),
    ], ids=["stack", "one-row-stack", "nan"])
    def test_basin_start_rejects_bad_x_star(self, x_star, error, message):
        with pytest.raises(error, match=message):
            so.basin_start(x_star, 1.0, 0)

    def test_basin_start_takes_a_generator_or_a_seed_list(self):
        x_star = np.array([1.0, -2.0, 0.5])
        from_list = so.basin_start(x_star, 1.0, [3, 101])
        from_rng = so.basin_start(x_star, 1.0, np.random.default_rng([3, 101]))
        assert np.array_equal(from_list, from_rng)


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
    @pytest.mark.parametrize(
        "half_width",
        [-0.1, np.inf, np.nan, 1e308, pytest.param(np.float64(1e308), id="np1e308"),
         sys.float_info.max],
    )
    def test_rejects_bad_half_width(self, half_width):
        # a finite half_width above about 8.99e307 spans an infinite 2 half_width
        with pytest.raises(DomainError, match="half_width"):
            so.landscape_grid(self.inst, half_width=half_width, resolution=3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_finite_span_reaches_the_grid(self):
        # 2 half_width is the largest float: the grid is laid out and its
        # first row's logits overflow
        with pytest.raises(OverflowError, match="logits"):
            so.landscape_grid(self.inst, half_width=sys.float_info.max / 2, resolution=3)

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
            assert csv_text(so.average_grids([grid])) == csv_text(grid)

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
        assert csv_text(grid) == want
        grid.write_csv(tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == want.encode()

    def test_bulk_format_is_float_repr(self):
        # signed zeros, subnormals, exponents and non-finite cells keep the
        # text repr() gives each float
        specials = [-0.0, 0.0, 5e-324, -2.5e-310, 1e16, 1.0e-5, 0.1, -1e300, np.inf, np.nan]
        values = np.resize(np.array(specials), (4, 4, 3))
        grid = so.LandscapeGrid(
            center=np.zeros(2), dir_u=np.eye(2)[0], dir_v=np.eye(2)[1],
            half_width=1e-5, resolution=4, values=values,
        )
        lines = csv_text(grid).splitlines()[1:]
        offs = grid.offsets().tolist()
        cells = [(u, v, a, b, c, a + b + c)
                 for u, row in zip(offs, values.tolist()) for v, (a, b, c) in zip(offs, row)]
        assert lines == [",".join(map(repr, cell)) for cell in cells]


class TestLandscapeWriter:
    """The CSV is the stdlib's ``repr`` of each column's floats, byte for byte."""

    @staticmethod
    def check(grid, tmp_path):
        want = writer_oracles.landscape_csv(grid)
        assert csv_text(grid) == want
        grid.write_csv(tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == want.encode()

    def test_desk_grid(self, tmp_path):
        self.check(so.landscape_grid(planted(20, 5), resolution=101), tmp_path)

    def test_averaged_grid(self, tmp_path):
        grids = [so.landscape_grid(planted(20, 5, seed=s), resolution=41) for s in range(5)]
        self.check(so.average_grids(grids), tmp_path)

    def test_one_row_of_text_at_a_time(self, tmp_path):
        # the 101^2 CSV is 1 MB of text; one row's is about 10 KB
        grid = so.landscape_grid(planted(20, 5), resolution=101)
        grid.write_csv(tmp_path / "grid.csv")
        tracemalloc.start()
        try:
            grid.write_csv(tmp_path / "grid.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250_000, peak

    def test_cells_outside_the_window(self, tmp_path):
        # offsets of 5e-06 and below, and cells spread over 1e-8 to 1e20 with
        # the window's edges among them
        self.check(so.landscape_grid(planted(20, 5, seed=3), half_width=1e-5, resolution=5),
                   tmp_path)
        rng = np.random.default_rng(6)
        values = 10.0 ** rng.uniform(-8.0, 20.0, size=(41, 41, 3))
        values[0, :4, 0] = [1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0)]
        grid = so.LandscapeGrid(center=np.zeros(2), dir_u=np.eye(2)[0], dir_v=np.eye(2)[1],
                                half_width=2e-4, resolution=41, values=values)
        self.check(grid, tmp_path)


def assert_bitwise(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestBlockedLandscape:
    """The blocked grid against the row-at-a-time oracle, bit for bit."""

    @staticmethod
    def block_rows(inst, resolution):
        return max(1, landscape_module._CELL_BLOCK // (resolution * inst.n))

    @staticmethod
    def check(inst, center=None, half_width=1.0, resolution=21):
        grid = so.landscape_grid(inst, center, half_width, resolution)
        want = landscape_oracles.landscape_values(inst, grid.center, half_width, resolution)
        assert_bitwise(grid.values, want)
        return grid

    @pytest.mark.parametrize("resolution", [21, 41, 101])
    def test_last_block_is_partial(self, resolution):
        inst = planted(20, 5)
        rows = self.block_rows(inst, resolution)
        assert 1 < rows < resolution and resolution % rows
        self.check(inst, resolution=resolution)

    def test_tall_instance_takes_one_row_per_block(self):
        inst = planted(1000, 20)
        assert self.block_rows(inst, 21) == 1
        self.check(inst, resolution=21)

    @pytest.mark.parametrize("term", ["use_exp", "use_cent"])
    def test_disabled_term(self, term):
        inst = dataclasses.replace(planted(20, 5, seed=1), **{term: False})
        self.check(inst, half_width=0.6, resolution=31)

    def test_paper_ridge_around_random_center(self):
        inst = dataclasses.replace(planted(20, 5, seed=2), reg_mode="paper")
        center = np.random.default_rng(2).standard_normal(5)
        self.check(inst, center=center, half_width=0.8, resolution=31)

    def test_zero_half_width(self):
        grid = self.check(planted(20, 5, seed=4), half_width=0.0, resolution=25)
        assert (grid.values == grid.values[12, 12]).all()

    @pytest.mark.parametrize("cell_block", [1, 2 * 9 * 20, 4 * 9 * 20 - 1, 10**6])
    def test_cells_do_not_depend_on_the_block_size(self, monkeypatch, cell_block):
        inst = planted(20, 5, seed=3)
        want = so.landscape_grid(inst, half_width=0.7, resolution=9).values
        monkeypatch.setattr(landscape_module, "_CELL_BLOCK", cell_block)
        assert_bitwise(so.landscape_grid(inst, half_width=0.7, resolution=9).values, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBlockedOverflow:
    """The first overflowing row is named even when it sits inside a block."""

    # center h dir_u: row u = -h is near the origin, and later rows grow
    # towards 2 h dir_u, so the first row to overflow is the seventh of nine
    CASES = {
        "loss terms": (lambda inst: inst, 3.8e152, 1.9e152),
        "logits": (
            lambda inst: dataclasses.replace(inst, w=np.zeros(inst.n), use_cent=False),
            6e307,
            2.999999999999999e307,
        ),
    }

    @staticmethod
    def message(fn):
        with pytest.raises(OverflowError) as info:
            fn()
        return str(info.value)

    @pytest.mark.parametrize("cell_block", [None, 4 * 9 * 20, 5 * 9 * 20])
    @pytest.mark.parametrize("what", sorted(CASES))
    def test_names_the_first_row(self, monkeypatch, what, cell_block):
        adjust, half_width, u = self.CASES[what]
        inst = adjust(planted(20, 5))
        center = half_width * so.default_directions(inst)[0]
        if cell_block is not None:
            monkeypatch.setattr(landscape_module, "_CELL_BLOCK", cell_block)
        want = f"{what} overflow float64 in grid row u={u!r}"
        offs = np.linspace(-half_width, half_width, 9)
        row = offs.tolist().index(u)
        assert row % max(1, landscape_module._CELL_BLOCK // (9 * inst.n)) > 0
        assert self.message(
            lambda: landscape_oracles.landscape_values(inst, center, half_width, 9)
        ) == want
        assert self.message(lambda: so.landscape_grid(inst, center, half_width, 9)) == want
