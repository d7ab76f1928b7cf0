"""Data model, objective terms and their documented invariants."""

import dataclasses
import decimal
import io
import json
import math
import re
import types

import numpy as np
import pytest

import softmaxopt as so
import writer_oracles
from model_oracles import evaluate_alpha, evaluate_f, evaluate_u
from softmaxopt.exceptions import (
    DimensionMismatch,
    DomainError,
    NonFiniteInput,
)
from softmaxopt.model import _TEXT_BLOCK, _float_texts, _write_json
from softmaxopt.suite import random_instance


def simple_instance(a, b=None, w=None, **kwargs):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    w = np.zeros(n) if w is None else np.asarray(w, dtype=float)
    return so.ProblemInstance(a=a, b=b, w=w, **kwargs)


class TestEvaluateU:
    def test_zero_x_gives_ones(self):
        inst = simple_instance(np.random.default_rng(0).standard_normal((6, 3)))
        np.testing.assert_array_equal(evaluate_u(inst, np.zeros(3)), np.ones(6))

    def test_identity_matrix_hand_values(self):
        inst = simple_instance(np.eye(2))
        np.testing.assert_allclose(
            evaluate_u(inst, [math.log(2.0), 0.0]), [2.0, 1.0], rtol=1e-15
        )

    def test_scalar_exponential_oracle(self):
        inst = simple_instance([[1.0], [-1.0]])
        expected = [math.exp(0.3), math.exp(-0.3)]
        np.testing.assert_allclose(evaluate_u(inst, [0.3]), expected, rtol=1e-15)

    def test_overflow_raises(self):
        inst = simple_instance([[1.0], [1.0]])
        with pytest.raises(OverflowError):
            evaluate_u(inst, [800.0])

    def test_nonfinite_x_rejected(self):
        inst = simple_instance(np.eye(2))
        with pytest.raises(NonFiniteInput):
            evaluate_u(inst, [np.nan, 0.0])


class TestAlphaAndF:
    def test_alpha_sum_of_ones(self):
        assert evaluate_alpha(np.ones(5)) == 5.0

    def test_alpha_hand_sum(self):
        assert evaluate_alpha([2.0, 1.0]) == 3.0

    def test_alpha_symmetry(self):
        e = math.e
        assert evaluate_alpha([e, e]) == pytest.approx(2 * e, rel=1e-15)

    def test_alpha_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            evaluate_alpha([1.0, 0.0])

    def test_f_uniform(self):
        np.testing.assert_array_equal(evaluate_f(np.ones(4)), np.full(4, 0.25))

    def test_f_hand_normalization(self):
        np.testing.assert_allclose(evaluate_f([2.0, 1.0]), [2 / 3, 1 / 3], rtol=1e-15)

    def test_f_l1_norm_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.uniform(0.1, 5.0, size=rng.integers(1, 30))
            f = evaluate_f(u)
            assert abs(np.abs(f).sum() - 1.0) <= 1e-12

    def test_softmax_survives_u_overflow(self):
        inst = simple_instance([[1.0], [1.0]])
        with pytest.raises(OverflowError):
            evaluate_u(inst, [800.0])
        np.testing.assert_allclose(so.make_state(inst, [800.0]).f, [0.5, 0.5], rtol=1e-15)


class TestLossTerms:
    def test_loss_exp_zero_residual(self):
        f = np.array([0.3, 0.7])
        assert so.loss_exp(f, f) == 0.0

    def test_loss_exp_hand_arithmetic(self):
        assert so.loss_exp([2 / 3, 1 / 3], [1.0, 0.0]) == pytest.approx(1 / 9, rel=1e-14)

    def test_loss_exp_uniform_two(self):
        assert so.loss_exp([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.25, rel=1e-15)

    def test_loss_exp_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            so.loss_exp([1.0, 2.0], [1.0])

    def test_loss_cent_basis_target(self):
        f = np.array([0.2, 0.5, 0.3])
        assert so.loss_cent(f, [0.0, 1.0, 0.0]) == pytest.approx(-math.log(0.5), rel=1e-14)

    def test_loss_cent_uniform_prediction(self):
        n = 8
        f = np.full(n, 1.0 / n)
        b = np.random.default_rng(2).uniform(0, 1, n)
        b /= b.sum()
        assert so.loss_cent(f, b) == pytest.approx(math.log(n), rel=1e-12)

    def test_loss_cent_zero_target(self):
        assert so.loss_cent([0.4, 0.6], [0.0, 0.0]) == 0.0

    def test_loss_cent_rejects_nonpositive_f(self):
        with pytest.raises(DomainError):
            so.loss_cent([0.0, 1.0], [0.5, 0.5])

    def test_loss_reg_zero_x(self):
        inst = simple_instance(np.eye(3), w=np.ones(3))
        assert so.loss_reg(inst, np.zeros(3)) == 0.0

    def test_loss_reg_zero_weights(self):
        inst = simple_instance(np.random.default_rng(3).standard_normal((4, 2)))
        assert so.loss_reg(inst, [5.0, -2.0]) == 0.0

    def test_loss_reg_hand_arithmetic(self):
        inst = simple_instance(np.eye(2), w=[1.0, 2.0])
        assert so.loss_reg(inst, [1.0, 1.0]) == pytest.approx(2.5, rel=1e-15)


class TestLossTotal:
    def test_uniform_target_at_zero(self):
        n = 6
        a = np.random.default_rng(4).standard_normal((n, 3))
        inst = simple_instance(a, b=np.full(n, 1.0 / n))
        lb = so.loss_total(inst, np.zeros(3))
        assert lb.l_exp == 0.0
        assert lb.l_cent == pytest.approx(math.log(n), rel=1e-12)
        assert lb.l_reg == 0.0
        assert lb.total == pytest.approx(math.log(n), rel=1e-12)

    def test_matched_target_zeroes_residual_term(self):
        a = np.random.default_rng(5).standard_normal((5, 2))
        x = np.array([0.4, -0.2])
        b = so.make_state(simple_instance(a), x).f
        inst = simple_instance(a, b=b)
        assert so.loss_total(inst, x).l_exp <= 1e-30

    def test_total_is_sum_of_recomputed_parts(self):
        inst, x = random_instance(99)
        lb = so.loss_total(inst, x)
        state = so.make_state(inst, x)
        expected = (
            so.loss_exp(state.f, inst.b)
            + so.loss_cent(state.f, inst.b)
            + so.loss_reg(inst, x)
        )
        assert lb.total == expected
        assert lb.total == lb.l_exp + lb.l_cent + lb.l_reg


class TestBatchedLossTerms:
    """``_fit_terms`` and ``_reg_term`` on a stack of states against one state at a time."""

    @staticmethod
    def _stack(inst, seed, m=7):
        xs = np.random.default_rng(seed).standard_normal((m, inst.d))
        z = np.array([inst.a @ x for x in xs])
        z_reg = np.array([inst.a @ (x - inst.reg_center()) for x in xs])
        return xs, z, z_reg

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_match_single_states_bitwise(self, seed):
        inst, _ = random_instance(seed)
        inst = dataclasses.replace(inst, use_exp=seed % 3 != 1, use_cent=seed % 3 != 2)
        xs, z, z_reg = self._stack(inst, seed)
        log_f, f = so.model._log_p_and_p(z)
        terms = (*so.model._fit_terms(inst, log_f, f), so.model._reg_term(inst, z_reg))
        for j, x in enumerate(xs):
            state = so.make_state(inst, x)
            assert log_f[j].tobytes() == state.log_f.tobytes()
            assert f[j].tobytes() == state.f.tobytes()
            lb = so.model.state_losses(inst, state)
            got = [float(np.broadcast_to(t, (len(xs),))[j]) for t in terms]
            assert got == [lb.l_exp, lb.l_cent, lb.l_reg]

    @pytest.mark.parametrize("seed", range(12))
    def test_one_state_keeps_the_vector_dot(self, seed):
        # trace losses stay byte-stable only while one state reduces by x @ y
        inst, x = random_instance(seed)
        state = so.make_state(inst, x)
        lb = so.model.state_losses(inst, state)
        assert lb.l_exp == so.loss_exp(state.f, inst.b)
        assert lb.l_cent == -float(inst.b @ state.log_f)
        assert lb.l_reg == so.loss_reg(inst, x)

    def test_disabled_terms_are_zero(self):
        inst, x = random_instance(5)
        inst = dataclasses.replace(inst, use_exp=False, use_cent=False)
        state = so.make_state(inst, x)
        l_exp, l_cent = so.model._fit_terms(inst, state.log_f, state.f)
        assert l_exp == 0.0 and l_cent == 0.0


def stack_instance(n, variant, d=4, seed=0):
    """A planted-free instance of n rows with one term or the ridge center varied."""
    rng = np.random.default_rng([n, seed])
    kwargs = {
        "no_exp": {"use_exp": False},
        "no_cent": {"use_cent": False},
        "centered": {"reg_mode": "centered", "x_star": rng.standard_normal(d)},
    }.get(variant, {})
    return so.ProblemInstance(
        a=rng.standard_normal((n, d)) / math.sqrt(d),
        b=rng.uniform(0.0, 1.0, n) / n,
        w=rng.uniform(0.5, 1.5, n),
        **kwargs,
    )


class TestStackedPoints:
    """Every stack-aware model function against one point at a time, bitwise."""

    @pytest.mark.parametrize("variant", ["both", "no_exp", "no_cent", "centered"])
    @pytest.mark.parametrize("n", [1, 20, 1000])
    def test_rows_equal_one_point_calls(self, n, variant):
        inst = stack_instance(n, variant)
        xs = 2.0 * np.random.default_rng(n).standard_normal((9, inst.d))
        st = so.make_state(inst, xs)
        assert st.x.shape == xs.shape and st.f.shape == st.log_f.shape == (9, n)
        stacked = {
            "logits": so.model.logits(inst, xs),
            "loss_exp": so.loss_exp(st.f, inst.b),
            "loss_cent": so.loss_cent(st.f, inst.b),
            "loss_reg": so.loss_reg(inst, xs),
        }
        breakdowns = {
            "state_losses": so.model.state_losses(inst, st),
            "loss_total": so.loss_total(inst, xs),
        }
        for j, x in enumerate(xs):
            one = so.make_state(inst, x)
            for field in ("x", "log_f", "f"):
                assert getattr(st, field)[j].tobytes() == getattr(one, field).tobytes()
            single = {
                "logits": so.model.logits(inst, x),
                "loss_exp": so.loss_exp(one.f, inst.b),
                "loss_cent": so.loss_cent(one.f, inst.b),
                "loss_reg": so.loss_reg(inst, x),
            }
            for name, value in single.items():
                assert np.asarray(stacked[name][j]).tobytes() == np.asarray(value).tobytes(), name
            lb = so.loss_total(inst, x)
            assert isinstance(lb.total, float)
            for name, got in breakdowns.items():
                for field in ("l_exp", "l_cent", "l_reg", "total"):
                    assert getattr(got, field).shape == (9,), (name, field)
                    assert float(getattr(got, field)[j]) == getattr(lb, field), (name, field)

    def test_stacked_breakdowns_compare_without_raising(self):
        inst = stack_instance(20, "both")
        xs = np.zeros((3, inst.d))
        lb = so.loss_total(inst, xs)
        assert lb == lb
        assert lb != so.loss_total(inst, xs)

    def test_overflowing_row_raises_as_alone(self):
        inst = stack_instance(20, "both")
        xs = np.zeros((5, inst.d))
        xs[3] = 1e308
        with np.errstate(over="ignore"):
            with pytest.raises(OverflowError) as alone:
                so.make_state(inst, xs[3])
            with pytest.raises(OverflowError) as stacked:
                so.make_state(inst, xs)
            assert str(stacked.value) == str(alone.value)
            with pytest.raises(OverflowError):
                so.loss_total(inst, xs)

    def test_bad_rows_raise_as_alone(self):
        inst = stack_instance(20, "both")
        xs = np.zeros((4, inst.d))
        xs[1, 2] = np.nan
        with pytest.raises(NonFiniteInput, match="x contains NaN"):
            so.make_state(inst, xs)
        f = np.full((3, 20), 1.0 / 20)
        f[2, 5] = 0.0
        with pytest.raises(DomainError, match="strictly positive"):
            so.loss_cent(f, inst.b)

    @pytest.mark.parametrize("shape", [(), (2, 2, 4), (3, 5), "ragged"])
    def test_bad_point_shapes(self, shape):
        inst = stack_instance(20, "both")
        points = [[0.0] * 3, [0.0] * 2] if shape == "ragged" else np.zeros(shape)
        for fn in (so.model.logits, so.make_state, so.loss_reg, so.loss_total):
            with pytest.raises(DimensionMismatch):
                fn(inst, points)
        with pytest.raises(DimensionMismatch):
            so.loss_exp(points, np.zeros(7))


class TestPredictionInvariants:
    def test_normalization_sweep(self):
        for i in range(50):
            inst, x = random_instance([10, i])
            f = so.make_state(inst, x).f
            assert abs(f.sum() - 1.0) <= 1e-12
            assert abs(np.abs(f).sum() - 1.0) <= 1e-12
            assert np.linalg.norm(f) <= 1.0 + 1e-12

    def test_cross_entropy_nonnegative_for_subprobability_target(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            f = evaluate_f(rng.uniform(0.1, 3.0, n))
            b = rng.uniform(0.0, 1.0, n)
            b /= max(b.sum(), 1.0)  # <b, 1> <= 1
            assert so.loss_cent(f, b) >= 0.0

    def test_translation_invariance_along_constant_column(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((7, 3))
        a[:, 1] = 2.0  # constant column: moving x_1 shifts all logits equally
        inst = simple_instance(a)
        x = rng.standard_normal(3)
        delta = np.array([0.0, 1.7, 0.0])
        np.testing.assert_allclose(
            so.make_state(inst, x + delta).f, so.make_state(inst, x).f, atol=1e-10
        )

    def test_state_caches_are_consistent(self):
        assert [fld.name for fld in dataclasses.fields(so.ModelState)] == ["x", "log_f", "f"]
        for i in range(10):
            inst, x = random_instance([14, i])
            state = so.make_state(inst, x)
            u = evaluate_u(inst, x)
            alpha = evaluate_alpha(u)
            assert np.all(u > 0.0)
            assert alpha == float(u.sum())
            np.testing.assert_allclose(state.f, u / alpha, rtol=1e-12)
            np.testing.assert_allclose(np.exp(state.log_f), state.f, rtol=1e-12)
            np.testing.assert_array_equal(state.x, x)

    def test_deterministic_bitwise(self):
        inst, x = random_instance(13)
        f1 = evaluate_f(evaluate_u(inst, x))
        f2 = evaluate_f(evaluate_u(inst, x))
        assert np.array_equal(f1, f2)
        s1, s2 = so.make_state(inst, x), so.make_state(inst, x)
        assert np.array_equal(s1.f, s2.f) and s1.log_f.tobytes() == s2.log_f.tobytes()

    def test_state_past_the_exponent_range(self):
        # logits beyond +-709: exp(A @ x) is not representable, log f and f are
        inst = simple_instance(np.array([[1.0], [0.0], [-1.0]]), b=[0.5, 0.3, 0.2])
        state = so.make_state(inst, [800.0])
        with pytest.raises(OverflowError):
            evaluate_u(inst, [800.0])
        np.testing.assert_array_equal(state.log_f, [0.0, -800.0, -1600.0])
        np.testing.assert_array_equal(state.f, [1.0, 0.0, 0.0])
        assert so.loss_total(inst, [800.0]).l_cent == pytest.approx(560.0, rel=1e-15)

    def test_non_finite_logits_raise_overflow(self):
        inst = simple_instance(np.array([[1e300]]), b=[1.0])
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            so.make_state(inst, [1e300])


class TestProblemInstanceValidation:
    def test_negative_b_rejected_with_cross_entropy(self):
        with pytest.raises(DomainError):
            simple_instance(np.eye(2), b=[-0.1, 0.5])

    def test_negative_b_allowed_without_cross_entropy(self):
        inst = simple_instance(np.eye(2), b=[-0.1, 0.5], use_cent=False)
        assert inst.b[0] == -0.1

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            simple_instance(np.eye(2), b=[1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            so.ProblemInstance(a=np.ones(3), b=np.ones(3), w=np.ones(3))
        with pytest.raises(DimensionMismatch, match="^a must be at least 1x1"):
            so.ProblemInstance(a=np.ones((0, 2)), b=np.ones(0), w=np.ones(0))
        with pytest.raises(DimensionMismatch, match="^w must have length 2"):
            simple_instance(np.eye(2), w=[1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch, match="^x_star must have length 2"):
            simple_instance(np.eye(2), x_star=[1.0])

    def test_ragged_matrix_is_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^a must hold equal-length rows"):
            so.ProblemInstance(a=[[1.0, 2.0], [3.0]], b=np.zeros(2), w=np.zeros(2))

    def test_nonfinite_rejected(self):
        a = np.eye(2)
        a[0, 0] = np.inf
        with pytest.raises(NonFiniteInput):
            simple_instance(a)

    def test_centered_mode_needs_x_star(self):
        with pytest.raises(DomainError):
            simple_instance(np.eye(2), reg_mode="centered")

    def test_arrays_are_read_only(self):
        inst = simple_instance(np.eye(2))
        with pytest.raises(ValueError):
            inst.a[0, 0] = 5.0

    def test_caller_arrays_stay_writable(self):
        a = np.eye(2)
        b = np.zeros(2)
        so.ProblemInstance(a=a, b=b, w=np.zeros(2))
        a[0, 0] = 9.0  # must not have been frozen or aliased
        b[0] = 1.0


class TestInstanceJson:
    def test_round_trip(self, tmp_path):
        inst, _ = random_instance(21)
        path = tmp_path / "inst.json"
        inst.save(path)
        data = json.loads(path.read_text())
        assert set(data) >= {"n", "d", "A", "b", "w"}
        assert len(data["A"]) == data["n"] * data["d"]
        back = so.ProblemInstance.load(path)
        assert np.array_equal(back.a, inst.a)
        assert np.array_equal(back.b, inst.b)
        assert np.array_equal(back.w, inst.w)

    def test_round_trip_with_extras(self, tmp_path):
        inst, x_star = so.generate_planted(so.GeneratorSpec(n=8, d=3, ridge_l=0.5, seed=2))
        path = tmp_path / "planted.json"
        inst.save(path)
        back = so.ProblemInstance.load(path)
        assert back.reg_mode == "centered"
        assert np.array_equal(back.x_star, x_star)

    def test_bad_matrix_length(self):
        with pytest.raises(DimensionMismatch):
            so.ProblemInstance.from_dict(
                {"n": 2, "d": 2, "A": [1.0, 2.0, 3.0], "b": [0.0, 0.0], "w": [0.0, 0.0]}
            )

    @pytest.mark.parametrize(
        "key, value",
        [("use_cent", "false"), ("use_exp", 0), ("use_cent", None), ("n", 2.7), ("d", 2.0),
         ("reg_mode", "ridge")],
    )
    def test_uncoerced_fields(self, key, value):
        data = {"n": 2, "d": 2, "A": [1.0, 2.0, 3.0, 4.0], "b": [0.5, 0.5], "w": [0.0, 0.0]}
        so.ProblemInstance.from_dict(data)
        with pytest.raises(DomainError, match=f"^{key} must be"):
            so.ProblemInstance.from_dict({**data, key: value})

    @pytest.mark.parametrize(
        "n, d, key", [(-2, -1, "n"), (-1, -2, "n"), (1, -2, "d"), (0, 2, "n"), (2, 0, "d")]
    )
    def test_non_positive_sizes_name_the_field(self, n, d, key):
        # checked before A is reshaped: numpy would reject two negative sizes
        # with a bare ValueError and read one as a count of -2 entries
        data = {"n": n, "d": d, "A": [1, 2], "b": [0.5, 0.5], "w": [0.0, 0.0]}
        with pytest.raises(DomainError, match=f"^{key} must be >= 1, got {data[key]}$"):
            so.ProblemInstance.from_dict(data)

    @pytest.mark.parametrize(
        "content", [b'{"n": 2, "d": 2, "A": [1.0,', b"", b'{"n": 1}\xff'],
        ids=["truncated", "empty", "not-utf8"],
    )
    def test_load_of_a_file_that_is_not_utf8_json_names_it(self, tmp_path, content):
        path = tmp_path / "inst.json"
        path.write_bytes(content)
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))} is not a UTF-8 JSON file"):
            so.ProblemInstance.load(path)

    @pytest.mark.parametrize("key", ["A", "b", "w", "x_star"])
    def test_non_number_entry_names_the_field(self, key):
        data = {"n": 2, "d": 2, "A": [1.0, 2.0, 3.0, 4.0], "b": [0.5, 0.5], "w": [0.0, 0.0],
                "x_star": [0.0, 0.0], "reg_mode": "centered"}
        so.ProblemInstance.from_dict(data)
        bad = [*data[key][:-1], "one"]
        with pytest.raises(DomainError, match=f"^{key} must be a list of numbers"):
            so.ProblemInstance.from_dict({**data, key: bad})

    @pytest.mark.parametrize("key", ["n", "d", "A", "b", "w"])
    def test_missing_field_names_it(self, key):
        data = {"n": 2, "d": 2, "A": [1.0, 2.0, 3.0, 4.0], "b": [0.5, 0.5], "w": [0.0, 0.0]}
        del data[key]
        with pytest.raises(DomainError, match=f"^{key} is missing"):
            so.ProblemInstance.from_dict(data)

    @pytest.mark.parametrize("key", ["A", "b", "w", "x_star"])
    @pytest.mark.parametrize("bad", ["1.5", True, False, None], ids=["quoted", "true", "false", "null"])
    def test_string_or_boolean_entry_names_the_field(self, key, bad):
        # true and false equal the numbers 1 and 0, so they are typed even among
        # entries of those values
        data = {"n": 2, "d": 2, "A": [1.0, 0.0, 1, 0], "b": [1.0, 0.0], "w": [0.0, 1.0],
                "x_star": [0.0, 1.0], "reg_mode": "centered"}
        so.ProblemInstance.from_dict(data)
        for bad_list in ([*data[key][:-1], bad], [bad] * len(data[key])):
            with pytest.raises(DomainError, match=f"^{key} must be a list of numbers"):
                so.ProblemInstance.from_dict({**data, key: bad_list})

    @pytest.mark.parametrize(
        "data, name", [([1, 2], "list"), (3, "int"), ("s", "str"), (None, "NoneType")]
    )
    def test_non_object_top_level_is_domain_error(self, data, name):
        with pytest.raises(DomainError, match=f"^the instance JSON must be an object, got {name}$"):
            so.ProblemInstance.from_dict(data)

    def test_integer_entries_are_numbers(self):
        data = {"n": 2, "d": 2, "A": [1, -2, 3, 2**70], "b": [1, 0], "w": [0, 3],
                "x_star": [2, 0], "reg_mode": "centered"}
        inst = so.ProblemInstance.from_dict(data)
        assert np.array_equal(inst.a, np.array([[1.0, -2.0], [3.0, 2.0**70]]))
        assert np.array_equal(inst.b, [1.0, 0.0])
        assert np.array_equal(inst.w, [0.0, 3.0])
        assert np.array_equal(inst.x_star, [2.0, 0.0])

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_literal_makes_the_file_not_json(self, tmp_path, literal):
        # RFC 8259 has no NaN or Infinity, and 1e400 is no float64, so the
        # file is refused before any array check sees the value
        path = tmp_path / "inst.json"
        path.write_text('{"n": 1, "d": 1, "A": [%s], "b": [1.0], "w": [1.0]}' % literal)
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))} is not a UTF-8 JSON file"):
            so.ProblemInstance.load(path)

    @pytest.mark.parametrize("value", [2**64, -(2**63) - 1, 10**30])
    @pytest.mark.parametrize("key", ["n", "d"])
    def test_size_beyond_64_bits_is_not_an_integer(self, tmp_path, key, value):
        # the parser reads an integer beyond 64 bits as a float
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 1, "d": 1, "A": [1.0], "b": [1.0], "w": [1.0], key: value}))
        with pytest.raises(DomainError, match=f"^{key} must be an integer, got "):
            so.ProblemInstance.load(path)


def float_sweep(seed=31):
    """Finite float64 values: the edges of the format and seeded random bit patterns."""
    rng = np.random.default_rng(seed)
    info = np.finfo(np.float64)
    largest_subnormal = np.nextafter(info.smallest_normal, 0.0)
    edges = np.array([0.0, 1.0, 0.1, info.max, info.smallest_subnormal, info.smallest_normal,
                      largest_subnormal, 2.0**53 + 2.0, 1e22, 1e23])
    subnormal = rng.integers(1, 2**52, size=200, dtype=np.uint64).view(np.float64)
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
    signs = np.where(rng.random(200) < 0.5, -1.0, 1.0)
    values = np.concatenate([edges, -edges, signs * subnormal, bits[np.isfinite(bits)]])
    return values.tolist()


def integer_numerals(seed=31):
    """Integer literals within and beyond 64 bits, some of them not float64 values."""
    rng = np.random.default_rng(seed)
    fixed = [0, 1, -1, 7, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 2**64, 2**70 + 1,
             10**22 + 1, 10**30 + 7, 2**1000 + 1]
    long = [int("".join(map(str, rng.integers(0, 10, size=size)))) + 1
            for size in rng.integers(19, 40, size=60)]
    return [str(v) for v in fixed + long] + [str(-v) for v in long[:20]]


def instance_text(numerals, d=4):
    """Instance JSON whose A, b, w and x_star are the given numerals, as written."""
    n = len(numerals) // d

    def field(xs):
        return "[" + ", ".join(xs) + "]"

    return ('{"A": %s, "b": %s, "d": %d, "n": %d, "reg_mode": "centered", "use_cent": false, '
            '"w": %s, "x_star": %s}' % (field(numerals[:n * d]), field(numerals[-n:]), d, n,
                                        field(numerals[1:n + 1]), field(numerals[2:2 + d])))


def assert_load_matches_json(path, saved=None):
    """load(path) is bitwise json.loads + from_dict of the same file, and the saved instance."""
    fast = so.ProblemInstance.load(path)
    ref = so.ProblemInstance.from_dict(json.loads(path.read_text(encoding="utf-8")))
    for name in ("a", "b", "w", "x_star"):
        assert getattr(fast, name).tobytes() == getattr(ref, name).tobytes(), name
        if saved is not None:
            assert getattr(fast, name).tobytes() == getattr(saved, name).tobytes(), name


class TestInstanceParity:
    """The instance reader gives json's floats bit for bit."""

    @pytest.mark.parametrize("n, d", [(20, 5), (1000, 20)])
    def test_generated_instance(self, tmp_path, n, d):
        inst, _ = so.generate_planted(so.GeneratorSpec(n=n, d=d, ridge_l=1.0, seed=0))
        path = tmp_path / "inst.json"
        inst.save(path)
        assert_load_matches_json(path, inst)

    @pytest.mark.parametrize(
        "numeral", [repr, "{:.17g}".format, "{:.17e}".format], ids=["shortest", "17g", "17e"]
    )
    def test_float_sweep(self, tmp_path, numeral):
        path = tmp_path / "sweep.json"
        path.write_text(instance_text([numeral(v) for v in float_sweep()] + integer_numerals()))
        assert_load_matches_json(path)

    def test_exact_halfway_numerals_round_to_even(self, tmp_path):
        # the exact decimal midpoint of two neighbouring floats: at most 752
        # significant digits (for subnormals), short of the 768 past which
        # orjson 3.8.3 breaks a padded tie away from even
        values = float_sweep()[::20]
        with decimal.localcontext() as context:
            context.prec = 1100
            numerals = [str((decimal.Decimal(v) + decimal.Decimal(math.nextafter(v, math.inf))) / 2)
                        for v in values if abs(v) < np.finfo(np.float64).max]
        path = tmp_path / "halfway.json"
        path.write_text(instance_text(numerals))
        assert_load_matches_json(path)

    def test_save_load_round_trip_of_the_sweep(self, tmp_path):
        values = np.array(float_sweep())
        n, d = len(values) // 4, 4
        inst = so.ProblemInstance(a=values[:n * d].reshape(n, d), b=values[-n:], w=values[1:n + 1],
                                  x_star=values[2:2 + d], reg_mode="centered", use_cent=False)
        path = tmp_path / "sweep.json"
        inst.save(path)
        assert_load_matches_json(path, inst)


def assert_repr_texts(arr):
    assert _float_texts(arr) == [repr(v) for v in arr.tolist()]


class TestFloatTexts:
    """The float formatter writes ``repr`` of each entry, on the orjson installed."""

    @pytest.mark.parametrize("edge", [1e-4, 1e16])
    def test_window_edges(self, edge):
        # below 1e-4 and from 1e16 on, orjson spells a float unlike repr
        side = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
        assert_repr_texts(np.concatenate([side, -side]))

    def test_special_values(self):
        info = np.finfo(np.float64)
        powers = 10.0 ** np.arange(17)  # integral floats 1.0 up to 1e16
        integral = np.random.default_rng(3).integers(0, 10**16, size=500).astype(np.float64)
        values = np.array([0.0, -0.0, 5e-324, info.smallest_normal, info.max, 2.0**53,
                           1e-05, 1e16, 1e20, np.nan, np.inf, -np.inf])
        arr = np.concatenate([values, -values, powers, -powers, powers - 1.0, integral])
        assert_repr_texts(arr)

    def test_non_contiguous_and_empty_input(self):
        grid = np.random.default_rng(4).standard_normal((50, 3)) * 1e-3
        assert_repr_texts(grid[:, 1])
        assert_repr_texts(grid[::-2, 0])
        assert _float_texts(np.empty(0)) == []
        assert _float_texts(grid[:0, 2]) == []

    def test_seeded_sweep(self):
        # random bit patterns fall mostly outside the window, scaled normals
        # mostly inside it
        rng = np.random.default_rng(32)
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
        scaled = rng.standard_normal(200_000) * 10.0 ** rng.uniform(-6.0, 18.0, size=200_000)
        arr = np.concatenate([bits, scaled])
        mag = np.abs(arr)
        inside = ((mag >= 1e-4) & (mag < 1e16)).sum()
        assert min(inside, arr.size - inside) > 100_000
        assert_repr_texts(arr)


def planted_instance(n=20, d=5, seed=0):
    return so.generate_planted(so.GeneratorSpec(n=n, d=d, ridge_l=1.0, seed=seed))[0]


class TestInstanceWriter:
    """``save`` writes the stdlib's ``json.dumps`` of ``to_dict`` byte for byte."""

    @staticmethod
    def check(inst, tmp_path):
        want = writer_oracles.instance_json(inst)
        path = tmp_path / "inst.json"
        inst.save(path)
        assert path.read_bytes() == want.encode()
        stream = io.StringIO()
        inst.save(stream)
        assert stream.getvalue() == want

    @pytest.mark.parametrize("n, d", [(20, 5), (1000, 20)])
    def test_planted_instance(self, tmp_path, n, d):
        inst = planted_instance(n, d)
        assert inst.reg_mode == "centered"
        self.check(inst, tmp_path)

    def test_paper_instance_without_x_star(self, tmp_path):
        inst, _ = random_instance(21)
        assert inst.x_star is None and inst.reg_mode == "paper"
        self.check(inst, tmp_path)

    @pytest.mark.parametrize("flags", [{"use_exp": False}, {"use_cent": False},
                                       {"use_exp": False, "use_cent": False}])
    def test_disabled_terms(self, tmp_path, flags):
        self.check(dataclasses.replace(planted_instance(seed=1), **flags), tmp_path)

    def test_one_by_one(self, tmp_path):
        self.check(so.ProblemInstance(a=[[1e-05]], b=[1.0], w=[0.0]), tmp_path)

    def test_entries_outside_the_window(self, tmp_path):
        values = np.array([1e-05, 1e20, 5e-324, -0.0, 0.0, 1e16, -9.5e-05, 1.0, 0.1, -2.5])
        inst = so.ProblemInstance(a=values.reshape(5, 2), b=np.abs(values[:5]),
                                  w=values[5:], x_star=values[-2:], reg_mode="centered")
        self.check(inst, tmp_path)

    def test_nested_payload(self):
        arr = np.array([1e-05, -0.0, 2.5, 1e16])
        payload = {"z": {"y": arr, "x": [1, {"b": 2, "a": None}], "w": {}}, "a": np.empty(0),
                   "m": "\u00e9", "k": 0.1}
        plain = {"z": {"y": arr.tolist(), "x": [1, {"b": 2, "a": None}], "w": {}}, "a": [],
                 "m": "\u00e9", "k": 0.1}
        stream = io.StringIO()
        _write_json(stream, payload)
        assert stream.getvalue() == json.dumps(plain, sort_keys=True) + "\n"

    def test_arrays_past_three_blocks_stream_a_block_at_a_time(self, tmp_path):
        # every array holds 3 blocks + 7 entries, so its last block is partial
        n = 3 * _TEXT_BLOCK + 7
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, 1)) * 10.0 ** rng.integers(-7, 20, size=(n, 1))
        inst = so.ProblemInstance(a=a, b=rng.random(n), w=rng.standard_normal(n),
                                  x_star=[0.5], reg_mode="centered")
        self.check(inst, tmp_path)

        class Chunks(io.StringIO):
            sizes = []

            def writelines(self, chunks):
                for chunk in chunks:
                    self.sizes.append(len(chunk))
                    self.write(chunk)

        stream = Chunks()
        inst.save(stream)
        assert stream.getvalue() == writer_oracles.instance_json(inst)
        # A, b and w take 4 blocks each; an entry is at most 24 characters and ", "
        assert len(stream.sizes) > 12 and max(stream.sizes) <= 26 * _TEXT_BLOCK


# One call per integer count of the public API, each with the named count set to v.
COUNT_CALLS = {
    "num_pairs": lambda inst, v: so.lipschitz_probe(inst, 1.0, num_pairs=v, seed=0),
    "resolution": lambda inst, v: so.landscape_grid(inst, resolution=v),
    "iters": lambda inst, v: so.gradient_descent_baseline(inst, inst.x_star, 0.1, iters=v),
    "k": lambda inst, v: so.paired_vs_shuffled_bounds(0, k=v),
    "pool_size": lambda inst, v: so.paired_vs_shuffled_bounds(0, pool_size=v),
    "epochs": lambda inst, v: so.paired_vs_shuffled_bounds(0, epochs=v),
    "dim_anchor": lambda inst, v: so.paired_vs_shuffled_bounds(0, dim_anchor=v),
    "dim_partner": lambda inst, v: so.paired_vs_shuffled_bounds(0, dim_partner=v),
}


@pytest.mark.parametrize("value", [2.5, 3.0, True])
@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_non_integer_count_is_domain_error(name, value):
    inst, _ = so.generate_planted(so.GeneratorSpec(n=6, d=3, ridge_l=1.0, seed=0))
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value!r}$"):
        COUNT_CALLS[name](inst, value)


# One value per dataclass that holds arrays, each call a new object with new arrays.
ARRAY_DATACLASSES = {
    "KernelParts": lambda: so.KernelParts(
        c=np.ones(3), g=np.zeros(3), kappa=1.0, f=np.full(3, 1.0 / 3.0)
    ),
    "LandscapeGrid": lambda: so.LandscapeGrid(
        center=np.zeros(2), dir_u=np.eye(2)[0], dir_v=np.eye(2)[1],
        half_width=1.0, resolution=2, values=np.zeros((2, 2, 3)),
    ),
    "IterateRecord": lambda: so.newton.IterateRecord(
        t=0, x=np.zeros(2), loss=0.0, grad_norm=0.0, err_to_opt=None, step_seconds=0.0
    ),
    "SolveTrace": lambda: so.newton.SolveTrace(iterates=[ARRAY_DATACLASSES["IterateRecord"]()]),
    "LipschitzPair": lambda: so.verify.LipschitzPair(
        x=np.zeros(2), y=np.ones(2), dist=1.0, ratio=1.0
    ),
    "LipschitzProbe": lambda: so.verify.LipschitzProbe(
        pairs=[ARRAY_DATACLASSES["LipschitzPair"]()], max_ratio=1.0
    ),
}


@pytest.mark.parametrize("name", sorted(ARRAY_DATACLASSES))
def test_array_dataclasses_compare_by_identity(name):
    first, second = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
    assert first == first
    assert first != second


# The package's public names, submodules aside: a submodule becomes an attribute
# of the package once anything imports it, so that set depends on the process.
PUBLIC_NAMES = [
    "GeneratorSpec", "KernelParts", "LandscapeGrid", "LipschitzProbe", "LossBreakdown",
    "ModelState", "NceBatch", "ProblemInstance", "SolveTrace", "SolverConfig",
    "SpectralReport", "approx_hessian", "average_grids", "basin_start", "convergence_audit",
    "default_directions", "fd_gradient", "fd_hessian", "generate_planted", "grad_cent",
    "grad_exp", "grad_reg", "grad_total", "gradient_descent_baseline",
    "hessian_cent", "hessian_exp", "hessian_total",
    "landscape_grid", "lipschitz_probe", "loss_cent",
    "loss_exp", "loss_kernel_parts", "loss_reg", "loss_total", "make_state",
    "nce_gradients", "nce_loss", "newton_step", "paired_vs_shuffled_bounds",
    "psd_check", "rel_err", "sandwich_check", "solve",
    "total_kernel_parts",
]


def test_public_names_are_pinned():
    names = [
        name for name in dir(so)
        if not name.startswith("_") and not isinstance(getattr(so, name), types.ModuleType)
    ]
    assert names == PUBLIC_NAMES
