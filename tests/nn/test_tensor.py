"""Tests for the autograd Tensor: forward values, gradients and shape ops."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import (
    Tensor,
    concatenate,
    no_grad,
    ones,
    stack,
    tensor,
    where,
    zeros,
)


class TestTensorBasics:
    def test_creation_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype.kind == "f"

    def test_creation_preserves_float_array(self):
        data = np.arange(6, dtype=np.float64).reshape(2, 3)
        t = Tensor(data)
        assert t.shape == (2, 3)
        assert t.data is data  # float arrays are wrapped, not copied

    def test_int_array_is_converted_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "f"

    def test_detach_shares_data_but_not_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_item_returns_scalar(self):
        assert tensor([3.5]).item() == pytest.approx(3.5)

    def test_zeros_and_ones_helpers(self):
        assert np.all(zeros((2, 2)).data == 0)
        assert np.all(ones(3).data == 1)

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4


class TestArithmetic:
    def test_add_values(self):
        result = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(result.data, [4.0, 6.0])

    def test_add_scalar(self):
        result = Tensor([1.0, 2.0]) + 1.0
        np.testing.assert_allclose(result.data, [2.0, 3.0])

    def test_radd(self):
        result = 1.0 + Tensor([1.0, 2.0])
        np.testing.assert_allclose(result.data, [2.0, 3.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0]) * Tensor([4.0])).data, [8.0])
        np.testing.assert_allclose((Tensor([8.0]) / 2.0).data, [4.0])
        np.testing.assert_allclose((8.0 / Tensor([2.0])).data, [4.0])

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])  # type: ignore[operator]

    def test_add_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_div_gradients(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_broadcast_add_gradient_shapes(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, [3.0] * 4)

    def test_broadcast_keepdim_gradient(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((3, 1)), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full((3, 1), 4.0))

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_neg_gradient(self):
        a = Tensor([2.0], requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0])


class TestUnaryOps:
    def test_exp_log_roundtrip(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_allclose(a.exp().log().data, a.data, rtol=1e-10)

    def test_tanh_range(self):
        values = Tensor(np.linspace(-5, 5, 11)).tanh().data
        assert np.all(values > -1) and np.all(values < 1)

    def test_sigmoid_at_zero(self):
        assert Tensor([0.0]).sigmoid().data[0] == pytest.approx(0.5)

    def test_relu_zeroes_negatives(self):
        np.testing.assert_allclose(Tensor([-1.0, 2.0]).relu().data, [0.0, 2.0])

    def test_relu_gradient_masked(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])

    def test_abs_gradient_is_sign(self):
        a = Tensor([-3.0, 2.0], requires_grad=True)
        a.abs().sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, 1.0])

    def test_clip_gradient_masked(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_sqrt(self):
        np.testing.assert_allclose(Tensor([4.0]).sqrt().data, [2.0])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert a.sum(axis=0).shape == (3,)
        assert a.sum(axis=0, keepdims=True).shape == (1, 3)

    def test_mean_value(self):
        assert Tensor([1.0, 2.0, 3.0]).mean().item() == pytest.approx(2.0)

    def test_mean_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 1.0 / 6))

    def test_max_gradient_splits_ties(self):
        a = Tensor([2.0, 2.0, 1.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5, 0.0])

    def test_max_axis(self):
        a = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_allclose(a.max(axis=1).data, [5.0, 3.0])

    def test_min(self):
        a = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_allclose(a.min(axis=1).data, [1.0, 2.0])

    def test_reshape_gradient(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)

    def test_transpose_gradient(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        coefficients = np.arange(6.0).reshape(3, 2)
        (a.T * Tensor(coefficients)).sum().backward()
        np.testing.assert_allclose(a.grad, coefficients.T)

    def test_getitem_gradient(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a[0].sum().backward()
        np.testing.assert_allclose(a.grad, [[1, 1, 1], [0, 0, 0]])

    def test_expand_and_squeeze(self):
        a = Tensor(np.ones(3), requires_grad=True)
        expanded = a.expand_dims(0)
        assert expanded.shape == (1, 3)
        assert expanded.squeeze(0).shape == (3,)

    def test_flatten(self):
        assert Tensor(np.ones((2, 3))).flatten().shape == (6,)


class TestMatmul:
    def test_matrix_matrix(self):
        a = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 2)

    def test_vector_matrix(self):
        v = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        m = Tensor(np.ones((2, 3)), requires_grad=True)
        out = v @ m
        assert out.shape == (3,)
        out.sum().backward()
        np.testing.assert_allclose(v.grad, [3.0, 3.0])
        np.testing.assert_allclose(m.grad, [[1.0] * 3, [2.0] * 3])

    def test_matrix_vector(self):
        m = Tensor(np.ones((2, 3)), requires_grad=True)
        v = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        out = m @ v
        assert out.shape == (2,)
        out.sum().backward()
        np.testing.assert_allclose(v.grad, [2.0, 2.0, 2.0])

    def test_vector_vector_dot(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (a @ b).backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_matmul_numeric_gradient(self, gradcheck):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        coefficients = rng.standard_normal((3, 2))

        def loss():
            a.grad = None
            b.grad = None
            return ((a @ b) * Tensor(coefficients)).sum()

        loss().backward()
        analytic = a.grad.copy()
        numeric = gradcheck(lambda: float(loss().data), a.data)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


class TestBackwardAPI:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_argument(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_rejects_wrong_grad_shape(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            t.backward(np.ones(3))

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        t.sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2.0
        c = a * 3.0
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])


class TestCombinators:
    def test_concatenate_values_and_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)

    def test_stack_gradients(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_where_selects_and_routes_gradient(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([10.0, 20.0]), requires_grad=True)
        condition = np.array([True, False])
        out = where(condition, a, b)
        np.testing.assert_allclose(out.data, [1.0, 20.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


class TestPropertyBased:
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_addition_commutes(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = Tensor(xs[:n]), Tensor(ys[:n])
        np.testing.assert_allclose((a + b).data, (b + a).data)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_sum_matches_numpy(self, xs):
        np.testing.assert_allclose(Tensor(xs).sum().data, np.sum(np.asarray(xs)), rtol=1e-9, atol=1e-9)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_elementwise_gradient_matches_numeric(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        a = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
        coefficients = rng.standard_normal((rows, cols))

        def loss():
            a.grad = None
            return ((a * Tensor(coefficients)).tanh()).sum()

        loss().backward()
        analytic = a.grad.copy()
        from tests.conftest import numeric_gradient

        numeric = numeric_gradient(lambda: float(loss().data), a.data)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


class TestNoGrad:
    def test_tensors_made_inside_hold_no_parents(self):
        w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        with no_grad():
            out = (w * w).tanh().sum()
            merged = concatenate([w, w * 2.0])
        for t in (out, merged):
            assert t._parents == () and t._backward is None
            assert not t.requires_grad
        np.testing.assert_allclose(out.data, np.tanh(w.data * w.data).sum())
        with pytest.raises(RuntimeError):
            out.backward()

    def test_scope_nests_and_restores(self):
        w = Tensor([2.0], requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert (w * 1.0)._parents == ()
        y = (w * w).sum()
        y.backward()
        np.testing.assert_allclose(w.grad, [4.0])

    def test_scope_in_one_thread_keeps_gradients_in_another(self):
        entered, done = threading.Event(), threading.Event()
        inside = {}

        def serve():
            w = Tensor([1.0, 2.0], requires_grad=True)
            with no_grad():
                entered.set()
                done.wait(timeout=10)
                inside["parents"] = (w * w)._parents

        server = threading.Thread(target=serve)
        server.start()
        try:
            assert entered.wait(timeout=10)
            # The other thread is inside its scope: training here still works.
            w = Tensor([1.0, -3.0], requires_grad=True)
            loss = (w * w).sum()
            assert loss._parents != ()
            loss.backward()
            np.testing.assert_allclose(w.grad, [2.0, -6.0])
        finally:
            done.set()
            server.join(timeout=10)
        assert inside["parents"] == ()


class TestDefaultDtype:
    def test_set_default_dtype_rejects_non_float(self):
        from repro.exceptions import ConfigurationError
        from repro.nn.tensor import set_default_dtype

        with pytest.raises(ConfigurationError):
            set_default_dtype(np.int64)
        with pytest.raises(ConfigurationError):
            set_default_dtype("int32")

    def test_default_dtype_context_manager(self):
        from repro.nn.tensor import default_dtype, get_default_dtype

        before = get_default_dtype()
        with default_dtype(np.float32):
            assert np.dtype(get_default_dtype()) == np.float32
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
        assert get_default_dtype() == before
        assert Tensor([1.0, 2.0]).data.dtype == np.dtype(before)

    def test_default_dtype_restores_on_error(self):
        from repro.nn.tensor import default_dtype, get_default_dtype

        before = get_default_dtype()
        with pytest.raises(RuntimeError):
            with default_dtype(np.float32):
                raise RuntimeError("boom")
        assert get_default_dtype() == before
