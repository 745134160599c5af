"""Tests for the neural-network functional ops (values + gradients)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor, default_dtype


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 5)))
        out = F.softmax(x, axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(3), rtol=1e-10)

    def test_softmax_is_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(1).standard_normal((2, 4)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), rtol=1e-10
        )

    def test_masked_softmax_zeroes_masked_positions(self):
        x = Tensor(np.ones((2, 4)))
        mask = np.array([[True, True, False, False], [True, False, False, False]])
        out = F.masked_softmax(x, mask).data
        assert np.all(out[:, 2:] == 0) or out[0, 2] == 0
        np.testing.assert_allclose(out[0, :2], [0.5, 0.5])
        np.testing.assert_allclose(out[1, 0], 1.0)

    def test_masked_softmax_sums_to_one_on_valid_rows(self):
        x = Tensor(np.random.default_rng(3).standard_normal((3, 5)))
        mask = np.ones((3, 5), dtype=bool)
        mask[1, 3:] = False
        out = F.masked_softmax(x, mask).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(3), rtol=1e-9)


class TestLosses:
    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert float(loss.data) < 1e-4

    def test_cross_entropy_uniform_prediction(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = F.cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert float(loss.data) == pytest.approx(np.log(3), rel=1e-6)

    def test_cross_entropy_requires_2d(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros(3)), np.array([0]))

    def test_cross_entropy_class_weights_change_loss(self):
        logits = Tensor(np.zeros((2, 2)))
        targets = np.array([0, 1])
        unweighted = float(F.cross_entropy(logits, targets).data)
        weighted = float(F.cross_entropy(logits, targets, weight=np.array([0.1, 1.0])).data)
        assert unweighted == pytest.approx(weighted, rel=1e-6)  # symmetric case
        skewed = float(
            F.cross_entropy(Tensor(np.array([[2.0, 0.0], [2.0, 0.0]])), targets,
                            weight=np.array([0.1, 1.0])).data
        )
        assert skewed > 0  # dominated by the mis-classified weighted class

    def test_cross_entropy_all_zero_weight_batch_is_zero_not_nan(self):
        # Regression: a batch of only NA samples with the NA class weighted to
        # zero used to divide by total_weight == 0, poisoning the loss and
        # every gradient with NaN.
        logits = Tensor(np.array([[2.0, -1.0], [0.5, 0.3]]), requires_grad=True)
        targets = np.array([0, 0])
        loss = F.cross_entropy(logits, targets, weight=np.array([0.0, 1.0]))
        assert float(loss.data) == 0.0
        loss.backward()
        np.testing.assert_array_equal(logits.grad, np.zeros_like(logits.data))

    def test_cross_entropy_partial_zero_weights_still_finite(self):
        logits = Tensor(np.array([[2.0, -1.0], [0.5, 0.3]]), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([0, 1]), weight=np.array([0.0, 1.0]))
        loss.backward()
        assert np.isfinite(float(loss.data))
        assert np.isfinite(logits.grad).all()
        # The zero-weight sample contributes neither loss nor gradient.
        np.testing.assert_array_equal(logits.grad[0], [0.0, 0.0])
        assert np.abs(logits.grad[1]).max() > 0

    def test_nll_loss_matches_cross_entropy(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.standard_normal((3, 4)))
        targets = np.array([1, 0, 3])
        ce = float(F.cross_entropy(logits, targets).data)
        nll = float(F.nll_loss(F.log_softmax(logits), targets).data)
        assert ce == pytest.approx(nll, rel=1e-8)

    def test_binary_cross_entropy_with_logits_matches_reference(self):
        logits = Tensor(np.array([0.0, 2.0, -2.0]))
        targets = np.array([1.0, 1.0, 0.0])
        expected = -(
            np.log(1 / (1 + np.exp(-0.0))) + np.log(1 / (1 + np.exp(-2.0))) + np.log(1 - 1 / (1 + np.exp(2.0)))
        ) / 3
        assert float(F.binary_cross_entropy_with_logits(logits, targets).data) == pytest.approx(
            expected, rel=1e-6
        )

    def test_mse_loss(self):
        pred = Tensor(np.array([1.0, 3.0]))
        assert float(F.mse_loss(pred, np.array([1.0, 1.0])).data) == pytest.approx(2.0)


class TestEmbeddingAndDropout:
    def test_embedding_lookup_shape_and_values(self):
        weight = Tensor(np.arange(12.0).reshape(4, 3))
        out = F.embedding_lookup(weight, np.array([[0, 3], [1, 1]]))
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.data[0, 1], [9.0, 10.0, 11.0])

    def test_embedding_gradient_accumulates_repeated_indices(self):
        weight = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = F.embedding_lookup(weight, np.array([1, 1, 2]))
        out.sum().backward()
        np.testing.assert_allclose(weight.grad, [[0, 0], [2, 2], [1, 1]])

    def test_gather_rows_values_and_shapes(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        out = F.gather_rows(x, np.array([[3, 0], [1, 1]]))
        assert out.shape == (2, 2, 2)
        np.testing.assert_allclose(out.data[0, 0], [6.0, 7.0])
        # 1-D sources (e.g. attention score vectors) are supported too.
        scores = Tensor(np.array([10.0, 20.0, 30.0]))
        np.testing.assert_allclose(F.gather_rows(scores, np.array([[2, 0]])).data, [[30.0, 10.0]])

    def test_gather_rows_gradient_accumulates_duplicates(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = F.gather_rows(x, np.array([[1, 1], [2, 0]]))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[1, 1], [2, 2], [1, 1]])

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((5, 5)))
        out = F.dropout(x, p=0.5, training=False)
        assert out is x

    def test_dropout_training_scales_survivors(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 10)))
        out = F.dropout(x, p=0.5, training=True, rng=rng).data
        assert set(np.round(np.unique(out), 6)).issubset({0.0, 2.0})
        assert out.mean() == pytest.approx(1.0, abs=0.1)

    def test_dropout_rejects_p_one(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), p=1.0, training=True)

    def test_dropout_preserves_float32(self):
        # The mask must be built in the input dtype — a float64 mask would
        # silently promote every activation on the float32 serve path.
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((16, 8), dtype=np.float32))
        out = F.dropout(x, p=0.5, training=True, rng=rng)
        assert out.data.dtype == np.float32

    def test_dropout_mask_pattern_matches_across_dtypes(self):
        # Fast-training parity: from the same generator state, a float32
        # forward must keep/drop exactly the same units as the float64
        # reference — the uniform draw happens in float64 either way.
        expected = np.random.default_rng(11).random((64, 8)) >= 0.5
        f32 = F.dropout(
            Tensor(np.ones((64, 8), dtype=np.float32)),
            p=0.5, training=True, rng=np.random.default_rng(11),
        ).data
        f64 = F.dropout(
            Tensor(np.ones((64, 8))),
            p=0.5, training=True, rng=np.random.default_rng(11),
        ).data
        np.testing.assert_array_equal(f32 != 0.0, expected)
        np.testing.assert_array_equal(f64 != 0.0, expected)

    def test_dropout_float64_rng_stream_unchanged(self):
        # The float64 path must keep drawing doubles from the generator so
        # masks (and everything sampled after them) stay bit-identical to
        # earlier releases.
        x = Tensor(np.ones((4, 3)))
        out = F.dropout(x, p=0.5, training=True, rng=np.random.default_rng(7)).data
        expected_mask = (np.random.default_rng(7).random((4, 3)) >= 0.5) / 0.5
        np.testing.assert_array_equal(out, expected_mask)


class TestConvolutionAndPooling:
    def test_conv1d_output_shape(self):
        x = Tensor(np.zeros((2, 10, 4)))
        w = Tensor(np.zeros((6, 3, 4)))
        out = F.conv1d(x, w, padding=1)
        assert out.shape == (2, 10, 6)

    def test_conv1d_no_padding_shrinks_length(self):
        out = F.conv1d(Tensor(np.zeros((1, 5, 2))), Tensor(np.zeros((3, 3, 2))))
        assert out.shape == (1, 3, 3)

    def test_conv1d_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((1, 5, 2))), Tensor(np.zeros((3, 3, 4))))

    def test_conv1d_rejects_too_short_sequence(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((3, 5, 2))))

    def test_conv1d_matches_manual_computation(self):
        x = Tensor(np.arange(8.0).reshape(1, 4, 2))
        w = Tensor(np.ones((1, 2, 2)))
        out = F.conv1d(x, w)
        expected = [[0 + 1 + 2 + 3], [2 + 3 + 4 + 5], [4 + 5 + 6 + 7]]
        np.testing.assert_allclose(out.data[0], expected)

    def test_max_pool_sequence_respects_mask(self):
        x = np.zeros((1, 3, 2))
        x[0, 2] = 100.0  # masked position should be ignored
        x[0, 1] = 1.0
        mask = np.array([[True, True, False]])
        out = F.max_pool_sequence(Tensor(x), mask=mask)
        np.testing.assert_allclose(out.data, [[1.0, 1.0]])

    def test_piecewise_max_pool_output_dim(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 6, 4)))
        segments = np.array([[0, 0, 1, 1, 2, 2], [0, 1, 1, 2, -1, -1]])
        out = F.piecewise_max_pool(x, segments)
        assert out.shape == (2, 12)

    def test_piecewise_max_pool_empty_segment_is_zero(self):
        x = Tensor(np.ones((1, 3, 2)))
        segments = np.array([[0, 0, 1]])  # segment 2 empty
        out = F.piecewise_max_pool(x, segments).data
        np.testing.assert_allclose(out[0, 4:], [0.0, 0.0])

    def test_piecewise_max_pool_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            F.piecewise_max_pool(Tensor(np.ones((1, 3, 2))), np.zeros((2, 3), dtype=int))


class TestAttentionHelpers:
    def test_selective_attention_scores_shape(self):
        reprs = Tensor(np.random.default_rng(0).standard_normal((4, 6)))
        query = Tensor(np.ones(6))
        diag = Tensor(np.ones(6))
        scores = F.selective_attention_scores(reprs, query, diag)
        assert scores.shape == (4,)

    def test_bag_attention_pool_is_convex_combination(self):
        reprs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        scores = Tensor(np.array([0.0, 0.0]))
        pooled = F.bag_attention_pool(reprs, scores).data
        np.testing.assert_allclose(pooled, [0.5, 0.5])

    def test_average_pool(self):
        reprs = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(F.average_pool(reprs).data, [1.0, 1.0])

    def test_l2_normalize_unit_norm(self):
        x = Tensor(np.array([[3.0, 4.0]]))
        normed = F.l2_normalize(x).data
        assert np.linalg.norm(normed) == pytest.approx(1.0, rel=1e-6)


class TestPropertyBased:
    @given(st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_are_distributions(self, rows, cols):
        rng = np.random.default_rng(rows * 7 + cols)
        out = F.softmax(Tensor(rng.standard_normal((rows, cols))), axis=-1).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(rows), rtol=1e-8)

    @given(st.integers(1, 5), st.integers(2, 5), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_piecewise_pool_upper_bounded_by_global_max(self, batch, length, channels):
        rng = np.random.default_rng(batch * 100 + length * 10 + channels)
        x = rng.standard_normal((batch, length, channels))
        segments = rng.integers(0, 3, size=(batch, length))
        pooled = F.piecewise_max_pool(Tensor(x), segments).data
        # Every pooled value is either a real maximum of its segment (bounded
        # by the per-sentence global max) or 0 for an empty segment.
        per_sentence_bound = np.maximum(x.max(axis=(1, 2)), 0.0)
        assert np.all(pooled.max(axis=1) <= per_sentence_bound + 1e-12)


# ---------------------------------------------------------------------- #
# Op x dtype table: every op the batched train/serve paths use, checked
# once for float64 gradients and once for float32 forward values.
# ---------------------------------------------------------------------- #
# Each entry builds ``(inputs, fn)`` from a generator: ``inputs`` are the
# float64 arrays the op differentiates with respect to, ``fn`` maps Tensors
# over them to the op's output.  Integer arguments (indices, targets,
# segment ids) are closed over, so both dtype checks see the same call.
def _conv1d_case(rng):
    x = rng.standard_normal((2, 5, 3))
    w = rng.standard_normal((4, 3, 3)) * 0.5
    b = rng.standard_normal(4)
    return [x, w, b], lambda x, w, b: F.conv1d(x, w, b, padding=1)


def _piecewise_max_pool_case(rng):
    segments = np.array([[0, 0, 1, 1, 2, 2], [0, 1, 1, -1, -1, -1]])
    return [rng.standard_normal((2, 6, 3))], lambda x: F.piecewise_max_pool(x, segments)


def _max_pool_sequence_case(rng):
    mask = np.array([[True, True, True, False], [True, False, False, False]])
    return [rng.standard_normal((2, 4, 3))], lambda x: F.max_pool_sequence(x, mask=mask)


def _gather_rows_case(rng):
    indices = np.array([[0, 2, 2], [3, 1, 0]])  # duplicates accumulate
    # Squared, so the upstream gradient reaching the scatter-add depends on x.
    return [rng.standard_normal((4, 3))], lambda x: (
        F.gather_rows(x, indices) * F.gather_rows(x, indices)
    )


def _softmax_case(rng):
    return [rng.standard_normal((2, 4))], lambda x: F.softmax(x, axis=-1)


def _cross_entropy_case(rng):
    targets = np.array([0, 2, 4, 1])
    weight = np.array([0.25, 1.0, 1.0, 1.0, 0.5])
    return [rng.standard_normal((4, 5))], lambda x: F.cross_entropy(x, targets, weight=weight)


def _matmul_case(rng):
    return [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))], lambda a, b: a @ b


def _masked_softmax_case(rng):
    # The last row is fully masked: it must pool to zeros with zero gradient.
    mask = np.array([[True, True, False, True], [True, False, False, False], [False] * 4])
    return [rng.standard_normal((3, 4))], lambda x: F.masked_softmax(x, mask, axis=-1)


def _log_softmax_case(rng):
    return [rng.standard_normal((2, 4))], lambda x: F.log_softmax(x, axis=-1)


def _nll_loss_case(rng):
    targets = np.array([1, 0, 3])
    return [rng.standard_normal((3, 4))], lambda x: F.nll_loss(F.log_softmax(x), targets)


def _embedding_lookup_case(rng):
    indices = np.array([[0, 2, 2], [3, 1, 0]])  # duplicates accumulate
    # Squared, so the upstream gradient reaching the scatter-add depends on x.
    return [rng.standard_normal((4, 3))], lambda w: (
        F.embedding_lookup(w, indices) * F.embedding_lookup(w, indices)
    )


def _segment_mean_case(rng):
    offsets = np.array([0, 1, 4, 6])  # ragged segments of 1, 3 and 2 rows
    return [rng.standard_normal((6, 3))], lambda x: F.segment_mean(x, offsets)


def _weighted_softmax_sum_case(rng):
    # Scalar weights broadcast, as the confidence combiner's alpha/beta/gamma.
    arrays = [rng.standard_normal((3, 4)) for _ in range(3)] + [
        rng.standard_normal(1) for _ in range(3)
    ]
    return arrays, lambda a, b, c, wa, wb, wc: F.weighted_softmax_sum([a, b, c], [wa, wb, wc])


def _linear_case(rng):
    # A 3-D input, as word attention projects (sentences, length, hidden).
    return [rng.standard_normal((2, 3, 4)), rng.standard_normal((5, 4)), rng.standard_normal(5)], (
        lambda x, w, b: F.linear(x, w, b)
    )


def _concat_embedding_lookup_case(rng):
    words = np.array([[0, 2, 2], [3, 1, 0]])
    positions = np.array([[1, 0, 1], [0, 0, 1]])
    keep = np.array([[True, True, False], [True, True, True]])
    # Squared, so the upstream gradient reaching the scatter-adds depends on
    # the tables; the last column of row 0 embeds to zero.
    return [rng.standard_normal((4, 3)), rng.standard_normal((2, 2))], lambda w, p: (
        F.concat_embedding_lookup([w, p], [words, positions], keep=keep)
        * F.concat_embedding_lookup([w, p], [words, positions], keep=keep)
    )


OP_CASES = {
    "conv1d": _conv1d_case,
    "piecewise_max_pool": _piecewise_max_pool_case,
    "max_pool_sequence": _max_pool_sequence_case,
    "gather_rows": _gather_rows_case,
    "softmax": _softmax_case,
    "cross_entropy": _cross_entropy_case,
    "matmul": _matmul_case,
    "masked_softmax": _masked_softmax_case,
    "log_softmax": _log_softmax_case,
    "nll_loss": _nll_loss_case,
    "embedding_lookup": _embedding_lookup_case,
    "segment_mean": _segment_mean_case,
    "weighted_softmax_sum": _weighted_softmax_sum_case,
    "linear": _linear_case,
    "concat_embedding_lookup": _concat_embedding_lookup_case,
}

#: float32 forward vs float64 forward, elementwise: float32 carries ~7
#: significant digits and these ops sum at most a few dozen products.
FLOAT32_RTOL = 1e-5
FLOAT32_ATOL = 1e-6


@pytest.mark.parametrize("op", sorted(OP_CASES))
class TestOpDtypeTable:
    def test_float64_gradcheck(self, op, gradcheck):
        rng = np.random.default_rng(sorted(OP_CASES).index(op))
        arrays, fn = OP_CASES[op](rng)
        tensors = [Tensor(array, requires_grad=True) for array in arrays]
        coefficients = rng.standard_normal(fn(*tensors).shape)

        def loss():
            for tensor in tensors:
                tensor.grad = None
            return (fn(*tensors) * Tensor(coefficients)).sum()

        loss().backward()
        analytic = [tensor.grad.copy() for tensor in tensors]
        for tensor, grad in zip(tensors, analytic):
            numeric = gradcheck(lambda: float(loss().data), tensor.data)
            np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-8)

    def test_float32_forward_matches_float64(self, op):
        rng = np.random.default_rng(sorted(OP_CASES).index(op))
        arrays, fn = OP_CASES[op](rng)
        reference = fn(*[Tensor(array) for array in arrays]).data
        with default_dtype(np.float32):
            out = fn(*[Tensor(array.astype(np.float32)) for array in arrays]).data
        # No silent upcast: a float32 graph must stay float32.
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, reference, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
